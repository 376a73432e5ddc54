// dynamo/grid/torus.hpp
//
// The three 4-regular interaction topologies of the paper (Section II.A):
//
//   * Toroidal mesh   - Definition 1: vertex v(i,j) is adjacent to
//                       v((i±1) mod m, j) and v(i, (j±1) mod n).
//   * Torus cordalis  - like the toroidal mesh except the last vertex
//                       v(i, n-1) of each row connects to the first vertex
//                       v((i+1) mod m, 0) of the next row: the horizontal
//                       links form a single row-spiral Hamiltonian cycle
//                       (the chordal ring C(mn; n)).
//   * Torus serpentinus - like the torus cordalis except the last vertex
//                       v(m-1, j) of each column connects to the first
//                       vertex v(0, (j-1) mod n) of column j-1: the vertical
//                       links also form a single Hamiltonian cycle,
//                       descending through columns.
//
// Every vertex has exactly 4 neighbor *slots* (Up, Down, Left, Right). For
// degenerate sizes (m = 2 or n = 2) two slots may reference the same vertex;
// the SMP rule counts colors per slot, matching the paper's |N(x)| = 4.
//
// Adjacency is computed, never stored: a Torus is (topology, m, n), and
// neighbor_coord below states the wrap rules once.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <type_traits>

#include "util/assert.hpp"

namespace dynamo::grid {

using VertexId = std::uint32_t;

enum class Topology : std::uint8_t {
    ToroidalMesh,
    TorusCordalis,
    TorusSerpentinus,
};

/// Neighbor slot order. The SMP rule is slot-order independent, but traces,
/// tests and renderers rely on a fixed convention.
enum class Direction : std::uint8_t { Up = 0, Down = 1, Left = 2, Right = 3 };

inline constexpr std::size_t kDegree = 4;

/// Wrap-around decrement / increment modulo `mod` (branch, no division).
/// Shared by the neighbor formulas below and by the sim sweep kernels,
/// which turn them into whole-row pointer offsets.
constexpr std::uint32_t dec_mod(std::uint32_t x, std::uint32_t mod) noexcept {
    return x == 0 ? mod - 1 : x - 1;
}
constexpr std::uint32_t inc_mod(std::uint32_t x, std::uint32_t mod) noexcept {
    return x + 1 == mod ? 0 : x + 1;
}

const char* to_string(Topology t) noexcept;

/// Parse "mesh" / "cordalis" / "serpentinus" (as used by bench CLIs).
Topology topology_from_string(const std::string& name);

struct Coord {
    std::uint32_t i = 0;  ///< row, 0 <= i < rows
    std::uint32_t j = 0;  ///< column, 0 <= j < cols

    friend bool operator==(const Coord&, const Coord&) = default;
};

/// An m x n torus of one of the three paper topologies: three scalars,
/// trivially copyable, with adjacency computed from the paper's wrap rules
/// on demand.
class Torus {
  public:
    /// Requires m, n >= 2 (the paper's standing assumption).
    Torus(Topology topology, std::uint32_t rows, std::uint32_t cols);

    Topology topology() const noexcept { return topology_; }
    std::uint32_t rows() const noexcept { return rows_; }
    std::uint32_t cols() const noexcept { return cols_; }
    std::size_t size() const noexcept { return static_cast<std::size_t>(rows_) * cols_; }

    VertexId index(std::uint32_t i, std::uint32_t j) const noexcept {
        DYNAMO_ASSERT(i < rows_ && j < cols_, "coordinate out of range");
        return i * cols_ + j;
    }
    VertexId index(Coord c) const noexcept { return index(c.i, c.j); }

    Coord coord(VertexId v) const noexcept {
        DYNAMO_ASSERT(v < size(), "vertex id out of range");
        return Coord{v / cols_, v % cols_};
    }

    /// The paper's adjacency (Section II.A): neighbor d of c on an m x n
    /// torus of topology t. The only per-cell definition in the code base.
    static constexpr Coord neighbor_coord(Topology t, std::uint32_t m, std::uint32_t n, Coord c,
                                          Direction d) noexcept {
        const auto [i, j] = c;
        const bool spiral_rows = t != Topology::ToroidalMesh;
        const bool spiral_cols = t == Topology::TorusSerpentinus;
        switch (d) {
            case Direction::Up:
                // Inverse of the serpentine down-link below.
                if (spiral_cols && i == 0) return {m - 1, inc_mod(j, n)};
                return {dec_mod(i, m), j};
            case Direction::Down:
                // "the last vertex v(m-1,j) of each column j is connected to the
                //  first vertex v(0, (j-1) mod n) of column j-1"
                if (spiral_cols && i == m - 1) return {0, dec_mod(j, n)};
                return {inc_mod(i, m), j};
            case Direction::Left:
                // Inverse of the cordalis right-link below.
                if (spiral_rows && j == 0) return {dec_mod(i, m), n - 1};
                return {i, dec_mod(j, n)};
            case Direction::Right:
                // "the last vertex v(i, n-1) of each row is connected to the
                //  first vertex v((i+1) mod m, 0) of row i+1"
                if (spiral_rows && j == n - 1) return {inc_mod(i, m), 0};
                return {i, inc_mod(j, n)};
        }
        return c;  // unreachable
    }

    /// Neighbor d of c on this torus, as a coordinate (no division).
    Coord neighbor(Coord c, Direction d) const noexcept {
        return neighbor_coord(topology_, rows_, cols_, c, d);
    }

    /// The 4 neighbor slots of c in Up, Down, Left, Right order. Callers
    /// that know (i, j) use this form and skip the division of coord().
    std::array<VertexId, kDegree> neighbors(Coord c) const noexcept {
        return {index(neighbor(c, Direction::Up)), index(neighbor(c, Direction::Down)),
                index(neighbor(c, Direction::Left)), index(neighbor(c, Direction::Right))};
    }
    std::array<VertexId, kDegree> neighbors(VertexId v) const noexcept {
        return neighbors(coord(v));
    }

    VertexId neighbor(VertexId v, Direction d) const noexcept {
        return index(neighbor(coord(v), d));
    }

  private:
    Topology topology_;
    std::uint32_t rows_;
    std::uint32_t cols_;
};

// A torus is its three scalars: engines copy it freely and a 2^30-cell
// torus costs its field, not a 16 GiB table.
static_assert(sizeof(Torus) <= 12 && std::is_trivially_copyable_v<Torus>);

} // namespace dynamo::grid
