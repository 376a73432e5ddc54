#include "grid/torus.hpp"

namespace dynamo::grid {

const char* to_string(Topology t) noexcept {
    switch (t) {
        case Topology::ToroidalMesh: return "toroidal-mesh";
        case Topology::TorusCordalis: return "torus-cordalis";
        case Topology::TorusSerpentinus: return "torus-serpentinus";
    }
    return "unknown";
}

Topology topology_from_string(const std::string& name) {
    if (name == "mesh" || name == "toroidal-mesh") return Topology::ToroidalMesh;
    if (name == "cordalis" || name == "torus-cordalis") return Topology::TorusCordalis;
    if (name == "serpentinus" || name == "torus-serpentinus") return Topology::TorusSerpentinus;
    DYNAMO_REQUIRE(false, "unknown topology '" + name + "' (mesh|cordalis|serpentinus)");
    return {};
}

Coord Torus::neighbor_coord(Topology t, std::uint32_t m, std::uint32_t n, Coord c,
                            Direction d) noexcept {
    const auto [i, j] = c;
    switch (d) {
        case Direction::Up:
            if (t == Topology::TorusSerpentinus && i == 0) {
                // Inverse of the serpentine down-link (m-1, j) -> (0, (j-1) mod n):
                // ascending from row 0 of column j lands on row m-1 of column j+1.
                return Coord{m - 1, inc_mod(j, n)};
            }
            return Coord{dec_mod(i, m), j};
        case Direction::Down:
            if (t == Topology::TorusSerpentinus && i == m - 1) {
                // "the last vertex v(m-1,j) of each column j is connected to the
                //  first vertex v(0, (j-1) mod n) of column j-1"
                return Coord{0, dec_mod(j, n)};
            }
            return Coord{inc_mod(i, m), j};
        case Direction::Left:
            if (t != Topology::ToroidalMesh && j == 0) {
                // Inverse of the cordalis right-link (i, n-1) -> ((i+1) mod m, 0).
                return Coord{dec_mod(i, m), n - 1};
            }
            return Coord{i, dec_mod(j, n)};
        case Direction::Right:
            if (t != Topology::ToroidalMesh && j == n - 1) {
                // "the last vertex v(i, n-1) of each row is connected to the
                //  first vertex v((i+1) mod m, 0) of row i+1"
                return Coord{inc_mod(i, m), 0};
            }
            return Coord{i, inc_mod(j, n)};
    }
    return c;  // unreachable
}

Torus::Torus(Topology topology, std::uint32_t rows, std::uint32_t cols)
    : topology_(topology), rows_(rows), cols_(cols) {
    DYNAMO_REQUIRE(rows >= 2 && cols >= 2,
                   "torus requires m, n >= 2 (got " + std::to_string(rows) + "x" +
                       std::to_string(cols) + ")");
    DYNAMO_REQUIRE(static_cast<std::uint64_t>(rows) * cols <= (1ULL << 31),
                   "torus too large for 32-bit vertex ids");
    table_.resize(size() * kDegree);
    for (std::uint32_t i = 0; i < rows_; ++i) {
        for (std::uint32_t j = 0; j < cols_; ++j) {
            const VertexId v = index(i, j);
            for (std::size_t d = 0; d < kDegree; ++d) {
                const Coord nc = neighbor_coord(topology_, rows_, cols_, Coord{i, j},
                                                static_cast<Direction>(d));
                table_[static_cast<std::size_t>(v) * kDegree + d] = index(nc);
            }
        }
    }
}

} // namespace dynamo::grid
