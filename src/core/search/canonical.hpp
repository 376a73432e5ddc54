// dynamo/core/search/canonical.hpp
//
// Symmetry quotienting for the exhaustive dynamo search. Two group actions
// leave dynamo-ness of a configuration invariant, so each orbit needs only
// one simulation:
//
//   * Vertex symmetries: any automorphism of the torus. Candidates are the
//     maps (i,j) -> pointop(i,j) + (a,b): all row/column translations
//     composed with the axis reflections (and the axis swap when m = n);
//     each candidate is kept only if it preserves the neighbor structure
//     of the *actual* topology, verified against Torus::neighbors. The
//     toroidal mesh keeps all of them (order 4mn, 8n^2 when square); the
//     cordalis/serpentinus spirals break most - whatever survives the
//     automorphism filter is exactly the sound subgroup, computed rather
//     than assumed. The filtered set is a group (the intersection of the
//     candidate group with Aut(T)), so orbit sizes divide its order.
//
//   * Color relabeling of NON-SEED colors only: the SMP rule is
//     equivariant under any permutation of {1..|C|} (tested in
//     tests/test_properties.cpp), but the search fixes the seed color
//     k = 1 (by that same symmetry, w.l.o.g.), so only permutations of
//     the complement palette {2..|C|} map candidates to equivalent
//     candidates with the same seed set. The canonical representative is
//     the relabeling whose colors first occur in increasing order -
//     enumerated directly as restricted-growth strings, never generated
//     and rejected.
//
// A candidate (seed set, coloring) is canonical iff the seed set is the
// lexicographic minimum of its vertex orbit AND the coloring is the
// lexicographic minimum over the seed set's stabilizer composed with
// first-occurrence relabeling. Each full orbit is enumerated exactly once,
// and its size (the number of raw configurations it represents) is exact
// via orbit-stabilizer, which is how SearchOutcome::covered and the
// reduction factor are computed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/coloring.hpp"
#include "grid/torus.hpp"

namespace dynamo {

/// The automorphism-filtered vertex-symmetry group of a torus. Element 0
/// is always the identity. Immutable after construction; cheap to share
/// by reference across shard workers.
class SymmetryGroup {
  public:
    explicit SymmetryGroup(const grid::Torus& torus);

    std::size_t order() const noexcept { return perms_.size(); }

    /// Image of vertex v under element g.
    grid::VertexId map_vertex(std::size_t g, grid::VertexId v) const noexcept {
        DYNAMO_ASSERT(g < perms_.size(), "group element out of range");
        return perms_[g][v];
    }

    /// Image field of element g: out[g(v)] = in[v]. `out` is resized.
    void map_field(std::size_t g, const ColorField& in, ColorField& out) const;

    /// Image of a sorted vertex set under g, sorted. `out` is resized.
    void map_sorted_set(std::size_t g, const std::vector<grid::VertexId>& vertices,
                        std::vector<grid::VertexId>& out) const;

    /// True iff `sorted_seeds` is the lexicographic minimum of its orbit.
    bool is_canonical_seed_set(const std::vector<grid::VertexId>& sorted_seeds) const;

    /// Elements fixing `sorted_seeds` setwise (always contains 0).
    std::vector<std::size_t> set_stabilizer(const std::vector<grid::VertexId>& sorted_seeds) const;

  private:
    std::vector<std::vector<grid::VertexId>> perms_;  // perms_[g][v] = g(v)
};

/// First-occurrence relabeling of the non-seed colors (values >= 2) of a
/// complete field, scanning vertices in ascending id; color 1 is fixed.
/// Idempotent; the canonical form under color relabeling alone.
void relabel_non_seed_colors(ColorField& field);

/// Restricted-growth odometer over the complement coloring of a seed set:
/// digit idx in [0, min(base - 1, 1 + max(earlier digits))], where color =
/// 2 + digit. Enumerates exactly the fields relabel_non_seed_colors leaves
/// unchanged, in lexicographic digit order starting from all-zero.
class RgOdometer {
  public:
    RgOdometer(std::size_t digits, std::uint8_t base)
        : digit_(digits, 0), prefix_max_(digits, 0), base_(base) {
        DYNAMO_REQUIRE(base >= 1, "palette needs at least one non-seed color");
    }

    const std::vector<std::uint8_t>& digits() const noexcept { return digit_; }

    /// Advance to the next restricted-growth string; false after the last.
    bool next() noexcept {
        for (std::size_t i = digit_.size(); i-- > 0;) {
            const std::uint8_t cap =
                i == 0 ? 0
                       : std::min<std::uint8_t>(
                             static_cast<std::uint8_t>(base_ - 1),
                             static_cast<std::uint8_t>(prefix_max_[i - 1] + 1));
            if (digit_[i] < cap) {
                ++digit_[i];
                prefix_max_[i] = std::max(i == 0 ? std::uint8_t{0} : prefix_max_[i - 1], digit_[i]);
                for (std::size_t j = i + 1; j < digit_.size(); ++j) {
                    digit_[j] = 0;
                    prefix_max_[j] = prefix_max_[j - 1];
                }
                return true;
            }
        }
        return false;
    }

  private:
    std::vector<std::uint8_t> digit_;
    std::vector<std::uint8_t> prefix_max_;
    std::uint8_t base_;
};

/// Canonicality + orbit data of one relabel-canonical coloring w.r.t. the
/// stabilizer of its (canonical) seed set.
struct ColoringOrbit {
    bool canonical = false;        ///< lex-min among stabilizer images
    std::uint64_t orbit_size = 0;  ///< raw configurations it represents (0 if not canonical)
};

/// Decide whether `field` (relabel-canonical, seeds = color-1 class) is the
/// canonical representative of its orbit under `stabilizer` x relabeling,
/// and if so the exact orbit size under the FULL group x relabeling (the
/// count of raw configurations covered). `total_colors` is |C| including
/// the seed color; `scratch` avoids per-call allocation.
ColoringOrbit classify_coloring(const SymmetryGroup& group,
                                const std::vector<std::size_t>& stabilizer,
                                const ColorField& field, Color total_colors,
                                ColorField& scratch);

} // namespace dynamo
