// dynamo/core/sim/kernels.hpp
//
// Branchless cell kernels for the packed-state sweep (core/sim/sweep.hpp),
// templated over the LocalRule concept (core/sim/local_rule.hpp). This
// header owns the SMP instantiation; the other family members (bi-color
// majorities, thresholds, the ordered "+1" rule) live in rules/ next to
// their reference functors.
//
// The SMP rule (core/smp_rule.hpp) is re-derived here in a select-only
// form that a vectorizer can lift to SIMD over a row of 8-bit colors.
// With the four neighbor slots {a, b, c, d}, let cnt(s) be the number of
// slots sharing slot s's color and e(s) = cnt(s) - 1 the "excess". The
// slot-excess sum S = e(a)+e(b)+e(c)+e(d) identifies the neighborhood
// multiset uniquely:
//
//   multiset      S    max e    action
//   (4)          12      3      adopt
//   (3,1)         6      2      adopt
//   (2,2)         4      1      keep  (the paper's resolved tie)
//   (2,1,1)       2      1      adopt the pair
//   (1,1,1,1)     0      0      keep
//
// so "adopt the unique plurality of multiplicity >= 2" becomes the pair of
// comparisons  max_e >= 1 && S != 4  with the adopted color being any slot
// attaining max_e (unique whenever we adopt). Exhaustively equivalent to
// smp_decide() - tests/test_sim_packed.cpp checks all 5^5 neighborhoods.
//
// Layout contract used by the row kernels: colors are row-major, one byte
// per vertex, and for every topology the interior columns 1..n-2 of a row
// have Left = j-1, Right = j+1 and whole-row Up/Down neighbors (RowLinks
// below), so a row is one three-row stencil plus its two edge cells.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/coloring.hpp"
#include "core/sim/local_rule.hpp"
#include "grid/torus.hpp"

namespace dynamo::sim {

/// The SMP-Protocol (paper Algorithm 1) as a LocalRule: adopt the unique
/// neighbor plurality of multiplicity >= 2, else keep. Semantically
/// identical to smp_update() (core/smp_rule.hpp); written with selects so
/// the row sweep below auto-vectorizes.
struct SmpRule {
    static constexpr const char* kName = "smp";
    static constexpr Color kMinColors = 2;
    static constexpr Color kMaxColors = 0;  // any palette
    static constexpr bool kIrreversible = false;
    static constexpr bool kColorSymmetric = true;

    static constexpr Color next(Color own, Color a, Color b, Color c, Color d) noexcept {
        const std::uint8_t e01 = a == b, e02 = a == c, e03 = a == d;
        const std::uint8_t e12 = b == c, e13 = b == d, e23 = c == d;
        const std::uint8_t ea = static_cast<std::uint8_t>(e01 + e02 + e03);
        const std::uint8_t eb = static_cast<std::uint8_t>(e01 + e12 + e13);
        const std::uint8_t ec = static_cast<std::uint8_t>(e02 + e12 + e23);
        const std::uint8_t ed = static_cast<std::uint8_t>(e03 + e13 + e23);
        const std::uint8_t sum = static_cast<std::uint8_t>(ea + eb + ec + ed);

        Color cand = a;
        std::uint8_t best = ea;
        cand = eb > best ? b : cand;
        best = eb > best ? eb : best;
        cand = ec > best ? c : cand;
        best = ec > best ? ec : best;
        cand = ed > best ? d : cand;
        best = ed > best ? ed : best;

        const bool adopt = (best >= 1) & (sum != 4);
        return adopt ? cand : own;
    }

    /// Word-parallel hook for the bit-plane engine
    /// (core/sim/bitplane_engine.hpp): `target` holds, per 3-bit lane, the
    /// SMP trigger outcome next(own, ...) already computed by the shared
    /// pair-counting kernel; the SMP rule adopts it verbatim. Multi-color
    /// rules of the form g(own, smp_target) ride the same kernel by
    /// providing their own bitplane_apply (rules/incremental.hpp).
    static void bitplane_apply(const std::uint64_t own[3], const std::uint64_t target[3],
                               std::uint64_t out[3]) noexcept {
        (void)own;
        out[0] = target[0];
        out[1] = target[1];
        out[2] = target[2];
    }
};

/// Row i's Up and Down neighbors as whole rows: interior column j has
/// Up = (up, j + up_shift) and Down = (down, j - down_shift). A shift is 1
/// only on the serpentinus, for the Up row of row 0 and the Down row of
/// row m-1 (the column-spiral links of Section II.A). Columns 0 and n-1
/// wrap differently per topology and are evaluated from Torus::neighbors.
struct RowLinks {
    std::uint32_t up, down, up_shift, down_shift;
};

inline RowLinks row_links(const grid::Torus& torus, std::uint32_t i) noexcept {
    const std::uint32_t m = torus.rows();
    const bool serpentinus = torus.topology() == grid::Topology::TorusSerpentinus;
    return {grid::dec_mod(i, m), grid::inc_mod(i, m), serpentinus && i == 0,
            serpentinus && i == m - 1};
}

/// Stencil sweep of `len` interior cells: `up` / `row` / `down` point at
/// the first cell's Up neighbor, the cell and its Down neighbor, `out` at
/// its destination. Returns the number of cells that changed color. The
/// single hot loop of the byte engines: unit-stride 8-bit loads, no
/// branches.
template <LocalRule R>
inline std::size_t sweep_row_interior(const Color* up, const Color* row, const Color* down,
                                      Color* out, std::size_t len) noexcept {
    const Color* left = row - 1;
    const Color* right = row + 1;
    std::size_t changed = 0;
    for (std::size_t k = 0; k < len; ++k) {
        const Color next = R::next(row[k], up[k], down[k], left[k], right[k]);
        out[k] = next;
        changed += next != row[k];
    }
    return changed;
}

} // namespace dynamo::sim
