// dynamo/rules/threshold.hpp
//
// Constant-threshold irreversible rules: a white vertex turns black
// permanently once at least r of its 4 neighbors are black; black is
// absorbing. This is the irreversible r-threshold process of Berger,
// "Dynamic Monopolies of Constant Size" (J. Comb. Theory B 83, 2001) and
// of Asadi-Zaker's constant-threshold dynamo bounds, restricted to the
// 4-regular tori of this paper:
//
//   r = 1   contagion: any black neighbor infects (floods from any seed)
//   r = 2   irreversible simple majority on half the degree
//   r = 3   irreversible strong majority
//   r = 4   unanimity: a vertex flips only when surrounded
//
// Two forms, as everywhere in rules/: ThresholdRule is the runtime-r
// reference functor, Threshold<r> the branchless LocalRule monomorphized
// per threshold for the packed stencil sweep (kernel equality pinned over
// every neighborhood in tests/test_rules.cpp). Every run is monotone by
// construction (kIrreversible), which is exactly the fault-containment
// semantics the [15]-style bounds assume.
//
// Colors follow core/transform.hpp (kWhite = 1, kBlack = 2). A non-black
// own color below the threshold keeps itself - the rule never recolors
// toward white - so fields holding other colors remain well-defined.
#pragma once

#include <array>
#include <string>

#include "core/transform.hpp"
#include "rules/registry.hpp"

namespace dynamo::rules {

/// Runtime-threshold reference functor (the oracle form).
struct ThresholdRule {
    int threshold = 2;  ///< black neighbors required to flip, 1..4

    Color operator()(Color own, const std::array<Color, grid::kDegree>& nbr) const noexcept {
        if (own == kBlack) return kBlack;  // absorbing
        int black = 0;
        for (const Color c : nbr) black += (c == kBlack) ? 1 : 0;
        return black >= threshold ? kBlack : own;
    }
};

/// The same decision as a branchless LocalRule, one instantiation per
/// threshold value.
template <int Req>
struct Threshold {
    static_assert(Req >= 1 && Req <= static_cast<int>(grid::kDegree),
                  "threshold must be within the vertex degree");
    static constexpr const char* kName = Req == 1   ? "threshold-1"
                                         : Req == 2 ? "threshold-2"
                                         : Req == 3 ? "threshold-3"
                                                    : "threshold-4";
    static constexpr Color kMinColors = 2;
    static constexpr Color kMaxColors = 2;  // bi-color: fixed white/black roles
    static constexpr sim::TiePolicy kTie = sim::TiePolicy::PreferCurrent;  // no tie exists
    static constexpr bool kIrreversible = true;
    static constexpr bool kColorSymmetric = false;

    static constexpr Color next(Color own, Color a, Color b, Color c, Color d) noexcept {
        const std::uint8_t black = static_cast<std::uint8_t>((a == kBlack) + (b == kBlack) +
                                                             (c == kBlack) + (d == kBlack));
        const bool flips = (own == kBlack) | (black >= Req);
        return flips ? kBlack : own;
    }
};

/// Simulate a bi-colored field under the irreversible r-threshold rule,
/// through the registry entry of Threshold<threshold>.
inline RunResult simulate_threshold(const grid::Torus& torus, const ColorField& initial,
                                    int threshold, const RunOptions& options = {}) {
    DYNAMO_REQUIRE(is_bicolored(initial), "threshold rules require a bi-colored field");
    DYNAMO_REQUIRE(threshold >= 1 && threshold <= static_cast<int>(grid::kDegree),
                   "threshold must be 1..4");
    return rule_or_throw("threshold-" + std::to_string(threshold)).run(torus, initial, options);
}

} // namespace dynamo::rules
