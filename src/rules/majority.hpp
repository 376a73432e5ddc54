// dynamo/rules/majority.hpp
//
// The bi-colored baseline rules of Flocchini, Lodi, Luccio, Pagli, Santoro,
// "Dynamic monopolies in tori" (Discrete Applied Mathematics 137, 2004) -
// the paper's reference [15], against which Propositions 1 and 2 transfer
// lower/upper bounds, and the Prefer-Black / Prefer-Current tie options of
// Peleg [26]:
//
//   * simple majority:  a vertex takes color X if at least ceil(d/2) = 2 of
//     its 4 neighbors hold X; a 2-2 tie resolves by policy (Prefer-Black
//     adopts black, Prefer-Current keeps the current color).
//   * strong majority:  requires ceil((d+1)/2) = 3 of 4 neighbors; no tie
//     is possible.
//   * irreversible ("reverse" / monotone) variants: black never reverts -
//     the fault-propagation semantics under which [15] proves its dynamo
//     bounds.
//
// Two forms per rule: MajorityRule is the runtime-configured reference
// functor (the seed-era API, and the oracle the packed path is tested
// against), and Majority<K, T, Irrev> is the same decision as a branchless
// LocalRule (core/sim/local_rule.hpp). simulate_majority() runs a
// MajorityRule through the registry entry of its name (rules/registry.hpp).
// tests/test_rules.cpp pins kernel equality on every (own, neighborhood)
// combination.
//
// Four configurations equal other registered rules, and the registry runs
// each as an alias of the rule it equals:
//
//   majority-prefer-current               strong-majority (every input)
//   irreversible-majority-prefer-current  threshold-3 (on {1, 2}; equal to
//                                         irreversible-strong-majority on
//                                         every input)
//   irreversible-majority                 threshold-2 (on {1, 2})
//   irreversible-strong-majority          threshold-3 (on {1, 2})
//
// Off {1, 2} an irreversible majority recolors a non-black cell below its
// threshold to white where a threshold rule keeps it, so the registry's run
// refuses such a field under every bi-color rule.
//
// Colors follow core/transform.hpp: kWhite = 1, kBlack = 2. The kernels and
// functors are total over colors (any non-black color counts as white in
// the tallies, and "keep" keeps it), and both forms implement that
// identically.
#pragma once

#include <array>
#include <cstdint>

#include "core/transform.hpp"
#include "rules/registry.hpp"

namespace dynamo::rules {

enum class MajorityKind : std::uint8_t { Simple, Strong };
/// Resolution of an exact 2-2 neighborhood split under simple majority.
enum class TiePolicy : std::uint8_t {
    PreferBlack,    ///< ties recolor to black (Flocchini et al. [15])
    PreferCurrent,  ///< ties keep the current color (Peleg [26])
};

/// Engine rule functor for the bi-color majority protocols: the
/// runtime-configured reference form.
struct MajorityRule {
    MajorityKind kind = MajorityKind::Simple;
    TiePolicy tie = TiePolicy::PreferBlack;
    /// Black is absorbing (the "reverse"/monotone fault semantics of [15]).
    bool irreversible = true;

    Color operator()(Color own, const std::array<Color, grid::kDegree>& nbr) const noexcept {
        int black = 0;
        for (const Color c : nbr) black += (c == kBlack) ? 1 : 0;
        const int white = static_cast<int>(grid::kDegree) - black;

        Color next;
        if (kind == MajorityKind::Simple) {
            if (black > white) {
                next = kBlack;
            } else if (white > black) {
                next = kWhite;
            } else {  // 2-2 tie
                next = (tie == TiePolicy::PreferBlack) ? kBlack : own;
            }
        } else {  // Strong: need >= 3
            if (black >= 3) {
                next = kBlack;
            } else if (white >= 3) {
                next = kWhite;
            } else {
                next = own;
            }
        }

        if (irreversible && own == kBlack) return kBlack;
        return next;
    }
};

/// The same decision as a branchless LocalRule, one type per
/// configuration: select-only over the black tally, so the stencil sweep
/// vectorizes it like the SMP kernel. The registry compiles only
/// MajorityPreferBlack and StrongMajority; the other four are the oracles
/// of the alias rows (see the header comment).
template <MajorityKind K, TiePolicy T, bool Irrev>
struct Majority {
    static constexpr const char* kName =
        K == MajorityKind::Simple
            ? (Irrev ? (T == TiePolicy::PreferBlack ? "irreversible-majority"
                                                    : "irreversible-majority-prefer-current")
                     : (T == TiePolicy::PreferBlack ? "majority-prefer-black"
                                                    : "majority-prefer-current"))
            : (Irrev ? "irreversible-strong-majority" : "strong-majority");
    static constexpr Color kMinColors = 2;
    static constexpr Color kMaxColors = 2;  // bi-color: fixed white/black roles
    static constexpr bool kIrreversible = Irrev;
    static constexpr bool kColorSymmetric = false;  // black is named, not relabelable

    static constexpr Color next(Color own, Color a, Color b, Color c, Color d) noexcept {
        const std::uint8_t black = static_cast<std::uint8_t>((a == kBlack) + (b == kBlack) +
                                                             (c == kBlack) + (d == kBlack));
        Color out;
        if constexpr (K == MajorityKind::Simple) {
            const Color on_tie = T == TiePolicy::PreferBlack ? kBlack : own;
            out = black > 2 ? kBlack : (black < 2 ? kWhite : on_tie);
        } else {
            out = black >= 3 ? kBlack : (black <= 1 ? kWhite : own);
        }
        if constexpr (Irrev) out = own == kBlack ? kBlack : out;
        return out;
    }
};

using MajorityPreferBlack = Majority<MajorityKind::Simple, TiePolicy::PreferBlack, false>;
using MajorityPreferCurrent = Majority<MajorityKind::Simple, TiePolicy::PreferCurrent, false>;
using StrongMajority = Majority<MajorityKind::Strong, TiePolicy::PreferBlack, false>;
using IrreversibleMajority = Majority<MajorityKind::Simple, TiePolicy::PreferBlack, true>;
using IrreversibleMajorityPreferCurrent =
    Majority<MajorityKind::Simple, TiePolicy::PreferCurrent, true>;
using IrreversibleStrongMajority = Majority<MajorityKind::Strong, TiePolicy::PreferBlack, true>;

/// Convenience: the canonical rule variants named in the papers.
inline constexpr MajorityRule reverse_simple_majority() noexcept {
    return MajorityRule{MajorityKind::Simple, TiePolicy::PreferBlack, true};
}
inline constexpr MajorityRule reverse_strong_majority() noexcept {
    return MajorityRule{MajorityKind::Strong, TiePolicy::PreferBlack, true};
}
inline constexpr MajorityRule simple_majority_prefer_current() noexcept {
    return MajorityRule{MajorityKind::Simple, TiePolicy::PreferCurrent, false};
}

/// Simulate a bi-colored field under a majority rule, through the registry
/// entry of its (kind, tie, irreversible) configuration, so Backend::Auto
/// takes the stencil fast path (bit-identical to the reference functor
/// under Backend::Generic - the rule-parity oracle in tests/test_rules.cpp).
/// A strong majority has no tie to break, so its tie policy is ignored. The
/// registry's run refuses a field outside {kWhite, kBlack}.
inline RunResult simulate_majority(const grid::Torus& torus, const ColorField& initial,
                                   const MajorityRule& rule, const RunOptions& options = {}) {
    const char* name = nullptr;
    if (rule.kind == MajorityKind::Strong) {
        name = rule.irreversible ? IrreversibleStrongMajority::kName : StrongMajority::kName;
    } else if (rule.tie == TiePolicy::PreferBlack) {
        name = rule.irreversible ? IrreversibleMajority::kName : MajorityPreferBlack::kName;
    } else {
        name = rule.irreversible ? IrreversibleMajorityPreferCurrent::kName
                                 : MajorityPreferCurrent::kName;
    }
    return rule_or_throw(name).run(torus, initial, options);
}

} // namespace dynamo::rules
