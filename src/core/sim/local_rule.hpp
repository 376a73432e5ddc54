// dynamo/core/sim/local_rule.hpp
//
// The LocalRule concept: the compile-time contract every packed-path
// recoloring rule satisfies. The paper's SMP protocol is one point in a
// family of local polling rules (bi-color simple/strong majority with tie
// policies [15]/[26], irreversible fault semantics, constant-threshold
// rules of Berger and Asadi-Zaker, the ordered "+1" rule of [4]/[5]); a
// LocalRule packages one member of that family as a *type* so the hot
// layers - the three-row stencil kernels (core/sim/kernels.hpp), the
// cache-blocked sweep (core/sim/sweep.hpp), the packed/active/bit-plane
// engines and the rule registry's runs (rules/registry.cpp) - monomorphize
// per rule instead of special-casing SMP.
//
// A LocalRule provides:
//
//   * `static Color next(own, a, b, c, d)` - the cell kernel: own color
//     plus the four neighbor slot colors {Up, Down, Left, Right} -> next
//     color. Required to be pure, total over all byte values (engines may
//     sweep any field), slot-symmetric in practice (all shipped rules read
//     the neighborhood as a multiset), and written select-only/branchless
//     so the row sweep auto-vectorizes. noexcept is part of the concept.
//
//   * identity + metadata constants, consumed by the runtime rule registry
//     (rules/registry.hpp), the search drivers, and docs:
//       kName           registry key ("smp", "majority-prefer-black", ...)
//       kMinColors      smallest admissible palette (>= 2)
//       kMaxColors      largest admissible palette; 0 = unbounded, 2 marks
//                       a bi-color rule (fixed white/black semantics,
//                       core/transform.hpp conventions)
//       kIrreversible   true when one color is absorbing (the "reverse"/
//                       monotone fault semantics of [15]) - every run is
//                       monotone by construction
//       kColorSymmetric true iff the rule is equivariant under arbitrary
//                       color permutations (SMP is; anything that names a
//                       specific color or an order on colors is not).
//                       The search layer's color-relabeling quotient is
//                       sound ONLY for color-symmetric rules (or for
//                       2-color palettes, where relabeling is trivial) -
//                       core/search/ enforces this.
//
// Invariants every LocalRule must keep (pinned by tests/test_rules.cpp):
//   * next() agrees with the rule's reference functor (rules/) on every
//     neighborhood - the packed path is an optimization, never a semantic
//     fork;
//   * a unanimous neighborhood of the own color maps to the own color for
//     every color in the rule's admissible palette, so monochromatic
//     states are fixed points and Termination::Monochromatic is terminal
//     under every rule;
//   * kIrreversible implies next() never maps kBlack off kBlack.
#pragma once

#include <array>
#include <concepts>

#include "core/coloring.hpp"
#include "grid/torus.hpp"

namespace dynamo::sim {

/// The packed-path rule contract (see the header comment).
template <typename R>
concept LocalRule = requires(Color own, Color a, Color b, Color c, Color d) {
    { R::next(own, a, b, c, d) } noexcept -> std::same_as<Color>;
    { R::kName } -> std::convertible_to<const char*>;
    { R::kMinColors } -> std::convertible_to<Color>;
    { R::kMaxColors } -> std::convertible_to<Color>;
    { R::kIrreversible } -> std::convertible_to<bool>;
    { R::kColorSymmetric } -> std::convertible_to<bool>;
};

/// Functor form of a LocalRule, for the table-driven reference sweep
/// (Backend::Generic). This is the oracle adapter:
/// reference_sweep<RuleFnOf<R>> (core/sync_engine.hpp) runs R through the
/// seed sweep, which the stencil engines are tested against.
template <LocalRule R>
struct RuleFnOf {
    Color operator()(Color own, const std::array<Color, grid::kDegree>& nbr) const noexcept {
        return R::next(own, nbr[0], nbr[1], nbr[2], nbr[3]);
    }
};

} // namespace dynamo::sim
