// dynamo/graph/graph_rules.hpp
//
// The GraphRule family (see core/sim/csr_graph_engine.hpp for the
// concept): arbitrary-degree recoloring rules packaged as functor
// instances so CsrGraphEngineT monomorphizes per rule, exactly as the
// torus engines monomorphize per LocalRule.
//
//   * PluralityRule        - the SMP plurality thresholds of
//                            graph/plurality.hpp (AtLeastTwo /
//                            SimpleHalf / StrongHalf), bit-identical to
//                            plurality_step's decide();
//   * ConstantThresholdRule- Berger-style irreversible constant
//                            threshold: black is absorbing, a white
//                            vertex turns black on >= r black neighbors;
//   * TemporalSmpRule      - the intermittent-availability SMP rule of
//                            graph/temporal.hpp: plurality >= 2 over the
//                            present neighbor slots, presence drawn by a
//                            deterministic hash of (seed, round, edge).
//                            time_varying() when edge_up < 1, which
//                            makes the engine full-sweep every round
//                            (links coming back up can recolor a vertex
//                            whose neighborhood never changed).
//
// All decisions reduce to one unique-plurality accumulator: a 256-slot
// count scratch reset via a touched list, so a decision costs O(degree)
// regardless of palette size. The (best, unique) outcome is independent
// of neighbor iteration order, which is what makes these rules safe on
// any adjacency ordering.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "core/coloring.hpp"
#include "core/transform.hpp"
#include "graph/graph.hpp"
#include "graph/plurality.hpp"
#include "util/rng.hpp"

namespace dynamo::graphx {

namespace rule_detail {

/// Unique-plurality scan over `nbrs` (optionally filtered by a presence
/// predicate): returns the plurality color when it is unique and has
/// multiplicity >= `need`, otherwise `own`. The scratch counts are
/// per-thread and reset via the touched list, so concurrent evaluation of
/// distinct vertices (engine phase 1) is safe and O(deg) per call.
template <typename Present>
Color unique_plurality(Color own, std::span<const VertexId> nbrs, const Color* colors,
                       std::uint32_t need, Present&& present) noexcept {
    static thread_local std::array<std::uint32_t, 256> counts{};
    static thread_local std::array<Color, 256> touched;
    std::size_t touched_n = 0;

    std::uint32_t best = 0;
    Color best_color = own;
    bool tie = false;
    for (const VertexId u : nbrs) {
        if (!present(u)) continue;
        const Color c = colors[u];
        if (counts[c] == 0) touched[touched_n++] = c;
        const std::uint32_t cnt = ++counts[c];
        if (cnt > best) {
            best = cnt;
            best_color = c;
            tie = false;
        } else if (cnt == best && c != best_color) {
            tie = true;
        }
    }
    for (std::size_t s = 0; s < touched_n; ++s) counts[touched[s]] = 0;

    if (tie || best < need) return own;
    return best_color;
}

inline constexpr auto kAllPresent = [](VertexId) noexcept { return true; };

} // namespace rule_detail

/// Multiplicity a plurality must reach to win at degree `d` under each
/// graph/plurality.hpp threshold.
inline std::uint32_t plurality_need(PluralityThreshold threshold, std::uint32_t d) noexcept {
    switch (threshold) {
        case PluralityThreshold::AtLeastTwo: return 2;
        case PluralityThreshold::SimpleHalf: return (d + 1) / 2;
        case PluralityThreshold::StrongHalf: return d / 2 + 1;
    }
    return 2;
}

/// The generalized SMP plurality rule of graph/plurality.hpp.
struct PluralityRule {
    PluralityThreshold threshold = PluralityThreshold::SimpleHalf;

    Color operator()(VertexId /*v*/, Color own, std::span<const VertexId> nbrs,
                     const Color* colors, std::uint32_t /*round*/) const noexcept {
        const auto d = static_cast<std::uint32_t>(nbrs.size());
        return rule_detail::unique_plurality(own, nbrs, colors, plurality_need(threshold, d),
                                             rule_detail::kAllPresent);
    }
    bool time_varying() const noexcept { return false; }
};

/// Berger-style irreversible constant threshold on arbitrary graphs:
/// black absorbs, and a non-black vertex turns black on >= `r` black
/// neighbors (parallel edges count twice, like degenerate torus slots).
struct ConstantThresholdRule {
    std::uint32_t r = 2;

    Color operator()(VertexId /*v*/, Color own, std::span<const VertexId> nbrs,
                     const Color* colors, std::uint32_t /*round*/) const noexcept {
        if (own == kBlack) return kBlack;
        std::uint32_t black = 0;
        for (const VertexId u : nbrs) black += (colors[u] == kBlack);
        return black >= r ? kBlack : own;
    }
    bool time_varying() const noexcept { return false; }
};

/// Deterministic symmetric edge-availability draw for one round (shared
/// with graph/temporal.cpp): both endpoints hash the same (seed, round,
/// {lo, hi}) key, so they always agree, and parallel edges (equal
/// endpoint pairs) share one decision - the degenerate-slot semantics of
/// the temporal model.
inline bool edge_present(std::uint64_t seed, std::uint32_t round, VertexId a, VertexId b,
                         double edge_up) noexcept {
    if (edge_up >= 1.0) return true;
    const std::uint64_t lo = std::min(a, b), hi = std::max(a, b);
    SplitMix64 h(seed ^ (0x9e3779b97f4a7c15ULL * (round + 1)) ^ (lo << 32) ^ hi);
    return static_cast<double>(h.next() >> 11) * 0x1.0p-53 < edge_up;
}

/// The intermittent-availability SMP rule (graph/temporal.hpp model):
/// unique plurality of multiplicity >= 2 among PRESENT neighbors adopts;
/// anything else (including < 2 present) keeps the current color.
struct TemporalSmpRule {
    double edge_up = 1.0;
    std::uint64_t seed = 0x7e3;

    Color operator()(VertexId v, Color own, std::span<const VertexId> nbrs,
                     const Color* colors, std::uint32_t round) const noexcept {
        if (edge_up >= 1.0) {
            return rule_detail::unique_plurality(own, nbrs, colors, 2,
                                                 rule_detail::kAllPresent);
        }
        return rule_detail::unique_plurality(
            own, nbrs, colors, 2,
            [&](VertexId u) noexcept { return edge_present(seed, round, v, u, edge_up); });
    }
    bool time_varying() const noexcept { return edge_up < 1.0; }
};

} // namespace dynamo::graphx
