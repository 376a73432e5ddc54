#include "graph/plurality.hpp"

#include <array>

#include "core/sim/csr_graph_engine.hpp"
#include "graph/graph_rules.hpp"

namespace dynamo::graphx {

namespace {

Color decide(Color own, std::span<const VertexId> nbrs, const Color* colors,
             PluralityThreshold threshold) {
    // Count neighbor colors in a 256-slot scratch; touched-list reset keeps
    // the scan O(deg) rather than O(256).
    std::array<std::uint32_t, 256> counts{};
    std::array<Color, 64> touched_small;
    std::size_t touched_n = 0;
    bool overflow = false;

    std::uint32_t best = 0;
    Color best_color = own;
    bool tie = false;
    for (const VertexId u : nbrs) {
        const Color c = colors[u];
        if (counts[c] == 0) {
            if (touched_n < touched_small.size()) {
                touched_small[touched_n++] = c;
            } else {
                overflow = true;  // fall back to full reset below
            }
        }
        const std::uint32_t cnt = ++counts[c];
        if (cnt > best) {
            best = cnt;
            best_color = c;
            tie = false;
        } else if (cnt == best && c != best_color) {
            tie = true;
        }
    }

    if (overflow) {
        counts.fill(0);
    } else {
        for (std::size_t s = 0; s < touched_n; ++s) counts[touched_small[s]] = 0;
    }

    const auto d = static_cast<std::uint32_t>(nbrs.size());
    std::uint32_t need = 2;
    switch (threshold) {
        case PluralityThreshold::AtLeastTwo: need = 2; break;
        case PluralityThreshold::SimpleHalf: need = (d + 1) / 2; break;
        case PluralityThreshold::StrongHalf: need = d / 2 + 1; break;
    }
    if (tie || best < need) return own;
    return best_color;
}

} // namespace

std::size_t plurality_step(const Graph& graph, const ColorField& current, ColorField& next,
                           PluralityThreshold threshold) {
    DYNAMO_REQUIRE(current.size() == graph.num_vertices(), "field size mismatch");
    next.resize(current.size());
    std::size_t changed = 0;
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
        const Color out = decide(current[v], graph.neighbors(v), current.data(), threshold);
        next[v] = out;
        changed += (out != current[v]);
    }
    return changed;
}

RunResult simulate_plurality(const Graph& graph, const ColorField& initial,
                             PluralityThreshold threshold, const RunOptions& options) {
    sim::CsrGraphEngineT<PluralityRule> engine(graph, initial, PluralityRule{threshold});
    return run_to_terminal(engine, options);
}

} // namespace dynamo::graphx
