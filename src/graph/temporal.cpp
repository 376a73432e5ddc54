#include "graph/temporal.hpp"

#include "core/sim/csr_graph_engine.hpp"
#include "graph/generators.hpp"
#include "graph/graph_rules.hpp"

namespace dynamo::graphx {

RunResult simulate_temporal(const grid::Torus& torus, const ColorField& initial,
                            const TemporalOptions& options, RunOptions run) {
    require_complete(torus, initial);
    DYNAMO_REQUIRE(options.edge_up >= 0.0 && options.edge_up <= 1.0,
                   "edge availability outside [0, 1]");
    const std::size_t n = torus.size();

    // The availability hash is a pure function of (seed, round, edge), so
    // the process is a time-varying GraphRule on the torus-as-graph CSR
    // adjacency (degenerate parallel slots share one edge decision, exactly
    // as TemporalSmpRule's per-endpoint-pair hash provides).
    const Graph graph = from_torus(torus);
    const TemporalSmpRule rule{options.edge_up, options.seed};

    if (run.max_rounds == 0) run.max_rounds = static_cast<std::uint32_t>(8 * n + 64);
    // edge_up < 1.0: trajectories are round-dependent and links may come
    // back up; the engine reports the rule as time-varying, so neither a
    // repeated state nor a quiescent round is terminal. edge_up == 1.0:
    // every link is up every round, the process is the plain static SMP
    // dynamics - a quiescent round IS terminal (pinned by
    // Temporal.FullAvailabilityFixedPointStopsExactly).
    sim::CsrGraphEngineT<TemporalSmpRule> engine(graph, initial, rule);
    return run_to_terminal(engine, run);
}

} // namespace dynamo::graphx
