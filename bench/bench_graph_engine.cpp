// PERF: the CSR frontier graph engine (core/sim/csr_graph_engine.hpp) vs
// the seed-era full-sweep adjacency walk (graphx::plurality_step) on a
// million-vertex scale-free graph - the large-graph workload the engine
// exists for. Both arms step the SAME synchronous dynamics, so the
// trajectories must be bit-identical; the gate is wall-clock:
//
//   * frontier sweep throughput >= 5x the full-sweep baseline over the
//     whole run (the frontier arm runs WITH streaming observers attached,
//     so the gate prices in the observability the engine ships with);
//   * serial and pooled frontier runs must agree bit for bit (the PR-6
//     determinism contract at scale).
//
// The JSON record (BENCH_graph_engine.json) carries the measured
// throughputs, the speedups, and the identity verdicts.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/sim/csr_graph_engine.hpp"
#include "core/transform.hpp"
#include "graph/builder.hpp"
#include "graph/graph_rules.hpp"
#include "graph/plurality.hpp"
#include "io/jsonl.hpp"
#include "io/run_stream.hpp"
#include "scenario/scenario.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace dynamo;

graphx::PluralityThreshold threshold_from_name(const std::string& name) {
    if (name == "plurality-atleast2") return graphx::PluralityThreshold::AtLeastTwo;
    if (name == "plurality-simple") return graphx::PluralityThreshold::SimpleHalf;
    if (name == "plurality-strong") return graphx::PluralityThreshold::StrongHalf;
    throw std::invalid_argument("bench_graph_engine rules: plurality-atleast2 | "
                                "plurality-simple | plurality-strong");
}

struct ArmResult {
    std::uint32_t rounds = 0;
    std::uint64_t recolorings = 0;
    double ms = 0.0;
    ColorField final_colors;

    double vertex_rounds_per_sec(std::size_t n) const {
        return ms > 0 ? static_cast<double>(n) * rounds / (ms / 1e3) : 0.0;
    }
};

/// The baseline: plurality_step full sweeps, stop on quiescence or cap.
ArmResult run_oracle(const graphx::Graph& graph, const ColorField& initial,
                     graphx::PluralityThreshold threshold, std::uint32_t cap) {
    ArmResult arm;
    ColorField cur = initial, next(initial.size());
    Stopwatch watch;
    while (arm.rounds < cap) {
        const std::size_t changed = graphx::plurality_step(graph, cur, next, threshold);
        cur.swap(next);
        ++arm.rounds;
        arm.recolorings += changed;
        if (changed == 0) break;
    }
    arm.ms = watch.millis();
    arm.final_colors = std::move(cur);
    return arm;
}

/// The frontier engine, streaming observers priced in: every round is
/// folded into a latency histogram and emitted as a JSONL record.
ArmResult run_frontier(const graphx::Graph& graph, const ColorField& initial,
                       graphx::PluralityThreshold threshold, std::uint32_t cap,
                       ThreadPool* pool, std::ostream* stream_sink,
                       std::uint64_t* stream_records) {
    ArmResult arm;
    io::JsonlWriter stream(stream_sink);
    io::RoundStreamObserver observer(stream);
    sim::CsrGraphEngineT<graphx::PluralityRule> engine(graph, initial,
                                                       graphx::PluralityRule{threshold});
    observer.on_start(engine.colors());
    std::vector<CellChange> changes;
    Stopwatch watch;
    while (arm.rounds < cap) {
        changes.clear();
        const std::size_t changed = engine.step_collect(changes, pool);
        ++arm.rounds;
        arm.recolorings += changed;
        observer.on_round({engine.round(), changed,
                           std::span<const CellChange>(changes), engine.colors()});
        if (changed == 0) break;
    }
    arm.ms = watch.millis();
    arm.final_colors = engine.colors();
    if (stream_records != nullptr) *stream_records = observer.latency_histogram().total();
    return arm;
}

int scenario_main(dynamo::scenario::Context& ctx) {
    std::ostream& out = ctx.out;
    const CliArgs& args = ctx.args;
    const std::string kind = args.get_string("kind", "ba");
    const auto n = static_cast<std::size_t>(args.get_int("n", 1'000'000));
    const double gparam = args.get_double("gparam", 0.0);
    const graphx::PluralityThreshold threshold =
        threshold_from_name(args.get_string("grule", "plurality-simple"));
    // 0.45 sits in the long-lived small-blinker regime of plurality on BA:
    // the run lasts to the cap with a tiny persistent active set, which is
    // precisely the workload shape the frontier engine exists for (0.5
    // flips the whole graph every round and favors the full sweep).
    const double density = args.get_double("density", 0.45);
    const auto cap = static_cast<std::uint32_t>(args.get_int("rounds", 256));
    const std::uint64_t seed = args.get_uint64("seed", 809489);
    const auto workers_arg = args.get_int("workers", 0);
    const unsigned workers =
        workers_arg > 0 ? static_cast<unsigned>(workers_arg) : ThreadPool::default_threads();
    const double target = args.get_double("target-speedup", 5.0);
    const bool write_json = args.has("json-report");
    std::string path = args.get_string("json-report", "");
    if (path.empty()) path = "BENCH_graph_engine.json";  // bare --json-report flag

    Xoshiro256 graph_rng(seed);
    const graphx::Graph graph = graphx::build_graph(kind, n, gparam, graph_rng.next());
    ColorField initial(graph.num_vertices());
    Xoshiro256 field_rng(seed ^ 0x9e3779b97f4a7c15ULL);
    for (auto& c : initial) c = field_rng.bernoulli(density) ? kBlack : kWhite;

    const ArmResult oracle = run_oracle(graph, initial, threshold, cap);
    // The frontier arm streams its per-round records into a sink buffer -
    // observer cost is part of the measured time, I/O to disk is not.
    std::ostringstream stream_sink;
    std::uint64_t stream_records = 0;
    const ArmResult frontier = run_frontier(graph, initial, threshold, cap, nullptr,
                                            &stream_sink, &stream_records);
    ThreadPool pool(workers);
    std::ostringstream pooled_sink;
    const ArmResult pooled =
        run_frontier(graph, initial, threshold, cap, &pool, &pooled_sink, nullptr);

    const bool identical = frontier.rounds == oracle.rounds &&
                           frontier.recolorings == oracle.recolorings &&
                           frontier.final_colors == oracle.final_colors;
    const bool pooled_identical = pooled.rounds == frontier.rounds &&
                                  pooled.recolorings == frontier.recolorings &&
                                  pooled.final_colors == frontier.final_colors;
    const double speedup = frontier.ms > 0 ? oracle.ms / frontier.ms : 0.0;
    const double pooled_speedup = pooled.ms > 0 ? oracle.ms / pooled.ms : 0.0;
    const bool meets_target = identical && pooled_identical && speedup >= target;

    const std::size_t nv = graph.num_vertices();
    out << "CSR frontier engine vs full-sweep baseline: " << kind << " n=" << nv << " (|E|="
        << graph.num_edges() << ", max deg " << graph.max_degree() << "), density " << density
        << ", " << oracle.rounds << " rounds, seed " << seed << "\n";
    out << "  full sweep   " << oracle.ms << " ms  ("
        << oracle.vertex_rounds_per_sec(nv) / 1e6 << " M vertex-rounds/s)\n";
    out << "  frontier     " << frontier.ms << " ms  ("
        << frontier.vertex_rounds_per_sec(nv) / 1e6 << " M vertex-rounds/s, " << stream_records
        << " streamed rounds)  speedup " << speedup << "x\n";
    out << "  frontier x" << workers << "  " << pooled.ms << " ms  speedup " << pooled_speedup
        << "x\n";
    out << "  trajectories " << (identical ? "bit-identical" : "DIVERGED")
        << ", serial == pooled " << (pooled_identical ? "yes" : "NO") << "\n";
    out << "gate: frontier >= " << target << "x full sweep, bit-identical: "
        << (meets_target ? "PASS" : "FAIL") << "\n";

    if (!write_json) return meets_target ? 0 : 1;
    std::ofstream json_out(path);
    if (!json_out) {
        std::cerr << "cannot open " << path << " for writing\n";
        return 1;
    }
    json_out << "{\n"
             << "  \"bench\": \"bench_graph_engine\",\n"
             << "  \"config\": {\"kind\": \"" << kind << "\", \"n\": " << n << ", \"density\": "
             << density << ", \"rounds_cap\": " << cap << ", \"seed\": " << seed
             << ", \"workers\": " << workers << "},\n"
             << "  \"graph\": {\"vertices\": " << nv << ", \"edges\": " << graph.num_edges()
             << ", \"max_degree\": " << graph.max_degree() << "},\n"
             << "  \"run\": {\"rounds\": " << oracle.rounds << ", \"recolorings\": "
             << oracle.recolorings << ", \"streamed_rounds\": " << stream_records << "},\n"
             << "  \"full_sweep_vertex_rounds_per_sec\": " << oracle.vertex_rounds_per_sec(nv)
             << ",\n"
             << "  \"frontier_vertex_rounds_per_sec\": " << frontier.vertex_rounds_per_sec(nv)
             << ",\n"
             << "  \"speedup\": " << speedup << ",\n"
             << "  \"pooled_speedup\": " << pooled_speedup << ",\n"
             << "  \"bit_identical\": " << (identical ? "true" : "false") << ",\n"
             << "  \"serial_equals_pooled\": " << (pooled_identical ? "true" : "false") << ",\n"
             << "  \"target_speedup\": " << target << ",\n"
             << "  \"meets_target\": " << (meets_target ? "true" : "false") << "\n"
             << "}\n";
    std::cerr << "wrote " << path << "\n";
    return meets_target ? 0 : 1;
}

[[maybe_unused]] const bool registered = dynamo::scenario::register_scenario({
    "graph_engine",
    "perf",
    "CSR frontier graph engine vs full-sweep adjacency baseline on a "
    "million-vertex scale-free graph: throughput gate + bit-identity "
    "(BENCH_graph_engine.json)",
    0,
    {
        {"json-report", dynamo::scenario::ParamType::OptValue, "", "",
         "write the JSON record (default BENCH_graph_engine.json)"},
        {"kind", dynamo::scenario::ParamType::String, "ba", "",
         "graph kind (graph/builder.hpp names)"},
        {"n", dynamo::scenario::ParamType::Int, "1000000", "20000", "vertex count"},
        {"gparam", dynamo::scenario::ParamType::Double, "0", "",
         "kind-specific graph parameter (<= 0 = default)"},
        {"grule", dynamo::scenario::ParamType::String, "plurality-simple", "",
         "plurality-atleast2 | plurality-simple | plurality-strong"},
        {"density", dynamo::scenario::ParamType::Double, "0.45", "",
         "per-vertex probability of black in the initial field"},
        {"rounds", dynamo::scenario::ParamType::Int, "256", "64", "round cap per arm"},
        {"seed", dynamo::scenario::ParamType::Uint, "809489", "", "graph + field RNG seed"},
        {"workers", dynamo::scenario::ParamType::Int, "0", "2",
         "pooled-arm worker count (0 = hardware)"},
        {"target-speedup", dynamo::scenario::ParamType::Double, "5", "1",
         "gate: frontier must beat the full sweep by this factor"},
    },
    &scenario_main,
});

} // namespace
