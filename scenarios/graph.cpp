// Campaign-grade large-graph scenario: one (graph kind, rule, density)
// cell of the general-graph extension, run through the CSR frontier
// engine (core/sim/csr_graph_engine.hpp) with optional streaming
// observability - per-round JSONL records and latency histograms
// (io/run_stream.hpp) plus a time-to-consensus survival curve
// (analysis/survival.hpp) - so a manifest can sweep topology x rule x
// density at scale and `tail -f` any point's stream file live.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/survival.hpp"
#include "core/run/batch.hpp"
#include "core/transform.hpp"
#include "graph/builder.hpp"
#include "io/jsonl.hpp"
#include "io/run_stream.hpp"
#include "scenario/scenario.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace dynamo;
using scenario::Context;
using scenario::ParamType;

std::string fmt(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

int run_graph_dynamics_point(Context& ctx) {
    const std::string kind = ctx.args.get_string("kind", "ba");
    const auto n = ctx.args.get_int_as<std::size_t>("n", 4096);
    const double gparam = ctx.args.get_double("gparam", 0.0);
    const std::string grule = ctx.args.get_string("grule", "plurality-simple");
    const double density = ctx.args.get_double("density", 0.3);
    const auto trials = ctx.args.get_int_as<std::size_t>("trials", 32);
    const std::uint64_t seed = ctx.args.get_uint64("seed", 97251);
    const std::string stream_path = ctx.args.get_string("stream", "");

    Xoshiro256 graph_rng(seed);
    const graphx::Graph graph = graphx::build_graph(kind, n, gparam, graph_rng.next());

    std::ofstream stream_file;
    if (!stream_path.empty()) {
        stream_file.open(stream_path, std::ios::trunc);
        DYNAMO_REQUIRE(stream_file.is_open(), "cannot open stream file " + stream_path);
    }
    io::JsonlWriter stream(stream_path.empty() ? nullptr : &stream_file);

    // Per-trial accounting for the survival curve: the event is reaching
    // the black monochromatic state; a trial ending any other way within
    // its cap is censored at the cap.
    std::size_t consensus = 0;
    std::uint64_t rounds_mono_sum = 0;
    std::vector<std::uint32_t> event_rounds;
    for (std::size_t t = 0; t < trials; ++t) {
        Xoshiro256 rng(substream_seed(seed, t));
        ColorField field(graph.num_vertices());
        for (auto& c : field) c = rng.bernoulli(density) ? kBlack : kWhite;

        RunOptions opts;
        opts.target = kBlack;
        io::RoundStreamObserver::Options obs_opts;
        io::RoundStreamObserver observer(stream, obs_opts);
        if (stream.enabled()) opts.observers.push_back(&observer);

        const RunResult r = graphx::run_graph_rule(grule, graph, field, opts);
        if (r.reached_mono(kBlack)) {
            ++consensus;
            rounds_mono_sum += r.rounds;
            event_rounds.push_back(r.rounds);
        }
    }

    const auto survival =
        analysis::SurvivalCurve::from_rounds(event_rounds, trials - consensus);
    if (stream.enabled()) {
        util::JsonObject o;
        o.reserve(2);  // also sidesteps a GCC-12 -Warray-bounds false positive
        o.emplace_back("type", util::Json("survival"));
        o.emplace_back("curve", survival.to_json());
        stream.write(util::Json(std::move(o)));
    }

    const double p_consensus =
        trials == 0 ? 0.0 : static_cast<double>(consensus) / static_cast<double>(trials);
    const double mean_rounds =
        consensus == 0 ? 0.0
                       : static_cast<double>(rounds_mono_sum) / static_cast<double>(consensus);
    const auto median = survival.median_round();

    ConsoleTable table({"graph", "|V|", "|E|", "max deg", "rule", "P(consensus)",
                        "mean rounds|mono", "median round"});
    table.add_row(kind, graph.num_vertices(), graph.num_edges(), graph.max_degree(), grule,
                  p_consensus, mean_rounds,
                  median ? std::to_string(*median) : std::string("none"));
    ctx.out << "graph dynamics point: " << kind << " n=" << graph.num_vertices() << ", rule "
            << grule << ", density " << fmt(density) << ", " << trials << " trials, seed "
            << seed << "\n";
    table.print(ctx.out);

    ctx.metrics["vertices"] = std::to_string(graph.num_vertices());
    ctx.metrics["edges"] = std::to_string(graph.num_edges());
    ctx.metrics["consensus"] = std::to_string(consensus);
    ctx.metrics["p_consensus"] = fmt(p_consensus);
    ctx.metrics["mean_rounds_mono"] = fmt(mean_rounds);
    ctx.metrics["median_round"] = median ? std::to_string(*median) : "none";
    return 0;
}

[[maybe_unused]] const bool reg_graph_point = scenario::register_scenario({
    "graph_dynamics_point",
    "point",
    "One (graph kind, rule, density) cell through the CSR frontier engine, "
    "with optional per-round JSONL streaming and a survival curve",
    0,
    {
        {"kind", ParamType::String, "ba", "",
         "graph kind: ba | er | ws | ring | lollipop | expander | torus-mesh | "
         "torus-cordalis | torus-serpentinus"},
        {"n", ParamType::Int, "4096", "96", "vertex count (tori round to rows*cols)"},
        {"gparam", ParamType::Double, "0", "",
         "kind-specific parameter (<= 0 = default): ba attach count, er edge p, ws beta, "
         "ring half-width, lollipop clique fraction, expander degree"},
        {"grule", ParamType::String, "plurality-simple", "",
         "graph rule: plurality-atleast2 | plurality-simple | plurality-strong | "
         "threshold-1..8"},
        {"density", ParamType::Double, "0.3", "", "per-vertex probability of black"},
        {"trials", ParamType::Int, "32", "4", "random initial colorings per point"},
        {"seed", ParamType::Uint, "97251", "", "base RNG seed (trial t uses substream t)"},
        {"stream", ParamType::String, "", "",
         "JSONL stream file for per-round records + survival curve ('' = off)"},
    },
    &run_graph_dynamics_point,
});

} // namespace
