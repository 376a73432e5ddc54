// Campaign-grade point scenarios: single-point workloads with typed
// parameters and machine-readable metrics, designed to be swept by
// `dynamo campaign` manifests (scenario/manifest.hpp). The bench/example
// scenarios reproduce whole paper artifacts in one run; these expose the
// underlying measurement as one grid point so a manifest can fan a sweep
// out over the ThreadPool and the result cache can memoize each point.
//
//   * mc_density_point      - one Monte-Carlo density cell (experiment M1)
//   * search_scaling_point  - one symmetry-reduced min-dynamo search
//                             (the BENCH_search_scaling.json workload)
//   * perf_smp_sweep        - packed vs generic engine timing (perf smoke)
#include <cstdio>
#include <string>

#include "analysis/montecarlo.hpp"
#include "core/builders.hpp"
#include "core/run/simulate.hpp"
#include "core/search/sharded.hpp"
#include "core/transform.hpp"
#include "grid/torus.hpp"
#include "rules/registry.hpp"
#include "scenario/scenario.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace dynamo;
using scenario::Context;
using scenario::ParamSpec;
using scenario::ParamType;

std::string fmt(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

int run_mc_density_point(Context& ctx) {
    const auto topo = grid::topology_from_string(ctx.args.get_string("topology", "mesh"));
    const auto m = ctx.args.get_int_as<std::uint32_t>("m", 12);
    const auto n = ctx.args.get_int_as<std::uint32_t>("n", 12);
    const rules::RuleInfo& rule = rules::rule_or_throw(ctx.args.get_string("rule", "smp"));
    // Bi-color rules narrow the default palette to {white, black}; an
    // explicit --colors still wins (and is validated against the rule).
    const auto colors = ctx.args.get_int_as<Color>("colors", rule.bicolor() ? 2 : 4);
    DYNAMO_REQUIRE(rule.admits_palette(colors),
                   std::string("palette size inadmissible for rule '") + rule.name + "'");
    const double density = ctx.args.get_double("density", 0.3);
    const std::uint64_t seed = ctx.args.get_uint64("seed", 53261);
    const Backend backend =
        backend_from_name(ctx.args.get_string("backend", "auto")).value();

    // ci_target > 0 switches the point to adaptive mode: the confidence
    // sequence decides the trial count, so an explicit trials= binding
    // would be a contradiction (and a silently ignored one is worse).
    const double ci_target = ctx.args.get_double("ci_target", 0.0);
    DYNAMO_REQUIRE(ci_target >= 0.0, "ci_target must be >= 0 (0 = fixed-trial mode)");
    const bool adaptive = ci_target > 0.0;
    DYNAMO_REQUIRE(!(adaptive && ctx.args.has("trials")),
                   "adaptive mode (ci_target > 0) decides the trial count itself; "
                   "drop trials= or set ci_target=0");
    const auto trials = ctx.args.get_int_as<std::size_t>("trials", 120);

    // The seeded faction: color 1 under color-symmetric rules, the black
    // (faulty) faction under the bi-color baselines.
    const Color k = rule.bicolor() ? kBlack : Color(1);
    const grid::Torus torus(topo, m, n);

    analysis::DensityPoint p;
    analysis::AdaptiveDensityPoint ap;
    if (adaptive) {
        analysis::AdaptiveOptions opts;
        const std::string boundary_str = ctx.args.get_string("boundary", "eb");
        const auto boundary = stats::boundary_from_name(boundary_str);
        DYNAMO_REQUIRE(boundary.has_value(),
                       "unknown boundary '" + boundary_str + "' (known: " +
                           stats::known_boundary_names() + ")");
        opts.stopping.boundary = *boundary;
        opts.stopping.ci_target = ci_target;
        opts.stopping.delta = ctx.args.get_double("delta", 0.05);
        opts.stopping.union_count = ctx.args.get_int_as<std::size_t>("union", 1);
        opts.max_trials = ctx.args.get_int_as<std::size_t>("max_trials", 10000);
        // Serial inside the point: campaigns parallelize ACROSS points, and
        // the adaptive runner is chunk- and pool-invariant anyway.
        ap = analysis::run_density_point_adaptive(torus, k, density, colors, seed, opts,
                                                  nullptr, &rule, backend);
        p = ap.point;
    } else {
        p = analysis::run_density_point(torus, k, density, colors, trials, seed, nullptr,
                                        &rule, backend);
    }

    ConsoleTable table({"density", "P(k-mono)", "lo95", "hi95", "other mono", "cycles",
                        "fixed pts", "mean rounds|mono", "mean final k-share"});
    table.add_row(p.density, p.p_k_mono(), p.p_ci_lower(), p.p_ci_upper(),
                  static_cast<double>(p.other_mono) / static_cast<double>(p.trials), p.cycles,
                  p.fixed_points, p.mean_rounds_mono, p.mean_final_k_fraction);
    ctx.out << "M1 density point on the " << to_string(topo) << " " << m << "x" << n << ", |C|="
            << int(colors) << ", rule " << rule.name << ", ";
    if (adaptive) {
        ctx.out << "adaptive (" << ctx.args.get_string("boundary", "eb") << ", ci_target "
                << fmt(ci_target) << "), " << p.trials << " trials used, seed " << seed << "\n";
    } else {
        ctx.out << trials << " trials, seed " << seed << "\n";
    }
    table.print(ctx.out);
    if (adaptive) {
        ctx.out << "anytime CI [" << fmt(ap.lower) << ", " << fmt(ap.upper) << "] half-width "
                << fmt(ap.half_width) << ", " << (ap.converged ? "converged" : "hit max_trials")
                << ", computed " << ap.computed << " trials (incl. discarded chunk tail)\n";
    }

    ctx.metrics["trials"] = std::to_string(p.trials);
    ctx.metrics["k_mono"] = std::to_string(p.k_mono);
    ctx.metrics["other_mono"] = std::to_string(p.other_mono);
    ctx.metrics["cycles"] = std::to_string(p.cycles);
    ctx.metrics["fixed_points"] = std::to_string(p.fixed_points);
    ctx.metrics["p_k_mono"] = fmt(p.p_k_mono());
    ctx.metrics["p_ci95_half"] = fmt(p.p_ci_half());
    ctx.metrics["p_ci95_lo"] = fmt(p.p_ci_lower());
    ctx.metrics["p_ci95_hi"] = fmt(p.p_ci_upper());
    ctx.metrics["mean_rounds_mono"] = fmt(p.mean_rounds_mono);
    ctx.metrics["mean_final_k_share"] = fmt(p.mean_final_k_fraction);
    if (adaptive) {
        ctx.metrics["ci_half"] = fmt(ap.half_width);
        ctx.metrics["ci_lo"] = fmt(ap.lower);
        ctx.metrics["ci_hi"] = fmt(ap.upper);
        ctx.metrics["converged"] = ap.converged ? "true" : "false";
        ctx.metrics["decided"] = std::to_string(ap.decided);
    }
    return 0;
}

[[maybe_unused]] const bool reg_mc = scenario::register_scenario({
    "mc_density_point",
    "point",
    "One Monte-Carlo random-seeding density cell (experiment M1) with "
    "deterministic per-trial RNG substreams",
    0,
    {
        {"topology", ParamType::String, "mesh", "", "mesh | cordalis | serpentinus"},
        {"m", ParamType::Int, "12", "6", "torus rows"},
        {"n", ParamType::Int, "12", "6", "torus columns"},
        {"rule", ParamType::Rule, "smp", "", "local rule the trials run under"},
        {"backend", ParamType::Backend, "auto", "",
         "engine backend each trial steps (identical outcomes across backends)"},
        {"colors", ParamType::Int, "4", "3", "palette size |C| (bi-color rules default to 2)"},
        {"density", ParamType::Double, "0.3", "", "per-vertex probability of the seeded color"},
        {"trials", ParamType::Int, "120", "6",
         "random colorings per point (fixed mode; forbidden when ci_target > 0)"},
        {"seed", ParamType::Uint, "53261", "", "base RNG seed (trial t uses substream t)"},
        {"ci_target", ParamType::Double, "0", "",
         "adaptive mode: stop when the anytime CI half-width reaches this (0 = fixed trials)"},
        {"delta", ParamType::Double, "0.05", "",
         "adaptive error budget: the anytime CI covers with probability 1 - delta"},
        {"boundary", ParamType::String, "eb", "",
         "confidence-sequence boundary: eb | hoeffding"},
        {"union", ParamType::Int, "1", "",
         "concurrent grid points sharing delta (cross-point union bound)"},
        {"max_trials", ParamType::Int, "10000", "60", "adaptive hard trial cap"},
    },
    &run_mc_density_point,
});

int run_search_scaling_point(Context& ctx) {
    const auto topo = grid::topology_from_string(ctx.args.get_string("topology", "mesh"));
    const auto rows = ctx.args.get_int_as<std::uint32_t>("rows", 4);
    const auto cols = ctx.args.get_int_as<std::uint32_t>("cols", 4);
    const rules::RuleInfo& rule = rules::rule_or_throw(ctx.args.get_string("rule", "smp"));
    const auto colors = ctx.args.get_int_as<Color>("colors", rule.bicolor() ? 2 : 3);
    const auto max_size = ctx.args.get_int_as<std::uint32_t>("max-size", 4);
    const auto budget = ctx.args.get_int_as<std::uint64_t>("budget", 2'000'000);
    const auto shards = ctx.args.get_int_as<unsigned>("shards", 8);

    const grid::Torus torus(topo, rows, cols);
    ParallelSearchOptions opts;
    opts.base.total_colors = colors;
    opts.base.max_sims = budget;
    // The drivers normalize the SMP entry onto the pinned seed-era path
    // themselves, and validate palette + quotient soundness per rule.
    opts.base.rule = &rule;
    opts.num_shards = shards;
    // Serial on purpose: the outcome is bit-identical pooled vs serial
    // (PR-3 guarantee), and campaigns parallelize across points.
    const SearchOutcome out = parallel_min_dynamo(torus, max_size, opts);

    const std::string min_size = out.min_size == SearchOutcome::kNoDynamo
                                     ? std::string("none")
                                     : std::to_string(out.min_size);
    ConsoleTable table({"torus", "|C|", "sizes", "min size", "complete", "sims", "candidates",
                        "covered", "reduction"});
    table.add_row(std::to_string(rows) + "x" + std::to_string(cols), static_cast<int>(colors),
                  "1.." + std::to_string(max_size), min_size, out.complete, out.sims,
                  out.candidates, out.covered, fmt(out.reduction_factor) + "x");
    ctx.out << "symmetry-reduced min monotone dynamo search on the " << to_string(topo)
            << " under rule " << rule.name << " (budget " << budget << " sims, " << shards
            << " shards)\n";
    table.print(ctx.out);

    ctx.metrics["complete"] = out.complete ? "true" : "false";
    ctx.metrics["min_size"] = min_size;
    ctx.metrics["probed_max_size"] = std::to_string(out.probed_max_size);
    ctx.metrics["sims"] = std::to_string(out.sims);
    ctx.metrics["candidates"] = std::to_string(out.candidates);
    ctx.metrics["covered"] = std::to_string(out.covered);
    ctx.metrics["group_order"] = std::to_string(out.group_order);
    ctx.metrics["reduction_factor"] = fmt(out.reduction_factor);
    return 0;
}

[[maybe_unused]] const bool reg_search_point = scenario::register_scenario({
    "search_scaling_point",
    "point",
    "One symmetry-reduced sharded min-dynamo search (the committed "
    "BENCH_search_scaling.json workload as a cacheable grid point)",
    0,
    {
        {"topology", ParamType::String, "mesh", "", "mesh | cordalis | serpentinus"},
        {"rows", ParamType::Int, "4", "3", "torus rows"},
        {"cols", ParamType::Int, "4", "3", "torus columns"},
        {"rule", ParamType::Rule, "smp", "", "local rule candidates are verified under"},
        {"colors", ParamType::Int, "3", "", "palette size |C| (bi-color rules default to 2)"},
        {"max-size", ParamType::Int, "4", "2", "probe seed-set sizes 1..N"},
        {"budget", ParamType::Int, "2000000", "20000", "simulation budget"},
        {"shards", ParamType::Int, "8", "", "deterministic decomposition width"},
    },
    &run_search_scaling_point,
});

int run_perf_smp_sweep(Context& ctx) {
    const auto topo = grid::topology_from_string(ctx.args.get_string("topology", "mesh"));
    const auto m = ctx.args.get_int_as<std::uint32_t>("m", 256);
    const auto n = ctx.args.get_int_as<std::uint32_t>("n", 256);
    const rules::RuleInfo& rule = rules::rule_or_throw(ctx.args.get_string("rule", "smp"));
    const Backend backend =
        backend_from_name(ctx.args.get_string("backend", "packed")).value();

    const grid::Torus torus(topo, m, n);
    const Configuration cfg = build_minimum_dynamo(torus);
    // Bi-color rules run the phi-collapse of the same configuration (the
    // seeds become the black faction, Propositions 1-2 style); the run is
    // a long flood under the simple majorities, which is the useful
    // fast-path-vs-generic workload.
    const ColorField field = rule.bicolor() ? phi_collapse(cfg.field, cfg.k) : cfg.field;

    RunOptions fast_opts;
    fast_opts.backend = backend;
    Stopwatch fast_watch;
    const RunResult fast = rule.run(torus, field, fast_opts);
    const double fast_ms = fast_watch.millis();

    RunOptions generic_opts;
    generic_opts.backend = Backend::Generic;
    Stopwatch generic_watch;
    const RunResult generic = rule.run(torus, field, generic_opts);
    const double generic_ms = generic_watch.millis();

    const bool identical = fast.rounds == generic.rounds &&
                           fast.termination == generic.termination &&
                           fast.final_colors == generic.final_colors;
    const double cells_rounds = static_cast<double>(torus.size()) * fast.rounds;
    ConsoleTable table({"engine", "rounds", "ms", "cell-rounds/s"});
    table.add_row(backend_name(backend), fast.rounds, fast_ms,
                  fast_ms > 0 ? cells_rounds / (fast_ms / 1e3) : 0.0);
    table.add_row("generic", generic.rounds, generic_ms,
                  generic_ms > 0 ? cells_rounds / (generic_ms / 1e3) : 0.0);
    ctx.out << backend_name(backend) << " vs generic full run of the minimum dynamo on the "
            << to_string(topo) << " " << m << "x" << n << " under rule " << rule.name << "\n";
    table.print(ctx.out);
    ctx.out << "trajectories " << (identical ? "bit-identical" : "DIVERGED") << "\n";
    ctx.out << "speedup (generic/" << backend_name(backend)
            << "): " << fmt(fast_ms > 0 ? generic_ms / fast_ms : 0.0) << "x\n";

    // Wall-clock numbers stay in the report text: metrics feed the result
    // cache and campaign reports, which promise to be pure functions of
    // the parameters (serial == pooled, warm == cold).
    ctx.metrics["rounds"] = std::to_string(fast.rounds);
    ctx.metrics["identical"] = identical ? "true" : "false";
    return identical ? 0 : 1;
}

[[maybe_unused]] const bool reg_perf = scenario::register_scenario({
    "perf_smp_sweep",
    "perf",
    "Fast-path vs table-driven engine on one full dynamo run: wall time, "
    "throughput, and a trajectory-identity check",
    0,
    {
        {"topology", ParamType::String, "mesh", "", "mesh | cordalis | serpentinus"},
        {"m", ParamType::Int, "256", "48", "torus rows"},
        {"n", ParamType::Int, "256", "48", "torus columns"},
        {"rule", ParamType::Rule, "smp", "majority-prefer-black",
         "local rule to race against the generic baseline"},
        {"backend", ParamType::Backend, "packed", "",
         "fast-path engine to race (packed | active | bitplane | auto)"},
    },
    &run_perf_smp_sweep,
});

} // namespace
