// Adaptive phase-transition scenarios: locate a rule's critical density
// (the sharp Below -> Above flip of the flood-probability curve) with a
// ladder + bisection refinement (stats/refine.hpp) whose probes are
// adaptive Monte-Carlo density points in DECISION mode — each probe runs
// only as many trials as its confidence sequence needs to put the flood
// probability on one side of 1/2 (stats/confidence.hpp). The whole
// bracket is simultaneously valid at level 1 - delta: the per-probe error
// budget is delta / max_probes (the cross-point union bound), and every
// probe's trial substreams derive from substream_seed(seed, probe_index),
// so the bracket is a pure function of (params, seed, delta).
//
//   * mc_critical_density - one rule x topology critical-density bracket
//     (the atlas campaign in manifests/atlas_phase_transition.json fans
//     this point out over the 12-rule registry x 3 topologies)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/montecarlo.hpp"
#include "core/run/batch.hpp"
#include "core/transform.hpp"
#include "grid/torus.hpp"
#include "rules/registry.hpp"
#include "scenario/scenario.hpp"
#include "stats/refine.hpp"
#include "util/table.hpp"

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

int run_mc_critical_density(Context& ctx) {
    const auto topo = grid::topology_from_string(ctx.args.get_string("topology", "mesh"));
    const auto m = ctx.args.get_int_as<std::uint32_t>("m", 12);
    const auto n = ctx.args.get_int_as<std::uint32_t>("n", 12);
    const rules::RuleInfo& rule = rules::rule_or_throw(ctx.args.get_string("rule", "smp"));
    const auto colors = ctx.args.get_int_as<Color>("colors", rule.bicolor() ? 2 : 4);
    DYNAMO_REQUIRE(rule.admits_palette(colors),
                   std::string("palette size inadmissible for rule '") + rule.name + "'");
    const std::uint64_t seed = ctx.args.get_uint64("seed", 97111);
    const Backend backend =
        backend_from_name(ctx.args.get_string("backend", "auto")).value();

    stats::RefineOptions refine;
    refine.ladder = ctx.args.get_int_as<std::size_t>("ladder", 6);
    refine.bracket_target = ctx.args.get_double("bracket_target", 0.02);
    refine.max_probes = ctx.args.get_int_as<std::size_t>("max_probes", 32);

    analysis::AdaptiveOptions probe_opts;
    const std::string boundary_str = ctx.args.get_string("boundary", "eb");
    const auto boundary = stats::boundary_from_name(boundary_str);
    DYNAMO_REQUIRE(boundary.has_value(),
                   "unknown boundary '" + boundary_str + "' (known: " +
                       stats::known_boundary_names() + ")");
    probe_opts.stopping.boundary = *boundary;
    probe_opts.stopping.delta = ctx.args.get_double("delta", 0.05);
    // One probe = one concurrent sequence: split delta across the probe
    // budget so the WHOLE bracket is valid at 1 - delta.
    probe_opts.stopping.union_count = refine.max_probes;
    probe_opts.stopping.decision_threshold = 0.5;
    probe_opts.max_trials = ctx.args.get_int_as<std::size_t>("max_trials", 10000);

    const Color k = rule.bicolor() ? kBlack : Color(1);
    const grid::Torus torus(topo, m, n);

    // Warm start: each probe raises its stopping rule's FIRST checkpoint
    // to half the decision time of the nearest previously-decided
    // density. The neighbor's stopping time already proved the earlier
    // checkpoints uninformative at a nearby density, and every checkpoint
    // skipped leaves a larger delta_k slice for the one that finally
    // decides — so decisions arrive in fewer trials. Soundness: an
    // anytime-valid boundary holds for ANY predeclared checkpoint
    // schedule, and this one depends only on earlier probes in
    // refine_critical's fixed issue order — never on the current probe's
    // own stream — so the bracket stays a pure function of (params, seed)
    // and its 1 - delta guarantee is untouched. The raise is clamped to 8x
    // the base so a cheap flat-end probe after an expensive
    // near-threshold neighbor overpays by at most that bound.
    const std::size_t base_min = probe_opts.stopping.min_trials;
    struct IssuedProbe {
        double x;
        std::size_t trials;
        bool decided;
    };
    std::vector<IssuedProbe> issued;
    std::size_t warm_probes = 0;

    std::size_t trials_total = 0;
    // Serial inside the point (campaigns parallelize across points); the
    // probe index seeds the probe's private substream family.
    const stats::CriticalBracket bracket = stats::refine_critical(
        refine, [&](double density, std::size_t index) {
            analysis::AdaptiveOptions opts = probe_opts;
            const IssuedProbe* nearest = nullptr;
            for (const IssuedProbe& past : issued) {
                if (!past.decided) continue;
                if (nearest == nullptr ||
                    std::abs(past.x - density) < std::abs(nearest->x - density))
                    nearest = &past;
            }
            if (nearest != nullptr) {
                const std::size_t raised = std::min(nearest->trials / 2, base_min * 8);
                if (raised > base_min) {
                    opts.stopping.min_trials = raised;
                    ++warm_probes;
                }
            }
            const analysis::AdaptiveDensityPoint probe = analysis::run_density_point_adaptive(
                torus, k, density, colors, substream_seed(seed, index), opts, nullptr,
                &rule, backend);
            trials_total += probe.point.trials;
            issued.push_back({density, probe.point.trials, probe.decided != 0});
            if (probe.decided < 0) return stats::ProbeSide::Below;
            if (probe.decided > 0) return stats::ProbeSide::Above;
            return stats::ProbeSide::Undecided;
        });

    ConsoleTable probes({"probe", "density", "side"});
    for (const stats::ProbeRecord& record : bracket.probes) {
        probes.add_row(record.index, record.x, stats::probe_side_name(record.side));
    }
    ctx.out << "critical density of rule " << rule.name << " on the " << to_string(topo) << " "
            << m << "x" << n << ", |C|=" << int(colors) << " (decision probes at p = 1/2, "
            << "delta " << fmt(probe_opts.stopping.delta) << " across <= " << refine.max_probes
            << " probes, seed " << seed << ")\n";
    probes.print(ctx.out);
    if (bracket.found) {
        ctx.out << "bracket [" << fmt(bracket.lo) << ", " << fmt(bracket.hi) << "] width "
                << fmt(bracket.width()) << " midpoint " << fmt(bracket.midpoint()) << " ("
                << (bracket.converged ? "converged" : "budget/resolution limit") << "), "
                << trials_total << " trials total\n";
    } else {
        ctx.out << "no Below -> Above crossing on [" << fmt(bracket.lo) << ", "
                << fmt(bracket.hi) << "] — the curve never crossed p = 1/2 at this "
                << "resolution (" << trials_total << " trials total)\n";
    }

    ctx.metrics["found"] = bracket.found ? "true" : "false";
    ctx.metrics["converged"] = bracket.converged ? "true" : "false";
    ctx.metrics["critical_lo"] = fmt(bracket.lo);
    ctx.metrics["critical_hi"] = fmt(bracket.hi);
    ctx.metrics["critical_mid"] = fmt(bracket.midpoint());
    ctx.metrics["bracket_width"] = fmt(bracket.width());
    ctx.metrics["probes"] = std::to_string(bracket.probes.size());
    ctx.metrics["trials_total"] = std::to_string(trials_total);
    ctx.metrics["warm_probes"] = std::to_string(warm_probes);
    return 0;
}

[[maybe_unused]] const bool reg_critical = scenario::register_scenario({
    "mc_critical_density",
    "point",
    "Critical-density bracket of one rule x topology: ladder + bisection "
    "refinement with adaptive decision probes (anytime-valid at 1 - delta)",
    // Epoch 1: probes warm-start their checkpoint schedule from the
    // nearest decided neighbor by default, so default-parameter results
    // (trial counts, possibly decisions) moved — epoch-0 entries are
    // orphaned rather than silently served.
    1,
    {
        {"topology", ParamType::String, "mesh", "", "mesh | cordalis | serpentinus"},
        {"m", ParamType::Int, "12", "6", "torus rows"},
        {"n", ParamType::Int, "12", "6", "torus columns"},
        {"rule", ParamType::Rule, "smp", "", "local rule whose critical density to bracket"},
        {"backend", ParamType::Backend, "auto", "",
         "engine backend each trial steps (identical outcomes across backends)"},
        {"colors", ParamType::Int, "4", "3", "palette size |C| (bi-color rules default to 2)"},
        {"seed", ParamType::Uint, "97111", "",
         "base RNG seed (probe j uses substream family substream_seed(seed, j))"},
        {"delta", ParamType::Double, "0.05", "",
         "total error budget of the bracket (union bound across probes)"},
        {"boundary", ParamType::String, "eb", "",
         "confidence-sequence boundary: eb | hoeffding"},
        {"ladder", ParamType::Int, "6", "4", "coarse scan points, endpoints included"},
        {"bracket_target", ParamType::Double, "0.02", "0.25", "target bracket width"},
        {"max_probes", ParamType::Int, "32", "6", "total probe budget: ladder + bisection"},
        {"max_trials", ParamType::Int, "10000", "40", "per-probe hard trial cap"},
    },
    &run_mc_critical_density,
});

} // namespace
