// PERF: adaptive Monte-Carlo vs fixed-trial estimation - the value
// proposition of the src/stats/ sequential-stopping subsystem, measured
// on the committed reference workload (majority-prefer-black on the
// toroidal mesh).
//
// Two gates, same JSON record (BENCH_adaptive_mc.json):
//
//   * width arm - at the flat ends of the density sweep (p ~ 0 and ~ 1)
//     the empirical-Bernstein boundary collapses like 1/n, so reaching CI
//     half-width epsilon must cost >= 2x fewer trials than the a-priori
//     fixed design n = z^2 / (4 eps^2) (the worst-case-variance Wilson
//     plan a fixed-trial experiment has to commit to up front);
//
//   * decision arm - on a pinned density grid, adaptive decision-mode
//     probes (stop when the CI excludes p = 1/2) must reach the SAME
//     flood/no-flood decisions as a fixed-oracle-trials census while
//     spending >= 2x fewer trials in total.
//
// Everything is deterministic (per-arm RNG substream families), so the
// JSON record is byte-reproducible - no wall-clock enters it.
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/montecarlo.hpp"
#include "core/run/batch.hpp"
#include "core/transform.hpp"
#include "rules/registry.hpp"
#include "util/cli.hpp"

#include "scenario/scenario.hpp"

namespace {

using namespace dynamo;

struct WidthPoint {
    double density = 0.0;
    std::size_t adaptive_trials = 0;
    std::size_t fixed_design = 0;
    double estimate = 0.0;
    double half_width = 0.0;
    bool converged = false;

    double savings() const {
        return adaptive_trials > 0
                   ? static_cast<double>(fixed_design) / static_cast<double>(adaptive_trials)
                   : 0.0;
    }
};

struct DecisionPoint {
    double density = 0.0;
    double oracle_p = 0.0;
    int oracle_decision = 0;    ///< Wilson 95% CI vs 1/2 at oracle_trials
    int adaptive_decision = 0;  ///< anytime CI vs 1/2
    std::size_t adaptive_trials = 0;

    bool agrees() const {
        return oracle_decision == 0 || adaptive_decision == oracle_decision;
    }
};

const char* decision_name(int d) {
    return d < 0 ? "no-flood" : d > 0 ? "flood" : "undecided";
}

int scenario_main(dynamo::scenario::Context& ctx) {
    std::ostream& out = ctx.out;
    const CliArgs& args = ctx.args;
    if (args.has("help")) {
        out << "bench_adaptive_mc - adaptive sequential stopping vs fixed-trial census\n"
               "  --json-report[=FILE]  write the JSON record (default "
               "BENCH_adaptive_mc.json)\n"
               "  --m N --n N           torus size (default 8x8)\n"
               "  --rule NAME           local rule (default majority-prefer-black)\n"
               "  --epsilon E           width-arm CI half-width target (default 0.01)\n"
               "  --delta D             error budget per arm (default 0.05)\n"
               "  --oracle-trials N     fixed-census trials per grid point (default 10000)\n";
        return 0;
    }
    const auto m = args.get_int_as<std::uint32_t>("m", 8);
    const auto n = args.get_int_as<std::uint32_t>("n", 8);
    const rules::RuleInfo& rule =
        rules::rule_or_throw(args.get_string("rule", "majority-prefer-black"));
    const auto colors = static_cast<Color>(rule.bicolor() ? 2 : 4);
    const double epsilon = args.get_double("epsilon", 0.01);
    const double delta = args.get_double("delta", 0.05);
    const auto oracle_trials = args.get_int_as<std::size_t>("oracle-trials", 10000);
    const bool write_json = args.has("json-report");
    std::string path = args.get_string("json-report", "");
    if (path.empty()) path = "BENCH_adaptive_mc.json";  // bare --json-report flag
    constexpr double kTargetSavings = 2.0;
    constexpr std::uint64_t kSeed = 0xADA97;

    const Color k = rule.bicolor() ? kBlack : Color(1);
    const grid::Torus torus(grid::Topology::ToroidalMesh, m, n);
    // The pinned grid: flat ends, both shoulders, and the middle - the
    // committed workload the decisions are compared on.
    const std::vector<double> grid_densities{0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95};
    const std::vector<double> flat_densities{0.05, 0.95};

    // The fixed-trial comparator for half-width epsilon: without adaptive
    // stopping the experiment must plan for worst-case variance p = 1/2,
    // n = z^2 / (4 eps^2) (z = Wilson/normal 95%).
    const double z = 1.959963985;
    const auto fixed_design =
        static_cast<std::size_t>(std::ceil(z * z / (4.0 * epsilon * epsilon)));

    // --- width arm: flat points to half-width epsilon --------------------
    std::vector<WidthPoint> width_points;
    for (std::size_t i = 0; i < flat_densities.size(); ++i) {
        analysis::AdaptiveOptions opts;
        opts.stopping.boundary = stats::Boundary::EmpiricalBernstein;
        opts.stopping.ci_target = epsilon;
        opts.stopping.delta = delta;
        opts.stopping.union_count = flat_densities.size();
        opts.max_trials = 3 * fixed_design;
        const analysis::AdaptiveDensityPoint p = analysis::run_density_point_adaptive(
            torus, k, flat_densities[i], colors, substream_seed(kSeed, i), opts, nullptr,
            &rule);
        width_points.push_back({flat_densities[i], p.point.trials, fixed_design,
                                p.point.p_k_mono(), p.half_width, p.converged});
    }

    // --- decision arm: pinned grid, adaptive vs fixed oracle --------------
    std::vector<DecisionPoint> decision_points;
    std::size_t oracle_total = 0;
    std::size_t adaptive_total = 0;
    for (std::size_t i = 0; i < grid_densities.size(); ++i) {
        DecisionPoint d;
        d.density = grid_densities[i];

        const analysis::DensityPoint oracle = analysis::run_density_point(
            torus, k, d.density, colors, oracle_trials, substream_seed(kSeed, 100 + i),
            nullptr, &rule);
        d.oracle_p = oracle.p_k_mono();
        if (oracle.p_ci_lower() > 0.5) d.oracle_decision = 1;
        if (oracle.p_ci_upper() < 0.5) d.oracle_decision = -1;
        oracle_total += oracle.trials;

        analysis::AdaptiveOptions opts;
        opts.stopping.boundary = stats::Boundary::EmpiricalBernstein;
        opts.stopping.delta = delta;
        opts.stopping.union_count = grid_densities.size();
        opts.stopping.decision_threshold = 0.5;
        opts.max_trials = oracle_trials;  // never allowed to outspend the oracle per point
        const analysis::AdaptiveDensityPoint adaptive = analysis::run_density_point_adaptive(
            torus, k, d.density, colors, substream_seed(kSeed, 100 + i), opts, nullptr, &rule);
        d.adaptive_decision = adaptive.decided;
        d.adaptive_trials = adaptive.point.trials;
        adaptive_total += adaptive.point.trials;
        decision_points.push_back(d);
    }

    // --- gates ------------------------------------------------------------
    double min_width_savings = 0.0;
    bool width_converged = true;
    for (const WidthPoint& p : width_points) {
        if (min_width_savings == 0.0 || p.savings() < min_width_savings)
            min_width_savings = p.savings();
        width_converged = width_converged && p.converged;
    }
    bool agreement = true;
    for (const DecisionPoint& d : decision_points) agreement = agreement && d.agrees();
    const double decision_savings =
        adaptive_total > 0
            ? static_cast<double>(oracle_total) / static_cast<double>(adaptive_total)
            : 0.0;
    const bool width_ok = width_converged && min_width_savings >= kTargetSavings;
    const bool decision_ok = agreement && decision_savings >= kTargetSavings;
    const bool meets_target = width_ok && decision_ok;

    // --- report -----------------------------------------------------------
    out << "adaptive MC vs fixed-trial census: rule " << rule.name << " on the mesh " << m
        << "x" << n << ", delta " << delta << "\n\n";
    out << "width arm (target half-width " << epsilon << ", fixed design " << fixed_design
        << " trials):\n";
    for (const WidthPoint& p : width_points) {
        out << "  density " << p.density << ": " << p.adaptive_trials << " trials (p = "
            << p.estimate << " +- " << p.half_width << ", "
            << (p.converged ? "converged" : "HIT CAP") << "), savings " << p.savings()
            << "x\n";
    }
    out << "decision arm (pinned grid vs " << oracle_trials << "-trial oracle):\n";
    for (const DecisionPoint& d : decision_points) {
        out << "  density " << d.density << ": oracle p = " << d.oracle_p << " -> "
            << decision_name(d.oracle_decision) << ", adaptive "
            << decision_name(d.adaptive_decision) << " in " << d.adaptive_trials << " trials"
            << (d.agrees() ? "" : " [DISAGREES]") << "\n";
    }
    out << "decision totals: oracle " << oracle_total << ", adaptive " << adaptive_total
        << " (savings " << decision_savings << "x)\n";
    out << "gates: width >= " << kTargetSavings << "x: " << (width_ok ? "PASS" : "FAIL")
        << ", decisions agree + >= " << kTargetSavings
        << "x: " << (decision_ok ? "PASS" : "FAIL") << "\n";

    if (!write_json) return meets_target ? 0 : 1;
    std::ofstream json_out(path);
    if (!json_out) {
        std::cerr << "cannot open " << path << " for writing\n";
        return 1;
    }
    json_out << "{\n"
             << "  \"bench\": \"bench_adaptive_mc\",\n"
             << "  \"config\": {\"topology\": \"toroidal-mesh\", \"m\": " << m
             << ", \"n\": " << n << ", \"rule\": \"" << rule.name << "\", \"epsilon\": "
             << epsilon << ", \"delta\": " << delta << ", \"oracle_trials\": " << oracle_trials
             << ", \"seed\": " << kSeed << "},\n"
             << "  \"width_arm\": {\"fixed_design\": " << fixed_design << ", \"points\": [\n";
    for (std::size_t i = 0; i < width_points.size(); ++i) {
        const WidthPoint& p = width_points[i];
        json_out << "    {\"density\": " << p.density << ", \"adaptive_trials\": "
                 << p.adaptive_trials << ", \"estimate\": " << p.estimate
                 << ", \"half_width\": " << p.half_width << ", \"converged\": "
                 << (p.converged ? "true" : "false") << ", \"savings\": " << p.savings()
                 << "}" << (i + 1 < width_points.size() ? "," : "") << "\n";
    }
    json_out << "  ], \"min_savings\": " << min_width_savings << "},\n"
             << "  \"decision_arm\": {\"points\": [\n";
    for (std::size_t i = 0; i < decision_points.size(); ++i) {
        const DecisionPoint& d = decision_points[i];
        json_out << "    {\"density\": " << d.density << ", \"oracle_p\": " << d.oracle_p
                 << ", \"oracle_decision\": \"" << decision_name(d.oracle_decision)
                 << "\", \"adaptive_decision\": \"" << decision_name(d.adaptive_decision)
                 << "\", \"adaptive_trials\": " << d.adaptive_trials << ", \"agrees\": "
                 << (d.agrees() ? "true" : "false") << "}"
                 << (i + 1 < decision_points.size() ? "," : "") << "\n";
    }
    json_out << "  ], \"oracle_total\": " << oracle_total << ", \"adaptive_total\": "
             << adaptive_total << ", \"savings\": " << decision_savings
             << ", \"agreement\": " << (agreement ? "true" : "false") << "},\n"
             << "  \"target_savings\": " << kTargetSavings << ",\n"
             << "  \"meets_target\": " << (meets_target ? "true" : "false") << "\n"
             << "}\n";
    std::cerr << "wrote " << path << "\n";
    return meets_target ? 0 : 1;
}

[[maybe_unused]] const bool registered = dynamo::scenario::register_scenario({
    "adaptive_mc",
    "perf",
    "Adaptive sequential stopping vs fixed-trial census: CI-width savings on "
    "flat points and decision agreement on the pinned grid "
    "(BENCH_adaptive_mc.json)",
    0,
    {
        {"json-report", dynamo::scenario::ParamType::OptValue, "", "",
         "write the JSON record (default BENCH_adaptive_mc.json)"},
        {"m", dynamo::scenario::ParamType::Int, "8", "6", "torus rows"},
        {"n", dynamo::scenario::ParamType::Int, "8", "6", "torus columns"},
        {"rule", dynamo::scenario::ParamType::Rule, "majority-prefer-black", "",
         "local rule the trials run under"},
        {"epsilon", dynamo::scenario::ParamType::Double, "0.01", "0.05",
         "width-arm CI half-width target"},
        {"delta", dynamo::scenario::ParamType::Double, "0.05", "",
         "error budget per arm"},
        {"oracle-trials", dynamo::scenario::ParamType::Int, "10000", "300",
         "fixed-census trials per decision grid point"},
        {"help", dynamo::scenario::ParamType::Flag, "", "",
         "print the option summary and exit"},
    },
    &scenario_main,
});

} // namespace
