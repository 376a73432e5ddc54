// PERF: the engines against their seed-era baselines, as one speedup
// record (BENCH_perf_engine.json):
//
//   * results    - the packed SMP stencil sweep vs the seed table-driven
//                  sweep on the three tori, with a lockstep bit-identity
//                  check;
//   * rules      - every registered rule's packed sweep vs its own generic
//                  table sweep on the side x side mesh, lockstep-checked;
//   * bitplane   - every rule's word-parallel sweep vs its packed byte
//                  sweep, plus a run identity check of Backend::BitPlane
//                  and Backend::Auto against Backend::Packed;
//   * montecarlo - a 64x64 mesh density-sweep cell: the pooled BatchRunner
//                  vs the seed-era serial trial loop.
//
// `--json-report[=FILE]` writes the record; without it the record is
// printed after the progress lines. The scenario gates nothing itself: CI
// reads the record's identity flags and speedup ratios. Every engine is
// reached through the rule registry or the library, so this object
// compiles no engine of its own.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/montecarlo.hpp"
#include "core/run/simulate.hpp"
#include "rules/registry.hpp"
#include "scenario/scenario.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace dynamo;

ColorField random_field(std::size_t size, Color colors, std::uint64_t seed) {
    Xoshiro256 rng(seed);
    ColorField f(size);
    for (auto& c : f) c = static_cast<Color>(1 + rng.below(colors));
    return f;
}

/// Trials/sec of the serial Monte-Carlo loop shape (one sequential RNG
/// stream, per-round target bookkeeping, one tracked run per trial). Two
/// baselines are reported: the seed table-driven engine (ReferenceSmpRule
/// through the generic sweep - "seed" in this bench always names that
/// engine; since the rule-generic PR, Backend::Generic runs the branchless
/// SmpRule kernel and is no longer the seed loop) and the PR-1 packed full
/// sweep (Backend::Packed), which is what run_density_point actually ran
/// immediately before the BatchRunner.
double mc_serial_trials_per_sec(const grid::Torus& torus, std::size_t trials,
                                std::uint64_t seed, double density, bool seed_engine) {
    std::uint64_t sink = 0;
    Xoshiro256 rng(seed);
    Stopwatch watch;
    for (std::size_t t = 0; t < trials; ++t) {
        const ColorField initial =
            analysis::random_coloring(torus.size(), 1, 4, density, rng);
        RunOptions opts;
        opts.target = 1;
        if (seed_engine) {
            BasicSyncEngine engine(torus, initial, &reference_sweep<ReferenceSmpRule>);
            sink += run_to_terminal(engine, opts).rounds;
        } else {
            opts.backend = Backend::Packed;
            sink += simulate(torus, initial, opts).rounds;
        }
    }
    const double seconds = watch.seconds();
    // Keep the measured work observable.
    if (sink == static_cast<std::uint64_t>(-1)) return 0.0;
    return static_cast<double>(trials) / seconds;
}

/// Trials/sec of the across-trial path: BatchRunner substreams +
/// Backend::Auto, which at this size runs the trials 64 at a time on lane
/// batches (analysis/montecarlo.cpp), optionally pooled.
double mc_batch_trials_per_sec(const grid::Torus& torus, std::size_t trials,
                               std::uint64_t seed, double density, ThreadPool* pool) {
    Stopwatch watch;
    const std::size_t sink =
        analysis::run_density_point(torus, 1, density, 4, trials, seed, pool).k_mono;
    const double seconds = watch.seconds();
    // Keep the measured work observable.
    if (sink == static_cast<std::size_t>(-1)) return 0.0;
    return static_cast<double>(trials) / seconds;
}

/// Cells/second of a sweep ping-ponging two buffers from `field`;
/// `sweep(src, dst)` is one round. `warmup` untimed rounds, then the best
/// of `passes` timed passes of `rounds` rounds. The rules and bit-plane
/// sections feed CI ratio gates and take the best of two: a co-tenant
/// burst that lands inside ONE millisecond-scale pass then cannot skew
/// them.
template <typename Sweep>
double cells_per_sec(Sweep sweep, const ColorField& field, int warmup, int rounds,
                     int passes) {
    ColorField cur = field;
    ColorField next(field.size());
    for (int r = 0; r < warmup; ++r) {
        sweep(cur.data(), next.data());
        cur.swap(next);
    }
    const double cells = static_cast<double>(field.size()) * rounds;
    double best = 0.0;
    for (int pass = 0; pass < passes; ++pass) {
        Stopwatch watch;
        for (int r = 0; r < rounds; ++r) {
            sweep(cur.data(), next.data());
            cur.swap(next);
        }
        best = std::max(best, cells / watch.seconds());
    }
    return best;
}

/// Lockstep identity of two sweeps from `field`: equal change counts and
/// equal fields after each of `rounds` rounds.
template <typename SweepA, typename SweepB>
bool sweeps_identical(SweepA a, SweepB b, const ColorField& field, int rounds) {
    ColorField a_cur = field, b_cur = field;
    ColorField a_next(field.size()), b_next(field.size());
    for (int r = 0; r < rounds; ++r) {
        if (a(a_cur.data(), a_next.data()) != b(b_cur.data(), b_next.data()) ||
            a_next != b_next) {
            return false;
        }
        a_cur.swap(a_next);
        b_cur.swap(b_next);
    }
    return true;
}

/// The seed table-driven SMP sweep over `table` (reference_neighbor_table).
auto seed_sweep(const grid::Torus& torus, const std::vector<grid::VertexId>& table,
                ThreadPool* pool = nullptr, std::size_t grain = 1 << 14) {
    return [&torus, &table, pool, grain](const Color* src, Color* dst) {
        return reference_sweep<ReferenceSmpRule>(torus, table.data(), src, dst, pool, grain);
    };
}

/// The registry's packed and generic sweeps of `rule`; the generic one
/// walks `table` (reference_neighbor_table).
auto packed_sweep(const rules::RuleInfo& rule, const grid::Torus& torus,
                  ThreadPool* pool = nullptr, std::size_t grain = 1 << 14) {
    return [&rule, &torus, pool, grain](const Color* src, Color* dst) {
        return rule.sweep(torus, src, dst, pool, grain);
    };
}
auto generic_sweep(const rules::RuleInfo& rule, const grid::Torus& torus,
                   const std::vector<grid::VertexId>& table) {
    return [&rule, &torus, &table](const Color* src, Color* dst) {
        return rule.generic_sweep(torus, table.data(), src, dst, nullptr, 1 << 14);
    };
}

/// Engine-level bit-identity of Backend::BitPlane and the adaptive
/// Backend::Auto (which hands dense rounds to the bit-plane engine and thin
/// ones back) vs Backend::Packed for one registered rule: full rule.run
/// trajectories (termination, rounds, recolorings, cycle period, final
/// field) must coincide.
bool bitplane_runs_identical(const rules::RuleInfo& rule, const grid::Torus& torus,
                             const ColorField& field, std::uint32_t max_rounds) {
    RunOptions opts;
    opts.backend = Backend::Packed;
    opts.max_rounds = max_rounds;
    const RunResult a = rule.run(torus, field, opts);
    for (const Backend backend : {Backend::BitPlane, Backend::Auto}) {
        opts.backend = backend;
        const RunResult b = rule.run(torus, field, opts);
        if (a.termination != b.termination || a.rounds != b.rounds ||
            a.total_recolorings != b.total_recolorings || a.cycle_period != b.cycle_period ||
            a.final_colors != b.final_colors) {
            return false;
        }
    }
    return true;
}

int scenario_main(scenario::Context& ctx) {
    const CliArgs& args = ctx.args;
    std::ostream& log = ctx.out;
    const auto side = args.get_int_as<std::uint32_t>("side", 1024);
    const int rounds = args.get_int_as<int>("rounds", 16);
    const int warmup = args.get_int_as<int>("warmup", 3);
    const std::int64_t workers_arg = args.get_int("workers", 0);
    const unsigned workers = workers_arg > 0 ? static_cast<unsigned>(workers_arg)
                                             : ThreadPool::default_threads();
    std::string path = args.get_string("json-report", "");
    if (path.empty()) path = "BENCH_perf_engine.json";  // bare --json-report flag
    constexpr double kTargetSpeedup = 3.0;

    ThreadPool pool(workers);
    ThreadPool* smp = workers > 1 ? &pool : nullptr;
    const std::size_t grain = 1 << 14;

    std::ostringstream out;
    bool mesh_meets_target = false;
    double mesh_speedup = 0.0;
    out << "{\n"
        << "  \"bench\": \"bench_perf_engine\",\n"
        << "  \"side\": " << side << ",\n"
        << "  \"rounds\": " << rounds << ",\n"
        << "  \"workers\": " << workers << ",\n"
        << "  \"target_speedup\": " << kTargetSpeedup << ",\n"
        << "  \"results\": [\n";
    const rules::RuleInfo& smp_rule = rules::smp_rule();
    for (const grid::Topology topo : {grid::Topology::ToroidalMesh, grid::Topology::TorusCordalis,
                                      grid::Topology::TorusSerpentinus}) {
        const grid::Torus torus(topo, side, side);
        const auto table = reference_neighbor_table(torus);
        const ColorField field = random_field(torus.size(), 4, 42);

        const double seed_cps =
            cells_per_sec(seed_sweep(torus, table, smp, grain), field, warmup, rounds, 1);
        const double packed_cps =
            cells_per_sec(packed_sweep(smp_rule, torus, smp, grain), field, warmup, rounds, 1);
        const double speedup = packed_cps / seed_cps;
        const bool identical = sweeps_identical(packed_sweep(smp_rule, torus),
                                                seed_sweep(torus, table), field,
                                                std::min(rounds, 8));

        if (topo == grid::Topology::ToroidalMesh) {
            mesh_speedup = speedup;
            mesh_meets_target = identical && speedup >= kTargetSpeedup;
        }
        out << "    {\"topology\": \"" << grid::to_string(topo) << "\","
            << " \"seed_cells_per_sec\": " << seed_cps << ","
            << " \"packed_cells_per_sec\": " << packed_cps << ","
            << " \"speedup\": " << speedup << ","
            << " \"bit_identical\": " << (identical ? "true" : "false") << "}"
            << (topo == grid::Topology::TorusSerpentinus ? "" : ",") << "\n";
        log << grid::to_string(topo) << ": seed " << seed_cps / 1e6 << " Mcells/s, packed "
            << packed_cps / 1e6 << " Mcells/s, speedup " << speedup
            << (identical ? "" : " [TRAJECTORY MISMATCH]") << "\n";
    }
    // Monte-Carlo batch throughput on the reference workload: a 64x64 mesh
    // density-sweep cell. The pooled BatchRunner is compared against two
    // labeled serial baselines: the seed table-driven engine ("speedup",
    // target >= 2x) and the PR-1 packed serial loop
    // ("speedup_vs_packed_serial" - the immediate predecessor; on a 1-core
    // host that ratio is the pure run-API gain, and the pool multiplies it
    // on multicore hosts).
    constexpr double kMcTargetSpeedup = 2.0;
    constexpr double kMcDensity = 0.45;
    const auto mc_trials = args.get_int_as<std::size_t>("mc-trials", 96);
    const grid::Torus mc_torus(grid::Topology::ToroidalMesh, 64, 64);
    mc_batch_trials_per_sec(mc_torus, 8, 0x7a11, kMcDensity, smp);  // warm pool + caches
    const double mc_seed_tps =
        mc_serial_trials_per_sec(mc_torus, mc_trials, 0xd00d, kMcDensity, /*seed_engine=*/true);
    const double mc_packed_tps =
        mc_serial_trials_per_sec(mc_torus, mc_trials, 0xd00d, kMcDensity, /*seed_engine=*/false);
    const double mc_serial_tps =
        mc_batch_trials_per_sec(mc_torus, mc_trials, 0xd00d, kMcDensity, nullptr);
    const double mc_pooled_tps =
        mc_batch_trials_per_sec(mc_torus, mc_trials, 0xd00d, kMcDensity, smp);
    const double mc_speedup = mc_pooled_tps / mc_seed_tps;
    const double mc_speedup_packed = mc_pooled_tps / mc_packed_tps;
    log << "montecarlo 64x64: seed-engine serial " << mc_seed_tps
        << " trials/s, packed serial " << mc_packed_tps << " trials/s, batch serial "
        << mc_serial_tps << " trials/s, batch pooled " << mc_pooled_tps
        << " trials/s, speedup " << mc_speedup << " (vs packed serial " << mc_speedup_packed
        << ")\n";

    // Rule-comparison section: every registered LocalRule's packed stencil
    // sweep vs its own generic table sweep on the side x side mesh, with a
    // lockstep identity check. Both arms run back-to-back in this process,
    // so the ratio is machine-relative and CI gates the bi-color majority
    // at >= kRuleTargetSpeedup x (the packed path the rule-generic PR
    // promised the bi-color benches).
    constexpr double kRuleTargetSpeedup = 5.0;
    const grid::Torus rule_torus(grid::Topology::ToroidalMesh, side, side);
    const auto rule_table = reference_neighbor_table(rule_torus);
    const auto& all = rules::all_rules();
    out << "  ],\n"
        << "  \"rules_target_speedup\": " << kRuleTargetSpeedup << ",\n"
        << "  \"rules\": {\n";
    for (std::size_t i = 0; i < all.size(); ++i) {
        const rules::RuleInfo& rule = *all[i];
        const ColorField field = random_field(rule_torus.size(), rule.bicolor() ? 2 : 4, 42);
        const auto generic = generic_sweep(rule, rule_torus, rule_table);
        const auto packed = packed_sweep(rule, rule_torus);
        const double generic_cps = cells_per_sec(generic, field, warmup, rounds, 2);
        const double packed_cps = cells_per_sec(packed, field, warmup, rounds, 2);
        const bool identical = sweeps_identical(packed, generic, field, std::min(rounds, 8));
        out << "    \"" << rule.name << "\": {\"generic_cells_per_sec\": " << generic_cps
            << ", \"packed_cells_per_sec\": " << packed_cps
            << ", \"speedup\": " << packed_cps / generic_cps
            << ", \"bit_identical\": " << (identical ? "true" : "false") << "}"
            << (i + 1 == all.size() ? "" : ",") << "\n";
        log << "rule " << rule.name << ": generic " << generic_cps / 1e6
            << " Mcells/s, packed " << packed_cps / 1e6 << " Mcells/s, speedup "
            << packed_cps / generic_cps << (identical ? "" : " [SWEEP MISMATCH]") << "\n";
    }
    // Bit-plane section: every bitplane-capable rule's word-parallel sweep
    // vs its packed byte sweep on the side x side mesh (cells/second via
    // the registry's bitplane_cells_per_sec entry), plus an engine-level
    // rule.run bit-identity check (Backend::BitPlane vs Backend::Packed).
    // CI gates the bi-color majority at >= kBitplaneTargetSpeedup x and
    // ALL capable rules at bit-identical.
    constexpr double kBitplaneTargetSpeedup = 3.0;
    double bitplane_majority_speedup = 0.0;
    bool bitplane_all_identical = true;
    out << "  },\n"
        << "  \"bitplane_target_speedup\": " << kBitplaneTargetSpeedup << ",\n"
        << "  \"bitplane\": {\n";
    for (std::size_t i = 0; i < all.size(); ++i) {
        const rules::RuleInfo& rule = *all[i];
        const Color palette = rule.bicolor() ? 2 : 4;
        const ColorField field = random_field(rule_torus.size(), palette, 42);
        const double packed_cps =
            cells_per_sec(packed_sweep(rule, rule_torus), field, warmup, rounds, 2);
        const double bitplane_cps = rule.bitplane_cells_per_sec(rule_torus, field, warmup, rounds);
        const double speedup = bitplane_cps / packed_cps;
        // Identity on a smaller torus: rule.run walks full trajectories.
        const grid::Torus id_torus(grid::Topology::ToroidalMesh, 96, 96);
        const bool identical = bitplane_runs_identical(
            rule, id_torus, random_field(id_torus.size(), palette, 43), 64);
        bitplane_all_identical = bitplane_all_identical && identical;
        if (std::string(rule.name) == "majority-prefer-black") {
            bitplane_majority_speedup = speedup;
        }
        out << "    \"" << rule.name << "\": {\"packed_cells_per_sec\": " << packed_cps
            << ", \"bitplane_cells_per_sec\": " << bitplane_cps << ", \"speedup\": " << speedup
            << ", \"planes\": " << (rule.bicolor() ? 1 : 3)
            << ", \"bit_identical\": " << (identical ? "true" : "false") << "}"
            << (i + 1 == all.size() ? "" : ",") << "\n";
        log << "bitplane " << rule.name << ": packed " << packed_cps / 1e6
            << " Mcells/s, bitplane " << bitplane_cps / 1e6 << " Mcells/s, speedup " << speedup
            << (identical ? "" : " [RUN MISMATCH]") << "\n";
    }
    const bool bitplane_meets_target =
        bitplane_all_identical && bitplane_majority_speedup >= kBitplaneTargetSpeedup;
    out << "  },\n"
        << "  \"bitplane_majority_speedup\": " << bitplane_majority_speedup << ",\n"
        << "  \"bitplane_all_bit_identical\": " << (bitplane_all_identical ? "true" : "false")
        << ",\n"
        << "  \"bitplane_meets_target\": " << (bitplane_meets_target ? "true" : "false")
        << ",\n"
        << "  \"montecarlo\": {\"side\": 64, \"trials\": " << mc_trials
        << ", \"density\": " << kMcDensity << ", \"target_speedup\": " << kMcTargetSpeedup
        << ",\n"
        << "    \"seed_engine_serial_trials_per_sec\": " << mc_seed_tps << ","
        << " \"packed_serial_trials_per_sec\": " << mc_packed_tps << ",\n"
        << "    \"batch_serial_trials_per_sec\": " << mc_serial_tps << ","
        << " \"batch_pooled_trials_per_sec\": " << mc_pooled_tps << ",\n"
        << "    \"speedup\": " << mc_speedup
        << ", \"speedup_vs_packed_serial\": " << mc_speedup_packed
        << ", \"meets_target\": " << (mc_speedup >= kMcTargetSpeedup ? "true" : "false")
        << "},\n"
        << "  \"mesh_speedup\": " << mesh_speedup << ",\n"
        << "  \"meets_target\": " << (mesh_meets_target ? "true" : "false") << "\n"
        << "}\n";

    if (!args.has("json-report")) {
        log << out.str();
        return 0;
    }
    std::ofstream file(path);
    if (!(file << out.str())) {
        std::cerr << "cannot write " << path << "\n";
        return 1;
    }
    log << "wrote " << path << "\n";
    return 0;
}

[[maybe_unused]] const bool registered = scenario::register_scenario({
    "perf_engine",
    "perf",
    "Packed, bit-plane and batch engines vs their seed-era baselines: sweep "
    "speedups and bit-identity per rule and topology (BENCH_perf_engine.json)",
    0,
    {
        {"json-report", scenario::ParamType::OptValue, "BENCH_perf_engine.json", "",
         "write the JSON record to FILE instead of printing it"},
        {"side", scenario::ParamType::Int, "1024", "64", "torus side of the sweep sections"},
        {"rounds", scenario::ParamType::Int, "16", "2", "timed rounds per sweep pass"},
        {"warmup", scenario::ParamType::Int, "3", "1", "untimed rounds before each sweep arm"},
        {"workers", scenario::ParamType::Int, "0", "2",
         "pool workers of the SMP and Monte-Carlo sections (0 = hardware threads)"},
        {"mc-trials", scenario::ParamType::Int, "96", "8", "trials per Monte-Carlo arm"},
    },
    &scenario_main,
});

} // namespace
