// PERF: google-benchmark microbenchmarks of the simulation substrate -
// rule decision cost, engine step throughput (cells/second) per topology
// and size, packed stencil sweep vs the seed table-driven sweep, serial vs
// thread-pool sweeps, and the cost of trace bookkeeping.
//
// Besides the google-benchmark suite, `--json-report FILE` runs a focused
// packed-vs-seed comparison (with a lockstep bit-identity check), a
// per-rule packed-vs-generic section, a bit-plane-vs-packed section
// (word-parallel sweep cells/sec per bitplane-capable rule, plus an
// engine-level Backend::BitPlane vs Backend::Packed run identity check)
// and a Monte-Carlo batch-throughput comparison (seed-era serial trial
// loop vs the pooled BatchRunner on a 64x64 mesh), then writes a
// machine-readable BENCH_*.json record; CI runs it on a small grid every
// push and the committed BENCH_perf_engine.json captures the committed
// speedups.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "analysis/montecarlo.hpp"
#include "core/blocks.hpp"
#include "core/builders.hpp"
#include "core/run/batch.hpp"
#include "core/run/simulate.hpp"
#include "graph/generators.hpp"
#include "graph/plurality.hpp"
#include "rules/registry.hpp"
#include "util/cli.hpp"
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

void BM_SmpRuleDecision(benchmark::State& state) {
    Xoshiro256 rng(1);
    std::array<Color, grid::kDegree> nbr{};
    Color own = 1;
    std::uint64_t acc = 0;
    for (auto _ : state) {
        for (auto& c : nbr) c = static_cast<Color>(1 + (rng.next() & 3));
        acc += smp_update(own, nbr);
        own = static_cast<Color>(1 + (acc & 3));
    }
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_SmpRuleDecision);

void BM_EngineStep(benchmark::State& state) {
    const auto side = static_cast<std::uint32_t>(state.range(0));
    const auto topo = static_cast<grid::Topology>(state.range(1));
    grid::Torus torus(topo, side, side);
    sim::PackedEngineT<sim::SmpRule> engine(torus, random_field(torus.size(), 4, 42));
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.step());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(torus.size()));
}
BENCHMARK(BM_EngineStep)
    ->ArgsProduct({{64, 256, 1024}, {0, 1, 2}})
    ->ArgNames({"side", "topo"});

void BM_SeedEngineStep(benchmark::State& state) {
    // The seed table-driven sweep of the reference engine: the baseline
    // BM_EngineStep is compared against.
    const auto side = static_cast<std::uint32_t>(state.range(0));
    const auto topo = static_cast<grid::Topology>(state.range(1));
    grid::Torus torus(topo, side, side);
    BasicSyncEngine engine(torus, random_field(torus.size(), 4, 42),
                           &reference_sweep<ReferenceSmpRule>);
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.step());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(torus.size()));
}
BENCHMARK(BM_SeedEngineStep)
    ->ArgsProduct({{64, 256, 1024}, {0, 1, 2}})
    ->ArgNames({"side", "topo"});

void BM_EngineStepParallel(benchmark::State& state) {
    const auto side = static_cast<std::uint32_t>(state.range(0));
    const auto workers = static_cast<unsigned>(state.range(1));
    grid::Torus torus(grid::Topology::ToroidalMesh, side, side);
    ThreadPool pool(workers);
    sim::PackedEngineT<sim::SmpRule> engine(torus, random_field(torus.size(), 4, 43));
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.step(&pool, 1 << 12));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(torus.size()));
}
BENCHMARK(BM_EngineStepParallel)
    ->ArgsProduct({{1024}, {1, 2, 4}})
    ->ArgNames({"side", "workers"});

void BM_FullDynamoRun(benchmark::State& state) {
    const auto side = static_cast<std::uint32_t>(state.range(0));
    grid::Torus torus(grid::Topology::ToroidalMesh, side, side);
    const Configuration cfg = build_theorem2_configuration(torus);
    for (auto _ : state) {
        RunOptions opts;
        opts.detect_cycles = false;  // dynamos terminate by monochromatic
        benchmark::DoNotOptimize(simulate(torus, cfg.field, opts).rounds);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(torus.size()));
}
BENCHMARK(BM_FullDynamoRun)->Arg(32)->Arg(128)->Arg(512);

void BM_FrontierDynamoRun(benchmark::State& state) {
    // Ablation: the active-frontier engine vs the full sweep on the same
    // dynamo runs (compare against BM_FullDynamoRun at equal sizes).
    const auto side = static_cast<std::uint32_t>(state.range(0));
    grid::Torus torus(grid::Topology::ToroidalMesh, side, side);
    const Configuration cfg = build_theorem2_configuration(torus);
    for (auto _ : state) {
        sim::ActiveEngineT<sim::SmpRule> engine(torus, cfg.field);
        RunOptions opts;
        opts.max_rounds = 4 * static_cast<std::uint32_t>(torus.size());
        opts.detect_cycles = false;
        benchmark::DoNotOptimize(run_to_terminal(engine, opts).rounds);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(torus.size()));
}
BENCHMARK(BM_FrontierDynamoRun)->Arg(32)->Arg(128)->Arg(512);

void BM_TraceBookkeepingOverhead(benchmark::State& state) {
    const bool tracked = state.range(0) != 0;
    grid::Torus torus(grid::Topology::ToroidalMesh, 128, 128);
    const Configuration cfg = build_theorem2_configuration(torus);
    for (auto _ : state) {
        RunOptions opts;
        opts.detect_cycles = false;
        if (tracked) opts.target = cfg.k;
        benchmark::DoNotOptimize(simulate(torus, cfg.field, opts).rounds);
    }
}
BENCHMARK(BM_TraceBookkeepingOverhead)->Arg(0)->Arg(1)->ArgName("tracked");

void BM_PluralityStepBarabasiAlbert(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    Xoshiro256 rng(7);
    const graphx::Graph g = graphx::barabasi_albert(n, 3, rng);
    ColorField cur = random_field(n, 4, 44), next;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            graphx::plurality_step(g, cur, next, graphx::PluralityThreshold::SimpleHalf));
        cur.swap(next);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PluralityStepBarabasiAlbert)->Arg(1 << 12)->Arg(1 << 15);

void BM_BlocksExtraction(benchmark::State& state) {
    grid::Torus torus(grid::Topology::ToroidalMesh, 256, 256);
    const ColorField f = random_field(torus.size(), 3, 45);
    for (auto _ : state) {
        benchmark::DoNotOptimize(dynamo::find_k_blocks(torus, f, 1).size());
    }
}
BENCHMARK(BM_BlocksExtraction);

void BM_MonteCarloDensityPoint(benchmark::State& state) {
    // Across-trial parallelism on the BatchRunner: one density-sweep table
    // cell, workers = 1 (serial) vs pooled.
    const auto workers = static_cast<unsigned>(state.range(0));
    grid::Torus torus(grid::Topology::ToroidalMesh, 64, 64);
    std::optional<ThreadPool> pool;
    if (workers > 1) pool.emplace(workers);
    constexpr std::size_t kTrials = 32;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            analysis::run_density_point(torus, 1, 0.45, 4, kTrials, 0xd00d,
                                        pool ? &*pool : nullptr)
                .k_mono);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kTrials);
}
BENCHMARK(BM_MonteCarloDensityPoint)->Arg(1)->Arg(4)->ArgName("workers");

// --- JSON speedup reporter --------------------------------------------------

/// Steps/second of `engine` over `rounds` rounds after `warmup` rounds.
template <typename Engine>
double measure_cells_per_sec(Engine& engine, ThreadPool* pool, std::size_t grain, int warmup,
                             int rounds) {
    for (int r = 0; r < warmup; ++r) engine.step(pool, grain);
    Stopwatch watch;
    for (int r = 0; r < rounds; ++r) engine.step(pool, grain);
    const double cells = static_cast<double>(engine.torus().size()) * rounds;
    return cells / watch.seconds();
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
    Xoshiro256 rng(seed);
    Stopwatch watch;
    for (std::size_t t = 0; t < trials; ++t) {
        const ColorField initial =
            analysis::random_coloring(torus.size(), 1, 4, density, rng);
        RunOptions opts;
        opts.target = 1;
        if (seed_engine) {
            BasicSyncEngine engine(torus, initial, &reference_sweep<ReferenceSmpRule>);
            benchmark::DoNotOptimize(run_to_terminal(engine, opts).rounds);
        } else {
            opts.backend = Backend::Packed;
            benchmark::DoNotOptimize(simulate(torus, initial, opts).rounds);
        }
    }
    return static_cast<double>(trials) / watch.seconds();
}

/// Trials/sec of the new across-trial path: BatchRunner substreams +
/// Backend::Auto (active-set or bit-plane per round of each trial),
/// optionally pooled.
double mc_batch_trials_per_sec(const grid::Torus& torus, std::size_t trials,
                               std::uint64_t seed, double density, ThreadPool* pool) {
    Stopwatch watch;
    benchmark::DoNotOptimize(
        analysis::run_density_point(torus, 1, density, 4, trials, seed, pool).k_mono);
    return static_cast<double>(trials) / watch.seconds();
}

/// Lockstep bit-identity check of the packed sweep vs the seed sweep.
bool trajectories_identical(const grid::Torus& torus, const ColorField& field, int rounds) {
    sim::PackedEngineT<sim::SmpRule> packed(torus, field);
    BasicSyncEngine seed(torus, field, &reference_sweep<ReferenceSmpRule>);
    for (int r = 0; r < rounds; ++r) {
        if (packed.step() != seed.step() || packed.colors() != seed.colors()) return false;
    }
    return true;
}

/// Cells/second of one sweep (serial), ping-ponging two buffers from
/// `field`; `sweep(src, dst)` is one round. Best of two timed passes: the
/// rules section feeds a CI ratio gate, and taking the max per arm keeps a
/// co-tenant burst that lands inside ONE millisecond-scale pass from
/// skewing it.
template <typename Sweep>
double measure_rule_sweep(Sweep sweep, const grid::Torus& torus, const ColorField& field,
                          int warmup, int rounds) {
    ColorField cur = field;
    ColorField next(field.size());
    for (int r = 0; r < warmup; ++r) {
        sweep(cur.data(), next.data());
        cur.swap(next);
    }
    const double cells = static_cast<double>(torus.size()) * rounds;
    double best = 0.0;
    for (int pass = 0; pass < 2; ++pass) {
        Stopwatch watch;
        for (int r = 0; r < rounds; ++r) {
            sweep(cur.data(), next.data());
            cur.swap(next);
        }
        best = std::max(best, cells / watch.seconds());
    }
    return best;
}

/// The registry's packed and generic sweeps of `rule` as measure_rule_sweep
/// callables; the generic one walks `table` (reference_neighbor_table).
auto packed_sweep(const rules::RuleInfo& rule, const grid::Torus& torus) {
    return [&rule, &torus](const Color* src, Color* dst) {
        return rule.sweep(torus, src, dst, nullptr, 1 << 14);
    };
}
auto generic_sweep(const rules::RuleInfo& rule, const grid::Torus& torus,
                   const std::vector<grid::VertexId>& table) {
    return [&rule, &torus, &table](const Color* src, Color* dst) {
        return rule.generic_sweep(torus, table.data(), src, dst, nullptr, 1 << 14);
    };
}

/// Lockstep packed-vs-generic identity for one registered rule.
bool rule_sweeps_identical(const rules::RuleInfo& rule, const grid::Torus& torus,
                           const ColorField& field, int rounds) {
    ColorField a = field, b = field;
    ColorField a_next(field.size()), b_next(field.size());
    const auto table = reference_neighbor_table(torus);
    for (int r = 0; r < rounds; ++r) {
        const std::size_t ca = packed_sweep(rule, torus)(a.data(), a_next.data());
        const std::size_t cb = generic_sweep(rule, torus, table)(b.data(), b_next.data());
        if (ca != cb || a_next != b_next) return false;
        a.swap(a_next);
        b.swap(b_next);
    }
    return true;
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

int run_json_report(const CliArgs& args) {
    const auto side = static_cast<std::uint32_t>(args.get_int("side", 1024));
    const int rounds = static_cast<int>(args.get_int("rounds", 16));
    const int warmup = static_cast<int>(args.get_int("warmup", 3));
    const auto workers = static_cast<unsigned>(
        args.get_int("workers", static_cast<std::int64_t>(ThreadPool::default_threads())));
    std::string path = args.get_string("json-report", "");
    if (path.empty()) path = "BENCH_perf_engine.json";  // bare --json-report flag
    constexpr double kTargetSpeedup = 3.0;

    ThreadPool pool(workers);
    ThreadPool* smp = workers > 1 ? &pool : nullptr;
    const std::size_t grain = 1 << 14;

    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot open " << path << " for writing\n";
        return 1;
    }

    bool mesh_meets_target = false;
    double mesh_speedup = 0.0;
    out << "{\n"
        << "  \"bench\": \"bench_perf_engine\",\n"
        << "  \"side\": " << side << ",\n"
        << "  \"rounds\": " << rounds << ",\n"
        << "  \"workers\": " << workers << ",\n"
        << "  \"target_speedup\": " << kTargetSpeedup << ",\n"
        << "  \"results\": [\n";
    for (const grid::Topology topo : {grid::Topology::ToroidalMesh, grid::Topology::TorusCordalis,
                                      grid::Topology::TorusSerpentinus}) {
        const grid::Torus torus(topo, side, side);
        const ColorField field = random_field(torus.size(), 4, 42);

        BasicSyncEngine seed_engine(torus, field, &reference_sweep<ReferenceSmpRule>);
        const double seed_cps = measure_cells_per_sec(seed_engine, smp, grain, warmup, rounds);
        sim::PackedEngineT<sim::SmpRule> packed_engine(torus, field);
        const double packed_cps = measure_cells_per_sec(packed_engine, smp, grain, warmup, rounds);
        const double speedup = packed_cps / seed_cps;
        const bool identical = trajectories_identical(torus, field, std::min(rounds, 8));

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
        std::cerr << grid::to_string(topo) << ": seed " << seed_cps / 1e6 << " Mcells/s, packed "
                  << packed_cps / 1e6 << " Mcells/s, speedup " << speedup
                  << (identical ? "" : " [TRAJECTORY MISMATCH]") << "\n";
    }
    // Monte-Carlo batch throughput on the ISSUE's reference workload: a
    // 64x64 mesh density-sweep cell. The pooled BatchRunner is compared
    // against two labeled serial baselines: the seed table-driven engine
    // ("speedup", gated at >= 2x) and the PR-1 packed serial loop
    // ("speedup_vs_packed_serial" - the immediate predecessor; on this
    // 1-core box that ratio is the pure run-API gain, and the pool
    // multiplies it on multicore hosts).
    constexpr double kMcTargetSpeedup = 2.0;
    constexpr double kMcDensity = 0.45;
    const auto mc_trials = static_cast<std::size_t>(args.get_int("mc-trials", 96));
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
    std::cerr << "montecarlo 64x64: seed-engine serial " << mc_seed_tps
              << " trials/s, packed serial " << mc_packed_tps << " trials/s, batch serial "
              << mc_serial_tps << " trials/s, batch pooled " << mc_pooled_tps
              << " trials/s, speedup " << mc_speedup << " (vs packed serial "
              << mc_speedup_packed << ")\n";

    // Rule-comparison section: every registered LocalRule's packed stencil
    // sweep vs its own generic table sweep on the side x side mesh, with a
    // lockstep identity check. Both arms run back-to-back in this process,
    // so the ratio is machine-relative and CI gates the bi-color majority
    // at >= kRuleTargetSpeedup x (the packed path the rule-generic PR
    // promised the bi-color benches).
    constexpr double kRuleTargetSpeedup = 5.0;
    const grid::Torus rule_torus(grid::Topology::ToroidalMesh, side, side);
    const auto rule_table = reference_neighbor_table(rule_torus);
    out << "  ],\n"
        << "  \"rules_target_speedup\": " << kRuleTargetSpeedup << ",\n"
        << "  \"rules\": {\n";
    {
        const auto& all = dynamo::rules::all_rules();
        for (std::size_t i = 0; i < all.size(); ++i) {
            const dynamo::rules::RuleInfo& rule = *all[i];
            const ColorField field =
                random_field(rule_torus.size(), rule.bicolor() ? 2 : 4, 42);
            const double generic_cps = measure_rule_sweep(
                generic_sweep(rule, rule_torus, rule_table), rule_torus, field, warmup, rounds);
            const double packed_cps = measure_rule_sweep(packed_sweep(rule, rule_torus),
                                                         rule_torus, field, warmup, rounds);
            const bool identical =
                rule_sweeps_identical(rule, rule_torus, field, std::min(rounds, 8));
            out << "    \"" << rule.name << "\": {\"generic_cells_per_sec\": " << generic_cps
                << ", \"packed_cells_per_sec\": " << packed_cps
                << ", \"speedup\": " << packed_cps / generic_cps
                << ", \"bit_identical\": " << (identical ? "true" : "false") << "}"
                << (i + 1 == all.size() ? "" : ",") << "\n";
            std::cerr << "rule " << rule.name << ": generic " << generic_cps / 1e6
                      << " Mcells/s, packed " << packed_cps / 1e6 << " Mcells/s, speedup "
                      << packed_cps / generic_cps << (identical ? "" : " [SWEEP MISMATCH]")
                      << "\n";
        }
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
    {
        const auto& all = dynamo::rules::all_rules();
        for (std::size_t i = 0; i < all.size(); ++i) {
            const dynamo::rules::RuleInfo& rule = *all[i];
            const Color palette = rule.bicolor() ? 2 : 4;
            const ColorField field = random_field(rule_torus.size(), palette, 42);
            const double packed_cps = measure_rule_sweep(packed_sweep(rule, rule_torus),
                                                         rule_torus, field, warmup, rounds);
            const double bitplane_cps =
                rule.bitplane_cells_per_sec(rule_torus, field, warmup, rounds);
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
                << ", \"bitplane_cells_per_sec\": " << bitplane_cps
                << ", \"speedup\": " << speedup
                << ", \"planes\": " << (rule.bicolor() ? 1 : 3)
                << ", \"bit_identical\": " << (identical ? "true" : "false") << "}"
                << (i + 1 == all.size() ? "" : ",") << "\n";
            std::cerr << "bitplane " << rule.name << ": packed " << packed_cps / 1e6
                      << " Mcells/s, bitplane " << bitplane_cps / 1e6
                      << " Mcells/s, speedup " << speedup
                      << (identical ? "" : " [RUN MISMATCH]") << "\n";
        }
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
    std::cerr << "wrote " << path << "\n";
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    const CliArgs args(argc, argv);
    if (args.has("json-report")) return run_json_report(args);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
