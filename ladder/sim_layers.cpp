// The torus workloads (churn, wave) and the core/sim + core/run rungs of
// the ladder: raw sweeps, engine step / step_collect, run_to_terminal with
// and without cycle detection, per-round timing through an Observer, and
// the util/parallel dispatch cost.
#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/bounds.hpp"
#include "core/builders.hpp"
#include "core/run/batch.hpp"
#include "core/run/simulate.hpp"
#include "core/transform.hpp"
#include "analysis/montecarlo.hpp"
#include "rules/majority.hpp"
#include "rules/registry.hpp"

namespace ladder {

using namespace dynamo;

namespace {

/// One torus run of a workload: the state, and what the run must end in.
struct Case {
    std::string label;
    grid::Torus torus;
    ColorField field;
    Termination termination;
    std::uint32_t rounds;
    std::uint64_t recolorings;  ///< 0 = not pinned
    Color mono = 0;             ///< expected monochromatic color, if any
};

/// Cyclic shift of a row-major field by (dy, dx): the mesh is
/// translation-invariant, so a translated configuration keeps every round
/// and recoloring count and only moves the memory layout.
ColorField translate(const grid::Torus& torus, const ColorField& f, std::uint32_t dy,
                     std::uint32_t dx) {
    const std::uint32_t m = torus.rows(), n = torus.cols();
    ColorField out(f.size());
    for (std::uint32_t i = 0; i < m; ++i) {
        for (std::uint32_t j = 0; j < n; ++j) {
            out[static_cast<std::size_t>((i + dy) % m) * n + (j + dx) % n] =
                f[static_cast<std::size_t>(i) * n + j];
        }
    }
    return out;
}

std::pair<std::uint32_t, std::uint32_t> seeded_offset(std::uint64_t seed, std::uint32_t m,
                                                      std::uint32_t n) {
    const std::uint64_t a = substream_seed(seed, 1), b = substream_seed(seed, 2);
    return {static_cast<std::uint32_t>(a % m), static_cast<std::uint32_t>(b % n)};
}

bool outcome_ok(const Case& c, const RunResult& r) {
    if (r.termination != c.termination || r.rounds != c.rounds) return false;
    if (c.recolorings != 0 && r.total_recolorings != c.recolorings) return false;
    if (c.termination == Termination::Monochromatic && !r.reached_mono(c.mono)) return false;
    return true;
}

/// Side of the churn mesh and its pinned outcome: majority-prefer-black on
/// the phi-collapsed minimum dynamo settles into a period-2 cycle. The
/// mesh is small so that one run takes tens of milliseconds: only samples
/// that short find quiet stretches on a shared host (see Walls).
struct ChurnSize {
    std::uint32_t side;
    std::uint32_t rounds;
    std::uint64_t recolorings;
};
constexpr ChurnSize kChurnFull{128, 129, 544640};
constexpr ChurnSize kChurnSmoke{64, 65, 0};

std::uint32_t churn_side(const Args& args) { return args.smoke ? kChurnSmoke.side : kChurnFull.side; }

std::vector<Case> churn_cases(const Args& args) {
    const ChurnSize size = args.smoke ? kChurnSmoke : kChurnFull;
    grid::Torus torus(grid::Topology::ToroidalMesh, size.side, size.side);
    const Configuration cfg = build_minimum_dynamo(torus, 1);
    const auto [dy, dx] = seeded_offset(args.seed, size.side, size.side);
    ColorField field = translate(torus, phi_collapse(cfg.field, cfg.k), dy, dx);
    std::vector<Case> cases;
    cases.push_back(Case{"mesh", std::move(torus), std::move(field), Termination::Cycle,
                         size.rounds, size.recolorings});
    return cases;
}

/// The spiral tori run (m/2 - 1) * n rounds: at 256^2 one run is tens of
/// milliseconds, like a churn run.
std::uint32_t wave_side(const Args& args) { return args.smoke ? 48 : 256; }

std::vector<Case> wave_cases(const Args& args) {
    const std::uint32_t s = wave_side(args);
    std::vector<Case> cases;
    for (const grid::Topology topo : {grid::Topology::ToroidalMesh, grid::Topology::TorusCordalis,
                                      grid::Topology::TorusSerpentinus}) {
        grid::Torus torus(topo, s, s);
        const Configuration cfg = build_minimum_dynamo(torus, 1);
        ColorField field = cfg.field;
        std::uint32_t rounds = spiral_rounds_derived(s, s);
        if (topo == grid::Topology::ToroidalMesh) {
            const auto [dy, dx] = seeded_offset(args.seed, s, s);
            field = translate(torus, field, dy, dx);
            rounds = mesh_rounds_paper(s, s);
        }
        cases.push_back(Case{grid::to_string(topo), std::move(torus), std::move(field),
                             Termination::Monochromatic, rounds, 0, cfg.k});
    }
    return cases;
}

/// Records a timestamp per round: the benchmark's only hook into a run.
class RoundClock final : public Observer {
  public:
    void on_start(const ColorField&) override { last_ = Clock::now(); }
    std::optional<StopRequest> on_round(const RoundEvent&) override {
        const auto now = Clock::now();
        us_.push_back(std::chrono::duration<double, std::micro>(now - last_).count());
        last_ = now;
        return std::nullopt;
    }
    std::vector<double>& samples() { return us_; }

  private:
    Clock::time_point last_;
    std::vector<double> us_;
};

RunOptions run_options(ThreadPool* pool, Backend backend = Backend::Auto) {
    RunOptions o;
    o.pool = pool;
    o.backend = backend;
    return o;
}

/// One run of `c` through the registry entry point, checked.
void run_case(const rules::RuleInfo& rule, const Case& c, ThreadPool* pool, Outcome& out,
              Observer* observer = nullptr) {
    RunOptions o = run_options(pool);
    if (observer != nullptr) o.observers.push_back(observer);
    const RunResult r = rule.run(c.torus, c.field, o);
    out.op(outcome_ok(c, r), c.label + " run ended " + to_string(r.termination) + " after " +
                                 std::to_string(r.rounds) + " rounds, " +
                                 std::to_string(r.total_recolorings) + " recolorings");
}

void run_cases(const rules::RuleInfo& rule, const std::vector<Case>& cases, ThreadPool* pool,
               Outcome& out, Observer* observer = nullptr) {
    for (const Case& c : cases) run_case(rule, c, pool, out, observer);
}

/// The end-to-end measurement shared by churn and wave: every case run
/// serially and on the pool, alternately, until the budget is spent.
void measure_torus_end_to_end(const Args& args, const rules::RuleInfo& rule,
                              const std::vector<Case>& cases, ThreadPool& pool,
                              SetupClock& setup, Outcome& out) {
    Walls walls(cases.size());
    const auto t0 = Clock::now();
    while (walls.w1[0].size() < 3 || (!args.smoke && seconds_since(t0) < args.seconds)) {
        for (std::size_t i = 0; i < cases.size(); ++i) {
            walls.w1[i].push_back(time_s([&] { run_case(rule, cases[i], nullptr, out); }));
            walls.wn[i].push_back(time_s([&] { run_case(rule, cases[i], &pool, out); }));
        }
        walls.reference();
        setup.again();
    }
    setup.report(out);
    walls.report(out);
    double cell_rounds = 0;
    for (const Case& c : cases) cell_rounds += static_cast<double>(c.torus.size()) * c.rounds;
    out.metrics["throughput_per_s"] = cell_rounds / out.metrics["wall_s_1w"];
}

/// Rounds of each case the per-engine rungs run: the full run, capped so
/// the full-sweep engines finish the spiral tori in seconds, not minutes.
std::uint32_t capped(const Case& c, std::uint32_t cap) { return std::min(c.rounds, cap); }

template <typename E>
double time_steps(const Case& c, std::uint32_t rounds, bool collect) {
    E engine(c.torus, c.field);
    std::vector<CellChange> changes;
    const auto t0 = Clock::now();
    for (std::uint32_t r = 0; r < rounds; ++r) {
        if (collect) {
            changes.clear();
            engine.step_collect(changes);
        } else {
            engine.step();
        }
    }
    return seconds_since(t0);
}

double raw_sweep_cells_per_s(const rules::RuleInfo& rule, const Case& c, std::uint32_t rounds,
                             ThreadPool* pool) {
    ColorField cur = c.field, next(c.field.size());
    const auto t0 = Clock::now();
    for (std::uint32_t r = 0; r < rounds; ++r) {
        rule.sweep(c.torus, cur.data(), next.data(), pool, 1 << 14);
        cur.swap(next);
    }
    return static_cast<double>(c.torus.size()) * rounds / seconds_since(t0);
}

/// The core/sim and core/run rungs on `cases` under rule R, each case run
/// `reps` times (tiny probes repeat so the timings are not clock noise).
template <sim::LocalRule R>
void sim_run_layers(const rules::RuleInfo& rule, const std::vector<Case>& cases,
                    std::uint32_t cap, int reps, ThreadPool& pool, Outcome& out) {
    using Active = sim::ActiveEngineT<R>;
    using Packed = sim::PackedEngineT<R>;
    using Bitplane = sim::BitplaneEngineT<R>;
    const char* names[] = {"active", "packed", "bitplane"};
    const Backend backends[] = {Backend::Active, Backend::Packed, Backend::BitPlane};

    double cells = 0, sweep_packed = 0, sweep_bitplane = 0, sweep_pooled = 0;
    double step[3] = {}, collect[3] = {}, run_nocycle[3] = {}, run_cycle[3] = {};
    double frontier_sum = 0, total_rounds = 0, auto_run = 0;
    for (const Case& c : cases) {
        const std::uint32_t rounds = capped(c, cap);
        const double case_cells = static_cast<double>(c.torus.size()) * rounds;
        cells += case_cells * reps;
        total_rounds += static_cast<double>(rounds) * reps;
        for (int k = 0; k < reps; ++k) {
            // Raw sweeps, as seconds: this case's cells over the rate.
            sweep_packed += case_cells / raw_sweep_cells_per_s(rule, c, rounds, nullptr);
            sweep_pooled += case_cells / raw_sweep_cells_per_s(rule, c, rounds, &pool);
            sweep_bitplane += case_cells / rule.bitplane_cells_per_sec(c.torus, c.field, 0,
                                                                       static_cast<int>(rounds));
            step[0] += time_steps<Active>(c, rounds, false);
            step[1] += time_steps<Packed>(c, rounds, false);
            step[2] += time_steps<Bitplane>(c, rounds, false);
            collect[0] += time_steps<Active>(c, rounds, true);
            collect[1] += time_steps<Packed>(c, rounds, true);
            collect[2] += time_steps<Bitplane>(c, rounds, true);
            for (int b = 0; b < 3; ++b) {
                RunOptions o = run_options(nullptr, backends[b]);
                o.max_rounds = rounds;
                o.detect_cycles = false;
                RunResult r;
                run_nocycle[b] += time_s([&] { r = rule.run(c.torus, c.field, o); });
                out.op(r.rounds == rounds, c.label + " " + names[b] + " capped run rounds");
                o.detect_cycles = true;
                run_cycle[b] += time_s([&] { r = rule.run(c.torus, c.field, o); });
                out.op(r.rounds == rounds, c.label + " " + names[b] + " capped run rounds");
            }
            RunOptions o = run_options(nullptr);
            o.max_rounds = rounds;
            auto_run += time_s([&] { rule.run(c.torus, c.field, o); });
        }
        // Frontier: outside any timed region (frontier_size walks the rows).
        Active engine(c.torus, c.field);
        for (std::uint32_t r = 0; r < rounds; ++r) {
            engine.step();
            frontier_sum += static_cast<double>(engine.frontier_size());
        }
    }
    // The active engine's retention is against the byte sweep it shares.
    const double sweep_rate[3] = {cells / sweep_packed, cells / sweep_packed,
                                  cells / sweep_bitplane};
    out.metrics["sim.sweep_cells_per_s.packed"] = cells / sweep_packed;
    out.metrics["sim.sweep_cells_per_s.packed_nw"] = cells / sweep_pooled;
    out.metrics["sim.sweep_cells_per_s.bitplane"] = cells / sweep_bitplane;
    out.metrics["sim.frontier_cells_mean"] = frontier_sum / (total_rounds / reps);
    for (int b = 0; b < 3; ++b) {
        const std::string n = names[b];
        out.metrics["sim.step_s." + n] = step[b];
        out.metrics["sim.step_collect_s." + n] = collect[b];
        out.metrics["sim.collect_overhead." + n] = collect[b] / step[b];
        out.metrics["run.loop_s." + n] = run_nocycle[b] - collect[b];
        out.metrics["run.cycle_detector_s." + n] = run_cycle[b] - run_nocycle[b];
        out.metrics["run.cell_rounds_per_s." + n] = cells / run_cycle[b];
        out.metrics["run.sweep_retention." + n] = cells / run_cycle[b] / sweep_rate[b];
        out.metrics["run.round_us_mean." + n] = run_cycle[b] / total_rounds * 1e6;
    }
    out.metrics["run.cell_rounds_per_s.auto"] = cells / auto_run;
    out.metrics["run.round_us_mean.auto"] = auto_run / total_rounds * 1e6;

    // Per-round latency of the default run (Auto, serial, full length).
    RoundClock clock;
    for (int k = 0; k < reps; ++k) {
        for (const Case& c : cases) {
            RunOptions o = run_options(nullptr);
            o.observers.push_back(&clock);
            rule.run(c.torus, c.field, o);
        }
    }
    out.metrics["run.round_us_p50"] = quantile(clock.samples(), 0.5);
    const auto [p, pct] = tail(clock.samples());
    out.metrics["run.round_us_p99"] = p;
    out.info["run.round_us_p99"] = "p" + std::to_string(pct) + " of " +
                                   std::to_string(clock.samples().size()) + " rounds";
}

/// Tracing overhead: the same serial and pooled passes with and without
/// the per-round clock attached.
void trace_overhead(const rules::RuleInfo& rule, const std::vector<Case>& cases,
                    ThreadPool& pool, Outcome& out) {
    for (const bool pooled : {false, true}) {
        ThreadPool* p = pooled ? &pool : nullptr;
        std::vector<double> plain, traced;
        for (int k = 0; k < 2; ++k) {
            plain.push_back(time_s([&] { run_cases(rule, cases, p, out); }));
            RoundClock clock;
            traced.push_back(time_s([&] { run_cases(rule, cases, p, out, &clock); }));
        }
        out.metrics[pooled ? "trace.overhead_s_nw" : "trace.overhead_s_1w"] =
            median(traced) - median(plain);
    }
}

template <sim::LocalRule R>
void run_torus_workload(const Args& args, const rules::RuleInfo& rule,
                        std::vector<Case> (*make)(const Args&), std::uint32_t cap, Outcome& out) {
    // The measuring loop rebuilds into a spare set (freed first, so at most
    // one spare lives at a time): `cases` stays put.
    std::vector<Case> spare;
    SetupClock setup(args, [&] {
        spare.clear();
        spare = make(args);
    });
    std::vector<Case> cases = std::move(spare);
    ThreadPool pool(args.nproc);
    if (!args.trace) {
        measure_torus_end_to_end(args, rule, cases, pool, setup, out);
        out.metrics["peak_rss_mb"] = self_peak_rss_mb();
        return;
    }
    setup.report(out);
    sim_run_layers<R>(rule, cases, cap, 1, pool, out);
    trace_overhead(rule, cases, pool, out);
    pool_layer(args, out);
    smoke_campaign_layers(args, out);
}

} // namespace

void run_churn(const Args& args, Outcome& out) {
    const std::uint32_t side = churn_side(args);
    out.info["working_set"] = "two " + std::to_string(side * side / 1024) +
                              " KiB byte fields (" + std::to_string(side) + "^2 mesh)";
    run_torus_workload<rules::MajorityPreferBlack>(
        args, rules::rule_or_throw("majority-prefer-black"), churn_cases, ~0u, out);
}

void run_wave(const Args& args, Outcome& out) {
    const std::uint32_t side = wave_side(args);
    out.info["working_set"] = "three tori of two " + std::to_string(side * side / 1024) +
                              " KiB byte fields each (" + std::to_string(side) + "^2)";
    run_torus_workload<sim::SmpRule>(args, rules::smp_rule(), wave_cases, args.smoke ? 64 : 1024,
                                     out);
}

void trial_sim_layers(const Args& args, Outcome& out) {
    // One atlas-sized trial: SMP on a 12x12 mesh from the first seeded
    // random 4-coloring that runs at least four rounds, repeated so each
    // rung runs long enough to time.
    grid::Torus torus(grid::Topology::ToroidalMesh, 12, 12);
    ColorField field;
    RunResult ref;
    for (std::uint64_t k = 7; ref.rounds < 4; ++k) {
        Xoshiro256 rng(substream_seed(args.seed, k));
        field = analysis::random_coloring(torus.size(), 1, 4, 0.5, rng);
        ref = simulate(torus, field);
    }
    std::vector<Case> cases;
    cases.push_back(Case{"trial", std::move(torus), std::move(field), ref.termination,
                         ref.rounds, ref.total_recolorings, ref.mono.value_or(0)});
    ThreadPool pool(args.nproc);
    sim_run_layers<sim::SmpRule>(rules::smp_rule(), cases, ~0u, args.smoke ? 10 : 400,
                                 pool, out);
    pool_layer(args, out);
}

void pool_layer(const Args& args, Outcome& out) {
    ThreadPool pool(args.nproc);
    std::vector<double> us;
    for (int k = 0; k < (args.smoke ? 50 : 2000); ++k) {
        us.push_back(time_s([&] {
                         parallel_for_blocks(&pool, args.nproc * 2, 1,
                                             [](std::size_t, std::size_t) {});
                     }) *
                     1e6);
    }
    out.metrics["pool.dispatch_us"] = median(us);
}

} // namespace ladder
