// Run-API tests: backend-independent terminal-round semantics (one run
// loop over packed / active / generic engines, bit-identical RunResults),
// active-engine terminal behaviours driven through run_to_terminal, the
// automatic round cap, observer composition (census series, frame dumper,
// cycle detector) and stop-request priorities, the repeat checks (the
// bi-color period-2 check and the irreversible rules' quiescence against
// the hash detector, and the Goles-Olivos / Poljak-Sura period bound they
// rest on), facts rounds (runs nothing reads change lists of, against
// the same runs listed and Generic, across Auto's hand-overs), the
// plurality graph engine under the shared run loop, BatchRunner
// substream determinism, and lane batches (every lane == the scalar run,
// and a lane past the lane cap or the repeat check's history left live).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <filesystem>
#include <span>

#include "analysis/census_series.hpp"
#include "analysis/montecarlo.hpp"
#include "core/builders.hpp"
#include "core/run/batch.hpp"
#include "core/run/simulate.hpp"
#include "core/sim/hybrid_engine.hpp"
#include "core/sim/lane_engine.hpp"
#include "core/transform.hpp"
#include "graph/generators.hpp"
#include "graph/plurality.hpp"
#include "io/frame_dumper.hpp"
#include "rules/majority.hpp"
#include "rules/registry.hpp"
#include "rules/threshold.hpp"
#include "util/rng.hpp"

namespace dynamo {
namespace {

using grid::Topology;
using grid::Torus;

constexpr Topology kTopologies[] = {Topology::ToroidalMesh, Topology::TorusCordalis,
                                    Topology::TorusSerpentinus};
constexpr Backend kBackends[] = {Backend::Packed, Backend::Active, Backend::Generic,
                                 Backend::BitPlane, Backend::Auto};

ColorField checkerboard(const Torus& t, Color a, Color b) {
    ColorField f(t.size());
    for (grid::VertexId v = 0; v < t.size(); ++v) {
        const auto c = t.coord(v);
        f[v] = ((c.i + c.j) % 2 == 0) ? a : b;
    }
    return f;
}

ColorField random_field(const Torus& t, Color colors, Xoshiro256& rng) {
    ColorField f(t.size());
    for (auto& c : f) c = static_cast<Color>(1 + rng.below(colors));
    return f;
}

void expect_results_identical(const RunResult& a, const RunResult& b, const std::string& tag) {
    EXPECT_EQ(a.termination, b.termination) << tag;
    EXPECT_EQ(a.rounds, b.rounds) << tag;
    EXPECT_EQ(a.mono, b.mono) << tag;
    EXPECT_EQ(a.cycle_period, b.cycle_period) << tag;
    EXPECT_EQ(a.total_recolorings, b.total_recolorings) << tag;
    EXPECT_EQ(a.final_colors, b.final_colors) << tag;
    EXPECT_EQ(a.k_time, b.k_time) << tag;
    EXPECT_EQ(a.newly_k, b.newly_k) << tag;
    EXPECT_EQ(a.monotone, b.monotone) << tag;
}

TEST(RunBackends, AllBackendsProduceBitIdenticalResults) {
    // The acceptance oracle: Backend::Generic is the seed table-driven
    // driver; Packed, Active, BitPlane and the adaptive Auto default must
    // match it on every field of the result, across dynamos, stalls,
    // oscillations, and random fields, on all three topologies.
    Xoshiro256 rng(0x5eed);
    for (const Topology topo : kTopologies) {
        Torus t(topo, 9, 8);
        std::vector<std::pair<std::string, ColorField>> scenarios;
        scenarios.emplace_back("dynamo", build_minimum_dynamo(t).field);
        scenarios.emplace_back("checkerboard", checkerboard(t, 1, 2));
        scenarios.emplace_back("mono", ColorField(t.size(), 3));
        for (int trial = 0; trial < 4; ++trial) {
            scenarios.emplace_back("random" + std::to_string(trial), random_field(t, 4, rng));
        }

        for (const auto& [name, field] : scenarios) {
            RunOptions opts;
            opts.target = 1;
            opts.backend = Backend::Generic;
            const RunResult reference = simulate(t, field, opts);
            for (const Backend backend :
                 {Backend::Packed, Backend::Active, Backend::BitPlane, Backend::Auto}) {
                opts.backend = backend;
                const RunResult result = simulate(t, field, opts);
                expect_results_identical(reference, result,
                                         std::string(to_string(topo)) + "/" + name +
                                             "/backend=" + backend_name(backend));
            }
        }
    }
}

TEST(RunBackends, EveryRegisteredRuleIsBitIdenticalAcrossBackends) {
    // The rule-generic acceptance oracle: for EVERY registered rule
    // (rules/registry.hpp) and every topology, Backend::Generic (the seed
    // table-driven sweep of the rule) must match Packed, Active, and Auto
    // on every field of the RunResult - dynamos, stalls, oscillations,
    // random fields. This is the engine-level half of the rule-parity net
    // (tests/test_rules.cpp pins the kernels and sweeps).
    Xoshiro256 rng(0x51e);
    for (const rules::RuleInfo* rule : rules::all_rules()) {
        const Color palette = rule->bicolor() ? 2 : 4;
        for (const Topology topo : kTopologies) {
            Torus t(topo, 7, 6);
            std::vector<std::pair<std::string, ColorField>> scenarios;
            scenarios.emplace_back("checkerboard", checkerboard(t, 1, 2));
            scenarios.emplace_back("mono", ColorField(t.size(), palette));
            ColorField lone(t.size(), 1);
            lone[t.index(3, 3)] = 2;
            scenarios.emplace_back("lone-black", lone);
            for (int trial = 0; trial < 3; ++trial) {
                scenarios.emplace_back("random" + std::to_string(trial),
                                       random_field(t, palette, rng));
            }

            for (const auto& [name, field] : scenarios) {
                RunOptions opts;
                opts.target = rule->bicolor() ? Color(2) : Color(1);
                opts.backend = Backend::Generic;
                const RunResult reference = rule->run(t, field, opts);
                for (const Backend backend :
                     {Backend::Packed, Backend::Active, Backend::BitPlane, Backend::Auto}) {
                    opts.backend = backend;
                    const RunResult result = rule->run(t, field, opts);
                    expect_results_identical(reference, result,
                                             std::string(rule->name) + "/" + to_string(topo) +
                                                 "/" + name + "/backend=" +
                                                 backend_name(backend));
                }
                // Irreversible rules are monotone by construction on every
                // run that the tracker observed.
                if (rule->irreversible) {
                    EXPECT_TRUE(reference.monotone)
                        << rule->name << "/" << to_string(topo) << "/" << name;
                }
            }
        }
    }
}

/// Three starts that are dense on their first rounds and thin later, on
/// `t` under a rule with `palette` colors: a random upper half over a
/// quiet lower half, the same over a checkerboard, and the minimum dynamo
/// (a thin wave; phi-collapsed to black and white for a bi-color rule)
/// with every third cell of every fourth row recolored.
using NamedFields = std::vector<std::pair<std::string, ColorField>>;

NamedFields dense_then_thin_starts(const Torus& t, Color palette, Xoshiro256& rng) {
    const std::uint32_t m = t.rows(), n = t.cols();
    ColorField quiet(t.size(), 1), board = checkerboard(t, 1, 2);
    for (std::uint32_t i = 0; i < m / 2; ++i) {
        for (std::uint32_t j = 0; j < n; ++j) {
            const auto c = static_cast<Color>(1 + rng.below(palette));
            quiet[t.index(i, j)] = board[t.index(i, j)] = c;
        }
    }
    const Configuration dynamo = build_minimum_dynamo(t);
    ColorField noisy = palette == 2 ? phi_collapse(dynamo.field, dynamo.k) : dynamo.field;
    for (std::uint32_t i = 4; i < m; i += 4) {
        for (std::uint32_t j = 4; j + 1 < n; j += 3) {
            Color& c = noisy[t.index(i, j)];
            c = static_cast<Color>(c % palette + 1);
        }
    }
    return {{"half-random", quiet}, {"half-random/checkerboard", board}, {"noisy-dynamo", noisy}};
}

TEST(RunBackends, AutoHandsOverBothWaysBitIdentically) {
    // Backend::Auto moves a run to the bit-plane engine after a dense round
    // and back to the active engine after a thin one. Every registered rule
    // on every topology must take both hand-overs on these starts and still
    // match Generic on every field, serial and pooled at the finest grain.
    Xoshiro256 rng(0x4a4d);
    ThreadPool pool(3);
    for (const rules::RuleInfo* rule : rules::all_rules()) {
        const Color palette = rule->bicolor() ? 2 : 4;
        for (const Topology topo : kTopologies) {
            const Torus t(topo, 128, 64);
            const std::string where = std::string(rule->name) + "/" + to_string(topo);
            const sim::HandoverCounts before = sim::handover_counts();
            for (const auto& [name, field] : dense_then_thin_starts(t, palette, rng)) {
                RunOptions opts;
                opts.target = rule->bicolor() ? Color(2) : Color(1);
                opts.max_rounds = 256;  // the long spiral waves are not the point
                opts.backend = Backend::Generic;
                const RunResult reference = rule->run(t, field, opts);
                opts.backend = Backend::Auto;
                expect_results_identical(reference, rule->run(t, field, opts), where + "/" + name);
                opts.pool = &pool;
                opts.parallel_grain = 1;
                expect_results_identical(reference, rule->run(t, field, opts),
                                         where + "/" + name + "/pooled");
            }
            const sim::HandoverCounts after = sim::handover_counts();
            EXPECT_GE(after.to_bitplane - before.to_bitplane, 1u) << where;
            EXPECT_GE(after.to_active - before.to_active, 1u) << where;
        }
    }
}

TEST(RunBackends, AutoStaysOnTheActiveEngineForAWidePalette) {
    // The bit-plane engine packs colors 1..7; SMP and the incremental rule
    // take any palette. A dense random 9-color field would hand Auto to the
    // bit-plane engine after its first round: Auto must check the palette
    // and stay on the active engine, while an explicit BitPlane run still
    // refuses the field.
    Xoshiro256 rng(0x9c01);
    for (const char* name : {"smp", "incremental"}) {
        const rules::RuleInfo& rule = rules::rule_or_throw(name);
        for (const Topology topo : kTopologies) {
            const Torus t(topo, 64, 64);
            const std::string where = std::string(name) + "/" + to_string(topo);
            const ColorField field = random_field(t, 9, rng);
            ColorField next(t.size());
            ASSERT_GE(rule.sweep(t, field.data(), next.data(), nullptr, 1 << 14) * 8, t.size())
                << where << ": the first round must be dense";

            RunOptions opts;
            opts.target = 1;
            opts.backend = Backend::Generic;
            const RunResult reference = rule.run(t, field, opts);
            opts.backend = Backend::Auto;
            RunResult result;
            ASSERT_NO_THROW(result = rule.run(t, field, opts)) << where;
            expect_results_identical(reference, result, where);

            opts.backend = Backend::BitPlane;
            try {
                rule.run(t, field, opts);
                ADD_FAILURE() << where << ": BitPlane accepted a 9-color field";
            } catch (const std::invalid_argument& e) {
                EXPECT_NE(std::string(e.what()).find("palette must be within 1..7"),
                          std::string::npos)
                    << e.what();
            }
        }
    }
}

TEST(RunBackends, TerminalRoundSemanticsAgreeOnQuiescence) {
    // Quiescence accounting is defined once: a run that stalls on round r
    // reports r-1 on every backend.
    Torus t(Topology::ToroidalMesh, 6, 7);  // the Fig-4 pattern is mesh-only
    const Configuration cfg = build_fig4_stalled_configuration(t);
    for (const Backend backend : kBackends) {
        RunOptions opts;
        opts.backend = backend;
        const RunResult result = simulate(t, cfg.field, opts);
        EXPECT_EQ(result.termination, Termination::FixedPoint) << int(backend);
        EXPECT_EQ(result.rounds, 0u) << int(backend);
        EXPECT_EQ(result.total_recolorings, 0u) << int(backend);
    }
}

TEST(RunBackends, ActiveEngineRunAgreesWithSimulateRounds) {
    RunOptions opts;
    opts.detect_cycles = false;
    for (const Topology topo : kTopologies) {
        Torus t(topo, 11, 9);
        const Configuration cfg = build_minimum_dynamo(t);
        const RunResult reference = simulate(t, cfg.field);

        sim::ActiveEngineT<sim::SmpRule> engine(t, cfg.field);
        EXPECT_EQ(run_to_terminal(engine, opts).rounds, reference.rounds) << to_string(topo);
        EXPECT_EQ(engine.colors(), reference.final_colors) << to_string(topo);
    }
    // Initially monochromatic: 0 rounds, no stepping needed to know it.
    Torus t(Topology::ToroidalMesh, 5, 5);
    sim::ActiveEngineT<sim::SmpRule> engine(t, ColorField(t.size(), 2));
    opts.max_rounds = 100;
    EXPECT_EQ(run_to_terminal(engine, opts).rounds, 0u);
    EXPECT_EQ(engine.round(), 0u);
}

TEST(RunBackends, PooledRunsAreBitIdenticalToSerialOnEveryBackend) {
    // The segmented active-set engine (and every other backend) is
    // pool-aware: an explicit backend + pool must produce the same
    // RunResult bit for bit as the same backend serial - phase 2 of the
    // active sweep stays serial precisely so the change lists and
    // activation order cannot depend on scheduling.
    Xoshiro256 rng(0x9001);
    ThreadPool pool(3);
    for (const Topology topo : kTopologies) {
        Torus t(topo, 17, 13);
        for (int trial = 0; trial < 3; ++trial) {
            const ColorField f = random_field(t, 4, rng);
            for (const Backend backend : kBackends) {
                RunOptions serial_opts;
                serial_opts.backend = backend;
                serial_opts.target = 1;
                const RunResult serial = simulate(t, f, serial_opts);

                RunOptions pooled_opts = serial_opts;
                pooled_opts.pool = &pool;
                pooled_opts.parallel_grain = 1;
                const RunResult pooled = simulate(t, f, pooled_opts);
                expect_results_identical(serial, pooled,
                                         std::string(to_string(topo)) + "/trial" +
                                             std::to_string(trial) + "/backend=" +
                                             backend_name(backend));
            }
        }
    }
    // Auto with a pool now takes the pooled active path and must succeed.
    Torus t(Topology::ToroidalMesh, 6, 6);
    RunOptions opts;
    opts.backend = Backend::Auto;
    opts.pool = &pool;
    EXPECT_EQ(simulate(t, checkerboard(t, 1, 2), opts).termination, Termination::Cycle);
}

TEST(RunBackends, ReferenceEngineRunsARuntimeFunctor) {
    // A runtime rule functor has no registry entry: the reference engine
    // steps it through its monomorphized table sweep.
    Torus t(Topology::ToroidalMesh, 6, 6);
    const ColorField f = checkerboard(t, 1, 2);
    const auto flip = [](Color own, const std::array<Color, grid::kDegree>& nbr) noexcept {
        return nbr[0] == nbr[1] ? nbr[0] : own;
    };
    BasicSyncEngine engine(t, f, &reference_sweep<decltype(flip)>);
    EXPECT_EQ(run_to_terminal(engine).termination, Termination::Cycle);
    // Every registered rule has a word kernel (make_info refuses one
    // without at compile time), so its bit-plane throughput entry is set.
    for (const rules::RuleInfo* rule : rules::all_rules()) {
        EXPECT_NE(rule->bitplane_cells_per_sec, nullptr) << rule->name;
    }
}

TEST(RunBackends, CycleDetectionRejectedForTimeVaryingRules) {
    // stop_on_quiescence = false declares a time-varying rule, under which
    // state repetition proves nothing: the runner must refuse the
    // combination instead of reporting spurious period-1 cycles.
    Torus t(Topology::ToroidalMesh, 6, 6);
    sim::PackedEngineT<sim::SmpRule> engine(t, checkerboard(t, 1, 2));
    RunOptions opts;
    opts.stop_on_quiescence = false;
    EXPECT_THROW(run_to_terminal(engine, opts), std::invalid_argument);
    opts.detect_cycles = false;
    opts.max_rounds = 4;
    EXPECT_EQ(run_to_terminal(engine, opts).termination, Termination::RoundLimit);
}

TEST(RunBackends, AutomaticRoundCapSaturates) {
    EXPECT_EQ(auto_round_cap(1), 68u);
    EXPECT_EQ(auto_round_cap((std::size_t{1} << 30) - 17), 4294967292u);
    // From |V| = 2^30 - 16 on, 4*|V| + 64 does not fit 32 bits (truncated,
    // it would be a cap of 0 there and of 64 at 2^30).
    EXPECT_EQ(auto_round_cap((std::size_t{1} << 30) - 16), UINT32_MAX);
    EXPECT_EQ(auto_round_cap(std::size_t{1} << 30), UINT32_MAX);
}

/// The bi-color registry names, aliases included.
std::vector<const rules::RuleInfo*> bicolor_rules() {
    std::vector<const rules::RuleInfo*> out;
    for (const rules::RuleInfo* rule : rules::all_rules()) {
        if (rule->bicolor()) out.push_back(rule);
    }
    return out;
}

/// A field of kWhite with each cell kBlack at probability `black`.
ColorField bicolor_field(const Torus& t, double black, Xoshiro256& rng) {
    ColorField f(t.size(), kWhite);
    for (auto& c : f) {
        if (rng.uniform() < black) c = kBlack;
    }
    return f;
}

/// Tori for the repeat-check tests: thin ones, where two neighbor slots of
/// a cell name the same vertex (a parallel edge of weight 2), and wider
/// ones.
constexpr std::pair<std::uint32_t, std::uint32_t> kRepeatCheckSizes[] = {
    {2, 2}, {2, 7}, {7, 2}, {3, 5}, {8, 8}, {13, 10}};

TEST(RunCycleChecks, BicolorRunsMatchTheHashDetectorOnEveryBackend) {
    // A reversible bi-color rule's run ends on the period-2 check and an
    // irreversible one's on quiescence alone (core/run/runner.hpp), while
    // Backend::Generic's reference engine keeps the hash detector. Every
    // bi-color name, aliases included, must give Generic's RunResult on
    // every other backend, serial and pooled, on thin and wide tori of
    // every topology. The checkerboard is a 2-cycle under
    // majority-prefer-black, so the cycle path always runs.
    Xoshiro256 rng(0x2c7c1e);
    ThreadPool pool(3);
    std::size_t cycles = 0;
    for (const rules::RuleInfo* rule : bicolor_rules()) {
        for (const Topology topo : kTopologies) {
            for (const auto& [m, n] : kRepeatCheckSizes) {
                const Torus t(topo, m, n);
                std::vector<std::pair<std::string, ColorField>> fields;
                fields.emplace_back("checkerboard", checkerboard(t, kWhite, kBlack));
                for (const double black : {0.2, 0.4, 0.5, 0.7}) {
                    for (int trial = 0; trial < 2; ++trial) {
                        fields.emplace_back("black" + std::to_string(black) + "/" +
                                                std::to_string(trial),
                                            bicolor_field(t, black, rng));
                    }
                }
                for (const auto& [name, field] : fields) {
                    const std::string where = std::string(rule->name) + "/" + to_string(topo) +
                                              "/" + std::to_string(m) + "x" +
                                              std::to_string(n) + "/" + name;
                    RunOptions opts;
                    opts.backend = Backend::Generic;
                    const RunResult reference = rule->run(t, field, opts);
                    cycles += reference.termination == Termination::Cycle;
                    for (const Backend backend :
                         {Backend::Auto, Backend::Active, Backend::BitPlane, Backend::Packed}) {
                        for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
                            opts.backend = backend;
                            opts.pool = p;
                            opts.parallel_grain = 1;
                            expect_results_identical(reference, rule->run(t, field, opts),
                                                     where + "/" + backend_name(backend) +
                                                         (p != nullptr ? "/pooled" : ""));
                        }
                    }
                }
            }
        }
    }
    EXPECT_GT(cycles, 0u);

    const Torus t(Topology::ToroidalMesh, 8, 8);
    RunOptions opts;
    opts.backend = Backend::Packed;
    const RunResult flip =
        rules::rule_or_throw("majority-prefer-black").run(t, checkerboard(t, kWhite, kBlack), opts);
    EXPECT_EQ(flip.termination, Termination::Cycle);
    EXPECT_EQ(flip.cycle_period, 2u);
    EXPECT_EQ(flip.rounds, 2u);
}

TEST(RunCycleChecks, BicolorPeriodsAreAtMostTwoByGolesOlivosAndPoljakSura) {
    // Goles & Olivos, "Periodic behaviour of generalized threshold
    // functions" (Discrete Math. 30, 1980), and Poljak & Sura, "On
    // periodical behaviour in societies with symmetric influences"
    // (Combinatorica 3, 1983): a synchronous threshold network with
    // symmetric weights has period 1 or 2. The period-2 check and the
    // irreversible rules' missing detector rest on it.
    //
    // Premise 1: every bi-color kernel is a threshold rule on {1, 2} -
    // black next iff w * [own black] + (black neighbor slots) >= theta.
    constexpr int kSlots = static_cast<int>(grid::kDegree);
    for (const rules::RuleInfo* rule : bicolor_rules()) {
        bool found = false;
        for (int w = 0; w <= kSlots + 1 && !found; ++w) {
            for (int theta = 0; theta <= 2 * kSlots + 2 && !found; ++theta) {
                bool fits = true;
                for (unsigned bits = 0; bits < 32 && fits; ++bits) {
                    const auto color = [&](int i) { return (bits >> i & 1U) ? kBlack : kWhite; };
                    const int black = std::popcount(bits >> 1);
                    const Color expected =
                        w * int(bits & 1U) + black >= theta ? kBlack : kWhite;
                    fits = rule->next(color(0), color(1), color(2), color(3), color(4)) ==
                           expected;
                }
                found = fits;
            }
        }
        EXPECT_TRUE(found) << rule->name << " is not a threshold rule on {1, 2}";
    }
    // Premise 2: the weights are symmetric - u fills as many neighbor slots
    // of v as v fills of u, on thin tori too.
    for (const Topology topo : kTopologies) {
        for (const auto& [m, n] : kRepeatCheckSizes) {
            const Torus t(topo, m, n);
            const std::vector<grid::VertexId> table = reference_neighbor_table(t);
            const auto weight = [&](grid::VertexId v, grid::VertexId u) {
                return std::count(table.begin() + v * grid::kDegree,
                                  table.begin() + (v + 1) * grid::kDegree, u);
            };
            for (grid::VertexId v = 0; v < t.size(); ++v) {
                for (std::size_t s = 0; s < grid::kDegree; ++s) {
                    const grid::VertexId u = table[v * grid::kDegree + s];
                    ASSERT_EQ(weight(v, u), weight(u, v))
                        << to_string(topo) << " " << m << "x" << n << " v=" << v << " u=" << u;
                }
            }
        }
    }
    // The conclusion, on the hash detector's path (Backend::Generic), which
    // would report any period: no bi-color run exceeds period 2, and no
    // irreversible run ends in a cycle.
    Xoshiro256 rng(0x60135);
    std::size_t two_cycles = 0;
    for (const rules::RuleInfo* rule : bicolor_rules()) {
        for (const Topology topo : kTopologies) {
            for (std::uint32_t m : {2u, 3u, 4u, 5u, 7u, 9u}) {
                for (std::uint32_t n : {2u, 3u, 4u, 6u, 8u, 11u}) {
                    const Torus t(topo, m, n);
                    for (int trial = 0; trial < 8; ++trial) {
                        const ColorField field =
                            trial == 0 ? checkerboard(t, kWhite, kBlack)
                                       : bicolor_field(t, 0.15 + 0.1 * trial, rng);
                        RunOptions opts;
                        opts.backend = Backend::Generic;
                        const RunResult result = rule->run(t, field, opts);
                        const std::string where = std::string(rule->name) + "/" +
                                                  to_string(topo) + "/" + std::to_string(m) +
                                                  "x" + std::to_string(n) + "/" +
                                                  std::to_string(trial);
                        ASSERT_NE(result.termination, Termination::RoundLimit) << where;
                        if (result.termination != Termination::Cycle) continue;
                        EXPECT_FALSE(rule->irreversible) << where;
                        EXPECT_EQ(result.cycle_period, 2u) << where;
                        ++two_cycles;
                    }
                }
            }
        }
    }
    EXPECT_GT(two_cycles, 0u);
}

TEST(RunCycleChecks, BicolorSearchVerdictsMatchTheHashDetector) {
    // The search verifier steps PackedEngineT, so its bi-color runs take
    // the period-2 check (or none): every verdict must equal the one the
    // hash detector's run gives on the same black-seeded field.
    constexpr std::pair<std::uint32_t, std::uint32_t> kSizes[] = {{3, 3}, {4, 4}, {2, 5}, {5, 4}};
    Xoshiro256 rng(0x5ea2c);
    for (const rules::RuleInfo* rule : bicolor_rules()) {
        for (const Topology topo : kTopologies) {
            for (const auto& [m, n] : kSizes) {
                const Torus t(topo, m, n);
                const auto verifier = rule->make_search_verifier(t);
                for (int trial = 0; trial < 24; ++trial) {
                    // Search convention: seeds hold color 1, the rest 2.
                    ColorField search(t.size(), 2);
                    for (auto& c : search) {
                        if (rng.uniform() < 0.1 + 0.03 * trial) c = 1;
                    }
                    ColorField mapped(t.size());
                    for (std::size_t v = 0; v < t.size(); ++v) {
                        mapped[v] = search[v] == 1 ? kBlack : kWhite;
                    }
                    RunOptions opts;
                    opts.backend = Backend::Generic;
                    opts.target = kBlack;
                    const QuickVerdict expected =
                        classify_quick_verdict(rule->run(t, mapped, opts), kBlack);
                    const QuickVerdict verdict = verifier->verify(search);
                    const std::string where = std::string(rule->name) + "/" + to_string(topo) +
                                              "/" + std::to_string(trial);
                    EXPECT_EQ(verdict.is_dynamo, expected.is_dynamo) << where;
                    EXPECT_EQ(verdict.is_monotone, expected.is_monotone) << where;
                    EXPECT_EQ(verdict.rounds, expected.rounds) << where;
                }
            }
        }
    }
}

/// A packed engine that reports every other round's changes in descending
/// vertex order: the run loop promises nothing about the order, so the
/// period-2 check must not depend on it.
template <sim::LocalRule R>
class ReversingEngine {
  public:
    using Rule = R;

    ReversingEngine(const Torus& t, ColorField initial) : inner_(t, std::move(initial)) {}

    std::size_t step_collect(std::vector<CellChange>& out, ThreadPool* pool, std::size_t grain) {
        const std::size_t first = out.size();
        const std::size_t changed = inner_.step_collect(out, pool, grain);
        if (inner_.round() % 2 == 1) std::reverse(out.begin() + first, out.end());
        return changed;
    }
    const ColorField& colors() const noexcept { return inner_.colors(); }
    std::uint32_t round() const noexcept { return inner_.round(); }

  private:
    sim::PackedEngineT<R> inner_;
};

TEST(RunCycleChecks, PeriodTwoCheckIgnoresTheOrderChangesArriveIn) {
    Xoshiro256 rng(0x0dde);
    for (const Topology topo : kTopologies) {
        const Torus t(topo, 12, 9);
        for (int trial = 0; trial < 6; ++trial) {
            const ColorField field =
                trial == 0 ? checkerboard(t, kWhite, kBlack) : bicolor_field(t, 0.5, rng);
            BasicSyncEngine oracle(t, field,
                                   &reference_sweep<sim::RuleFnOf<rules::MajorityPreferBlack>>);
            ReversingEngine<rules::MajorityPreferBlack> reversing(t, field);
            expect_results_identical(run_to_terminal(oracle), run_to_terminal(reversing),
                                     std::string(to_string(topo)) + "/" +
                                         std::to_string(trial));
        }
    }
}

/// Majority-prefer-black on {1, 2}, which rotates every other color
/// through 3 -> 4 -> 5 -> 3: a period-3 orbit off the bi-color palette.
struct RotatingOffPalette {
    static constexpr const char* kName = "rotating-off-palette";
    static constexpr Color kMinColors = 2;
    static constexpr Color kMaxColors = 2;
    static constexpr bool kIrreversible = false;
    static constexpr bool kColorSymmetric = false;

    static constexpr Color next(Color own, Color a, Color b, Color c, Color d) noexcept {
        if (own > kBlack) return own == 5 ? Color(3) : Color(own + 1);
        return rules::MajorityPreferBlack::next(own, a, b, c, d);
    }
};

TEST(RunCycleChecks, OtherFieldsAndEnginesKeepTheHashDetector) {
    static_assert(engine_period_bound<sim::PackedEngineT<rules::StrongMajority>>() ==
                  PeriodBound::Two);
    static_assert(engine_period_bound<sim::HybridEngineT<rules::Threshold<2>>>() ==
                  PeriodBound::FixedPoint);
    static_assert(engine_period_bound<sim::HybridEngineT<sim::SmpRule>>() ==
                  PeriodBound::Unbounded);
    static_assert(engine_period_bound<BasicSyncEngine>() == PeriodBound::Unbounded);
    // The period bound speaks about bi-color fields only: a bi-color
    // engine driven directly on a field with a third color keeps the hash
    // detector, which sees the period-3 orbit the period-2 check cannot.
    for (const Topology topo : kTopologies) {
        const Torus t(topo, 5, 4);
        ColorField field(t.size(), kWhite);
        field[t.index(2, 1)] = 3;
        sim::PackedEngineT<RotatingOffPalette> engine(t, field);
        const RunResult result = run_to_terminal(engine);
        EXPECT_EQ(result.termination, Termination::Cycle) << to_string(topo);
        EXPECT_EQ(result.rounds, 3u) << to_string(topo);
        EXPECT_EQ(result.cycle_period, 3u) << to_string(topo);
    }
    // The hash detector counts periods from the round the run starts at:
    // SMP flips a checkerboard every round, so a run joined at round 1
    // repeats at round 3 with period 2.
    const Torus t(Topology::ToroidalMesh, 6, 6);
    sim::PackedEngineT<sim::SmpRule> engine(t, checkerboard(t, 1, 2));
    engine.step();
    const RunResult joined = run_to_terminal(engine);
    EXPECT_EQ(joined.termination, Termination::Cycle);
    EXPECT_EQ(joined.rounds, 3u);
    EXPECT_EQ(joined.cycle_period, 2u);
}

// ---------------------------------------------------------------------------
// Facts rounds: a run nothing reads change lists of takes the engine's
// count and whole-limb tests instead (core/run/runner.hpp)
// ---------------------------------------------------------------------------

/// Attaching any caller observer makes a run build its change lists.
class NoOpObserver final : public Observer {};

/// The per-round change counts of a run.
class ChangeCounts final : public Observer {
  public:
    std::optional<StopRequest> on_round(const RoundEvent& event) override {
        counts.push_back(event.changed);
        return std::nullopt;
    }
    std::vector<std::size_t> counts;
};

/// The rounds after which an adaptive run hands back to the active engine,
/// replayed from a run's change counts with HybridEngineT's thresholds.
std::vector<std::uint32_t> hand_back_rounds(const std::vector<std::size_t>& counts,
                                            std::size_t vertices) {
    using Hybrid = sim::HybridEngineT<rules::StrongMajority>;
    std::vector<std::uint32_t> out;
    bool on_bitplane = false;
    for (std::size_t k = 0; k < counts.size(); ++k) {
        if (!on_bitplane && counts[k] * Hybrid::kDenseDivisor >= vertices) {
            on_bitplane = true;
        } else if (on_bitplane && counts[k] * Hybrid::kThinDivisor < vertices) {
            on_bitplane = false;
            out.push_back(static_cast<std::uint32_t>(k + 1));
        }
    }
    return out;
}

/// Runs `field` under `opts` on `backend`, serially and pooled at the
/// finest grain, each with and without a no-op observer, and expects
/// `reference` every time.
void expect_facts_and_lists_match(const rules::RuleInfo& rule, const Torus& t,
                                  const ColorField& field, Backend backend,
                                  const RunResult& reference, ThreadPool& pool,
                                  const std::string& where, RunOptions opts = {}) {
    NoOpObserver noop;
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        for (const bool listed : {false, true}) {
            opts.backend = backend;
            opts.pool = p;
            opts.parallel_grain = 1;
            opts.observers.clear();
            if (listed) opts.observers.push_back(&noop);
            expect_results_identical(reference, rule.run(t, field, opts),
                                     where + "/" + backend_name(backend) +
                                         (p != nullptr ? "/pooled" : "") +
                                         (listed ? "/observed" : ""));
        }
    }
}

TEST(RunSummaries, FactsRoundsMatchListedRunsAndGeneric) {
    // Every bi-color name's Auto and BitPlane runs take facts rounds on the
    // bit-plane engine. Each must give the RunResult of the same run with
    // a no-op observer attached (every round listed) and of Generic, on
    // thin tori, rows with a tail limb, one full limb, and several limbs.
    Xoshiro256 rng(0x5a11);
    ThreadPool pool(3);
    std::size_t ends[3] = {};  // Monochromatic, FixedPoint, Cycle
    for (const rules::RuleInfo* rule : bicolor_rules()) {
        for (const Topology topo : kTopologies) {
            for (const auto& [m, n] : {std::pair{2u, 2u}, {2u, 7u}, {7u, 2u}, {8u, 63u},
                                       {8u, 64u}, {8u, 65u}, {16u, 129u}}) {
                const Torus t(topo, m, n);
                std::vector<std::pair<std::string, ColorField>> fields;
                fields.emplace_back("checkerboard", checkerboard(t, kWhite, kBlack));
                for (const Color fill : {kWhite, kBlack}) {
                    ColorField f(t.size(), fill);
                    f[t.index(m / 2, n - 1)] = fill == kWhite ? kBlack : kWhite;
                    fields.emplace_back(fill == kWhite ? "white-but-one" : "black-but-one", f);
                }
                for (const double black : {0.2, 0.4, 0.5, 0.7}) {
                    fields.emplace_back("black" + std::to_string(black),
                                        bicolor_field(t, black, rng));
                }
                for (const auto& [name, field] : fields) {
                    const std::string where = std::string(rule->name) + "/" + to_string(topo) +
                                              "/" + std::to_string(m) + "x" +
                                              std::to_string(n) + "/" + name;
                    RunOptions opts;
                    opts.backend = Backend::Generic;
                    const RunResult reference = rule->run(t, field, opts);
                    ASSERT_NE(reference.termination, Termination::RoundLimit) << where;
                    ++ends[static_cast<int>(reference.termination)];
                    for (const Backend backend : {Backend::Auto, Backend::BitPlane}) {
                        expect_facts_and_lists_match(*rule, t, field, backend, reference, pool,
                                                     where);
                    }
                }
            }
        }
    }
    // Every way these runs end is covered.
    for (const std::size_t count : ends) EXPECT_GT(count, 0u);
}

TEST(RunSummaries, AutoGoesDenseThinDenseAcrossFactsRounds) {
    // Majority-prefer-black on a 24x24 mesh. Isolated black cells vanish in
    // round 1 (dense: to the bit-plane engine); a two-cell-thick black L
    // fills its corner one anti-diagonal per round, so round 2 changes 2
    // cells (thin: back to the active engine) and round r changes r, until
    // round 18 is dense again. The run hands over both ways twice.
    const Torus t(Topology::ToroidalMesh, 24, 24);
    ColorField field(t.size(), kWhite);
    for (std::uint32_t k = 0; k < 22; ++k) {
        field[t.index(0, k)] = field[t.index(1, k)] = kBlack;
        field[t.index(k, 0)] = field[t.index(k, 1)] = kBlack;
    }
    for (std::uint32_t i = 5; i < 22; i += 3) {
        for (std::uint32_t j = 5; j < 22; j += 3) field[t.index(i, j)] = kBlack;
    }
    const rules::RuleInfo& rule = rules::rule_or_throw("majority-prefer-black");
    RunOptions opts;
    opts.backend = Backend::Generic;
    ChangeCounts counts;
    opts.observers.push_back(&counts);
    const RunResult reference = rule.run(t, field, opts);
    ASSERT_EQ(hand_back_rounds(counts.counts, t.size()), (std::vector<std::uint32_t>{2, 38}));

    ThreadPool pool(3);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        const sim::HandoverCounts before = sim::handover_counts();
        RunOptions auto_opts;
        auto_opts.pool = p;
        auto_opts.parallel_grain = 1;
        expect_results_identical(reference, rule.run(t, field, auto_opts),
                                 p != nullptr ? "pooled" : "serial");
        const sim::HandoverCounts after = sim::handover_counts();
        EXPECT_EQ(after.to_bitplane - before.to_bitplane, 2u);
        EXPECT_EQ(after.to_active - before.to_active, 2u);
    }
}

TEST(RunSummaries, RepeatsRightAfterAHandBackAreCaught) {
    // A period-2 blinker whose first repeat falls on the first or second
    // round after Auto hands back to the active engine: the repeat check
    // there compares the active engine's list with the hand-back round's,
    // which the bit-plane engine listed from its packed states. Strong
    // majority leaves 4-cell blinkers on random 64x64 fields; the fields
    // are the first seeds that put the repeat one and two rounds after the
    // last hand-back.
    ThreadPool pool(3);
    for (const char* name : {"strong-majority", "majority-prefer-current"}) {
        const rules::RuleInfo& rule = rules::rule_or_throw(name);
        for (const Topology topo : kTopologies) {
            const Torus t(topo, 64, 64);
            bool found[3] = {false, false, false};
            for (std::uint64_t seed = 0; seed < 400 && !(found[1] && found[2]); ++seed) {
                Xoshiro256 rng(seed);
                const ColorField field = bicolor_field(t, 0.4, rng);
                RunOptions opts;
                opts.backend = Backend::Generic;
                ChangeCounts counts;
                opts.observers.push_back(&counts);
                const RunResult reference = rule.run(t, field, opts);
                const std::vector<std::uint32_t> backs = hand_back_rounds(counts.counts, t.size());
                if (reference.termination != Termination::Cycle || backs.empty()) continue;
                const std::uint32_t after = reference.rounds - backs.back();
                if (after < 1 || after > 2 || found[after]) continue;
                found[after] = true;
                const std::string where = std::string(name) + "/" + to_string(topo) + "/seed" +
                                          std::to_string(seed);
                const sim::HandoverCounts before = sim::handover_counts();
                expect_facts_and_lists_match(rule, t, field, Backend::Auto, reference, pool,
                                             where);
                const sim::HandoverCounts later = sim::handover_counts();
                EXPECT_GE(later.to_bitplane - before.to_bitplane, 4u) << where;
                EXPECT_GE(later.to_active - before.to_active, 4u) << where;
            }
            EXPECT_TRUE(found[1] && found[2]) << name << "/" << to_string(topo);
        }
    }
}

TEST(RunSummaries, MulticolorRunsWithoutARepeatCheckTakeFactsToo) {
    // smp and incremental keep the hash detector, so their runs list every
    // round - unless detect_cycles is off and nothing else reads lists.
    // Then their bit-plane rounds are facts rounds over three planes.
    Xoshiro256 rng(0x3c01);
    ThreadPool pool(3);
    for (const char* name : {"smp", "incremental"}) {
        const rules::RuleInfo& rule = rules::rule_or_throw(name);
        for (const Topology topo : kTopologies) {
            for (const auto& [m, n] : {std::pair{2u, 7u}, {8u, 65u}, {64u, 64u}}) {
                const Torus t(topo, m, n);
                for (const Color colors : {Color(2), Color(4)}) {
                    const ColorField field = random_field(t, colors, rng);
                    const std::string where = std::string(name) + "/" + to_string(topo) + "/" +
                                              std::to_string(m) + "x" + std::to_string(n) +
                                              "/" + std::to_string(colors) + " colors";
                    RunOptions opts;
                    opts.detect_cycles = false;
                    opts.max_rounds = 200;
                    opts.backend = Backend::Generic;
                    const RunResult reference = rule.run(t, field, opts);
                    for (const Backend backend : {Backend::Auto, Backend::BitPlane}) {
                        expect_facts_and_lists_match(rule, t, field, backend, reference, pool,
                                                     where, opts);
                    }
                }
            }
        }
    }
}

TEST(RunSummaries, AutoHandsNothingBackOnTheRoundThatEndsTheRun) {
    // A facts round that changes nothing (a fixed point) or leaves the
    // field monochromatic ends the run, so Auto must not restart the
    // active engine after it. On the 8x8 and 12x12 tori (|V| < 256) only a
    // zero-change round is thin, so a run there that ends on a fixed point
    // or monochromatic hands back nothing at all.
    Xoshiro256 rng(0xe4d5);
    std::size_t on_bitplane = 0;  // runs that reached the bit-plane engine
    for (const rules::RuleInfo* rule : bicolor_rules()) {
        for (const Topology topo : kTopologies) {
            for (const std::uint32_t side : {8u, 12u}) {
                const Torus t(topo, side, side);
                for (const double black : {0.2, 0.4, 0.5, 0.6, 0.8}) {
                    const ColorField field = bicolor_field(t, black, rng);
                    RunOptions opts;
                    opts.backend = Backend::Generic;
                    const RunResult reference = rule->run(t, field, opts);
                    if (reference.termination != Termination::FixedPoint &&
                        reference.termination != Termination::Monochromatic) {
                        continue;
                    }
                    const std::string where = std::string(rule->name) + "/" + to_string(topo) +
                                              "/" + std::to_string(side) + "/black" +
                                              std::to_string(black);
                    const sim::HandoverCounts before = sim::handover_counts();
                    expect_results_identical(reference, rule->run(t, field, {}), where);
                    const sim::HandoverCounts after = sim::handover_counts();
                    EXPECT_EQ(after.to_active, before.to_active) << where;
                    on_bitplane += after.to_bitplane != before.to_bitplane;
                }
            }
        }
    }
    EXPECT_GT(on_bitplane, 0u);

    // threshold-1 on a 128^2 mesh at 30 % black: rounds of 8716, 2543, 142
    // and 2 changes, and the thin last one leaves the torus black. Only
    // the first is dense and only the last is thin.
    const Torus t(Topology::ToroidalMesh, 128, 128);
    Xoshiro256 field_rng(0x30);
    const ColorField field = bicolor_field(t, 0.3, field_rng);
    const rules::RuleInfo& rule = rules::rule_or_throw("threshold-1");
    RunOptions opts;
    opts.backend = Backend::Generic;
    const RunResult reference = rule.run(t, field, opts);
    ASSERT_EQ(reference.termination, Termination::Monochromatic);
    ASSERT_EQ(reference.rounds, 4u);
    const sim::HandoverCounts before = sim::handover_counts();
    expect_results_identical(reference, rule.run(t, field, {}), "threshold-1/128x128");
    const sim::HandoverCounts after = sim::handover_counts();
    EXPECT_EQ(after.to_bitplane - before.to_bitplane, 1u);
    EXPECT_EQ(after.to_active - before.to_active, 0u);
}

TEST(RunActive, CheckerboardLimitCycleThroughRunner) {
    // Active-engine terminal behaviour 1: the period-2 checkerboard flip,
    // previously only exercised on packed-engine paths.
    Torus t(Topology::ToroidalMesh, 4, 4);
    RunOptions opts;
    opts.backend = Backend::Active;
    const RunResult result = simulate(t, checkerboard(t, 1, 2), opts);
    EXPECT_EQ(result.termination, Termination::Cycle);
    EXPECT_EQ(result.cycle_period, 2u);
    EXPECT_EQ(result.rounds, 2u);
}

TEST(RunActive, NonMonochromaticFixedPointThroughRunner) {
    // Active-engine terminal behaviour 2: runs that *evolve into* a
    // non-monochromatic fixed point (not just start on one). Scan fixed
    // random seeds for such trajectories via the reference backend, then
    // require the active backend to classify them identically.
    Xoshiro256 rng(0xf1e1d);
    int found = 0;
    for (int trial = 0; trial < 64 && found < 3; ++trial) {
        Torus t(Topology::ToroidalMesh, 8, 8);
        const ColorField f = random_field(t, 4, rng);
        RunOptions opts;
        opts.backend = Backend::Generic;
        const RunResult reference = simulate(t, f, opts);
        if (reference.termination != Termination::FixedPoint || reference.rounds == 0) continue;
        ++found;
        opts.backend = Backend::Active;
        const RunResult active = simulate(t, f, opts);
        EXPECT_EQ(active.termination, Termination::FixedPoint) << trial;
        EXPECT_EQ(active.rounds, reference.rounds) << trial;
        EXPECT_EQ(active.final_colors, reference.final_colors) << trial;
    }
    // The 8x8 4-color ensemble is rich in multi-round fixed points; if
    // this ever fires, loosen the scan instead of deleting the test.
    EXPECT_EQ(found, 3);
}

TEST(RunActive, RoundLimitCapThroughRunner) {
    // Active-engine terminal behaviour 3: the defensive cap.
    Torus t(Topology::ToroidalMesh, 4, 4);
    RunOptions opts;
    opts.backend = Backend::Active;
    opts.max_rounds = 3;
    opts.detect_cycles = false;
    const RunResult result = simulate(t, checkerboard(t, 1, 2), opts);
    EXPECT_EQ(result.termination, Termination::RoundLimit);
    EXPECT_EQ(result.rounds, 3u);
}

TEST(RunObservers, CensusSeriesTracksConvergence) {
    Torus t(Topology::ToroidalMesh, 9, 9);
    const Configuration cfg = build_minimum_dynamo(t);

    analysis::CensusSeries census;
    RunOptions opts;
    opts.target = cfg.k;
    opts.observers.push_back(&census);
    const RunResult result = simulate(t, cfg.field, opts);
    ASSERT_TRUE(result.reached_mono(cfg.k));

    // One sample per executed round plus the initial state; entropy decays
    // to exactly zero at the monochromatic configuration.
    ASSERT_EQ(census.samples().size(), result.rounds + 1);
    EXPECT_GT(census.samples().front().entropy_bits, 0.0);
    EXPECT_DOUBLE_EQ(census.samples().back().entropy_bits, 0.0);
    EXPECT_EQ(census.samples().back().dominant, cfg.k);
    EXPECT_EQ(census.samples().back().dominant_count, t.size());
}

TEST(RunObservers, FrameDumperWritesOneFramePerSampledRound) {
    const auto dir = std::filesystem::temp_directory_path() / "dynamo_test_frames";
    std::filesystem::remove_all(dir);

    Torus t(Topology::TorusCordalis, 8, 8);
    const Configuration cfg = build_minimum_dynamo(t);
    io::FrameDumper frames(t, dir.string(), /*every=*/1, /*scale=*/2);
    RunOptions opts;
    opts.observers.push_back(&frames);
    const RunResult result = simulate(t, cfg.field, opts);

    // every=1: initial state + every round, final already covered.
    EXPECT_EQ(frames.frames_written(), result.rounds + 1);
    std::size_t on_disk = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        on_disk += entry.path().extension() == ".ppm";
    }
    EXPECT_EQ(on_disk, frames.frames_written());
    std::filesystem::remove_all(dir);
}

TEST(RunObservers, OptionsComposeObserversWithTargetTracking) {
    Torus t(Topology::ToroidalMesh, 6, 6);
    const Configuration cfg = build_theorem2_configuration(t);

    analysis::CensusSeries census;
    RunOptions opts;
    opts.target = cfg.k;
    opts.observers.push_back(&census);

    sim::PackedEngineT<sim::SmpRule> engine(t, cfg.field);
    const RunResult result = run_to_terminal(engine, opts);
    EXPECT_TRUE(result.reached_mono(cfg.k));
    EXPECT_EQ(census.samples().size(), result.rounds + 1);
    EXPECT_EQ(result.newly_k.size(), result.rounds + 1);
}

/// Requests `request` after round `stop_round` (0 = never) and records what
/// the run loop showed it.
class ScriptedObserver final : public Observer {
  public:
    ScriptedObserver(std::uint32_t stop_round, StopRequest request)
        : stop_round_(stop_round), request_(request) {}

    void on_start(const ColorField& initial) override { initial_ = initial; }
    std::optional<StopRequest> on_round(const RoundEvent& event) override {
        if (event.round == stop_round_) return request_;
        return std::nullopt;
    }
    void on_finish(RunResult& /*result*/) override { ++finishes_; }

    const ColorField& initial() const { return initial_; }
    int finishes() const { return finishes_; }

  private:
    std::uint32_t stop_round_;
    StopRequest request_;
    ColorField initial_;
    int finishes_ = 0;
};

TEST(RunObservers, StopRequestsFollowTheRunLoopPriorities) {
    const Torus t(Topology::ToroidalMesh, 6, 6);
    const ColorField dynamo = build_minimum_dynamo(t).field;
    const ColorField board = checkerboard(t, 1, 2);  // period-2 cycle, detected at round 2
    const ColorField mono(t.size(), 3);
    for (const Backend backend : {Backend::Auto, Backend::Packed, Backend::Active,
                                  Backend::Generic, Backend::BitPlane}) {
        SCOPED_TRACE(backend_name(backend));
        RunOptions opts;
        opts.backend = backend;
        const RunResult plain = simulate(t, dynamo, opts);
        ASSERT_EQ(plain.termination, Termination::Monochromatic);

        // A stop on the round that turns the field monochromatic loses to it.
        ScriptedObserver late(plain.rounds, StopRequest{Termination::Cycle, 7});
        opts.observers = {&late};
        RunResult r = simulate(t, dynamo, opts);
        EXPECT_EQ(r.termination, Termination::Monochromatic);
        EXPECT_EQ(r.rounds, plain.rounds);
        EXPECT_EQ(r.cycle_period, 0u);
        EXPECT_EQ(late.initial(), dynamo);
        EXPECT_EQ(late.finishes(), 1);

        // Two stops in one round: the first-registered observer wins.
        ScriptedObserver cycle(1, StopRequest{Termination::Cycle, 5});
        ScriptedObserver fixed(1, StopRequest{Termination::FixedPoint, 9});
        opts.observers = {&cycle, &fixed};
        r = simulate(t, board, opts);
        EXPECT_EQ(r.termination, Termination::Cycle);
        EXPECT_EQ(r.cycle_period, 5u);
        EXPECT_EQ(r.rounds, 1u);
        opts.observers = {&fixed, &cycle};
        r = simulate(t, board, opts);
        EXPECT_EQ(r.termination, Termination::FixedPoint);
        EXPECT_EQ(r.cycle_period, 9u);
        EXPECT_EQ(cycle.finishes(), 2);
        EXPECT_EQ(fixed.finishes(), 2);

        // The automatic cycle detector registers before the caller's
        // observers, so it wins their common round.
        ScriptedObserver second(2, StopRequest{Termination::FixedPoint, 9});
        opts.observers = {&second};
        r = simulate(t, board, opts);
        EXPECT_EQ(r.termination, Termination::Cycle);
        EXPECT_EQ(r.cycle_period, 2u);
        EXPECT_EQ(r.rounds, 2u);
        EXPECT_EQ(second.initial(), board);

        // on_finish runs once on the round-0 monochromatic path and once at
        // the cap.
        ScriptedObserver idle(0, StopRequest{});
        opts.observers = {&idle};
        r = simulate(t, mono, opts);
        EXPECT_EQ(r.termination, Termination::Monochromatic);
        EXPECT_EQ(r.rounds, 0u);
        EXPECT_EQ(idle.initial(), mono);
        EXPECT_EQ(idle.finishes(), 1);
        opts.max_rounds = 1;
        r = simulate(t, board, opts);
        EXPECT_EQ(r.termination, Termination::RoundLimit);
        EXPECT_EQ(r.rounds, 1u);
        EXPECT_EQ(idle.finishes(), 2);
    }
}

TEST(RunGraph, PluralityMatchesTorusUnderSharedRunLoop) {
    // The AtLeastTwo threshold on the torus-adapted graph is exactly the
    // SMP rule; the generic graph engine under the same run loop must
    // reproduce the torus result field for field.
    for (const Topology topo : kTopologies) {
        Torus t(topo, 7, 7);
        const Configuration cfg = build_minimum_dynamo(t);
        const RunResult reference = simulate(t, cfg.field);

        const graphx::Graph graph = graphx::from_torus(t);
        const RunResult result = graphx::simulate_plurality(
            graph, cfg.field, graphx::PluralityThreshold::AtLeastTwo);
        EXPECT_EQ(result.termination, reference.termination) << to_string(topo);
        EXPECT_EQ(result.rounds, reference.rounds) << to_string(topo);
        EXPECT_EQ(result.total_recolorings, reference.total_recolorings) << to_string(topo);
        EXPECT_EQ(result.final_colors, reference.final_colors) << to_string(topo);
    }
}

TEST(RunBatch, SubstreamsAreDeterministicAcrossSchedules) {
    const std::uint64_t seed = 0xba7c4;
    BatchRunner serial(nullptr);
    const auto a = serial.map_trials<std::uint64_t>(
        32, seed, [](std::size_t, Xoshiro256& rng) { return rng.next(); });

    ThreadPool pool(4);
    BatchRunner pooled(&pool);
    const auto b = pooled.map_trials<std::uint64_t>(
        32, seed, [](std::size_t, Xoshiro256& rng) { return rng.next(); });

    ASSERT_EQ(a, b);
    // Trial t's stream depends only on (seed, t), never on who ran it.
    for (std::size_t trial = 0; trial < a.size(); ++trial) {
        Xoshiro256 rng(substream_seed(seed, trial));
        EXPECT_EQ(a[trial], rng.next()) << trial;
    }
    // Distinct trials see distinct streams.
    EXPECT_NE(a[0], a[1]);
}

TEST(RunBatch, BatchedSimulationsMatchDirectRuns) {
    Torus t(Topology::ToroidalMesh, 7, 7);
    ThreadPool pool(3);
    BatchRunner batch(&pool);
    const std::uint64_t seed = 0xabcde;

    const auto rounds = batch.map_trials<std::uint32_t>(
        12, seed, [&](std::size_t, Xoshiro256& rng) {
            ColorField f(t.size());
            for (auto& c : f) c = static_cast<Color>(1 + rng.below(4));
            return simulate(t, f).rounds;
        });
    for (std::size_t trial = 0; trial < rounds.size(); ++trial) {
        Xoshiro256 rng(substream_seed(seed, trial));
        ColorField f(t.size());
        for (auto& c : f) c = static_cast<Color>(1 + rng.below(4));
        EXPECT_EQ(simulate(t, f).rounds, rounds[trial]) << trial;
    }
}

// ---------------------------------------------------------------------------
// Lane batches (core/sim/lane_engine.hpp): each lane ends as the scalar run
// of its field does, on the four fields a Monte-Carlo trial keeps.

/// A scalar run reduced to a lane's outcome, counting `counted`.
sim::LaneOutcome scalar_outcome(const RunResult& r, Color counted) {
    return {true, r.termination, r.rounds, r.mono.value_or(kUnset),
            static_cast<std::uint32_t>(count_color(r.final_colors, counted))};
}

/// Writes fields[0 .. width) into lanes 0 .. width of `batch` and runs it.
std::array<sim::LaneOutcome, 64> run_lanes(sim::LaneBatch& batch,
                                           const std::vector<ColorField>& fields, unsigned width,
                                           std::uint32_t lane_cap, Color counted) {
    batch.clear();
    for (unsigned lane = 0; lane < width; ++lane) {
        for (std::size_t v = 0; v < fields[lane].size(); ++v) batch.put(lane, v, fields[lane][v]);
    }
    std::array<sim::LaneOutcome, 64> ends;
    batch.run(width, lane_cap, counted, ends);
    return ends;
}

/// 64 trial fields of `rule` on `t`: densities 0, 1 and four random ones
/// in turn, bi-color rules on {1, 2}, the others on palettes of 3..7.
std::vector<ColorField> trial_fields(const Torus& t, const rules::RuleInfo& rule,
                                     std::uint64_t seed) {
    Xoshiro256 pick(seed);
    const double densities[] = {0.0, 1.0, pick.uniform(), pick.uniform(), pick.uniform(),
                                pick.uniform()};
    std::vector<ColorField> fields;
    for (unsigned lane = 0; lane < 64; ++lane) {
        Xoshiro256 rng(substream_seed(seed, lane));
        const Color colors = rule.bicolor() ? 2 : static_cast<Color>(3 + lane % 5);
        const Color k = rule.bicolor() ? kBlack : Color{1};
        fields.push_back(analysis::random_coloring(t.size(), k, colors, densities[lane % 6], rng));
    }
    return fields;
}

TEST(LaneBatches, EveryLaneEqualsTheScalarRunOnEveryRuleTopologyAndShape) {
    const std::pair<std::uint32_t, std::uint32_t> shapes[] = {{2, 2}, {2, 7},   {7, 2},
                                                              {8, 8}, {12, 12}, {3, 67}};
    std::size_t compared = 0;
    for (const rules::RuleInfo* rule : rules::all_rules()) {
        for (const Topology topo : kTopologies) {
            for (const auto& [m, n] : shapes) {
                const Torus t(topo, m, n);
                const std::string where = std::string(rule->name) + " " + to_string(topo) + " " +
                                          std::to_string(m) + "x" + std::to_string(n);
                const std::vector<ColorField> fields = trial_fields(t, *rule, m * 131 + n);
                std::vector<RunResult> autos, generics;
                for (const ColorField& f : fields) {
                    RunOptions opts;
                    autos.push_back(rule->run(t, f, opts));
                    opts.backend = Backend::Generic;
                    generics.push_back(rule->run(t, f, opts));
                }
                const auto batch = rule->make_lane_batch(t);
                for (const unsigned width : {1u, 7u, 63u, 64u}) {
                    for (const Color counted : {kWhite, kBlack}) {
                        const auto ends =
                            run_lanes(*batch, fields, width, sim::kDefaultLaneCap, counted);
                        for (unsigned lane = 0; lane < width; ++lane) {
                            const std::string tag = where + " width " + std::to_string(width) +
                                                    " lane " + std::to_string(lane);
                            const sim::LaneOutcome expected = scalar_outcome(autos[lane], counted);
                            ASSERT_EQ(expected, scalar_outcome(generics[lane], counted)) << tag;
                            if (!ends[lane].ended) {
                                // Left live: the scalar run went past the lane cap.
                                EXPECT_GE(expected.rounds, sim::kDefaultLaneCap) << tag;
                                continue;
                            }
                            EXPECT_EQ(ends[lane], expected) << tag;
                            ++compared;
                        }
                    }
                }
            }
        }
    }
    // Nearly every lane ends inside the default cap at these sizes.
    EXPECT_GT(compared, 12u * 3 * 6 * (1 + 7 + 63 + 64) * 2 * 9 / 10);
}

TEST(LaneBatches, LanesPastTheLaneCapAreLeftLiveForTheScalarRun) {
    // A lane that has not ended by the cap is reported live, never given an
    // outcome of its own; one that ended by then is exact.
    std::size_t live = 0, ended = 0;
    for (const rules::RuleInfo* rule : rules::all_rules()) {
        for (const Topology topo : kTopologies) {
            const Torus t(topo, 8, 8);
            const std::vector<ColorField> fields = trial_fields(t, *rule, 0x1a4e);
            const auto batch = rule->make_lane_batch(t);
            for (const std::uint32_t cap : {0u, 1u, 2u, 3u}) {
                const auto ends = run_lanes(*batch, fields, 64, cap, kBlack);
                for (unsigned lane = 0; lane < 64; ++lane) {
                    const sim::LaneOutcome expected =
                        scalar_outcome(rule->run(t, fields[lane], {}), kBlack);
                    const std::string tag = std::string(rule->name) + " " + to_string(topo) +
                                            " cap " + std::to_string(cap) + " lane " +
                                            std::to_string(lane);
                    if (ends[lane].ended) {
                        EXPECT_EQ(ends[lane], expected) << tag;
                        ++ended;
                    } else {
                        EXPECT_GE(expected.rounds, cap) << tag;
                        ++live;
                    }
                }
            }
        }
    }
    EXPECT_GT(live, 1000u);
    EXPECT_GT(ended, 1000u);
}

template <unsigned History>
sim::LaneOutcome smp_lane(const Torus& t, const ColorField& field) {
    sim::LaneBatchT<sim::SmpRule, History> batch(t);
    return run_lanes(batch, {field}, 1, sim::kDefaultLaneCap, 1)[0];
}

TEST(LaneBatches, ARepeatBeyondTheHistoryIsLeftLiveNotMisread) {
    // smp fields whose first repeat has period 4 and 6 (found by a random
    // search over small tori). A lane batch whose check reaches fewer
    // rounds back cannot match any state, so it leaves the lane live; one
    // that reaches the period ends it at the scalar run's round.
    struct Case {
        Topology topo;
        std::uint32_t m, n;
        const char* field;
        std::uint32_t period, rounds;
    };
    const Case cases[] = {
        {Topology::TorusCordalis, 2, 6, "232223141214", 4, 4},
        {Topology::TorusSerpentinus, 2, 4, "22536544", 4, 4},
        {Topology::TorusSerpentinus, 5, 7, "13423333443423224122244211412243412", 6, 11},
    };
    for (const Case& c : cases) {
        const Torus t(c.topo, c.m, c.n);
        ColorField field;
        for (const char* p = c.field; *p != '\0'; ++p) field.push_back(static_cast<Color>(*p - '0'));
        RunOptions generic;
        generic.backend = Backend::Generic;
        const RunResult scalar = rules::smp_rule().run(t, field, generic);
        ASSERT_EQ(scalar.termination, Termination::Cycle) << c.field;
        ASSERT_EQ(scalar.cycle_period, c.period) << c.field;
        ASSERT_EQ(scalar.rounds, c.rounds) << c.field;
        const sim::LaneOutcome expected = scalar_outcome(scalar, 1);

        const std::pair<unsigned, sim::LaneOutcome> lanes[] = {
            {2, smp_lane<2>(t, field)},
            {4, smp_lane<4>(t, field)},
            {5, smp_lane<5>(t, field)},
            {6, smp_lane<6>(t, field)},
        };
        for (const auto& [history, lane] : lanes) {
            const std::string tag = std::string(c.field) + " history " + std::to_string(history);
            EXPECT_EQ(lane.ended, c.period <= history) << tag;
            if (lane.ended) {
                EXPECT_EQ(lane, expected) << tag;
            }
        }
        // The registry's smp batch is the History-6 one.
        const auto batch = rules::smp_rule().make_lane_batch(t);
        EXPECT_EQ(run_lanes(*batch, {field}, 1, sim::kDefaultLaneCap, 1)[0], expected);
    }
}

TEST(RunBatch, TrialBlocksSeeEveryTrialsOwnSubstream) {
    // The block form cuts [lo, hi) at lo, lo + width, ... on any pool, and
    // hands each block its trials' substreams in order.
    const std::uint64_t seed = 0xb10c;
    ThreadPool pool(3);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        for (const std::size_t width : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
            std::vector<std::uint64_t> draws(300 - 5, 0);
            std::vector<std::size_t> sizes((300 - 5 + width - 1) / width, 0);
            BatchRunner(p).run_trial_blocks(
                5, 300, width, seed, [&](std::size_t first, std::span<Xoshiro256> rngs) {
                    ASSERT_EQ((first - 5) % width, 0u);
                    sizes[(first - 5) / width] = rngs.size();
                    for (std::size_t i = 0; i < rngs.size(); ++i) {
                        draws[first + i - 5] = rngs[i].next();
                    }
                });
            for (std::size_t b = 0; b < sizes.size(); ++b) {
                EXPECT_EQ(sizes[b], std::min(width, 300 - 5 - b * width)) << width;
            }
            for (std::size_t t = 5; t < 300; ++t) {
                Xoshiro256 rng(substream_seed(seed, t));
                EXPECT_EQ(draws[t - 5], rng.next()) << t;
            }
        }
    }
}

} // namespace
} // namespace dynamo
