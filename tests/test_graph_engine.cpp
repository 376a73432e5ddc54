// The CSR frontier graph engine under a differential-test net: every
// GraphRule x generator x pool/grain geometry is locked bit-identically
// against a trivially-correct full-sweep adjacency oracle, plus the
// step_collect ordering contract, frontier behaviour, degenerate graphs,
// the streaming observers' invariants (histogram exactness, survival
// monotonicity, byte-identical JSONL serial vs pooled), and the temporal
// migration's exact-accounting fix.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "analysis/histogram.hpp"
#include "analysis/survival.hpp"
#include "core/builders.hpp"
#include "core/run/simulate.hpp"
#include "core/sim/csr_graph_engine.hpp"
#include "core/sim/kernels.hpp"
#include "core/transform.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/graph_rules.hpp"
#include "graph/temporal.hpp"
#include "io/run_stream.hpp"
#include "util/json.hpp"

namespace dynamo::graphx {
namespace {

using grid::Topology;
using grid::Torus;

// ---------------------------------------------------------------------------
// Oracle: a naive full sweep applying the SAME GraphRule to every vertex
// every round - no frontier, no parallelism, nothing shared with the
// engine's stepping machinery beyond the rule functor itself.
template <typename R>
std::size_t oracle_step(const Graph& g, const ColorField& cur, ColorField& next, const R& rule,
                        std::uint32_t round) {
    next.resize(cur.size());
    std::size_t changed = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
        next[v] = rule(v, cur[v], g.neighbors(v), cur.data(), round);
        changed += (next[v] != cur[v]);
    }
    return changed;
}

ColorField random_field(std::size_t n, std::uint64_t seed, Color palette) {
    Xoshiro256 rng(seed);
    ColorField f(n);
    for (auto& c : f) c = static_cast<Color>(1 + rng.below(palette));
    return f;
}

struct Geometry {
    unsigned workers;  ///< 0 = serial (no pool)
    std::size_t grain;
};

const std::vector<Geometry>& geometries() {
    static const std::vector<Geometry> g = {
        {0, 1 << 14}, {1, 1}, {3, 7}, {7, 1}, {4, 1 << 14},
    };
    return g;
}

/// Lock the engine against the oracle over `rounds` rounds, across every
/// pool/grain geometry: per-round changed counts, full state, ascending
/// deduplicated change lists matching the state diff.
template <typename R>
void expect_matches_oracle(const Graph& g, const ColorField& initial, const R& rule,
                           std::uint32_t rounds, const std::string& what) {
    for (const Geometry& geo : geometries()) {
        std::unique_ptr<ThreadPool> pool;
        if (geo.workers > 0) pool = std::make_unique<ThreadPool>(geo.workers);

        sim::CsrGraphEngineT<R> engine(g, initial, rule);
        ColorField cur = initial, next;
        for (std::uint32_t r = 1; r <= rounds; ++r) {
            const std::size_t oracle_changed = oracle_step(g, cur, next, rule, r);

            std::vector<CellChange> changes;
            const std::size_t engine_changed =
                engine.step_collect(changes, pool.get(), geo.grain);

            ASSERT_EQ(engine_changed, oracle_changed)
                << what << " round " << r << " workers " << geo.workers;
            ASSERT_EQ(engine.colors(), next) << what << " round " << r;
            ASSERT_EQ(changes.size(), oracle_changed) << what << " round " << r;
            for (std::size_t i = 0; i < changes.size(); ++i) {
                if (i > 0) {
                    ASSERT_LT(changes[i - 1].v, changes[i].v)
                        << what << ": changes not strictly ascending, round " << r;
                }
                ASSERT_EQ(changes[i].before, cur[changes[i].v]);
                ASSERT_EQ(changes[i].after, next[changes[i].v]);
            }
            cur.swap(next);
            if (oracle_changed == 0 && !rule.time_varying()) {
                EXPECT_EQ(engine.frontier_size(), 0u) << what;
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The differential net: rules x generators x geometries.

TEST(CsrEngineDifferential, PluralityOnEveryGenerator) {
    struct Case {
        const char* name;
        Graph graph;
    };
    Xoshiro256 rng(0xD1FF);
    std::vector<Case> cases;
    cases.push_back({"torus-mesh", from_torus(Torus(Topology::ToroidalMesh, 6, 7))});
    cases.push_back({"torus-cordalis", from_torus(Torus(Topology::TorusCordalis, 5, 6))});
    cases.push_back({"torus-serpentinus", from_torus(Torus(Topology::TorusSerpentinus, 6, 6))});
    cases.push_back({"ba", barabasi_albert(180, 2, rng)});
    cases.push_back({"lollipop", lollipop(12, 40)});
    cases.push_back({"expander", random_regular(120, 4, rng)});
    cases.push_back({"ring", ring_lattice(90, 2)});
    cases.push_back({"er-sparse", erdos_renyi(150, 0.02, rng)});  // disconnected w.h.p.

    for (const Case& c : cases) {
        for (const PluralityThreshold t :
             {PluralityThreshold::AtLeastTwo, PluralityThreshold::SimpleHalf,
              PluralityThreshold::StrongHalf}) {
            const ColorField f = random_field(c.graph.num_vertices(),
                                              0xBEEF + static_cast<int>(t), 3);
            expect_matches_oracle(c.graph, f, PluralityRule{t}, 40,
                                  std::string(c.name) + "/plurality");
        }
    }
}

TEST(CsrEngineDifferential, ConstantThresholdOnIrregularGraphs) {
    Xoshiro256 rng(0xCAFE);
    const Graph ba = barabasi_albert(200, 3, rng);
    const Graph lolly = lollipop(10, 60);
    for (const std::uint32_t r : {1u, 2u, 3u}) {
        expect_matches_oracle(ba, random_field(200, 77 + r, 2), ConstantThresholdRule{r}, 60,
                              "ba/threshold");
        expect_matches_oracle(lolly, random_field(70, 99 + r, 2), ConstantThresholdRule{r},
                              90, "lollipop/threshold");
    }
}

TEST(CsrEngineDifferential, TemporalRuleFullSweepsEveryRound) {
    const Torus t(Topology::ToroidalMesh, 6, 6);
    const Graph g = from_torus(t);
    const TemporalSmpRule rule{0.6, 0x7e3};
    ASSERT_TRUE(rule.time_varying());
    expect_matches_oracle(g, random_field(g.num_vertices(), 0xABba, 2), rule, 30,
                          "torus/temporal");
}

// ---------------------------------------------------------------------------
// Degenerate graphs.

TEST(CsrEngineEdgeCases, SingletonAndEdgelessGraphsAreFixedPoints) {
    const Graph singleton = Graph::from_edges(1, {});
    sim::CsrGraphEngineT<PluralityRule> engine(singleton, ColorField{3}, PluralityRule{});
    EXPECT_EQ(engine.step(), 0u);
    EXPECT_EQ(engine.frontier_size(), 0u);
    EXPECT_EQ(engine.colors(), ColorField{3});

    const Graph edgeless = Graph::from_edges(6, {});
    const ColorField f = random_field(6, 11, 4);
    sim::CsrGraphEngineT<PluralityRule> engine2(edgeless, f, PluralityRule{});
    EXPECT_EQ(engine2.step(), 0u);
    EXPECT_EQ(engine2.colors(), f);
}

TEST(CsrEngineEdgeCases, DisconnectedComponentsEvolveIndependently) {
    // Two 4-cycles with no edges between them; the dynamics in one
    // component must equal the same component run alone.
    const Graph both = Graph::from_edges(
        8, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {4, 5}, {5, 6}, {6, 7}, {7, 4}});
    ASSERT_EQ(both.connected_components(), 2u);
    const Graph one = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});

    const ColorField left{1, 1, 2, 1};
    const ColorField right{2, 2, 1, 2};
    ColorField joint(8);
    for (int i = 0; i < 4; ++i) joint[i] = left[i];
    for (int i = 0; i < 4; ++i) joint[4 + i] = right[i];

    const PluralityRule rule{PluralityThreshold::AtLeastTwo};
    sim::CsrGraphEngineT<PluralityRule> ej(both, joint, rule);
    sim::CsrGraphEngineT<PluralityRule> el(one, left, rule);
    sim::CsrGraphEngineT<PluralityRule> er(one, right, rule);
    for (int r = 0; r < 8; ++r) {
        ej.step();
        el.step();
        er.step();
        for (int i = 0; i < 4; ++i) {
            ASSERT_EQ(ej.colors()[i], el.colors()[i]) << "round " << r;
            ASSERT_EQ(ej.colors()[4 + i], er.colors()[i]) << "round " << r;
        }
    }
}

TEST(CsrEngineEdgeCases, RejectsMismatchedFieldSize) {
    const Graph g = Graph::from_edges(3, {{0, 1}, {1, 2}});
    EXPECT_THROW(
        (sim::CsrGraphEngineT<PluralityRule>(g, ColorField(2, 1), PluralityRule{})),
        std::invalid_argument);
}

TEST(CsrEngineFrontier, StaysSmallOnTheLollipopTail) {
    // A contagion wave crawling down the tail: the frontier must track the
    // wave (O(1) vertices), never the graph.
    const std::size_t clique = 8, tail = 120;
    const Graph g = lollipop(clique, tail);
    ColorField f(g.num_vertices(), kWhite);
    for (std::size_t v = 0; v < clique; ++v) f[v] = kBlack;

    sim::CsrGraphEngineT<ConstantThresholdRule> engine(g, f, ConstantThresholdRule{1});
    std::size_t max_frontier_after_warmup = 0;
    std::uint32_t rounds = 0;
    while (engine.step() > 0) {
        ++rounds;
        if (rounds > 2) {
            max_frontier_after_warmup = std::max(max_frontier_after_warmup,
                                                 engine.frontier_size());
        }
        ASSERT_LT(rounds, 10'000u);
    }
    EXPECT_EQ(rounds, tail);  // one tail vertex per round
    EXPECT_LE(max_frontier_after_warmup, 4u);
    for (const Color c : engine.colors()) EXPECT_EQ(c, kBlack);
}

// ---------------------------------------------------------------------------
// The migrated drivers still agree with their seed-era semantics.

TEST(MigratedDrivers, SimulatePluralityPoolInvariant) {
    Xoshiro256 rng(0x5EED);
    const Graph g = barabasi_albert(300, 2, rng);
    const ColorField f = random_field(300, 0x1234, 3);
    RunOptions serial;
    serial.target = 1;
    RunOptions pooled = serial;
    ThreadPool pool(3);
    pooled.pool = &pool;
    pooled.parallel_grain = 5;

    const RunResult a = simulate_plurality(g, f, PluralityThreshold::SimpleHalf, serial);
    const RunResult b = simulate_plurality(g, f, PluralityThreshold::SimpleHalf, pooled);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.total_recolorings, b.total_recolorings);
    EXPECT_EQ(a.final_colors, b.final_colors);
    EXPECT_EQ(a.monotone, b.monotone);
}

TEST(MigratedDrivers, PluralityRuleEngineMatchesPluralityStep) {
    const Graph g = lollipop(6, 20);
    const ColorField f = random_field(26, 0x77, 3);
    sim::CsrGraphEngineT<PluralityRule> engine(g, f,
                                               PluralityRule{PluralityThreshold::SimpleHalf});
    ColorField cur = f, next;
    for (int r = 0; r < 12; ++r) {
        const std::size_t expect = plurality_step(g, cur, next, PluralityThreshold::SimpleHalf);
        EXPECT_EQ(engine.step(), expect);
        cur.swap(next);
        ASSERT_EQ(engine.colors(), cur);
        if (expect == 0) break;
    }
}

// ---------------------------------------------------------------------------
// Builder layer.

TEST(GraphBuilder, BuildsEveryKnownKind) {
    for (const char* kind : known_graph_kinds()) {
        const Graph g = build_graph(kind, 64, 0.0, 99);
        EXPECT_GE(g.num_vertices(), 4u) << kind;
        // Determinism: same kind + seed -> identical adjacency.
        const Graph h = build_graph(kind, 64, 0.0, 99);
        ASSERT_EQ(g.num_vertices(), h.num_vertices()) << kind;
        for (VertexId v = 0; v < g.num_vertices(); ++v) {
            const auto a = g.neighbors(v), b = h.neighbors(v);
            ASSERT_EQ(std::vector<VertexId>(a.begin(), a.end()),
                      std::vector<VertexId>(b.begin(), b.end()))
                << kind;
        }
    }
    EXPECT_THROW(build_graph("petersen", 10, 0, 1), std::invalid_argument);
}

TEST(GraphBuilder, ExpanderIsFourRegularAndConnected) {
    const Graph g = build_graph("expander", 200, 0.0, 7);
    for (VertexId v = 0; v < g.num_vertices(); ++v) EXPECT_EQ(g.degree(v), 4u);
    EXPECT_EQ(g.connected_components(), 1u);  // w.h.p., pinned by the seed
}

TEST(GraphBuilder, LollipopShape) {
    const Graph g = lollipop(5, 3);
    EXPECT_EQ(g.num_vertices(), 8u);
    EXPECT_EQ(g.num_edges(), 10u + 3u);  // C(5,2) clique + 3 tail links
    EXPECT_EQ(g.degree(7), 1u);          // tail end
    EXPECT_EQ(g.degree(0), 5u);          // clique vertex carrying the tail
    EXPECT_EQ(g.connected_components(), 1u);
}

TEST(GraphBuilder, RunGraphRuleDispatch) {
    const Graph g = build_graph("ring", 40, 2, 3);
    ColorField f(g.num_vertices(), kWhite);
    for (int i = 0; i < 8; ++i) f[i] = kBlack;
    RunOptions opts;
    opts.target = kBlack;
    const RunResult contagion = run_graph_rule("threshold-1", g, f, opts);
    EXPECT_TRUE(contagion.reached_mono(kBlack));
    EXPECT_TRUE(contagion.monotone);

    const RunResult plur = run_graph_rule("plurality-simple", g, f, opts);
    EXPECT_GT(plur.final_colors.size(), 0u);
    EXPECT_THROW(run_graph_rule("nope", g, f, opts), std::invalid_argument);
    EXPECT_THROW(run_graph_rule("threshold-9", g, f, opts), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Observer property tests.

TEST(Histogram, TotalIsExactAndBucketsPartition) {
    analysis::Log2Histogram h;
    Xoshiro256 rng(42);
    const std::size_t samples = 5000;
    std::uint64_t expected_sum_buckets = 0;
    for (std::size_t i = 0; i < samples; ++i) {
        h.add(rng.below(1'000'000));
    }
    h.add(0);
    for (std::size_t b = 0; b < analysis::Log2Histogram::kBuckets; ++b) {
        expected_sum_buckets += h.count(b);
    }
    EXPECT_EQ(h.total(), samples + 1);
    EXPECT_EQ(expected_sum_buckets, samples + 1);  // no sample dropped or doubled
    EXPECT_GE(h.count(0), 1u);                     // the explicit zero
    EXPECT_LE(h.min(), h.max());
    EXPECT_GE(h.quantile_upper_bound(1.0), h.max() > 0 ? 1u : 0u);
}

TEST(Survival, CurveIsMonotoneAndConserved) {
    const auto curve = analysis::SurvivalCurve::from_rounds({5, 3, 9, 3, 14}, 2);
    EXPECT_EQ(curve.trials(), 7u);
    EXPECT_EQ(curve.events(), 5u);
    EXPECT_EQ(curve.censored(), 2u);
    EXPECT_LE(curve.at(0), 1.0);
    double prev = 1.0;
    for (std::uint32_t r = 0; r <= 20; ++r) {
        const double s = curve.at(r);
        EXPECT_LE(s, prev) << "survival increased at round " << r;
        prev = s;
    }
    // Beyond the last event only the censored trials survive.
    EXPECT_DOUBLE_EQ(curve.at(20), 2.0 / 7.0);
    ASSERT_TRUE(curve.median_round().has_value());
    EXPECT_EQ(*curve.median_round(), 9u);  // after round 9, 3/7 <= 0.5 survive
    // Degenerate curves.
    const auto empty = analysis::SurvivalCurve::from_rounds({}, 0);
    EXPECT_EQ(empty.at(3), 1.0);
    const auto censored_only = analysis::SurvivalCurve::from_rounds({}, 4);
    EXPECT_EQ(censored_only.at(100), 1.0);
    EXPECT_FALSE(censored_only.median_round().has_value());
}

TEST(RunStream, HistogramCountsEveryObservedRound) {
    const Torus t(Topology::ToroidalMesh, 6, 6);
    const Configuration cfg = build_theorem2_configuration(t);
    const Graph g = from_torus(t);

    std::ostringstream sink;
    io::JsonlWriter writer(&sink);
    std::uint64_t fake_clock = 0;
    io::RoundStreamObserver observer(writer, [&fake_clock] { return fake_clock += 17; });

    RunOptions opts;
    opts.observers.push_back(&observer);
    const RunResult run = run_graph_rule("plurality-atleast2", g, cfg.field, opts);
    EXPECT_EQ(run.termination, Termination::Monochromatic);

    // One histogram sample and one JSONL record per observed round, plus
    // the one run-summary record.
    std::size_t round_records = 0, run_records = 0;
    std::istringstream lines(sink.str());
    std::string line;
    std::uint64_t last_round = 0;
    while (std::getline(lines, line)) {
        const util::Json rec = util::Json::parse(line, "stream");  // parses record-by-record
        const std::string type = rec.find("type")->as_string();
        if (type == "round") {
            ++round_records;
            const auto r = static_cast<std::uint64_t>(rec.find("round")->as_int());
            EXPECT_GT(r, last_round);
            last_round = r;
            EXPECT_GE(rec.find("changed")->as_int(), 0);
            EXPECT_EQ(rec.find("latency_us")->as_int(), 17);
        } else {
            EXPECT_EQ(type, "run");
            ++run_records;
            EXPECT_EQ(rec.find("rounds")->as_int(),
                      static_cast<std::int64_t>(run.rounds));
        }
    }
    EXPECT_EQ(run_records, 1u);
    EXPECT_EQ(observer.latency_histogram().total(), round_records);
}

TEST(RunStream, ByteIdenticalSerialVsPooled) {
    Xoshiro256 rng(0x0B5);
    const Graph g = barabasi_albert(150, 2, rng);
    const ColorField f = random_field(150, 0xF1E1D, 2);

    const auto run_with = [&](ThreadPool* pool) {
        std::ostringstream sink;
        io::JsonlWriter writer(&sink);
        std::uint64_t fake_clock = 0;
        io::RoundStreamObserver observer(writer, [&fake_clock] { return fake_clock += 5; });
        RunOptions opts;
        opts.pool = pool;
        opts.parallel_grain = 3;
        opts.observers.push_back(&observer);
        run_graph_rule("plurality-simple", g, f, opts);
        return sink.str();
    };

    const std::string serial = run_with(nullptr);
    ThreadPool pool(4);
    const std::string pooled = run_with(&pool);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, pooled);  // byte-identical, fake clock included
}

// ---------------------------------------------------------------------------
// Temporal migration: exact accounting.

// The full-availability fixed-point exactness regression itself lives in
// tests/test_temporal.cpp (Temporal.FullAvailabilityFixedPointStopsExactly);
// here the net pins the intermittent path's exact accounting against a
// manual CSR replay.
TEST(TemporalMigration, IntermittentRecoloringsAreExactCellCounts) {
    // Under intermittent links a quiet round is not terminal (the engine
    // reports a time-varying rule); total_recolorings must equal the sum
    // of per-round state diffs - no over-report on no-op rounds.
    const Torus t(Topology::ToroidalMesh, 6, 6);
    const Configuration cfg = build_theorem2_configuration(t);
    TemporalOptions opts;
    opts.edge_up = 0.55;
    opts.seed = 31;
    RunOptions run;
    run.max_rounds = 120;
    const RunResult trace = simulate_temporal(t, cfg.field, opts, run);

    // Replay the identical process through the CSR engine and diff states.
    const Graph g = from_torus(t);
    sim::CsrGraphEngineT<TemporalSmpRule> engine(g, cfg.field,
                                                 TemporalSmpRule{opts.edge_up, opts.seed});
    std::uint64_t recolorings = 0;
    for (std::uint32_t r = 0; r < trace.rounds; ++r) {
        const ColorField before = engine.colors();
        engine.step();
        std::uint64_t diff = 0;
        for (std::size_t v = 0; v < before.size(); ++v) {
            diff += (before[v] != engine.colors()[v]);
        }
        recolorings += diff;
    }
    EXPECT_EQ(trace.total_recolorings, recolorings);
    EXPECT_EQ(trace.final_colors, engine.colors());
}

} // namespace
} // namespace dynamo::graphx
