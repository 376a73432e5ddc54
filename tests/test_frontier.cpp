// Active-frontier engine: bit-exact equivalence with the full-sweep
// engine (randomized, all topologies, through waves AND oscillations),
// frontier-size economics on dynamo runs.
#include <gtest/gtest.h>

#include "core/builders.hpp"
#include "core/run/simulate.hpp"
#include "util/rng.hpp"

namespace dynamo {
namespace {

using grid::Topology;
using grid::Torus;

TEST(ActiveFrontier, MatchesFullSweepOnRandomFields) {
    Xoshiro256 rng(0xf407);
    for (const Topology topo :
         {Topology::ToroidalMesh, Topology::TorusCordalis, Topology::TorusSerpentinus}) {
        for (int trial = 0; trial < 10; ++trial) {
            Torus t(topo, 9, 7);
            ColorField f(t.size());
            for (auto& c : f) c = static_cast<Color>(1 + rng.below(4));

            sim::PackedEngineT<sim::SmpRule> full(t, f);
            sim::ActiveEngineT<sim::SmpRule> frontier(t, f);
            for (int r = 0; r < 40; ++r) {
                const std::size_t ca = full.step();
                const std::size_t cb = frontier.step();
                ASSERT_EQ(ca, cb) << to_string(topo) << " trial " << trial << " round " << r;
                ASSERT_EQ(full.colors(), frontier.colors())
                    << to_string(topo) << " trial " << trial << " round " << r;
            }
        }
    }
}

TEST(ActiveFrontier, MatchesFullSweepThroughOscillations) {
    // The checkerboard flips forever; the frontier must keep tracking it.
    Torus t(Topology::ToroidalMesh, 6, 6);
    ColorField f(t.size());
    for (grid::VertexId v = 0; v < t.size(); ++v) {
        const auto c = t.coord(v);
        f[v] = ((c.i + c.j) % 2 == 0) ? 1 : 2;
    }
    sim::PackedEngineT<sim::SmpRule> full(t, f);
    sim::ActiveEngineT<sim::SmpRule> frontier(t, f);
    for (int r = 0; r < 10; ++r) {
        full.step();
        frontier.step();
        ASSERT_EQ(full.colors(), frontier.colors()) << r;
    }
}

TEST(ActiveFrontier, DynamoRunsReachTheSameFixedPoint) {
    for (const Topology topo :
         {Topology::ToroidalMesh, Topology::TorusCordalis, Topology::TorusSerpentinus}) {
        Torus t(topo, 11, 9);
        const Configuration cfg = build_minimum_dynamo(t);
        const RunResult reference = simulate(t, cfg.field);

        sim::ActiveEngineT<sim::SmpRule> engine(t, cfg.field);
        RunOptions opts;
        opts.detect_cycles = false;
        EXPECT_EQ(run_to_terminal(engine, opts).rounds, reference.rounds) << to_string(topo);
        EXPECT_TRUE(is_monochromatic(engine.colors(), cfg.k)) << to_string(topo);
    }
}

TEST(ActiveFrontier, FrontierShrinksToTheWave) {
    // After the first sweep the frontier must be a small band, not O(|V|):
    // the whole point of the ablation.
    Torus t(Topology::ToroidalMesh, 40, 40);
    const Configuration cfg = build_theorem2_configuration(t);
    sim::ActiveEngineT<sim::SmpRule> engine(t, cfg.field);
    engine.step();  // full first sweep
    engine.step();
    // The wave involves O(m+n) cells per round; allow generous slack.
    EXPECT_LT(engine.frontier_size(), t.size() / 4);
    EXPECT_GT(engine.frontier_size(), 0u);
}

TEST(ActiveFrontier, StallPatternEmptiesTheFrontierImmediately) {
    Torus t(Topology::ToroidalMesh, 8, 9);
    const Configuration cfg = build_fig4_stalled_configuration(t);
    sim::ActiveEngineT<sim::SmpRule> engine(t, cfg.field);
    EXPECT_EQ(engine.step(), 0u);
    EXPECT_EQ(engine.frontier_size(), 0u);
    EXPECT_EQ(engine.colors(), cfg.field);
}

TEST(ActiveFrontier, RejectsIncompleteFields) {
    Torus t(Topology::ToroidalMesh, 4, 4);
    ColorField bad(t.size(), 1);
    bad[0] = kUnset;
    EXPECT_THROW(sim::ActiveEngineT<sim::SmpRule>(t, bad), std::invalid_argument);
}

} // namespace
} // namespace dynamo
