// Time-varying link extension: equivalence with the static engine at full
// availability, freezing at zero availability, determinism, and eventual
// convergence under intermittent links.
#include <gtest/gtest.h>

#include "core/builders.hpp"
#include "core/run/simulate.hpp"
#include "graph/temporal.hpp"

namespace dynamo::graphx {
namespace {

using grid::Topology;
using grid::Torus;

TEST(Temporal, FullAvailabilityMatchesTheStaticEngine) {
    for (const Topology topo :
         {Topology::ToroidalMesh, Topology::TorusCordalis, Topology::TorusSerpentinus}) {
        Torus t(topo, 7, 6);
        const Configuration cfg = build_minimum_dynamo(t);

        RunOptions sopts;
        sopts.target = cfg.k;
        const RunResult stat = simulate(t, cfg.field, sopts);

        TemporalOptions topts;
        topts.edge_up = 1.0;
        const RunResult temp = simulate_temporal(t, cfg.field, topts, sopts);

        EXPECT_EQ(temp.termination, stat.termination) << to_string(topo);
        EXPECT_EQ(temp.rounds, stat.rounds) << to_string(topo);
        EXPECT_EQ(temp.final_colors, stat.final_colors) << to_string(topo);
        EXPECT_EQ(temp.monotone, stat.monotone) << to_string(topo);
    }
}

TEST(Temporal, FullAvailabilityFixedPointStopsExactly) {
    // Regression: two stable color bands form a fixed point that is NOT
    // monochromatic. The seed-era driver never stopped on quiescence, so
    // at edge_up = 1 it spun no-op rounds all the way to the defensive
    // 8|V| + 64 cap and reported rounds == cap with phantom accounting;
    // the migrated driver must report the exact quiescence round, zero
    // recolorings, and agree with the static engine.
    Torus t(Topology::ToroidalMesh, 6, 6);
    ColorField bands(t.size());
    for (std::uint32_t r = 0; r < 6; ++r) {
        for (std::uint32_t c = 0; c < 6; ++c) bands[r * 6 + c] = r < 3 ? 1 : 2;
    }
    const RunResult stat = simulate(t, bands);
    ASSERT_EQ(stat.termination, Termination::FixedPoint);

    TemporalOptions opts;
    opts.edge_up = 1.0;
    const RunResult temp = simulate_temporal(t, bands, opts);
    EXPECT_EQ(temp.termination, Termination::FixedPoint);
    EXPECT_EQ(temp.rounds, stat.rounds);
    EXPECT_LT(temp.rounds, 8 * t.size() + 64);  // the seed-era inflated value
    EXPECT_EQ(temp.total_recolorings, stat.total_recolorings);
    EXPECT_EQ(temp.final_colors, bands);
}

TEST(Temporal, ZeroAvailabilityStopsAtExactRoundCount) {
    // Frozen links: every round is a no-op. The exact-accounting contract
    // says total_recolorings counts actual cell recolorings (zero here),
    // regardless of how many rounds the cap allows.
    Torus t(Topology::ToroidalMesh, 6, 6);
    const Configuration cfg = build_theorem2_configuration(t);
    TemporalOptions opts;
    opts.edge_up = 0.0;
    RunOptions run;
    run.max_rounds = 50;
    const RunResult trace = simulate_temporal(t, cfg.field, opts, run);
    EXPECT_EQ(trace.total_recolorings, 0u);
    EXPECT_EQ(trace.final_colors, cfg.field);
}

TEST(Temporal, ZeroAvailabilityFreezesEverything) {
    Torus t(Topology::ToroidalMesh, 6, 6);
    const Configuration cfg = build_theorem2_configuration(t);
    TemporalOptions opts;
    opts.edge_up = 0.0;
    RunOptions run;
    run.max_rounds = 50;
    const RunResult trace = simulate_temporal(t, cfg.field, opts, run);
    EXPECT_EQ(trace.termination, Termination::RoundLimit);
    EXPECT_EQ(trace.rounds, 50u);
    EXPECT_EQ(trace.total_recolorings, 0u);
    EXPECT_EQ(trace.final_colors, cfg.field);
}

TEST(Temporal, DeterministicPerSeed) {
    Torus t(Topology::ToroidalMesh, 8, 8);
    const Configuration cfg = build_theorem2_configuration(t);
    TemporalOptions opts;
    opts.edge_up = 0.6;
    opts.seed = 1234;
    RunOptions run;
    run.max_rounds = 200;
    const RunResult a = simulate_temporal(t, cfg.field, opts, run);
    const RunResult b = simulate_temporal(t, cfg.field, opts, run);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.final_colors, b.final_colors);
    EXPECT_EQ(a.total_recolorings, b.total_recolorings);

    opts.seed = 4321;
    const RunResult c = simulate_temporal(t, cfg.field, opts, run);
    // Different availability stream: almost surely a different trajectory
    // (identical traces would indicate the seed is being ignored).
    EXPECT_TRUE(a.rounds != c.rounds || a.total_recolorings != c.total_recolorings);
}

TEST(Temporal, DynamoStillFloodsUnderHighAvailability) {
    // With edges up 90% of the time the wave still completes, just slower
    // on average; generous cap keeps this deterministic test robust.
    Torus t(Topology::ToroidalMesh, 6, 6);
    const Configuration cfg = build_theorem2_configuration(t);
    TemporalOptions opts;
    opts.edge_up = 0.9;
    opts.seed = 7;
    RunOptions run;
    run.target = cfg.k;
    run.max_rounds = 4000;
    const RunResult trace = simulate_temporal(t, cfg.field, opts, run);
    EXPECT_TRUE(trace.reached_mono(cfg.k));
    const RunResult stat = simulate(t, cfg.field);
    EXPECT_GE(trace.rounds, stat.rounds);
}

TEST(Temporal, RejectsBadAvailability) {
    Torus t(Topology::ToroidalMesh, 4, 4);
    ColorField f(t.size(), 1);
    TemporalOptions opts;
    opts.edge_up = 1.5;
    EXPECT_THROW(simulate_temporal(t, f, opts), std::invalid_argument);
}

} // namespace
} // namespace dynamo::graphx
