// Ordered-color "+1" rule ([4]/[5] extension): stepwise movement along the
// color scale, saturation, and qualitative comparison against SMP.
#include <gtest/gtest.h>

#include "core/builders.hpp"
#include "core/run/simulate.hpp"
#include "rules/incremental.hpp"

namespace dynamo {
namespace {

using grid::Topology;
using grid::Torus;
using rules::IncrementalRule;

TEST(IncrementalRule, MovesOneStepTowardThePlurality) {
    const IncrementalRule rule{8};
    EXPECT_EQ(rule(1, {5, 5, 2, 3}), 2);  // toward 5, one step up
    EXPECT_EQ(rule(7, {5, 5, 2, 3}), 6);  // one step down
    EXPECT_EQ(rule(4, {5, 5, 5, 5}), 5);  // adjacent: arrives
}

TEST(IncrementalRule, KeepsOnTiesAndNoPlurality) {
    const IncrementalRule rule{8};
    EXPECT_EQ(rule(1, {5, 5, 3, 3}), 1);  // 2+2 tie
    EXPECT_EQ(rule(1, {5, 6, 3, 4}), 1);  // all distinct
    EXPECT_EQ(rule(5, {5, 5, 3, 4}), 5);  // already at the plurality
}

TEST(IncrementalRule, GradientFieldConvergesGradually) {
    // A field of 1s with a strip of 4s: SMP converts adjacent cells in one
    // round; the incremental rule walks them through 2 and 3 first.
    Torus t(Topology::ToroidalMesh, 6, 6);
    ColorField f(t.size(), 1);
    for (std::uint32_t i = 0; i < 6; ++i) {
        f[t.index(i, 2)] = 4;
        f[t.index(i, 3)] = 4;
    }
    RunOptions opts;
    const RunResult inc = rules::simulate_incremental(t, f, 4, opts);
    const RunResult smp = simulate(t, f, opts);
    // Neither oscillates...
    EXPECT_NE(inc.termination, Termination::Cycle);
    EXPECT_NE(smp.termination, Termination::Cycle);
    // ...but whenever both make progress, the incremental dynamics cannot
    // be faster.
    EXPECT_GE(inc.rounds, smp.rounds);
}

TEST(IncrementalRule, IntermediateColorsAppearDuringTheRun) {
    // Plant a cell whose unique plurality is two steps above its color:
    // one engine step moves it exactly one color up, not all the way.
    Torus t(Topology::ToroidalMesh, 6, 6);
    ColorField f(t.size(), 1);
    f[t.index(1, 2)] = 4;
    f[t.index(3, 2)] = 4;
    f[t.index(2, 1)] = 2;
    f[t.index(2, 3)] = 3;
    f[t.index(2, 2)] = 1;
    BasicSyncEngine<IncrementalRule> engine(t, f, IncrementalRule{4});
    engine.step();
    EXPECT_EQ(engine.colors()[t.index(2, 2)], 2);  // 1 -> 2, en route to 4
    for (const Color c : engine.colors()) {
        EXPECT_GE(c, 1);
        EXPECT_LE(c, 4);
    }
}

TEST(IncrementalRule, RejectsOutOfScaleColors) {
    Torus t(Topology::ToroidalMesh, 4, 4);
    ColorField f(t.size(), 5);
    EXPECT_THROW(rules::simulate_incremental(t, f, 4), std::invalid_argument);
}

TEST(IncrementalRule, MonochromaticIsFixed) {
    Torus t(Topology::TorusCordalis, 4, 4);
    const RunResult trace = rules::simulate_incremental(t, ColorField(t.size(), 3), 4);
    EXPECT_EQ(trace.termination, Termination::Monochromatic);
    EXPECT_EQ(trace.rounds, 0u);
}

} // namespace
} // namespace dynamo
