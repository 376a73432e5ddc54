// Analysis helpers: census/entropy, descriptive statistics, and the
// Monte-Carlo density harness (determinism, accounting, boundary
// densities, and lane trials == per-trial runs).
#include <gtest/gtest.h>

#include "analysis/census.hpp"
#include "analysis/montecarlo.hpp"
#include "analysis/stats.hpp"
#include "core/transform.hpp"
#include "grid/torus.hpp"
#include "rules/registry.hpp"
#include "util/parallel.hpp"

namespace dynamo::analysis {
namespace {

using grid::Topology;
using grid::Torus;

// Expected values of the cell pinned by DensityPointRegressionPin below.
// Regenerate (after an *intentional* semantics change) by printing the
// DensityPoint fields for the same parameters.
constexpr std::size_t kPinKMono = 13;
constexpr std::size_t kPinOtherMono = 0;
constexpr std::size_t kPinCycles = 11;
constexpr std::size_t kPinFixedPoints = 24;
constexpr double kPinMeanRoundsMono = 5.3076923076923075;
constexpr double kPinMeanFinalKFraction = 0.83268229166666663;

TEST(Census, CountsAndDominant) {
    const ColorField f{1, 2, 2, 3, 2, 1};
    const ColorCensus c = census(f);
    EXPECT_EQ(c.total, 6u);
    EXPECT_EQ(c.of(1), 2u);
    EXPECT_EQ(c.of(2), 3u);
    EXPECT_EQ(c.of(3), 1u);
    EXPECT_EQ(c.dominant(), 2);
}

TEST(Census, EntropyZeroIffMonochromatic) {
    EXPECT_DOUBLE_EQ(census(ColorField(10, 4)).entropy_bits(), 0.0);
    const ColorField half{1, 1, 2, 2};
    EXPECT_NEAR(census(half).entropy_bits(), 1.0, 1e-12);
}

TEST(Stats, SummaryBasics) {
    const Summary s = summarize({1.0, 2.0, 3.0, 4.0});
    EXPECT_EQ(s.count, 4u);
    EXPECT_DOUBLE_EQ(s.mean, 2.5);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 4.0);
    EXPECT_NEAR(s.stddev, 1.2909944487, 1e-9);
}

TEST(Stats, SummaryOfEmptyAndSingleton) {
    EXPECT_EQ(summarize({}).count, 0u);
    const Summary s = summarize({5.0});
    EXPECT_DOUBLE_EQ(s.mean, 5.0);
    EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Stats, Quantiles) {
    const std::vector<double> xs{1, 2, 3, 4, 5};
    EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 3.0);
    EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 5.0);
    EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.0);
    EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
}

TEST(Stats, WilsonHalfwidthShrinksWithTrials) {
    const double w100 = wilson_halfwidth(50, 100);
    const double w10000 = wilson_halfwidth(5000, 10000);
    EXPECT_GT(w100, w10000);
    EXPECT_GT(w100, 0.0);
    EXPECT_EQ(wilson_halfwidth(0, 0), 0.0);
}

TEST(MonteCarlo, RandomColoringRespectsDensityBounds) {
    Xoshiro256 rng(17);
    const ColorField all_k = random_coloring(500, 2, 4, 1.0, rng);
    EXPECT_EQ(count_color(all_k, 2), 500u);
    const ColorField none_k = random_coloring(500, 2, 4, 0.0, rng);
    EXPECT_EQ(count_color(none_k, 2), 0u);
    for (const Color c : none_k) {
        EXPECT_NE(c, 2);
        EXPECT_GE(c, 1);
        EXPECT_LE(c, 4);
    }
}

TEST(MonteCarlo, RandomColoringDensityIsUnbiased) {
    Xoshiro256 rng(23);
    const ColorField f = random_coloring(20000, 1, 4, 0.3, rng);
    const double frac = static_cast<double>(count_color(f, 1)) / 20000.0;
    EXPECT_NEAR(frac, 0.3, 0.02);
}

TEST(MonteCarlo, DensityPointAccountingAddsUp) {
    Torus t(Topology::ToroidalMesh, 6, 6);
    const DensityPoint p = run_density_point(t, 1, 0.4, 4, 50, 31);
    EXPECT_EQ(p.trials, 50u);
    EXPECT_LE(p.k_mono + p.other_mono + p.cycles + p.fixed_points, p.trials);
    EXPECT_GE(p.mean_final_k_fraction, 0.0);
    EXPECT_LE(p.mean_final_k_fraction, 1.0);
    EXPECT_GE(p.p_k_mono(), 0.0);
    EXPECT_LE(p.p_k_mono(), 1.0);
}

TEST(MonteCarlo, ExtremeDensitiesBehaveAsExpected) {
    Torus t(Topology::ToroidalMesh, 6, 6);
    // Density 1: the initial field is already k-monochromatic.
    const DensityPoint high = run_density_point(t, 1, 1.0, 4, 10, 37);
    EXPECT_EQ(high.k_mono, 10u);
    EXPECT_DOUBLE_EQ(high.p_k_mono(), 1.0);
    // Density 0: k never appears (it cannot be created from nothing).
    const DensityPoint low = run_density_point(t, 1, 0.0, 4, 10, 37);
    EXPECT_EQ(low.k_mono, 0u);
}

TEST(MonteCarlo, SweepIsDeterministicPerSeed) {
    Torus t(Topology::TorusCordalis, 5, 5);
    const std::vector<double> densities{0.2, 0.5};
    const auto a = run_density_sweep(t, 1, densities, 4, 30, 101);
    const auto b = run_density_sweep(t, 1, densities, 4, 30, 101);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].k_mono, b[i].k_mono);
        EXPECT_EQ(a[i].cycles, b[i].cycles);
        EXPECT_DOUBLE_EQ(a[i].mean_final_k_fraction, b[i].mean_final_k_fraction);
    }
}

TEST(MonteCarlo, SerialAndPooledDensityPointsAreBitIdentical) {
    // Per-trial RNG substreams make the table cell a pure function of
    // (topology, k, density, |C|, trials, seed): the ThreadPool changes
    // only who executes a trial, never what it computes - and the
    // reduction runs in trial order, so even the floating-point means
    // match exactly.
    Torus t(Topology::ToroidalMesh, 8, 8);
    const DensityPoint serial = run_density_point(t, 1, 0.45, 4, 48, 0xd00d, nullptr);
    for (const unsigned workers : {2u, 3u, 5u}) {
        ThreadPool pool(workers);
        const DensityPoint pooled = run_density_point(t, 1, 0.45, 4, 48, 0xd00d, &pool);
        EXPECT_EQ(serial.k_mono, pooled.k_mono) << workers;
        EXPECT_EQ(serial.other_mono, pooled.other_mono) << workers;
        EXPECT_EQ(serial.cycles, pooled.cycles) << workers;
        EXPECT_EQ(serial.fixed_points, pooled.fixed_points) << workers;
        EXPECT_DOUBLE_EQ(serial.mean_rounds_mono, pooled.mean_rounds_mono) << workers;
        EXPECT_DOUBLE_EQ(serial.mean_final_k_fraction, pooled.mean_final_k_fraction) << workers;
    }
}

TEST(Stats, WilsonBoundsBracketTheEstimate) {
    // The Wilson interval is asymmetric around the sample proportion (its
    // center shrinks toward 1/2) but must always contain it, stay inside
    // [0, 1], and agree with center +/- halfwidth.
    const double lower = wilson_lower(13, 48);
    const double upper = wilson_upper(13, 48);
    const double center = wilson_center(13, 48);
    const double half = wilson_halfwidth(13, 48);
    EXPECT_NEAR(lower, center - half, 1e-12);
    EXPECT_NEAR(upper, center + half, 1e-12);
    const double p_hat = 13.0 / 48.0;
    EXPECT_LT(lower, p_hat);
    EXPECT_GT(upper, p_hat);
    EXPECT_GT(center, p_hat) << "Wilson center shrinks toward 1/2";
    // Degenerate proportions keep honest, in-range bounds.
    EXPECT_EQ(wilson_lower(0, 20), 0.0);
    EXPECT_GT(wilson_upper(0, 20), 0.0) << "0/20 successes does not prove p = 0";
    EXPECT_EQ(wilson_upper(20, 20), 1.0);
    EXPECT_LT(wilson_lower(20, 20), 1.0);
}

TEST(MonteCarlo, AdaptivePrefixCensusMatchesTheFixedTrialRun) {
    // Adaptive stopping decides WHEN to stop, never what a trial is: the
    // census over the consumed prefix must be bit-identical to a fixed
    // run of exactly that many trials with the same seed.
    Torus t(Topology::ToroidalMesh, 8, 8);
    AdaptiveOptions options;
    options.stopping.ci_target = 0.15;
    options.max_trials = 2000;
    const AdaptiveDensityPoint adaptive =
        run_density_point_adaptive(t, 1, 0.45, 4, 0xd00d, options);
    ASSERT_TRUE(adaptive.converged);
    ASSERT_GT(adaptive.point.trials, 0u);
    EXPECT_GE(adaptive.computed, adaptive.point.trials);

    const DensityPoint fixed =
        run_density_point(t, 1, 0.45, 4, adaptive.point.trials, 0xd00d);
    EXPECT_EQ(adaptive.point.k_mono, fixed.k_mono);
    EXPECT_EQ(adaptive.point.other_mono, fixed.other_mono);
    EXPECT_EQ(adaptive.point.cycles, fixed.cycles);
    EXPECT_EQ(adaptive.point.fixed_points, fixed.fixed_points);
    EXPECT_DOUBLE_EQ(adaptive.point.mean_rounds_mono, fixed.mean_rounds_mono);
    EXPECT_DOUBLE_EQ(adaptive.point.mean_final_k_fraction, fixed.mean_final_k_fraction);
    // The anytime CI is coherent with the estimate and met its target.
    EXPECT_LE(adaptive.half_width, 0.15);
    EXPECT_LE(adaptive.lower, adaptive.point.p_k_mono());
    EXPECT_GE(adaptive.upper, adaptive.point.p_k_mono());
}

TEST(MonteCarlo, AdaptivePointIsInvariantAcrossPoolAndChunk) {
    Torus t(Topology::ToroidalMesh, 6, 6);
    AdaptiveOptions options;
    options.stopping.ci_target = 0.2;
    options.max_trials = 1500;
    options.chunk = 64;
    const AdaptiveDensityPoint serial =
        run_density_point_adaptive(t, 1, 0.5, 4, 0xFACE, options);
    ASSERT_TRUE(serial.converged);

    ThreadPool pool(3);
    AdaptiveOptions rechunked = options;
    rechunked.chunk = 5;
    for (const AdaptiveOptions& o : {options, rechunked}) {
        const AdaptiveDensityPoint other =
            run_density_point_adaptive(t, 1, 0.5, 4, 0xFACE, o, &pool);
        EXPECT_EQ(other.point.trials, serial.point.trials);
        EXPECT_EQ(other.point.k_mono, serial.point.k_mono);
        EXPECT_DOUBLE_EQ(other.point.mean_final_k_fraction,
                         serial.point.mean_final_k_fraction);
        EXPECT_DOUBLE_EQ(other.half_width, serial.half_width);
        EXPECT_EQ(other.decided, serial.decided);
        EXPECT_EQ(other.converged, serial.converged);
    }
}

TEST(MonteCarlo, AdaptiveDecisionModeCallsTheObviousSides) {
    // At density 1.0 every trial floods (P = 1), at 0.0 none does (P = 0):
    // a decision-mode point at threshold 1/2 must stop on the correct side
    // within a handful of checkpoints (the zero-variance EB boundary needs
    // ~59 trials to push the interval past 1/2 at delta = 0.05).
    Torus t(Topology::ToroidalMesh, 6, 6);
    AdaptiveOptions options;
    options.stopping.decision_threshold = 0.5;
    options.max_trials = 2000;
    const AdaptiveDensityPoint above =
        run_density_point_adaptive(t, 1, 1.0, 4, 7, options);
    EXPECT_EQ(above.decided, 1);
    EXPECT_TRUE(above.converged);
    EXPECT_LT(above.point.trials, 100u);
    const AdaptiveDensityPoint below =
        run_density_point_adaptive(t, 1, 0.0, 4, 7, options);
    EXPECT_EQ(below.decided, -1);
    EXPECT_TRUE(below.converged);
    EXPECT_LT(below.point.trials, 100u);
}

TEST(MonteCarlo, DensityPointRegressionPin) {
    // Pins one M1 table cell (mesh 8x8, k=1, rho=0.45, |C|=4, 48 trials,
    // seed 0xd00d) so any change to the substream scheme, the engines, or
    // the reduction order is caught as a diff, not silently shipped.
    Torus t(Topology::ToroidalMesh, 8, 8);
    const DensityPoint p = run_density_point(t, 1, 0.45, 4, 48, 0xd00d);
    EXPECT_EQ(p.k_mono, kPinKMono);
    EXPECT_EQ(p.other_mono, kPinOtherMono);
    EXPECT_EQ(p.cycles, kPinCycles);
    EXPECT_EQ(p.fixed_points, kPinFixedPoints);
    EXPECT_NEAR(p.mean_rounds_mono, kPinMeanRoundsMono, 1e-12);
    EXPECT_NEAR(p.mean_final_k_fraction, kPinMeanFinalKFraction, 1e-12);
}

void expect_points_equal(const DensityPoint& a, const DensityPoint& b, const std::string& tag) {
    EXPECT_EQ(a.density, b.density) << tag;
    EXPECT_EQ(a.trials, b.trials) << tag;
    EXPECT_EQ(a.k_mono, b.k_mono) << tag;
    EXPECT_EQ(a.other_mono, b.other_mono) << tag;
    EXPECT_EQ(a.cycles, b.cycles) << tag;
    EXPECT_EQ(a.fixed_points, b.fixed_points) << tag;
    EXPECT_EQ(a.mean_rounds_mono, b.mean_rounds_mono) << tag;
    EXPECT_EQ(a.mean_final_k_fraction, b.mean_final_k_fraction) << tag;
}

void expect_adaptive_equal(const AdaptiveDensityPoint& a, const AdaptiveDensityPoint& b,
                           const std::string& tag) {
    expect_points_equal(a.point, b.point, tag);
    EXPECT_EQ(a.half_width, b.half_width) << tag;
    EXPECT_EQ(a.lower, b.lower) << tag;
    EXPECT_EQ(a.upper, b.upper) << tag;
    EXPECT_EQ(a.decided, b.decided) << tag;
    EXPECT_EQ(a.converged, b.converged) << tag;
    EXPECT_EQ(a.computed, b.computed) << tag;
}

TEST(MonteCarlo, LaneTrialsEqualPerTrialRunsFieldForField) {
    // Backend::Auto runs a point's trials 64 at a time on lanes; Active
    // runs one engine per trial. Every field of the point must agree,
    // serial and pooled, fixed and adaptive, at every estimator chunk.
    struct Case {
        const char* rule;
        Color colors;
        bool lanes;  ///< does Auto take the lanes?
    };
    const Case cases[] = {{"majority-prefer-black", 2, true},
                          {"threshold-1", 2, true},
                          {"irreversible-strong-majority", 2, true},
                          {"smp", 4, true},
                          {"incremental", 7, true},
                          {"smp", 8, false}};
    ThreadPool pool(3);
    for (const Case& c : cases) {
        const rules::RuleInfo& rule = rules::rule_or_throw(c.rule);
        const Color k = rule.bicolor() ? kBlack : Color{1};
        for (const Topology topo : {Topology::ToroidalMesh, Topology::TorusSerpentinus}) {
            const Torus t(topo, 8, 8);
            const std::string where = std::string(c.rule) + " |C|=" + std::to_string(c.colors) +
                                      " " + to_string(topo);
            for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
                const std::string tag = where + (p ? " pooled" : " serial");
                const LaneTrialCounts before = lane_trial_counts();
                const DensityPoint lanes =
                    run_density_point(t, k, 0.4, c.colors, 150, 0x1a7e, p, &rule, Backend::Auto);
                const LaneTrialCounts after = lane_trial_counts();
                EXPECT_EQ(after.lanes - before.lanes, c.lanes ? 150u : 0u) << tag;
                const DensityPoint per_trial = run_density_point(t, k, 0.4, c.colors, 150, 0x1a7e,
                                                                 p, &rule, Backend::Active);
                EXPECT_EQ(lane_trial_counts().lanes, after.lanes) << tag;
                expect_points_equal(lanes, per_trial, tag);

                for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
                    AdaptiveOptions options;
                    options.stopping.ci_target = 0.15;
                    options.stopping.decision_threshold = 0.5;
                    options.max_trials = 400;
                    options.chunk = chunk;
                    const std::string at = tag + " chunk " + std::to_string(chunk);
                    expect_adaptive_equal(
                        run_density_point_adaptive(t, k, 0.5, c.colors, 0xc4a, options, p, &rule,
                                                   Backend::Auto),
                        run_density_point_adaptive(t, k, 0.5, c.colors, 0xc4a, options, p, &rule,
                                                   Backend::Active),
                        at);
                }
            }
        }
    }
}

} // namespace
} // namespace dynamo::analysis
