// Analysis helpers: census/entropy, descriptive statistics, and the
// Monte-Carlo density harness (determinism, accounting, boundary
// densities, and lane trials == per-trial runs).
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <memory>

#include "analysis/census.hpp"
#include "analysis/montecarlo.hpp"
#include "analysis/stats.hpp"
#include "core/run/batch.hpp"
#include "core/sim/lane_engine.hpp"
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

// Two more cells, for the lane encodings the cell above does not reach: a
// bi-color rule (majority-prefer-black, mesh 8x8, k = black, rho = 0.3,
// 150 trials, seed 0xb1c0) and a 7-color palette (smp, serpentinus 8x8,
// k = 4, rho = 0.5, 150 trials, seed 0x7c01). Taken from the per-lane
// draw, before the lane draw drew fields cell by cell.
constexpr DensityPoint kBicolorPin{0.3, 150, 13, 1, 136, 0, 6.7692307692307692,
                                   0.62187499999999996};
constexpr DensityPoint kSevenColorPin{0.5, 150, 106, 0, 0, 44, 3.8962264150943398,
                                      0.97302083333333333};

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

TEST(MonteCarlo, AdaptivePointIsInvariantAcrossPool) {
    Torus t(Topology::ToroidalMesh, 6, 6);
    AdaptiveOptions options;
    options.stopping.ci_target = 0.2;
    options.max_trials = 1500;
    const AdaptiveDensityPoint serial =
        run_density_point_adaptive(t, 1, 0.5, 4, 0xFACE, options);
    ASSERT_TRUE(serial.converged);

    ThreadPool pool(3);
    const AdaptiveDensityPoint other =
        run_density_point_adaptive(t, 1, 0.5, 4, 0xFACE, options, &pool);
    EXPECT_EQ(other.point.trials, serial.point.trials);
    EXPECT_EQ(other.point.k_mono, serial.point.k_mono);
    EXPECT_DOUBLE_EQ(other.point.mean_final_k_fraction, serial.point.mean_final_k_fraction);
    EXPECT_DOUBLE_EQ(other.half_width, serial.half_width);
    EXPECT_EQ(other.decided, serial.decided);
    EXPECT_EQ(other.converged, serial.converged);
    EXPECT_EQ(other.computed, serial.computed);
}

TEST(MonteCarlo, AdaptivePointIsTheSameUnderAnyCapItNeverReaches) {
    // The cap bounds the trials, it does not size the work: a point that
    // stops long before either cap is field-for-field the same under a
    // 10,000 and a 1,000,000 cap. CI checks the memory side: the peak RSS
    // of such a point under a 10,000,000 cap.
    Torus t(Topology::ToroidalMesh, 6, 6);
    AdaptiveOptions small;
    small.stopping.ci_target = 0.2;
    small.max_trials = 10000;
    AdaptiveOptions large = small;
    large.max_trials = 1000000;
    const AdaptiveDensityPoint a = run_density_point_adaptive(t, 1, 0.5, 4, 0xCAB, small);
    const AdaptiveDensityPoint b = run_density_point_adaptive(t, 1, 0.5, 4, 0xCAB, large);
    ASSERT_TRUE(a.converged);
    EXPECT_LT(a.computed, small.max_trials);
    EXPECT_EQ(a.point.density, b.point.density);
    EXPECT_EQ(a.point.trials, b.point.trials);
    EXPECT_EQ(a.point.k_mono, b.point.k_mono);
    EXPECT_EQ(a.point.other_mono, b.point.other_mono);
    EXPECT_EQ(a.point.cycles, b.point.cycles);
    EXPECT_EQ(a.point.fixed_points, b.point.fixed_points);
    EXPECT_EQ(a.point.mean_rounds_mono, b.point.mean_rounds_mono);
    EXPECT_EQ(a.point.mean_final_k_fraction, b.point.mean_final_k_fraction);
    EXPECT_EQ(a.half_width, b.half_width);
    EXPECT_EQ(a.lower, b.lower);
    EXPECT_EQ(a.upper, b.upper);
    EXPECT_EQ(a.decided, b.decided);
    EXPECT_EQ(a.converged, b.converged);
    EXPECT_EQ(a.computed, b.computed);
}

TEST(MonteCarlo, ZeroTrialCapThrows) {
    // The cap is refused with an exception a campaign records as a failed
    // point; it must not abort the process.
    Torus t(Topology::ToroidalMesh, 6, 6);
    AdaptiveOptions options;
    options.stopping.ci_target = 0.05;
    options.max_trials = 0;
    EXPECT_THROW(run_density_point_adaptive(t, 1, 0.5, 4, 7, options), std::invalid_argument);
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

    const auto expect_pin = [](const DensityPoint& got, const DensityPoint& pin,
                               const char* tag) {
        EXPECT_EQ(got.trials, pin.trials) << tag;
        EXPECT_EQ(got.k_mono, pin.k_mono) << tag;
        EXPECT_EQ(got.other_mono, pin.other_mono) << tag;
        EXPECT_EQ(got.cycles, pin.cycles) << tag;
        EXPECT_EQ(got.fixed_points, pin.fixed_points) << tag;
        EXPECT_NEAR(got.mean_rounds_mono, pin.mean_rounds_mono, 1e-12) << tag;
        EXPECT_NEAR(got.mean_final_k_fraction, pin.mean_final_k_fraction, 1e-12) << tag;
    };
    const rules::RuleInfo& bicolor = rules::rule_or_throw("majority-prefer-black");
    expect_pin(run_density_point(t, kBlack, 0.3, 2, 150, 0xb1c0, nullptr, &bicolor),
               kBicolorPin, "majority-prefer-black");
    const Torus serpentinus(Topology::TorusSerpentinus, 8, 8);
    const rules::RuleInfo& smp = rules::rule_or_throw("smp");
    expect_pin(run_density_point(serpentinus, 4, 0.5, 7, 150, 0x7c01, nullptr, &smp),
               kSevenColorPin, "smp |C|=7");
}

/// Draws a field per generator with random_lane_fields into a batch that
/// held other fields before, and checks every round-0 word against put()
/// of random_coloring from the same generator, and every generator's end
/// state against random_coloring's.
void expect_lane_draw_matches(const rules::RuleInfo& rule, const Torus& t, Color k,
                              Color colors, double density, std::vector<Xoshiro256> rngs,
                              const std::string& tag) {
    std::vector<Xoshiro256> scalar = rngs;
    const std::unique_ptr<sim::LaneBatch> expected = rule.make_lane_batch(t);
    expected->clear();
    for (unsigned l = 0; l < scalar.size(); ++l) {
        const ColorField field = random_coloring(t.size(), k, colors, density, scalar[l]);
        for (std::size_t v = 0; v < t.size(); ++v) expected->put(l, v, field[v]);
    }
    const std::unique_ptr<sim::LaneBatch> drawn = rule.make_lane_batch(t);
    std::vector<Xoshiro256> stale(sim::LaneBatch::kLanes, Xoshiro256(0x57a1e));
    random_lane_fields(*drawn, k, colors, 0.5, stale);
    random_lane_fields(*drawn, k, colors, density, rngs);
    std::size_t wrong = 0;
    for (std::size_t v = 0; v < t.size(); ++v) {
        for (int p = 0; p < drawn->planes(); ++p) {
            wrong += drawn->round0(v)[p] != expected->round0(v)[p];
        }
    }
    EXPECT_EQ(wrong, 0u) << tag;
    for (std::size_t l = 0; l < rngs.size(); ++l) {
        EXPECT_EQ(rngs[l].state(), scalar[l].state()) << tag << " lane " << l;
    }
}

TEST(MonteCarlo, LaneDrawEqualsRandomColoringWordForWord) {
    // Lane l of a block of trials first .. first + lanes - 1 draws from
    // Xoshiro256(substream_seed(seed, first + l)), as run_density_point's
    // blocks do. Densities include both ends, the smallest positive one,
    // one where density * 2^53 is an integer and 1 - 2^-53.
    const Torus t(Topology::ToroidalMesh, 5, 7);
    const double densities[] = {0.0, 0x1.0p-53, 0.3, 0.25, 1.0 - 0x1.0p-53, 1.0};
    const auto generators = [](std::size_t lanes) {
        std::vector<Xoshiro256> rngs;
        for (std::size_t l = 0; l < lanes; ++l) rngs.emplace_back(substream_seed(0x1a9e, 100 + l));
        return rngs;
    };
    const rules::RuleInfo& bicolor = rules::rule_or_throw("majority-prefer-black");
    const rules::RuleInfo& smp = rules::rule_or_throw("smp");
    for (const std::size_t lanes : {std::size_t{1}, std::size_t{37}, std::size_t{64}}) {
        for (const double density : densities) {
            const std::string at =
                " lanes=" + std::to_string(lanes) + " density=" + std::to_string(density);
            for (const Color k : {kBlack, kWhite}) {
                expect_lane_draw_matches(bicolor, t, k, 2, density, generators(lanes),
                                         "bi-color k=" + std::to_string(k) + at);
            }
            for (Color colors = 3; colors <= 7; ++colors) {
                for (const Color k : {Color{1}, static_cast<Color>((colors + 1) / 2), colors}) {
                    expect_lane_draw_matches(smp, t, k, colors, density, generators(lanes),
                                             "|C|=" + std::to_string(colors) +
                                                 " k=" + std::to_string(k) + at);
                }
            }
        }
    }
}

/// The state one Xoshiro256 step before `after` (the step is invertible).
std::array<std::uint64_t, 4> state_before(const std::array<std::uint64_t, 4>& after) {
    // One step maps (s0, s1, s2, s3) to (s0 ^ s1 ^ s3, s0 ^ s1 ^ s2,
    // s0 ^ s2 ^ (s1 << 17), rotl(s1 ^ s3, 45)).
    const std::uint64_t s1_xor_s3 = std::rotr(after[3], 45);
    const std::uint64_t s0 = after[0] ^ s1_xor_s3;
    const std::uint64_t y = after[1] ^ after[2];  // s1 ^ (s1 << 17)
    const std::uint64_t s1 = y ^ (y << 17) ^ (y << 34) ^ (y << 51);
    return {s0, s1, after[1] ^ s0 ^ s1, s1_xor_s3 ^ s1};
}

TEST(MonteCarlo, LaneDrawRedrawsByBelowsRule) {
    // below(n) redraws while the low word of x * n is under
    // Xoshiro256::below_threshold(n), which is nonzero for n = 3, 5, 6.
    // x = 0 is such a draw, and a generator puts out 0 from a state whose
    // second word is 0. From (a, 0, a, d) it steps to (a ^ d, 0, 0, ...),
    // so it puts out 0 twice. With density 0 a cell's second draw is the
    // below() draw, so a generator one step before (a, 0, a, d) redraws
    // twice in cell 0.
    const std::array<std::uint64_t, 4> zero_twice{0x9e3779b97f4a7c15ULL, 0,
                                                  0x9e3779b97f4a7c15ULL, 0xbf58476d1ce4e5b9ULL};
    const std::array<std::uint64_t, 4> start = state_before(zero_twice);
    Xoshiro256 check(start);
    check.next();
    ASSERT_EQ(check.state(), zero_twice);
    for (const std::uint64_t n : {3u, 5u, 6u}) {
        Xoshiro256 drawn(zero_twice), three(zero_twice);
        drawn.below(n);
        for (int i = 0; i < 3; ++i) three.next();
        EXPECT_EQ(drawn.state(), three.state()) << "below(" << n << ") redraws twice";
    }

    const Torus t(Topology::ToroidalMesh, 4, 4);
    const rules::RuleInfo& smp = rules::rule_or_throw("smp");
    for (const Color colors : {Color{4}, Color{6}, Color{7}}) {
        for (const double density : {0.0, 0.3}) {
            std::vector<Xoshiro256> rngs;
            for (std::size_t l = 0; l < 64; ++l) rngs.emplace_back(substream_seed(0x4ed, l));
            rngs[5] = Xoshiro256(start);
            rngs[40] = Xoshiro256(start);
            expect_lane_draw_matches(smp, t, 1, colors, density, rngs,
                                     "|C|=" + std::to_string(colors) +
                                         " density=" + std::to_string(density));
        }
    }
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
    // serial and pooled, fixed and adaptive. 150 trials end on a partial
    // lane batch; the adaptive cap of 150 cuts the estimator's last chunk
    // short when the stopping rule has not fired by then.
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

                for (const bool capped : {false, true}) {
                    AdaptiveOptions options;
                    options.stopping.ci_target = capped ? 0.01 : 0.15;
                    if (!capped) options.stopping.decision_threshold = 0.5;
                    options.max_trials = 150;
                    const std::string at = tag + (capped ? " capped" : " stopped");
                    const AdaptiveDensityPoint on_lanes = run_density_point_adaptive(
                        t, k, 0.5, c.colors, 0xc4a, options, p, &rule, Backend::Auto);
                    expect_adaptive_equal(
                        on_lanes,
                        run_density_point_adaptive(t, k, 0.5, c.colors, 0xc4a, options, p, &rule,
                                                   Backend::Active),
                        at);
                    expect_adaptive_equal(
                        on_lanes,
                        run_density_point_adaptive(t, k, 0.5, c.colors, 0xc4a, options, nullptr,
                                                   &rule, Backend::Active),
                        at + " vs serial");
                    if (capped) {
                        EXPECT_EQ(on_lanes.computed, 150u) << at;
                    }
                }
            }
        }
    }
}

} // namespace
} // namespace dynamo::analysis
