// Tests for the src/stats/ sequential-stopping subsystem: boundary name
// round-trips, confidence-sequence config validation, the simulated
// COVERAGE property (across many pinned Bernoulli streams the anytime CI
// must contain the true p with frequency >= 1 - delta, and a decision
// stop must never land on the wrong side of the threshold), the pool
// invariance of SequentialEstimator (serial and pooled samplers stop where
// one trial at a time does, also on a cap that cuts a chunk short), and
// the ladder + bisection critical-point refinement on synthetic curves.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "core/run/batch.hpp"
#include "stats/confidence.hpp"
#include "stats/refine.hpp"
#include "stats/sequential.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace dynamo::stats {
namespace {

TEST(Boundary, NamesRoundTrip) {
    EXPECT_STREQ(boundary_name(Boundary::Hoeffding), "hoeffding");
    EXPECT_STREQ(boundary_name(Boundary::EmpiricalBernstein), "eb");
    EXPECT_EQ(boundary_from_name("hoeffding"), Boundary::Hoeffding);
    EXPECT_EQ(boundary_from_name("eb"), Boundary::EmpiricalBernstein);
    EXPECT_FALSE(boundary_from_name("no-such-boundary").has_value());
    EXPECT_EQ(known_boundary_names(), "eb, hoeffding");
}

TEST(ConfidenceSequence, RejectsBrokenConfigs) {
    StoppingConfig bad_delta;
    bad_delta.delta = 0.0;
    EXPECT_THROW(ConfidenceSequence{bad_delta}, std::invalid_argument);
    bad_delta.delta = 1.0;
    EXPECT_THROW(ConfidenceSequence{bad_delta}, std::invalid_argument);

    StoppingConfig bad_union;
    bad_union.union_count = 0;
    EXPECT_THROW(ConfidenceSequence{bad_union}, std::invalid_argument);

    StoppingConfig bad_target;
    bad_target.ci_target = -0.1;
    EXPECT_THROW(ConfidenceSequence{bad_target}, std::invalid_argument);

    StoppingConfig bad_min;
    bad_min.min_trials = 0;
    EXPECT_THROW(ConfidenceSequence{bad_min}, std::invalid_argument);

    ConfidenceSequence sequence{StoppingConfig{}};
    EXPECT_THROW(sequence.observe(1.5), std::invalid_argument);
    EXPECT_THROW(sequence.observe(-0.5), std::invalid_argument);
}

TEST(ConfidenceSequence, IntervalIsVacuousBeforeTheFirstCheckpoint) {
    StoppingConfig config;
    config.min_trials = 16;
    config.ci_target = 0.5;
    ConfidenceSequence sequence(config);
    for (int i = 0; i < 15; ++i) {
        EXPECT_EQ(sequence.observe(1.0), ConfidenceSequence::Signal::Continue);
        EXPECT_EQ(sequence.half_width(), 1.0);
        EXPECT_EQ(sequence.lower(), 0.0);
        EXPECT_EQ(sequence.upper(), 1.0);
    }
    // The 16th observation is the first checkpoint: a real interval.
    sequence.observe(1.0);
    EXPECT_LT(sequence.half_width(), 1.0);
    EXPECT_EQ(sequence.estimate(), 1.0);
}

/// Run one synthetic Bernoulli(p) stream to the stopping rule (or cap).
struct StreamOutcome {
    std::size_t trials = 0;
    bool stopped = false;
    int decided = 0;
    double lower = 0.0;
    double upper = 1.0;
};

StreamOutcome run_stream(const StoppingConfig& config, double p, std::uint64_t seed,
                         std::size_t cap) {
    ConfidenceSequence sequence(config);
    Xoshiro256 rng(seed);
    StreamOutcome outcome;
    while (!sequence.stopped() && outcome.trials < cap) {
        sequence.observe(rng.bernoulli(p) ? 1.0 : 0.0);
        ++outcome.trials;
    }
    outcome.stopped = sequence.stopped();
    outcome.decided = sequence.decided();
    outcome.lower = sequence.lower();
    outcome.upper = sequence.upper();
    return outcome;
}

TEST(Coverage, WidthStoppedIntervalsCoverTheTruthAtLeastOneMinusDelta) {
    // 400 independent pinned streams at p = 0.3: the final anytime-valid
    // interval must contain p in >= 1 - delta of them. delta = 0.05 and
    // the bound is conservative, so 400 streams leave a wide margin
    // (expected misses ~ a few; we allow up to 5%).
    StoppingConfig config;
    config.ci_target = 0.06;
    config.delta = 0.05;
    const double p = 0.3;
    const std::size_t streams = 400;
    std::size_t covered = 0;
    std::size_t converged = 0;
    for (std::size_t s = 0; s < streams; ++s) {
        const StreamOutcome outcome =
            run_stream(config, p, substream_seed(0xC0FFEE, s), 20000);
        ASSERT_TRUE(outcome.stopped) << "stream " << s << " never reached the width target";
        ++converged;
        if (outcome.lower <= p && p <= outcome.upper) ++covered;
    }
    EXPECT_EQ(converged, streams);
    EXPECT_GE(static_cast<double>(covered),
              (1.0 - config.delta) * static_cast<double>(streams))
        << covered << "/" << streams << " intervals covered p";
}

TEST(Coverage, DecisionStopsNeverLandOnTheWrongSide) {
    // Decision stopping at threshold 1/2: streams with p = 0.38 may stop
    // "below" or run to the cap, but must NEVER decide "above" (and
    // symmetrically for p = 0.62). A wrong-side stop is precisely the
    // error the union bound caps at delta, so over 300 streams per side
    // we tolerate zero (P(any wrong) <= delta, and in practice the
    // boundary is conservative; a failure here means a real defect).
    StoppingConfig config;
    config.delta = 0.05;
    config.decision_threshold = 0.5;
    std::size_t decided_low = 0;
    for (std::size_t s = 0; s < 300; ++s) {
        const StreamOutcome outcome =
            run_stream(config, 0.38, substream_seed(0xDEC1DE, s), 4000);
        EXPECT_NE(outcome.decided, 1) << "stream " << s << " decided above with p = 0.38";
        if (outcome.decided == -1) ++decided_low;
    }
    EXPECT_GT(decided_low, 250u) << "most p = 0.38 streams should decide below by 4000 trials";

    std::size_t decided_high = 0;
    for (std::size_t s = 0; s < 300; ++s) {
        const StreamOutcome outcome =
            run_stream(config, 0.62, substream_seed(0x5EC0DE, s), 4000);
        EXPECT_NE(outcome.decided, -1) << "stream " << s << " decided below with p = 0.62";
        if (outcome.decided == 1) ++decided_high;
    }
    EXPECT_GT(decided_high, 250u);
}

TEST(ConfidenceSequence, EmpiricalBernsteinCollapsesFasterOnFlatStreams) {
    // On a zero-variance stream the EB boundary shrinks like 1/n while
    // Hoeffding can only manage 1/sqrt(n): EB must reach a tight width
    // target in strictly fewer trials. This is the inequality the
    // adaptive-MC bench gate (BENCH_adaptive_mc.json) builds on.
    StoppingConfig eb;
    eb.boundary = Boundary::EmpiricalBernstein;
    eb.ci_target = 0.01;
    StoppingConfig hoeffding = eb;
    hoeffding.boundary = Boundary::Hoeffding;
    const StreamOutcome eb_outcome = run_stream(eb, 0.0, 1, 100000);
    const StreamOutcome h_outcome = run_stream(hoeffding, 0.0, 1, 100000);
    ASSERT_TRUE(eb_outcome.stopped);
    ASSERT_TRUE(h_outcome.stopped);
    EXPECT_LT(eb_outcome.trials, h_outcome.trials / 3)
        << "EB " << eb_outcome.trials << " vs Hoeffding " << h_outcome.trials;
}

TEST(ConfidenceSequence, WiderUnionBoundNeverStopsEarlier) {
    // Splitting delta across more concurrent sequences tightens each
    // per-sequence budget, so the same stream can only stop later (or at
    // the same checkpoint), never earlier.
    StoppingConfig narrow;
    narrow.ci_target = 0.05;
    StoppingConfig wide = narrow;
    wide.union_count = 64;
    const StreamOutcome narrow_outcome = run_stream(narrow, 0.25, 7, 50000);
    const StreamOutcome wide_outcome = run_stream(wide, 0.25, 7, 50000);
    ASSERT_TRUE(narrow_outcome.stopped);
    ASSERT_TRUE(wide_outcome.stopped);
    EXPECT_GE(wide_outcome.trials, narrow_outcome.trials);
}

/// The estimator sample fn used by the invariance tests: a deterministic
/// Bernoulli draw from the trial's private substream, so the observation
/// for trial t is a pure function of (seed, t).
double bernoulli_sample(std::size_t /*trial*/, Xoshiro256& rng) {
    return rng.bernoulli(0.35) ? 1.0 : 0.0;
}

/// A chunk sampler over bernoulli_sample: trial t draws from
/// substream_seed(seed, t), on `pool` when given.
auto bernoulli_chunks(std::uint64_t seed, ThreadPool* pool) {
    return [seed, pool](std::size_t lo, std::size_t hi, std::span<double> values) {
        BatchRunner(pool).run_trials(lo, hi, seed, [&](std::size_t t, Xoshiro256& rng) {
            values[t - lo] = bernoulli_sample(t, rng);
        });
    };
}

TEST(SequentialEstimator, StopDecisionIsInvariantAcrossPoolAndEqualsOneTrialAtATime) {
    // The statistic consumes trials in order whoever generates a chunk:
    // serial and pooled samplers stop at the trial a confidence sequence
    // fed one trial at a time stops at, with bit-identical estimates. A
    // cap of 150 (not a multiple of the 64-trial chunk) ends on a partial
    // chunk; 20000 lets the stopping rule fire.
    StoppingConfig stopping;
    stopping.ci_target = 0.05;
    stopping.decision_threshold = 0.5;
    ThreadPool pool(3);
    for (const std::size_t cap : {std::size_t{150}, std::size_t{20000}}) {
        ConfidenceSequence one_by_one(stopping);
        std::size_t consumed = 0;
        while (!one_by_one.stopped() && consumed < cap) {
            Xoshiro256 rng(substream_seed(0xFEED, consumed));
            one_by_one.observe(bernoulli_sample(consumed, rng));
            ++consumed;
        }
        const std::size_t chunk = SequentialEstimator::kChunk;
        const std::size_t generated = std::min(cap, (consumed + chunk - 1) / chunk * chunk);

        const SequentialEstimator estimator({stopping, cap});
        for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
            const SequentialResult r = estimator.run_chunks(bernoulli_chunks(0xFEED, p));
            const std::string tag = "cap " + std::to_string(cap) + (p ? " pooled" : " serial");
            EXPECT_EQ(r.trials, consumed) << tag;
            EXPECT_EQ(r.computed, generated) << tag;
            EXPECT_EQ(r.estimate, one_by_one.estimate()) << tag;
            EXPECT_EQ(r.half_width, one_by_one.half_width()) << tag;
            EXPECT_EQ(r.lower, one_by_one.lower()) << tag;
            EXPECT_EQ(r.upper, one_by_one.upper()) << tag;
            EXPECT_EQ(r.decided, one_by_one.decided()) << tag;
            EXPECT_EQ(r.converged, one_by_one.stopped()) << tag;
        }
        EXPECT_EQ(one_by_one.stopped(), cap == 20000) << "cap " << cap;
    }
}

TEST(SequentialEstimator, HonoursTheTrialCap) {
    StoppingConfig stopping;
    stopping.ci_target = 0.0001;  // unreachable at this cap
    const SequentialEstimator estimator({stopping, 150});
    const SequentialResult result = estimator.run_chunks(bernoulli_chunks(3, nullptr));
    EXPECT_FALSE(result.converged);
    EXPECT_EQ(result.trials, 150u);
    EXPECT_EQ(result.computed, 150u);  // the last chunk is cut at the cap
}

TEST(SequentialEstimator, ZeroTrialCapThrows) {
    // A refused configuration is an exception the caller can report as a
    // failed campaign point.
    SequentialOptions options;
    options.max_trials = 0;
    EXPECT_THROW(SequentialEstimator{options}, std::invalid_argument);
}

// ---------------------------------------------------------------- refine ---

TEST(Refine, BracketsACleanStepFunction) {
    // Deterministic step at x* = 0.42: probes below decide Below, above
    // decide Above. The ladder must locate the flip and bisection must
    // narrow to the target width with the crossing still inside.
    RefineOptions options;
    options.bracket_target = 0.01;
    const CriticalBracket bracket = refine_critical(options, [](double x, std::size_t) {
        return x < 0.42 ? ProbeSide::Below : ProbeSide::Above;
    });
    EXPECT_TRUE(bracket.found);
    EXPECT_TRUE(bracket.converged);
    EXPECT_LE(bracket.width(), 0.01);
    EXPECT_LE(bracket.lo, 0.42);
    EXPECT_GE(bracket.hi, 0.42);
    EXPECT_LE(bracket.probes.size(), options.max_probes);
    // Probes carry their issue index in order (the caller's substreams).
    for (std::size_t i = 0; i < bracket.probes.size(); ++i) {
        EXPECT_EQ(bracket.probes[i].index, i);
    }
}

TEST(Refine, ReportsNoCrossingWhenTheCurveNeverFlips) {
    RefineOptions options;
    const CriticalBracket below_everywhere =
        refine_critical(options, [](double, std::size_t) { return ProbeSide::Below; });
    EXPECT_FALSE(below_everywhere.found);
    EXPECT_FALSE(below_everywhere.converged);
    EXPECT_EQ(below_everywhere.probes.size(), options.ladder);

    // A curve already above at the left edge has no Below -> Above flip
    // inside the interval either (threshold-1 style: floods everywhere).
    const CriticalBracket above_everywhere =
        refine_critical(options, [](double, std::size_t) { return ProbeSide::Above; });
    EXPECT_FALSE(above_everywhere.found);
}

TEST(Refine, UndecidedMidpointStopsBisectionHonestly) {
    // Probes inside (0.38, 0.46) are statistically undecidable: bisection
    // must stop, keep the bracket that still contains the crossing, and
    // report converged = false rather than pretend precision it lacks.
    RefineOptions options;
    options.bracket_target = 0.01;
    const CriticalBracket bracket = refine_critical(options, [](double x, std::size_t) {
        if (x > 0.38 && x < 0.46) return ProbeSide::Undecided;
        return x < 0.42 ? ProbeSide::Below : ProbeSide::Above;
    });
    EXPECT_TRUE(bracket.found);
    EXPECT_FALSE(bracket.converged);
    EXPECT_GT(bracket.width(), 0.01);
    EXPECT_LE(bracket.lo, 0.42);
    EXPECT_GE(bracket.hi, 0.42);
}

TEST(Refine, ValidatesItsOptions) {
    const auto probe = [](double, std::size_t) { return ProbeSide::Below; };
    RefineOptions empty;
    empty.lo = 0.5;
    empty.hi = 0.5;
    EXPECT_THROW(refine_critical(empty, probe), std::invalid_argument);

    RefineOptions tiny_ladder;
    tiny_ladder.ladder = 1;
    EXPECT_THROW(refine_critical(tiny_ladder, probe), std::invalid_argument);

    RefineOptions starved;
    starved.ladder = 8;
    starved.max_probes = 4;
    EXPECT_THROW(refine_critical(starved, probe), std::invalid_argument);
}

} // namespace
} // namespace dynamo::stats
