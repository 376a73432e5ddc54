// dynamo/stats/sequential.hpp
//
// SequentialEstimator: adaptive Monte-Carlo over a trial stream. The
// caller's sampler generates trials in chunks of kChunk = 64 (the lane
// width of core/sim/lane_engine.hpp, so one chunk is one lane batch; the
// cap may cut the last chunk short) - trial t always draws from
// substream_seed(seed, t), whichever chunk (or worker) produces it - and
// the estimator feeds the observations IN TRIAL ORDER into a
// ConfidenceSequence, stopping at the first trial whose checkpoint
// satisfies the stopping rule.
//
// Determinism contract: the result is a pure function of
// (sampler, stopping config, max_trials). How the sampler runs a chunk -
// serial or pooled, one engine per trial or a lane batch - changes
// nothing, and trials generated past the stopping point are DISCARDED
// (`computed` vs `trials`, at most one chunk's tail), never consumed. So
// serial == pooled and lanes == per-trial engines (pinned in
// tests/test_stats.cpp and tests/test_analysis.cpp). That is what makes
// adaptive results cache-safe: a campaign point's metrics cannot depend
// on pool geometry.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "stats/confidence.hpp"
#include "util/assert.hpp"

namespace dynamo::stats {

struct SequentialOptions {
    StoppingConfig stopping;
    /// Hard trial cap; the estimator reports converged = false when the
    /// stopping rule has not fired by then.
    std::size_t max_trials = 10000;
};

struct SequentialResult {
    std::size_t trials = 0;    ///< observations consumed by the statistic
    std::size_t computed = 0;  ///< trials generated (incl. discarded chunk tail)
    double estimate = 0.0;
    double half_width = 1.0;   ///< anytime-valid; vacuous 1.0 before any checkpoint
    double lower = 0.0;
    double upper = 1.0;
    int decided = 0;           ///< -1 below / +1 above the decision threshold
    bool converged = false;    ///< stopping rule fired before max_trials
};

class SequentialEstimator {
  public:
    /// Trials per chunk: the lane width, so a chunk is one lane batch.
    static constexpr std::size_t kChunk = 64;

    /// Throws std::invalid_argument when options.max_trials is 0.
    explicit SequentialEstimator(const SequentialOptions& options) : options_(options) {
        DYNAMO_REQUIRE(options_.max_trials >= 1, "max_trials must be >= 1");
    }

    /// sample_chunk(lo, hi, values) writes the observations of trials
    /// [lo, hi) to values[0 .. hi - lo), each in [0, 1] and a pure function
    /// of its trial, and runs them however it likes (the pool is the
    /// sampler's business). Chunks are [0, 64), [64, 128), ... cut at
    /// max_trials.
    template <typename ChunkFn>
    SequentialResult run_chunks(ChunkFn&& sample_chunk) const {
        ConfidenceSequence sequence(options_.stopping);
        std::vector<double> values;
        SequentialResult result;
        std::size_t generated = 0;
        while (!sequence.stopped() && result.trials < options_.max_trials) {
            const std::size_t hi = std::min(generated + kChunk, options_.max_trials);
            values.resize(hi - generated);
            sample_chunk(generated, hi, std::span<double>(values));
            for (std::size_t t = generated; t < hi && !sequence.stopped(); ++t) {
                sequence.observe(values[t - generated]);
                ++result.trials;
            }
            generated = hi;
        }
        result.computed = generated;
        result.estimate = sequence.estimate();
        result.half_width = sequence.half_width();
        result.lower = sequence.lower();
        result.upper = sequence.upper();
        result.decided = sequence.decided();
        result.converged = sequence.stopped();
        return result;
    }

  private:
    SequentialOptions options_;
};

} // namespace dynamo::stats
