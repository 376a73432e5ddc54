// dynamo/stats/sequential.hpp
//
// SequentialEstimator: adaptive Monte-Carlo on top of BatchRunner. The
// estimator generates trials in deterministic chunks — trial t always
// draws from substream_seed(seed, t), whichever chunk (or worker)
// produces it — and feeds the observations IN TRIAL ORDER into a
// ConfidenceSequence, stopping at the first trial whose checkpoint
// satisfies the stopping rule.
//
// Determinism contract: the result is a pure function of
// (sample fn, seed, stopping config, max_trials). The chunk size and the
// thread pool change only how many trials past the stopping point get
// generated and DISCARDED (`computed` vs `trials`), never which trials
// the statistic consumes — so serial == pooled and chunk geometries
// {1, 7, 64} all stop at the same trial with bit-identical estimates
// (pinned in tests/test_stats.cpp). That is what makes adaptive results
// cache-safe: a campaign point's metrics cannot depend on pool geometry.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/run/batch.hpp"
#include "stats/confidence.hpp"

namespace dynamo::stats {

struct SequentialOptions {
    StoppingConfig stopping;
    /// Hard trial cap; the estimator reports converged = false when the
    /// stopping rule has not fired by then.
    std::size_t max_trials = 10000;
    /// Trials generated per batch round. Purely a throughput knob (chunk
    /// tails past the stop are discarded); never affects the result.
    std::size_t chunk = 64;
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
    explicit SequentialEstimator(const SequentialOptions& options,
                                 ThreadPool* pool = nullptr) noexcept
        : options_(options), pool_(pool) {
        DYNAMO_REQUIRE(options_.chunk >= 1, "chunk must be >= 1");
        DYNAMO_REQUIRE(options_.max_trials >= 1, "max_trials must be >= 1");
    }

    /// sample(trial, rng) -> observation in [0, 1]; must be a pure
    /// function of its arguments (rng is the trial's private substream).
    /// It may additionally record side data in a per-trial slot — slots
    /// past result.trials belong to discarded trials.
    template <typename SampleFn>
    SequentialResult run(std::uint64_t seed, SampleFn&& sample) const {
        const BatchRunner batch(pool_);
        return run_chunks([&](std::size_t lo, std::size_t hi, std::span<double> values) {
            batch.run_trials(lo, hi, seed, [&](std::size_t t, Xoshiro256& rng) {
                values[t - lo] = sample(t, rng);
            });
        });
    }

    /// The per-chunk form: sample_chunk(lo, hi, values) writes the
    /// observations of trials [lo, hi) to values[0 .. hi - lo), each a pure
    /// function of its trial, and runs them however it likes (the pool is
    /// the sampler's business). The chunks are the ones run() would ask
    /// for, so `computed` and every statistic are the same.
    template <typename ChunkFn>
    SequentialResult run_chunks(ChunkFn&& sample_chunk) const {
        ConfidenceSequence sequence(options_.stopping);
        std::vector<double> values;
        SequentialResult result;
        std::size_t generated = 0;
        while (!sequence.stopped() && result.trials < options_.max_trials) {
            const std::size_t hi = std::min(generated + options_.chunk, options_.max_trials);
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
    ThreadPool* pool_;
};

} // namespace dynamo::stats
