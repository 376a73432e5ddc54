// dynamo/core/run/batch.hpp
//
// BatchRunner: many independent runs (Monte-Carlo trials, exhaustive
// search probes) executed across the ThreadPool with deterministic
// per-trial RNG substreams. Trial t always draws from
// Xoshiro256(substream_seed(seed, t)), regardless of which worker executes
// it or in what order, so batch results are bit-identical serial vs
// pooled - flipping stochastic experiments from within-run to across-trial
// parallelism, the right axis on the small tori those workloads use.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace dynamo {

/// Deterministic seed of substream `stream` in a batch seeded with `seed`.
/// Two chained SplitMix64 mixes keep nearby (seed, stream) pairs
/// statistically uncorrelated (the standard Xoshiro seeding recipe).
inline std::uint64_t substream_seed(std::uint64_t seed, std::uint64_t stream) noexcept {
    SplitMix64 outer(seed);
    SplitMix64 inner(outer.next() ^ (0x9e3779b97f4a7c15ULL * (stream + 1)));
    return inner.next();
}

class BatchRunner {
  public:
    /// `pool` may be null (serial execution, same results). A trial is
    /// coarse enough to be its own grain: any two trials may thread.
    explicit BatchRunner(ThreadPool* pool = nullptr) noexcept : pool_(pool) {}

    /// Executes fn(trial, rng) exactly once for every trial in
    /// [0, trials). fn must write its outcome to a per-trial slot (no
    /// shared mutable state); rng is the trial's private substream.
    template <typename Fn>
    void run_trials(std::size_t trials, std::uint64_t seed, Fn&& fn) const {
        run_trials(0, trials, seed, std::forward<Fn>(fn));
    }

    /// Range form: trials [lo, hi) of the batch seeded with `seed`. Trial
    /// t still draws from substream_seed(seed, t), so running a batch in
    /// any sequence of chunks produces the trials the one-shot form
    /// would — the sequential estimators (stats/sequential.hpp) lean on
    /// this to grow a batch chunk by chunk without changing any trial.
    template <typename Fn>
    void run_trials(std::size_t lo, std::size_t hi, std::uint64_t seed, Fn&& fn) const {
        run_trial_blocks(lo, hi, 1, seed, [&](std::size_t t, std::span<Xoshiro256> rng) {
            fn(t, rng[0]);
        });
    }

    /// Block form: trials [lo, hi) in blocks of at most `width` consecutive
    /// trials, fn(first, rngs) once per block, where rngs[i] is trial
    /// first + i's substream, Xoshiro256(substream_seed(seed, first + i)).
    /// The blocks are cut at lo, lo + width, ... whatever the pool, which
    /// runs whole blocks - for callers that step a block of trials at once
    /// (the lane-sliced Monte-Carlo trials, analysis/montecarlo.cpp).
    template <typename Fn>
    void run_trial_blocks(std::size_t lo, std::size_t hi, std::size_t width, std::uint64_t seed,
                          Fn&& fn) const {
        DYNAMO_ASSERT(lo <= hi, "trial range is inverted");
        DYNAMO_REQUIRE(width >= 1, "a trial block holds at least one trial");
        const std::size_t blocks = (hi - lo + width - 1) / width;
        parallel_for_blocks(pool_, blocks, 1, [&](std::size_t a, std::size_t b) {
            std::vector<Xoshiro256> rngs;
            rngs.reserve(std::min(width, hi - lo));
            for (std::size_t block = a; block < b; ++block) {
                const std::size_t first = lo + block * width;
                const std::size_t last = std::min(hi, first + width);
                rngs.clear();
                for (std::size_t t = first; t < last; ++t) rngs.emplace_back(substream_seed(seed, t));
                fn(first, std::span<Xoshiro256>(rngs));
            }
        });
    }

    /// Convenience: collect fn(trial, rng) returns into a vector indexed
    /// by trial, so downstream reductions run in deterministic order.
    template <typename R, typename Fn>
    std::vector<R> map_trials(std::size_t trials, std::uint64_t seed, Fn&& fn) const {
        std::vector<R> out(trials);
        run_trials(trials, seed,
                   [&](std::size_t t, Xoshiro256& rng) { out[t] = fn(t, rng); });
        return out;
    }

  private:
    ThreadPool* pool_;
};

} // namespace dynamo
