// dynamo/util/rng.hpp
//
// Deterministic, seedable pseudo-random number generation.
//
// All stochastic experiments in the library (Monte-Carlo seeding, random
// colorings, graph generators) consume a SplitMix64 or Xoshiro256** stream so
// that every table and figure is exactly reproducible from a printed seed.
// std::mt19937 is avoided on purpose: its state is large, seeding is fiddly,
// and implementations may differ in distribution code; we own the full stack.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

#include "util/assert.hpp"

namespace dynamo {

/// SplitMix64: tiny, fast, passes BigCrush when used as a 64-bit stream.
/// Used directly for cheap draws and to seed Xoshiro256**.
class SplitMix64 {
  public:
    using result_type = std::uint64_t;

    explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

    constexpr std::uint64_t next() noexcept {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    constexpr std::uint64_t operator()() noexcept { return next(); }

    static constexpr std::uint64_t min() noexcept { return 0; }
    static constexpr std::uint64_t max() noexcept {
        return std::numeric_limits<std::uint64_t>::max();
    }

  private:
    std::uint64_t state_;
};

/// Xoshiro256**: the library's main generator. 256-bit state, jumpable,
/// excellent statistical quality, trivially copyable (cheap to fork per
/// thread for deterministic parallel experiments).
class Xoshiro256 {
  public:
    using result_type = std::uint64_t;

    explicit Xoshiro256(std::uint64_t seed) noexcept {
        SplitMix64 sm(seed);
        for (auto& s : state_) s = sm.next();
    }

    /// The generator at a given state, as state() reads it.
    explicit Xoshiro256(const std::array<std::uint64_t, 4>& state) noexcept : state_(state) {}
    const std::array<std::uint64_t, 4>& state() const noexcept { return state_; }

    std::uint64_t next() noexcept { return step(state_[0], state_[1], state_[2], state_[3]); }

    /// next() on a state held elsewhere: the lane draw of the Monte-Carlo
    /// trials (analysis/montecarlo.cpp) keeps 64 states as one array per
    /// state word and steps them together.
    static std::uint64_t step(std::uint64_t& s0, std::uint64_t& s1, std::uint64_t& s2,
                              std::uint64_t& s3) noexcept {
        const std::uint64_t result = rotl(s1 * 5, 7) * 9;
        const std::uint64_t t = s1 << 17;
        s2 ^= s0;
        s3 ^= s1;
        s1 ^= s2;
        s0 ^= s3;
        s2 ^= t;
        s3 = rotl(s3, 45);
        return result;
    }

    std::uint64_t operator()() noexcept { return next(); }

    /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
    std::uint64_t below(std::uint64_t bound) noexcept {
        DYNAMO_ASSERT(bound > 0, "below(0) is meaningless");
        // 128-bit multiply-shift; rejection loop for exactness.
        std::uint64_t x = next();
        __uint128_t m = static_cast<__uint128_t>(x) * bound;
        auto lo = static_cast<std::uint64_t>(m);
        if (lo < bound) {
            const std::uint64_t threshold = below_threshold(bound);
            while (lo < threshold) {
                x = next();
                m = static_cast<__uint128_t>(x) * bound;
                lo = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /// below(bound)'s rejection rule: a draw x is redrawn while the low word
    /// of x * bound is under this, which is 0 for a power of two.
    static constexpr std::uint64_t below_threshold(std::uint64_t bound) noexcept {
        return (0 - bound) % bound;
    }

    /// Uniform double in [0, 1).
    double uniform() noexcept {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /// Bernoulli draw with probability p.
    bool bernoulli(double p) noexcept { return uniform() < p; }

    /// Fork a statistically independent child stream (for per-thread use).
    Xoshiro256 fork() noexcept { return Xoshiro256(next() ^ 0xd1b54a32d192ed03ULL); }

    static constexpr std::uint64_t min() noexcept { return 0; }
    static constexpr std::uint64_t max() noexcept {
        return std::numeric_limits<std::uint64_t>::max();
    }

  private:
    static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
        return (x << k) | (x >> (64 - k));
    }
    std::array<std::uint64_t, 4> state_{};
};

/// Fisher-Yates shuffle driven by Xoshiro256 (std::shuffle's URBG coupling
/// is implementation-defined; we want byte-identical shuffles everywhere).
template <typename RandomIt>
void deterministic_shuffle(RandomIt first, RandomIt last, Xoshiro256& rng) {
    const auto n = static_cast<std::uint64_t>(last - first);
    for (std::uint64_t i = n; i > 1; --i) {
        const std::uint64_t j = rng.below(i);
        using std::swap;
        swap(first[i - 1], first[j]);
    }
}

} // namespace dynamo
