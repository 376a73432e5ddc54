// dynamo/core/run/observer.hpp
//
// Composable run observers: the per-round bookkeeping that the seed driver
// hard-coded (target tracking, cycle hashing, frame dumps) factored into
// small objects run_to_terminal notifies. Observers are fed the *changed cells*
// of each round (CellChange records the engines already know), so their
// per-round cost is O(changed), not O(|V|) - in particular the seed
// driver's full ColorField copy per tracked round is gone.
//
// Protocol, per run:
//   on_start(initial)   once, before the first round;
//   on_round(event)     after every executed non-terminal round, in
//                       registration order; returning a StopRequest ends
//                       the run after this round (first request wins; a
//                       monochromatic state takes priority over any stop);
//   on_finish(result)   once, with the mutable RunResult - observers that
//                       own result fields (AdoptionTracker) deposit them
//                       here.
//
// The order of changes within a round is unspecified (the active-set
// engine reports per span, not globally sorted), so observers must fold
// changes order-independently - all of the ones below do.
// Observers with heavier dependencies live with their layer instead of
// here, so including the run API never drags io/ or analysis/ into a TU:
// analysis/census_series.hpp (per-round entropy/dominance series) and
// io/frame_dumper.hpp (PPM frame writer).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/coloring.hpp"
#include "core/run/result.hpp"

namespace dynamo {

/// A stop request returned by an observer: how the run terminated.
struct StopRequest {
    Termination termination = Termination::Cycle;
    std::uint32_t cycle_period = 0;
};

/// What an observer sees after each executed round.
struct RoundEvent {
    std::uint32_t round;                  ///< round just completed (>= 1)
    std::size_t changed;                  ///< number of recolorings this round
    std::span<const CellChange> changes;  ///< the exact changed cells
    const ColorField& colors;             ///< state after the round
};

class Observer {
  public:
    virtual ~Observer() = default;
    virtual void on_start(const ColorField& /*initial*/) {}
    virtual std::optional<StopRequest> on_round(const RoundEvent& /*event*/) {
        return std::nullopt;
    }
    virtual void on_finish(RunResult& /*result*/) {}
};

/// Target-color bookkeeping (paper Definitions 2-3, Figures 5/6): per-vertex
/// adoption rounds, per-round wavefront sizes, and monotonicity. Deposits
/// its data into RunResult::{k_time, newly_k, monotone} on finish. The
/// runner attaches one automatically when RunOptions::target is set.
class AdoptionTracker final : public Observer {
  public:
    explicit AdoptionTracker(Color target) noexcept : k_(target) {}

    void on_start(const ColorField& initial) override {
        k_time_.assign(initial.size(), kNeverK);
        std::uint32_t seeds = 0;
        for (std::size_t v = 0; v < initial.size(); ++v) {
            if (initial[v] == k_) {
                k_time_[v] = 0;
                ++seeds;
            }
        }
        newly_k_.assign(1, seeds);
        monotone_ = true;
    }

    std::optional<StopRequest> on_round(const RoundEvent& event) override {
        std::uint32_t newly = 0;
        for (const CellChange& ch : event.changes) {
            if (ch.after == k_) {
                k_time_[ch.v] = event.round;
                ++newly;
            } else if (ch.before == k_) {
                monotone_ = false;
                k_time_[ch.v] = kNeverK;
            }
        }
        newly_k_.push_back(newly);
        return std::nullopt;
    }

    void on_finish(RunResult& result) override {
        result.k_time = std::move(k_time_);
        result.newly_k = std::move(newly_k_);
        result.monotone = monotone_;
    }

    Color target() const noexcept { return k_; }
    bool monotone() const noexcept { return monotone_; }

  private:
    Color k_;
    std::vector<std::uint32_t> k_time_;
    std::vector<std::uint32_t> newly_k_;
    bool monotone_ = true;
};

/// Limit-cycle detection via an incrementally maintained position-keyed
/// XOR fingerprint (two independent 64-bit streams): each change costs two
/// mixes, so a round costs O(changed) instead of the seed driver's O(|V|)
/// full-state rehash. XOR-folding makes the fingerprint independent of the
/// order changes are reported in. A collision would merely terminate a run
/// early - and ~2^-128 per pair is negligible at our scales.
class CycleDetector final : public Observer {
  public:
    void on_start(const ColorField& initial) override {
        a_ = 0xcbf29ce484222325ULL;
        b_ = 0x9e3779b97f4a7c15ULL;
        for (std::size_t v = 0; v < initial.size(); ++v) fold(v, initial[v]);
        seen_.clear();
        seen_.emplace(a_, std::make_pair(b_, 0u));
        found_ = false;
        period_ = 0;
    }

    std::optional<StopRequest> on_round(const RoundEvent& event) override {
        for (const CellChange& ch : event.changes) {
            fold(ch.v, ch.before);  // XOR is its own inverse: remove old,
            fold(ch.v, ch.after);   // add new
        }
        const auto it = seen_.find(a_);
        if (it != seen_.end() && it->second.first == b_) {
            found_ = true;
            period_ = event.round - it->second.second;
            return StopRequest{Termination::Cycle, period_};
        }
        seen_.emplace(a_, std::make_pair(b_, event.round));
        return std::nullopt;
    }

    bool found() const noexcept { return found_; }
    std::uint32_t period() const noexcept { return period_; }

  private:
    static constexpr std::uint64_t mix(std::uint64_t z) noexcept {
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    void fold(std::size_t v, Color c) noexcept {
        const std::uint64_t key = (static_cast<std::uint64_t>(v) << 8) | c;
        a_ ^= mix(key + 0x9e3779b97f4a7c15ULL);
        b_ ^= mix(key * 0xda942042e4dd58b5ULL + 0x2545f4914f6cdd1dULL);
    }

    std::uint64_t a_ = 0, b_ = 0;
    std::unordered_map<std::uint64_t, std::pair<std::uint64_t, std::uint32_t>> seen_;
    bool found_ = false;
    std::uint32_t period_ = 0;
};

} // namespace dynamo
