// dynamo/core/sim/hybrid_engine.hpp
//
// The engine behind Backend::Active, Backend::BitPlane and Backend::Auto:
// an active-set engine (core/sim/active_engine.hpp) and a bit-plane engine
// (core/sim/bitplane_engine.hpp) behind one step_collect, so the registry
// compiles one stepping loop per rule for the three backends.
//
// The two engines win in different regimes. A thin wavefront (the minimum
// dynamos of Theorems 7-8) costs the active engine O(frontier) per round;
// dense churn (majority dynamics from a random or collapsed coloring,
// where a quarter of the torus recolors every round) runs ~2x faster on
// the bit-plane engine's 64-cell limbs. The hand-over policy is fixed at
// construction:
//
//   * Policy::Active and Policy::BitPlane step one engine for the whole run;
//   * Policy::Adaptive (Backend::Auto) starts on the active engine and
//     decides after every round from that round's change count alone: a
//     round recoloring at least |V|/kDenseDivisor cells moves the run to
//     the bit-plane engine, and one recoloring fewer than
//     |V|/kThinDivisor moves it back. The gap between the two is the
//     hysteresis that keeps a run near the crossover from switching every
//     round.
//
// Active -> bit-plane packs the byte field, and the active engine's last
// change list, undone, becomes the bit-plane engine's previous state.
// Bit-plane -> active restarts the active engine from the mirror with
// every row dirty: one full byte round, always correct because the dirty
// set only has to be a superset. A run that reads no change lists steps
// step_facts(), whose bit-plane rounds do no per-cell work; such a round
// that hands back lists its changes (it is thin) for the next round's
// period-2 check.
// Both engines are bit-identical round for round, so a switch cannot
// change the trajectory, and the change count does not depend on the pool
// or grain, so neither does the switch: serial == pooled as before.
//
// The bit-plane encoding holds colors 1..7 (bi-color rules: 1..2), while
// the active engine takes any palette. An adaptive run checks the palette
// at hand-over time and stays on the active engine when the field does
// not fit; an explicit Policy::BitPlane run rejects it with pack_field's
// error, as the bit-plane engine always has.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/coloring.hpp"
#include "core/sim/active_engine.hpp"
#include "core/sim/bitplane_engine.hpp"
#include "grid/torus.hpp"
#include "util/parallel.hpp"

namespace dynamo::sim {

/// Hand-overs made by every adaptive engine in this process, per direction.
/// Tests read the difference around a run; nothing else depends on them.
struct HandoverCounts {
    std::uint64_t to_bitplane = 0;
    std::uint64_t to_active = 0;
};

namespace hybrid_detail {
inline std::atomic<std::uint64_t> to_bitplane{0};
inline std::atomic<std::uint64_t> to_active{0};
} // namespace hybrid_detail

inline HandoverCounts handover_counts() noexcept {
    return {hybrid_detail::to_bitplane.load(), hybrid_detail::to_active.load()};
}

template <LocalRule R>
class HybridEngineT {
  public:
    using Rule = R;  ///< the rule stepped; run_to_terminal reads its period bound

    enum class Policy : std::uint8_t { Active, BitPlane, Adaptive };

    /// A round recoloring at least |V| / kDenseDivisor cells hands an
    /// adaptive run to the bit-plane engine, and one recoloring fewer than
    /// |V| / kThinDivisor hands it back. Stepping both engines in lockstep
    /// (128^2 and 256^2 meshes; churn, wave and random starts; 1 and 3
    /// planes; 4-vCPU Xeon, g++ 12.2) put the crossover near 1 % of |V|
    /// changed in the previous round. At 1/32 a bit-plane round is 1.4-2.9x
    /// cheaper, which repays the pack within a few rounds. The hand-back's
    /// full byte round costs 15-27 bit-plane rounds, so it waits for rounds
    /// under 1/256, where an active round costs at most ~0.4 of a bit-plane
    /// one.
    static constexpr std::size_t kDenseDivisor = 32;
    static constexpr std::size_t kThinDivisor = 256;

    HybridEngineT(const grid::Torus& torus, ColorField initial, Policy policy)
        : torus_(&torus), policy_(policy), on_bitplane_(policy == Policy::BitPlane) {
        if (on_bitplane_) {
            bitplane_.emplace(torus, std::move(initial));
        } else {
            active_.emplace(torus, std::move(initial));
        }
    }

    /// One synchronous round on the current engine, appending its changed
    /// cells to `out`, then (adaptive runs) the hand-over decision for the
    /// next one. Always inlined: it is the body of run_to_terminal's loop,
    /// where a thin round costs little more than the call.
    [[gnu::always_inline]] std::size_t step_collect(std::vector<CellChange>& out,
                                                    ThreadPool* pool = nullptr,
                                                    std::size_t grain = 1 << 14) {
        ++round_;
        if (on_bitplane_) {
            const std::size_t changed = bitplane_->step_collect(out, pool, grain);
            if (hands_back(changed)) to_active();
            return changed;
        }
        const std::size_t first = out.size();
        const std::size_t changed = active_->step_collect(out, pool, grain);
        if (policy_ == Policy::Adaptive && changed * kDenseDivisor >= torus_->size()) {
            to_bitplane(std::span<const CellChange>(out).subspan(first));
        }
        return changed;
    }

    /// One round for a run that reads no change lists. On the bit-plane
    /// engine it does no per-cell work: the count is the sweep's and the
    /// two tests of RoundFacts read whole limbs. On the active engine,
    /// where lists cost nothing, it steps nothing and returns nullopt: the
    /// caller steps step_collect. A hand-back writes the round's changes -
    /// fewer than |V| / kThinDivisor - to `out`, so the first active round
    /// after it can still compare state(t) with state(t-2) through two
    /// lists. A round that changes nothing or leaves the field
    /// monochromatic ends the run, so it hands nothing back (a run that
    /// steps on past quiescence stays on the bit-plane engine). Kept out
    /// of line, so the list path's loop in run_to_terminal compiles as it
    /// would without it.
    [[gnu::noinline]] std::optional<RoundFacts> step_facts(std::vector<CellChange>& out,
                                                           ThreadPool* pool = nullptr,
                                                           std::size_t grain = 1 << 14) {
        if (!on_bitplane_) return std::nullopt;
        ++round_;
        BitplaneEngineT<R>& engine = *bitplane_;
        const RoundFacts facts{engine.step(pool, grain), engine.monochromatic(),
                               engine.repeats_two_back()};
        if (facts.changed != 0 && !facts.monochromatic && hands_back(facts.changed)) {
            engine.collect_last_round(out);
            to_active();
        }
        return facts;
    }

    const ColorField& colors() const {
        return on_bitplane_ ? bitplane_->colors() : active_->colors();
    }
    const grid::Torus& torus() const noexcept { return *torus_; }
    std::uint32_t round() const noexcept { return round_; }

  private:
    bool hands_back(std::size_t changed) const noexcept {
        return policy_ == Policy::Adaptive && changed * kThinDivisor < torus_->size();
    }

    /// Packs the active engine's state; `last_round`, the round that led to
    /// it, becomes the bit-plane engine's history.
    void to_bitplane(std::span<const CellChange> last_round) {
        const ColorField& field = active_->colors();
        if (!packable(field, kBitplanePlanes<R>)) return;
        if (bitplane_) {
            bitplane_->reset(field);
        } else {
            bitplane_.emplace(*torus_, field);
        }
        bitplane_->seed_history(last_round);
        on_bitplane_ = true;
        ++hybrid_detail::to_bitplane;
    }

    void to_active() {
        active_->reset(bitplane_->colors());
        on_bitplane_ = false;
        ++hybrid_detail::to_active;
    }

    const grid::Torus* torus_;
    Policy policy_;
    std::optional<ActiveEngineT<R>> active_;      ///< absent under Policy::BitPlane
    std::optional<BitplaneEngineT<R>> bitplane_;  ///< adaptive: built on the first hand-over
    bool on_bitplane_;                            ///< which engine steps next
    std::uint32_t round_ = 0;
};

} // namespace dynamo::sim
