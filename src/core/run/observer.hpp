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
//   on_finish(result)   once, with the mutable RunResult, after the
//                       runner's own target tracker has deposited its
//                       fields.
//
// The order of changes within a round is unspecified (the active-set
// engine reports per span, not globally sorted), so observers must fold
// changes order-independently. The target tracker and repeat check that
// RunOptions::target and RunOptions::detect_cycles switch on are private
// to core/run/runner.cpp and run ahead of every Observer; the observers
// live with their layer, so including the run API never drags io/ or
// analysis/ into a TU: analysis/census_series.hpp (per-round
// entropy/dominance series) and io/frame_dumper.hpp (PPM frame writer).
#pragma once

#include <cstdint>
#include <optional>
#include <span>

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

} // namespace dynamo
