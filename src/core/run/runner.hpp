// dynamo/core/run/runner.hpp
//
// The one run driver. Every simulation in the library - SMP on the three
// tori (packed full sweep or active-set fast path), arbitrary local rules,
// plurality on general graphs, temporal links - is an Engine stepped by
// run_to_terminal(), which owns the terminal-round semantics the seed code
// re-implemented in six places:
//
//   * rounds = number of rounds until the terminal condition FIRST held:
//     a run that quiesces on round r (zero changes) reports r-1, because
//     the state was already terminal before the no-op round; a run that
//     becomes monochromatic or repeats a state on round r reports r.
//   * an initially monochromatic field reports 0 rounds without stepping.
//   * the defensive cap (max_rounds, default 4*|V| + 64, far above every
//     bound the paper proves) reports the cap itself.
//
// Only the stepping loop is a template: the bookkeeping - census,
// classification, observer dispatch - is the RunTally, compiled once in
// core/run/runner.cpp however many engines the library instantiates.
//
// Per-round cost on top of the engine step is O(changed): the runner keeps
// an incremental color census for monochromatic detection (no O(|V|) scan
// per round) and observers fold the changed-cell list (no per-round field
// copies; the seed driver's target tracking copied the whole ColorField
// every round).
#pragma once

#include <array>
#include <concepts>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/coloring.hpp"
#include "core/run/backend.hpp"
#include "core/run/observer.hpp"
#include "core/run/result.hpp"
#include "util/parallel.hpp"

namespace dynamo {

struct RunOptions {
    /// Hard cap on rounds; 0 selects auto_round_cap(|V|) = 4*|V| + 64 (far
    /// above every bound the paper proves, see Theorems 7-8).
    std::uint32_t max_rounds = 0;

    /// When set, the result records per-vertex adoption times of this
    /// color, the per-round wavefront sizes, and monotonicity
    /// (Definition 3) via an automatically attached target tracker.
    std::optional<Color> target;

    /// Detect repeated states (limit cycles) via an automatically attached
    /// cycle detector (an incremental XOR fingerprint of the field).
    bool detect_cycles = true;

    /// Optional worker pool handed to every engine round; nullptr = serial.
    ThreadPool* pool = nullptr;

    /// Minimum vertices per parallel block (avoids threading toy grids).
    std::size_t parallel_grain = 1 << 14;

    /// Backend selector for simulate() and a registry rule's run (ignored
    /// when a caller drives run_to_terminal with an explicit engine).
    Backend backend = Backend::Auto;

    /// When false, a zero-change round is NOT terminal: time-varying rules
    /// (graph/temporal.hpp) may recolor again once links return, so only
    /// monochromatic states, observer stops, and the cap end the run.
    bool stop_on_quiescence = true;

    /// Additional observers, notified in order after the automatic ones
    /// (target tracker, cycle detector). Non-owning.
    std::vector<Observer*> observers;
};

/// Anything run_to_terminal can drive: one synchronous round per
/// step_collect(out, pool, grain), which returns the number of changed
/// vertices and appends exactly those cells to `out`, plus state access.
template <typename E>
concept Engine = requires(E& e, const E& ce, std::vector<CellChange>& out, ThreadPool* pool,
                          std::size_t grain) {
    { e.step_collect(out, pool, grain) } -> std::convertible_to<std::size_t>;
    { ce.colors() } -> std::convertible_to<const ColorField&>;
    { ce.round() } -> std::convertible_to<std::uint32_t>;
};

/// The automatic round cap: 4*|V| + 64, saturated at UINT32_MAX.
inline constexpr std::uint32_t auto_round_cap(std::size_t num_vertices) noexcept {
    constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
    return num_vertices > (kMax - 64) / 4 ? kMax
                                          : static_cast<std::uint32_t>(4 * num_vertices + 64);
}

/// Everything run_to_terminal decides, compiled once (core/run/runner.cpp):
/// the round cap, the color census, the terminal classification, observer
/// dispatch (the automatic target/cycle observers first, then
/// RunOptions::observers) and the RunResult. The engine-specific part - the
/// stepping loop - stays in the run_to_terminal template.
class RunTally {
  public:
    /// Validates `options`, takes the census of `initial` and notifies
    /// on_start. An initially monochromatic field finishes the run here, at
    /// `round` (the engine's current round). `options` must outlive the
    /// tally.
    RunTally(const ColorField& initial, std::uint32_t round, const RunOptions& options);
    ~RunTally();

    /// True while the run is neither finished nor at the cap.
    bool running(std::uint32_t round) const noexcept { return !done_ && round < cap_; }

    /// Folds one executed round: `round` is the engine's round after the
    /// step, `changes` its changed cells and `colors` the state after it.
    void record(std::uint32_t round, std::size_t changed, std::span<const CellChange> changes,
                const ColorField& colors);

    /// The run's result. A run still going ends RoundLimit at `round`.
    RunResult finish(std::uint32_t round, const ColorField& colors);

  private:
    class AdoptionTracker;  // RunOptions::target
    class CycleDetector;    // RunOptions::detect_cycles

    void end(Termination termination, std::uint32_t rounds, const ColorField& colors);

    const RunOptions& options_;
    std::uint32_t cap_;
    bool done_ = false;
    std::unique_ptr<AdoptionTracker> tracker_;
    std::unique_ptr<CycleDetector> cycles_;
    std::array<std::size_t, 256> counts_{};
    std::size_t distinct_ = 0;
    RunResult result_;
};

/// Run `engine` until a terminal behaviour (see Termination and the header
/// comment for the exact round accounting), notifying `options.observers`
/// plus the automatic target/cycle observers along the way.
template <Engine E>
RunResult run_to_terminal(E& engine, const RunOptions& options = {}) {
    RunTally tally(engine.colors(), engine.round(), options);
    std::vector<CellChange> changes;
    while (tally.running(engine.round())) {
        changes.clear();
        const std::size_t changed =
            engine.step_collect(changes, options.pool, options.parallel_grain);
        tally.record(engine.round(), changed, changes, engine.colors());
    }
    return tally.finish(engine.round(), engine.colors());
}

} // namespace dynamo
