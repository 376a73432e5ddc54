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
// classification, observer dispatch, repeat detection - is the RunTally,
// compiled once in core/run/runner.cpp however many engines the library
// instantiates.
//
// Repeated states (RunOptions::detect_cycles) are found by the cheapest
// check the rule's period bound allows. The bound is a rule trait that
// run_to_terminal reads through the engine type (engine_period_bound):
//
//   * a reversible bi-color rule (majority-prefer-black, strong-majority
//     and its alias) is a synchronous threshold network with symmetric
//     weights - a torus adjacency is symmetric, and on thin tori a
//     parallel edge is weight 2 - so every limit cycle has period 1 or 2
//     (Goles & Olivos, Discrete Math. 30, 1980; Poljak & Sura,
//     Combinatorica 3, 1983). The first repeat of a run is then
//     state(t) == state(t-2), which holds exactly when round t undoes
//     round t-1's changes: an O(changed) comparison of two change lists;
//   * an irreversible rule (threshold-*, and the names aliased to them)
//     is monotone, so its only repeat is a fixed point, which the
//     quiescence check reports first: no detector at all;
//   * every other engine and rule - smp, incremental, the reference
//     BasicSyncEngine (Backend::Generic), the graph engines - keeps the
//     hash detector, an incremental fingerprint of the whole field looked
//     up in a table of every state seen. It is the oracle the two cheap
//     checks are tested against (tests/test_run.cpp).
//
// Both cheap checks stop at the round the hash detector stops at, with the
// same period, so the RunResult does not depend on the check. The premise
// is checked rather than assumed: a field holding a color other than 1 and
// 2 gets the hash detector under any rule.
//
// Change lists are built only for a consumer. A run with a target, a
// caller observer or the hash detector reads every round's changed cells:
// each round hands the tally its CellChange list, and the bookkeeping on
// top of the engine step is O(changed) - an incremental color census for
// monochromatic detection (no O(|V|) scan per round), the period-2 check,
// and observers folding the list (no per-round field copies). Any other
// run - a bi-color rule's with the period-2 check or no check at all -
// reads nothing per cell, so an engine that can skip that work
// (sim::HybridEngineT on its bit-plane engine) reports RoundFacts instead:
// the change count its sweep computes, and whole-limb tests for
// "monochromatic" and state(t) == state(t-2). Such a round costs one sweep
// plus O(|V|/64), and the byte field is unpacked only when the run ends or
// the engine hands back. The tally asks once per run which kind it wants
// (RunTally::wants_changes) and takes both kinds of round, so the checks
// hold across hand-overs: the active engine's last list becomes the
// bit-plane engine's packed history, a hand-back lists its thin last round
// for the next list round to compare with, and the census is taken again
// on the first list round after facts rounds.
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

    /// Detect repeated states (limit cycles): the run ends Cycle on the
    /// first round whose state was seen before. Which check does it
    /// follows from the rule (see the header comment): reversible bi-color
    /// rules compare state(t) with state(t-2), irreversible rules need no
    /// check beyond quiescence, and every other rule or engine keeps a hash
    /// fingerprint of every state seen.
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
    /// (target tracker, repeat check). Non-owning. Any observer makes the
    /// run list every round's changed cells (see the header comment).
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

/// An engine that can also step a round without per-cell work:
/// step_facts(out, pool, grain) steps one and reports its RoundFacts, or
/// returns nullopt without stepping when this round must be listed (then
/// the caller steps step_collect). Whenever the next round will be listed,
/// a facts round leaves its changed cells in `out`.
template <typename E>
concept ReportsRoundFacts = requires(E& e, std::vector<CellChange>& out, ThreadPool* pool,
                                     std::size_t grain) {
    { e.step_facts(out, pool, grain) } -> std::same_as<std::optional<RoundFacts>>;
};

/// The automatic round cap: 4*|V| + 64, saturated at UINT32_MAX.
inline constexpr std::uint32_t auto_round_cap(std::size_t num_vertices) noexcept {
    constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
    return num_vertices > (kMax - 64) / 4 ? kMax
                                          : static_cast<std::uint32_t>(4 * num_vertices + 64);
}

/// The longest limit cycle a rule can enter, which picks the RunTally's
/// repeat check (see the header comment).
enum class PeriodBound : std::uint8_t {
    Unbounded,   ///< any period: the hash detector
    Two,         ///< period 1 or 2: compare state(t) with state(t-2)
    FixedPoint,  ///< monotone: a fixed point is the only repeat, and
                 ///< quiescence reports it - no detector
};

/// The period bound of a LocalRule, from its metadata: every bi-color rule
/// is a symmetric threshold rule (the LocalRule contract, core/sim/
/// local_rule.hpp), so its period is at most 2, and an irreversible one is
/// also monotone. Any other rule is Unbounded.
template <typename R>
constexpr PeriodBound rule_period_bound() noexcept {
    if constexpr (R::kMaxColors != 2) {
        return PeriodBound::Unbounded;
    } else {
        return R::kIrreversible ? PeriodBound::FixedPoint : PeriodBound::Two;
    }
}

/// The period bound of what an engine steps. The engines a registry rule's
/// run steps (sim::HybridEngineT, sim::PackedEngineT) name their LocalRule
/// as E::Rule, whose bound it is. Any other engine - the reference
/// BasicSyncEngine, the graph engines - is Unbounded.
template <typename E>
constexpr PeriodBound engine_period_bound() noexcept {
    if constexpr (!requires { typename E::Rule; }) {
        return PeriodBound::Unbounded;
    } else {
        return rule_period_bound<typename E::Rule>();
    }
}

/// Everything run_to_terminal decides, compiled once (core/run/runner.cpp):
/// the round cap, the color census, the terminal classification, the
/// repeat check, observer dispatch (the automatic target/cycle observers
/// first, then RunOptions::observers) and the RunResult. The
/// engine-specific part - the stepping loop - stays in the run_to_terminal
/// template.
class RunTally {
  public:
    /// Validates `options`, takes the census of `initial`, picks the repeat
    /// check from `bound` and notifies on_start. An initially monochromatic
    /// field finishes the run here, at `round` (the engine's current
    /// round). `options` must outlive the tally.
    RunTally(const ColorField& initial, std::uint32_t round, const RunOptions& options,
             PeriodBound bound);
    ~RunTally();

    /// True while the run is neither finished nor at the cap.
    bool running(std::uint32_t round) const noexcept { return !done_ && round < cap_; }

    /// Does anything on this run read per-cell changes: a target, the hash
    /// detector or a caller observer? If not, the run may record facts.
    bool wants_changes() const noexcept {
        return tracker_ || cycles_ || !options_.observers.empty();
    }

    /// The empty list the next round appends its changed cells to. The
    /// tally keeps the two latest rounds' lists, so the period-2 check
    /// compares them without copying either.
    std::vector<CellChange>& next_changes() noexcept {
        latest_ ^= 1;
        changes_[latest_].clear();
        return changes_[latest_];
    }

    /// Folds one executed round: `round` is the engine's round after the
    /// step, `changed` its change count, the list next_changes() handed
    /// out its changed cells, and `colors` the state after it.
    void record(std::uint32_t round, std::size_t changed, const ColorField& colors);

    /// Folds one round an engine reported as RoundFacts, for a run that
    /// does not want changes: the count, quiescence, the monochromatic
    /// test and the period-2 check, with no per-cell work.
    void record_facts(std::uint32_t round, const RoundFacts& facts);

    /// The run's result, with `colors` the final state. A run still going
    /// ends RoundLimit at `round`.
    RunResult finish(std::uint32_t round, const ColorField& colors);

  private:
    class AdoptionTracker;  // RunOptions::target
    class CycleDetector;    // RunOptions::detect_cycles, PeriodBound::Unbounded
    class PeriodTwoCheck;   // RunOptions::detect_cycles, PeriodBound::Two

    void take_census(const ColorField& colors);
    void end(Termination termination, std::uint32_t rounds);

    const RunOptions& options_;
    std::uint32_t cap_;
    bool done_ = false;
    std::unique_ptr<AdoptionTracker> tracker_;
    std::unique_ptr<CycleDetector> cycles_;
    std::unique_ptr<PeriodTwoCheck> period_two_;
    std::array<std::vector<CellChange>, 2> changes_;  ///< this round's and the last
    unsigned latest_ = 1;                             ///< index of this round's list
    std::array<std::size_t, 256> counts_{};
    std::size_t distinct_ = 0;
    bool census_stale_ = false;  ///< facts rounds since the last census
    RunResult result_;
};

/// Run `engine` until a terminal behaviour (see Termination and the header
/// comment for the exact round accounting), notifying `options.observers`
/// plus the automatic target/cycle observers along the way. Kept out of
/// line, so the library holds one stepping loop per engine type whatever
/// its callers inline (CI counts the hybrid engine's).
template <Engine E>
[[gnu::noinline]] RunResult run_to_terminal(E& engine, const RunOptions& options = {}) {
    RunTally tally(engine.colors(), engine.round(), options, engine_period_bound<E>());
    const bool lists = tally.wants_changes();
    while (tally.running(engine.round())) {
        std::vector<CellChange>& changes = tally.next_changes();
        if constexpr (ReportsRoundFacts<E>) {
            if (!lists) {
                const std::optional<RoundFacts> facts =
                    engine.step_facts(changes, options.pool, options.parallel_grain);
                if (facts) {
                    tally.record_facts(engine.round(), *facts);
                    continue;
                }
            }
        }
        const std::size_t changed =
            engine.step_collect(changes, options.pool, options.parallel_grain);
        tally.record(engine.round(), changed, engine.colors());
    }
    return tally.finish(engine.round(), engine.colors());
}

} // namespace dynamo
