// dynamo/core/run/runner.cpp
//
// The run loop's bookkeeping (RunTally, runner.hpp) and the automatic
// observers RunOptions switches on: target tracking and the two repeat
// checks, the hash detector and the period-2 check. They are called
// directly, ahead of RunOptions::observers.
#include "core/run/runner.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "core/transform.hpp"
#include "util/assert.hpp"

namespace dynamo {

/// Target-color bookkeeping (paper Definitions 2-3, Figures 5/6): per-vertex
/// adoption rounds, per-round wavefront sizes, and monotonicity. Deposits
/// its data into RunResult::{k_time, newly_k, monotone} on finish.
class RunTally::AdoptionTracker {
  public:
    explicit AdoptionTracker(Color target) noexcept : k_(target) {}

    void on_start(const ColorField& initial) {
        k_time_.assign(initial.size(), kNeverK);
        std::uint32_t seeds = 0;
        for (std::size_t v = 0; v < initial.size(); ++v) {
            if (initial[v] == k_) {
                k_time_[v] = 0;
                ++seeds;
            }
        }
        newly_k_.assign(1, seeds);
    }

    void on_round(const RoundEvent& event) {
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
    }

    void on_finish(RunResult& result) {
        result.k_time = std::move(k_time_);
        result.newly_k = std::move(newly_k_);
        result.monotone = monotone_;
    }

  private:
    Color k_;
    std::vector<std::uint32_t> k_time_;
    std::vector<std::uint32_t> newly_k_;
    bool monotone_ = true;
};

/// Limit-cycle detection for any period, via an incrementally maintained
/// position-keyed XOR fingerprint (two independent 64-bit streams) looked
/// up in a table of every state seen: each change costs two mixes, so a
/// round costs O(changed) plus one lookup instead of the seed driver's
/// O(|V|) full-state rehash. XOR-folding makes the fingerprint independent
/// of the order changes are reported in. A collision would merely
/// terminate a run early - and ~2^-128 per pair is negligible at our
/// scales.
class RunTally::CycleDetector {
  public:
    void on_start(const ColorField& initial, std::uint32_t round) {
        for (std::size_t v = 0; v < initial.size(); ++v) fold(v, initial[v]);
        seen_.emplace(a_, std::make_pair(b_, round));
    }

    std::optional<StopRequest> on_round(const RoundEvent& event) {
        for (const CellChange& ch : event.changes) {
            fold(ch.v, ch.before);  // XOR is its own inverse: remove old,
            fold(ch.v, ch.after);   // add new
        }
        const auto it = seen_.find(a_);
        if (it != seen_.end() && it->second.first == b_) {
            return StopRequest{Termination::Cycle, event.round - it->second.second};
        }
        seen_.emplace(a_, std::make_pair(b_, event.round));
        return std::nullopt;
    }

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

    std::uint64_t a_ = 0xcbf29ce484222325ULL;
    std::uint64_t b_ = 0x9e3779b97f4a7c15ULL;
    std::unordered_map<std::uint64_t, std::pair<std::uint64_t, std::uint32_t>> seen_;
};

/// The repeat check of a run whose every limit cycle has period 1 or 2
/// (PeriodBound::Two). Its first repeat is then state(t) == state(t-2), and
/// that holds exactly when round t undoes round t-1: the same cells
/// change, each back to the color it had before round t-1. A cell that
/// changes in neither round keeps its color across both, and a cell that
/// changes in only one of them differs between t-2 and t. Period 1 is
/// quiescence, which the tally reports before asking.
class RunTally::PeriodTwoCheck {
  public:
    /// Does `now` (round t's changes) undo `last` (round t-1's)? Equal
    /// counts are the O(1) pre-filter. Engines report changes in a stable
    /// order (ascending, or per dirty span), so an undoing round usually
    /// matches entry by entry; since the order is unspecified, a mismatch
    /// is settled on sorted copies.
    bool undoes(std::span<const CellChange> now, std::span<const CellChange> last) {
        if (now.size() != last.size()) return false;
        if (std::equal(now.begin(), now.end(), last.begin(), undoes_one)) return true;
        now_.assign(now.begin(), now.end());
        last_.assign(last.begin(), last.end());
        std::sort(now_.begin(), now_.end(), by_vertex);
        std::sort(last_.begin(), last_.end(), by_vertex);
        return std::equal(now_.begin(), now_.end(), last_.begin(), undoes_one);
    }

  private:
    static bool undoes_one(const CellChange& now, const CellChange& last) noexcept {
        return now.v == last.v && now.before == last.after && now.after == last.before;
    }
    static bool by_vertex(const CellChange& a, const CellChange& b) noexcept {
        return a.v < b.v;
    }

    std::vector<CellChange> now_, last_;  ///< sort scratch, reused across rounds
};

RunTally::RunTally(const ColorField& initial, std::uint32_t round, const RunOptions& options,
                   PeriodBound bound)
    : options_(options),
      cap_(options.max_rounds != 0 ? options.max_rounds : auto_round_cap(initial.size())) {
    DYNAMO_REQUIRE(!initial.empty(), "cannot run an empty field");
    // stop_on_quiescence = false declares a time-varying rule, under which
    // a repeated state proves nothing (the rule may act differently next
    // round) - cycle detection would misread a quiescent round as a
    // period-1 cycle. Reject the inconsistent combination loudly.
    DYNAMO_REQUIRE(options.stop_on_quiescence || !options.detect_cycles,
                   "detect_cycles needs a time-invariant rule; disable it when "
                   "stop_on_quiescence is false");

    // Incremental color census: monochromatic detection is O(changed) per
    // round instead of a full-field scan.
    take_census(initial);

    // Automatic bookkeeping first, then the caller's observers.
    if (options.target) {
        tracker_ = std::make_unique<AdoptionTracker>(*options.target);
        tracker_->on_start(initial);
    }
    if (options.detect_cycles) {
        // A period bound is a statement about bi-color fields; on any other
        // field the hash detector decides.
        if (counts_[kWhite] + counts_[kBlack] != initial.size()) bound = PeriodBound::Unbounded;
        switch (bound) {
            case PeriodBound::Unbounded:
                cycles_ = std::make_unique<CycleDetector>();
                cycles_->on_start(initial, round);
                break;
            case PeriodBound::Two: period_two_ = std::make_unique<PeriodTwoCheck>(); break;
            case PeriodBound::FixedPoint: break;
        }
    }
    for (Observer* ob : options.observers) ob->on_start(initial);

    // Degenerate but legal: an initially monochromatic field has already
    // reached the configuration.
    if (distinct_ == 1) end(Termination::Monochromatic, round);
}

RunTally::~RunTally() = default;

void RunTally::take_census(const ColorField& colors) {
    counts_.fill(0);
    distinct_ = 0;
    for (const Color c : colors) {
        if (counts_[c]++ == 0) ++distinct_;
    }
}

void RunTally::record(std::uint32_t round, std::size_t changed, const ColorField& colors) {
    const std::span<const CellChange> changes = changes_[latest_];
    if (census_stale_) {
        // The first listed round after facts rounds (an engine hand-back):
        // the census is taken again, once.
        take_census(colors);
        census_stale_ = false;
    } else {
        std::size_t distinct = distinct_;  // a local: the counts_ stores cannot alias it
        for (const CellChange& ch : changes) {
            if (--counts_[ch.before] == 0) --distinct;
            if (counts_[ch.after]++ == 0) ++distinct;
        }
        distinct_ = distinct;
    }

    if (changed == 0 && options_.stop_on_quiescence) {
        // The state was already terminal before this no-op round.
        end(distinct_ == 1 ? Termination::Monochromatic : Termination::FixedPoint, round - 1);
        return;
    }
    result_.total_recolorings += changed;

    // The first stop requested wins; the repeat check asks before the
    // caller's observers.
    const RoundEvent event{round, changed, changes, colors};
    if (tracker_) tracker_->on_round(event);
    std::optional<StopRequest> stop;
    if (cycles_) stop = cycles_->on_round(event);
    if (period_two_ && period_two_->undoes(changes, changes_[latest_ ^ 1])) {
        stop = StopRequest{Termination::Cycle, 2};
    }
    for (Observer* ob : options_.observers) {
        auto request = ob->on_round(event);
        if (request && !stop) stop = request;
    }

    // Monochromatic wins over observer stops, matching the seed driver's
    // check order (mono before cycle lookup).
    if (distinct_ == 1) {
        end(Termination::Monochromatic, round);
    } else if (stop) {
        result_.cycle_period = stop->cycle_period;
        end(stop->termination, round);
    }
}

void RunTally::record_facts(std::uint32_t round, const RoundFacts& facts) {
    census_stale_ = true;
    if (facts.changed == 0 && options_.stop_on_quiescence) {
        end(facts.monochromatic ? Termination::Monochromatic : Termination::FixedPoint,
            round - 1);
        return;
    }
    result_.total_recolorings += facts.changed;
    // The same priority as record(): monochromatic first, then the repeat.
    if (facts.monochromatic) {
        end(Termination::Monochromatic, round);
    } else if (period_two_ && facts.repeats_two_back) {
        result_.cycle_period = 2;
        end(Termination::Cycle, round);
    }
}

RunResult RunTally::finish(std::uint32_t round, const ColorField& colors) {
    if (!done_) end(Termination::RoundLimit, round);
    if (result_.termination == Termination::Monochromatic) result_.mono = colors.front();
    result_.final_colors = colors;
    if (tracker_) tracker_->on_finish(result_);
    for (Observer* ob : options_.observers) ob->on_finish(result_);
    return std::move(result_);
}

void RunTally::end(Termination termination, std::uint32_t rounds) {
    done_ = true;
    result_.termination = termination;
    result_.rounds = rounds;
}

} // namespace dynamo
