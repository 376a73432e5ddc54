// dynamo/core/sim/lane_engine.hpp
//
// The lane-sliced batch engine: up to 64 independent runs of one rule on
// one torus, stepped together. It transposes the bit-plane encoding
// (core/sim/bitpack.hpp): bit l of word v is cell v of lane l, so one word
// holds one cell of 64 fields, a round is one pass over the |V| cells, and
// every neighbor is another word index from Torus::neighbors. There are no
// lane shifts and no edge fix-ups, and the three topologies step the same
// way. The cell kernel is the bit-plane engine's BitplaneKernel<R>, which
// is bitwise and so does not care what a bit position means.
//
// It runs Monte-Carlo trials (analysis/montecarlo.cpp) and the exhaustive
// search's candidates (core/search/sharded.cpp): at the atlas's 8x8 and
// 12x12 sizes, and more so at a search's 3x3 and 4x4, a scalar run is
// dominated by per-run overhead, not by sweeping, and a lane round
// amortizes it over 64 runs.
//
// Each lane ends with RunTally's priority and round accounting
// (core/run/runner.hpp), checked per lane on whole-word masks fused into
// the sweep:
//
//   * a lane monochromatic at round 0 ends Monochromatic after 0 rounds;
//   * a round that changes nothing in a lane ends it at r - 1,
//     Monochromatic or FixedPoint;
//   * a lane monochromatic after round r ends Monochromatic at r;
//   * otherwise a lane whose state(r) equals state(r - j) for some
//     2 <= j <= H ends Cycle at r.
//
// The same sweep keeps, per lane, whether a cell holding the counted color
// ever recolored: LaneOutcome::monotone, which is RunResult::monotone of
// the scalar run targeting that color.
//
// H follows the rule's period bound (rule_period_bound): 2 for reversible
// bi-color rules, none for irreversible ones (their only repeat is a fixed
// point), and kUnboundedHistory for the rest. A run whose first repeat has
// period p > H can never match a state at most H rounds back (its states
// before the first repeat are distinct, and after it the trajectory repeats
// with period p), so the check cannot misfire: such a lane runs on to the
// lane cap and is reported live, and the caller re-runs its field on a
// scalar engine. Every ended lane's outcome is therefore the scalar run's
// (tests/test_run.cpp, LaneBatches.*).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/coloring.hpp"
#include "core/run/result.hpp"
#include "core/run/runner.hpp"
#include "core/sim/bitplane_engine.hpp"
#include "grid/torus.hpp"

namespace dynamo::sim {

/// How one lane's run ended: the fields of a RunResult a Monte-Carlo trial
/// keeps.
struct LaneOutcome {
    /// False: the lane was still running at the lane cap (or the run's
    /// round cap). Its other fields are unset; re-run its field on a scalar
    /// engine.
    bool ended = false;
    Termination termination = Termination::RoundLimit;
    std::uint32_t rounds = 0;
    Color mono = kUnset;       ///< the shared color of a Monochromatic end
    std::uint32_t count = 0;   ///< cells holding the counted color at the end
    /// No cell ever left the counted color: RunResult::monotone of the
    /// scalar run with the counted color as its target.
    bool monotone = true;

    friend bool operator==(const LaneOutcome&, const LaneOutcome&) = default;
};

/// States compared by the repeat check of a rule without a period bound
/// (smp, incremental): state(r) against state(r - 2) .. state(r - 6). The
/// period probe over random fields (ROADMAP) saw periods 4 and 6 for smp
/// and 4 for incremental; a longer first period falls back.
inline constexpr unsigned kUnboundedHistory = 6;

/// Rounds a batch steps before it reports its still-running lanes live.
inline constexpr std::uint32_t kDefaultLaneCap = 64;

/// The rule-independent half of a lane batch: the torus, its neighbor
/// table, and the states, of which the caller writes round 0 with put() or
/// round0().
/// LaneBatchT<R>::run steps it. Not for concurrent use.
class LaneBatch {
  public:
    static constexpr unsigned kLanes = 64;
    /// The largest color a multi-color rule's 3 planes hold (1..7).
    static constexpr Color kMaxColor = 7;
    /// Whether the lanes hold a `colors`-color palette of a (bi-color) rule.
    static constexpr bool holds(bool bicolor, Color colors) noexcept {
        return bicolor || colors <= kMaxColor;
    }

    virtual ~LaneBatch() = default;
    LaneBatch(const LaneBatch&) = delete;
    LaneBatch& operator=(const LaneBatch&) = delete;

    const grid::Torus& torus() const noexcept { return torus_; }
    int planes() const noexcept { return planes_; }

    /// Clears the round-0 state; put() only sets bits.
    void clear() noexcept;

    /// Writes color `c` of cell `v` into lane `lane` of the cleared
    /// round-0 state, under the rule's encoding: bit = (c == kBlack) for a
    /// bi-color rule, the bits of c (1..7) for the others.
    void put(unsigned lane, std::size_t v, Color c) noexcept {
        DYNAMO_ASSERT(lane < kLanes && v < cells_, "lane cell out of range");
        Word* cell = states_.data() + v * static_cast<std::size_t>(planes_);
        if (planes_ == 1) {
            cell[0] |= Word{c == kBlack} << lane;
            return;
        }
        DYNAMO_ASSERT(c >= 1 && c <= kMaxColor, "color outside the 3-plane encoding");
        for (int p = 0; p < planes_; ++p) cell[p] |= Word{(c >> p) & 1u} << lane;
    }

    /// Cell v's round-0 words, one per plane, bit l of each being lane l
    /// under put()'s encoding. The Monte-Carlo lane draw assigns them whole,
    /// one cell at a time, with no clear() first.
    Word* round0(std::size_t v) noexcept {
        DYNAMO_ASSERT(v < cells_, "cell out of range");
        return states_.data() + v * static_cast<std::size_t>(planes_);
    }

    /// Runs lanes [0, lanes) from the round-0 state, under the rule's
    /// RunOptions defaults (cycle detection on, automatic round cap), for at
    /// most `lane_cap` rounds. out[l] receives lane l's outcome, with
    /// `count` the number of its cells holding `counted` at the end and
    /// `monotone` whether none of them ever left it.
    virtual void run(unsigned lanes, std::uint32_t lane_cap, Color counted,
                     std::span<LaneOutcome> out) = 0;

  protected:
    /// `history` is the deepest state the repeat check compares with.
    LaneBatch(const grid::Torus& torus, int planes, unsigned history);

    /// State of round r: max(history + 1, 2) slots rotate, so a round
    /// writes over the one state no check reads any more.
    Word* slot(std::uint32_t round) noexcept {
        return states_.data() + (round % slots_) * cells_ * static_cast<std::size_t>(planes_);
    }

    /// Lanes whose every cell holds one color, given the per-plane AND and
    /// OR over all cells.
    Word monochromatic(const Word* all, const Word* any) const noexcept;
    /// The same, read from a whole state.
    Word monochromatic(const Word* state) const noexcept;

    /// Color `counted` under the rule's encoding: a cell's words w hold it
    /// in the lanes of valid & AND_p ~(w[p] ^ bits[p]). `valid` is zero for
    /// a color the encoding cannot hold, which no cell then matches.
    struct ColorKey {
        Word bits[3] = {};
        Word valid = 0;
    };
    ColorKey key_of(Color counted) const noexcept;

    /// Ends every lane of `lanes` with `termination` after `rounds`, `state`
    /// being its final state and `left` the lanes where a cell left the
    /// counted color.
    void end(Word lanes, Termination termination, std::uint32_t rounds, const Word* state,
             Color counted, Word left, std::span<LaneOutcome> out) const;

    const grid::Torus torus_;
    const int planes_;
    const std::size_t cells_;
    const unsigned slots_;
    /// Up, Down, Left, Right of every cell, as word offsets (cell * planes).
    std::vector<std::array<std::uint32_t, grid::kDegree>> neighbors_;
    std::vector<Word> states_;
};

/// The deepest state a lane batch of rule R compares with: H in the header
/// comment.
template <LocalRule R>
constexpr unsigned lane_history() noexcept {
    switch (rule_period_bound<R>()) {
        case PeriodBound::Two: return 2;
        case PeriodBound::FixedPoint: return 0;
        case PeriodBound::Unbounded: break;
    }
    return kUnboundedHistory;
}

/// The lane batch of rule R, comparing state(r) with states up to History
/// rounds back; see the header comment. Only tests pick a History of their
/// own, to make lanes outlive a shallower check.
template <LocalRule R, unsigned History = lane_history<R>()>
class LaneBatchT final : public LaneBatch {
    static_assert(kBitplaneSupported<R>, "rule has no word-parallel bit-plane kernel");

  public:
    using Rule = R;
    static constexpr int kPlanes = kBitplanePlanes<R>;
    static constexpr unsigned kHistory = History;

    explicit LaneBatchT(const grid::Torus& torus) : LaneBatch(torus, kPlanes, kHistory) {}

    /// The rounds loop, one definition per rule type (rules/registry.cpp).
    [[gnu::noinline]] void run(unsigned lanes, std::uint32_t lane_cap, Color counted,
                               std::span<LaneOutcome> out) override {
        DYNAMO_REQUIRE(lanes >= 1 && lanes <= kLanes && out.size() >= lanes,
                       "a lane batch runs 1..64 lanes");
        Word live = lanes == kLanes ? ~Word{0} : (Word{1} << lanes) - 1;
        for (unsigned l = 0; l < lanes; ++l) out[l] = LaneOutcome{};
        const std::uint32_t cap = std::min(lane_cap, auto_round_cap(cells_));
        const ColorKey key = key_of(counted);
        const Word initially_mono = live & monochromatic(slot(0));
        end(initially_mono, Termination::Monochromatic, 0, slot(0), counted, 0, out);
        live &= ~initially_mono;
        // Lanes where a cell holding `counted` (modulo key.valid) recolored.
        // No black cell recolors under an irreversible bi-color rule, so a
        // counted white is left in exactly the lanes that changed.
        constexpr bool kBlackAbsorbs = R::kIrreversible && kPlanes == 1;
        Word left = 0;

        for (std::uint32_t r = 1; live != 0 && r <= cap; ++r) {
            const Word* cur = slot(r - 1);
            Word* next = slot(r);
            // past[j] is state(r - j) for the checks 2 <= j <= depth; a
            // deeper slot holds some other state, compared but not read.
            const Word* past[kHistory + 1] = {};
            for (unsigned j = 2; j <= kHistory; ++j) past[j] = slot(r - j);
            const unsigned depth = std::min<std::uint32_t>(kHistory, r);

            Word changed = 0;
            Word all[kPlanes], any[kPlanes];
            Word differs[kHistory + 1] = {};
            for (int p = 0; p < kPlanes; ++p) {
                all[p] = ~Word{0};
                any[p] = 0;
            }
            for (std::size_t v = 0; v < cells_; ++v) {
                const auto& nb = neighbors_[v];
                const std::size_t w = v * kPlanes;
                Word out_words[kPlanes] = {};
                BitplaneKernel<R>::next_words(cur + w, cur + nb[0], cur + nb[1], cur + nb[2],
                                              cur + nb[3], out_words);
                Word moved = 0, held = ~Word{0};
                for (int p = 0; p < kPlanes; ++p) {
                    next[w + p] = out_words[p];
                    moved |= out_words[p] ^ cur[w + p];
                    if constexpr (!kBlackAbsorbs) held &= ~(cur[w + p] ^ key.bits[p]);
                    all[p] &= out_words[p];
                    any[p] |= out_words[p];
                    for (unsigned j = 2; j <= kHistory; ++j) {
                        differs[j] |= out_words[p] ^ past[j][w + p];
                    }
                }
                changed |= moved;
                if constexpr (!kBlackAbsorbs) left |= moved & held;
            }
            if constexpr (kBlackAbsorbs) left |= changed & ~key.bits[0];
            const Word lost = left & key.valid;

            const Word mono = monochromatic(all, any);
            // A round that changed nothing: the state was terminal at r - 1.
            const Word quiet = live & ~changed;
            end(quiet & mono, Termination::Monochromatic, r - 1, next, counted, lost, out);
            end(quiet & ~mono, Termination::FixedPoint, r - 1, next, counted, lost, out);
            live &= changed;
            end(live & mono, Termination::Monochromatic, r, next, counted, lost, out);
            live &= ~mono;
            Word repeats = 0;
            for (unsigned j = 2; j <= depth; ++j) repeats |= ~differs[j];
            end(live & repeats, Termination::Cycle, r, next, counted, lost, out);
            live &= ~repeats;
        }
    }
};

} // namespace dynamo::sim
