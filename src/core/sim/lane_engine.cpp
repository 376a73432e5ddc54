// dynamo/core/sim/lane_engine.cpp
//
// The rule-independent half of the lane batch (core/sim/lane_engine.hpp):
// the neighbor table, the whole-word monochromatic test and the per-lane
// end bookkeeping, compiled once for every rule's rounds loop.
#include "core/sim/lane_engine.hpp"

#include <algorithm>
#include <bit>

namespace dynamo::sim {

LaneBatch::LaneBatch(const grid::Torus& torus, int planes, unsigned history)
    : torus_(torus), planes_(planes), cells_(torus.size()),
      slots_(std::max(history + 1, 2u)), neighbors_(cells_),
      states_(slots_ * cells_ * static_cast<std::size_t>(planes)) {
    const auto stride = static_cast<std::uint32_t>(planes);
    for (std::size_t v = 0; v < cells_; ++v) {
        const auto nb = torus.neighbors(static_cast<grid::VertexId>(v));
        for (std::size_t d = 0; d < grid::kDegree; ++d) neighbors_[v][d] = nb[d] * stride;
    }
}

void LaneBatch::clear() noexcept {
    std::fill_n(states_.begin(), cells_ * static_cast<std::size_t>(planes_), Word{0});
}

Word LaneBatch::monochromatic(const Word* all, const Word* any) const noexcept {
    // A lane is uniform in a plane when the bit is set in every cell or in
    // none, and monochromatic when it is uniform in every plane.
    Word mono = ~Word{0};
    for (int p = 0; p < planes_; ++p) mono &= all[p] | ~any[p];
    return mono;
}

Word LaneBatch::monochromatic(const Word* state) const noexcept {
    Word all[3] = {~Word{0}, ~Word{0}, ~Word{0}};
    Word any[3] = {0, 0, 0};
    for (std::size_t v = 0; v < cells_; ++v) {
        for (int p = 0; p < planes_; ++p) {
            all[p] &= state[v * static_cast<std::size_t>(planes_) + p];
            any[p] |= state[v * static_cast<std::size_t>(planes_) + p];
        }
    }
    return monochromatic(all, any);
}

void LaneBatch::end(Word lanes, Termination termination, std::uint32_t rounds,
                    const Word* state, Color counted, std::span<LaneOutcome> out) const {
    if (lanes == 0) return;
    const auto stride = static_cast<std::size_t>(planes_);
    for (Word rest = lanes; rest != 0; rest &= rest - 1) {
        LaneOutcome& o = out[static_cast<std::size_t>(std::countr_zero(rest))];
        o.ended = true;
        o.termination = termination;
        o.rounds = rounds;
        o.count = 0;
    }
    if (termination == Termination::Monochromatic) {
        // Cell 0 gives the color, and the count is all or nothing.
        for (Word rest = lanes; rest != 0; rest &= rest - 1) {
            const int l = std::countr_zero(rest);
            Color c = 0;
            for (int p = 0; p < planes_; ++p) c = static_cast<Color>(c | ((state[p] >> l) & 1u) << p);
            if (planes_ == 1) c = c ? kBlack : kWhite;
            LaneOutcome& o = out[static_cast<std::size_t>(l)];
            o.mono = c;
            o.count = c == counted ? static_cast<std::uint32_t>(cells_) : 0;
        }
        return;
    }
    // The cells of each lane that hold `counted`, one match word per cell.
    for (std::size_t v = 0; v < cells_; ++v) {
        const Word* cell = state + v * stride;
        Word match;
        if (planes_ == 1) {
            match = counted == kBlack ? cell[0] : counted == kWhite ? ~cell[0] : 0;
        } else {
            match = ~Word{0};
            for (int p = 0; p < planes_; ++p) match &= (counted >> p) & 1u ? cell[p] : ~cell[p];
        }
        for (Word rest = match & lanes; rest != 0; rest &= rest - 1) {
            ++out[static_cast<std::size_t>(std::countr_zero(rest))].count;
        }
    }
}

} // namespace dynamo::sim
