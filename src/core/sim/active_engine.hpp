// dynamo/core/sim/active_engine.hpp
//
// Active-set fast path of the packed engine: after the first full round,
// only vertices whose neighborhood changed in the previous round can
// change in this one, so the sweep shrinks from O(|V|) to O(frontier).
// For dynamo runs the frontier is a thin wave (Theorems 7-8: O(max(m,n))
// cells per round on an O(mn) torus), making this asymptotically faster
// for large tori.
//
// The active set is tracked as a short list of dirty column segments per
// row (up to kMaxSegments, sorted and disjoint) rather than a per-vertex
// queue: a changed cell widens a segment of its own row and of the rows
// holding its neighbors. Segments are a superset of the exact dirty
// set - cells within kSlack columns of a dirty cell may be re-evaluated
// too, and when a row collects more than kMaxSegments disjoint fronts the
// nearest two merge - which keeps the hot loop on the contiguous stencil
// kernel of core/sim/kernels.hpp instead of scattered per-vertex gathers,
// and the bookkeeping O(changed) per round with no hashing or sorting.
// The segmented list (vs the single span per row it replaces) is what
// keeps independent waves straddling the column wrap seam, or several
// disjoint fronts per row, from widening the evaluation window to ~n.
//
// Stepping is pool-aware: phase 1 (segment evaluation, disjoint reads
// from cur_ / writes to next_) partitions the active-row list into
// contiguous bands, one pool task per band; phase 2 (commit + marking,
// which appends to shared structures) stays serial, so trajectories and
// change lists are bit-identical for any pool/grain combination - and to
// the full sweep of the same rule (property-tested in
// tests/test_frontier.cpp, tests/test_sim_packed.cpp, tests/test_run.cpp,
// and per-rule in tests/test_rules.cpp). The bookkeeping is rule-agnostic
// - "only vertices whose neighborhood changed can change" holds for every
// deterministic local rule - so the engine is a template over the
// LocalRule.
#pragma once

#include <cstdint>
#include <vector>

#include "core/coloring.hpp"
#include "core/sim/sweep.hpp"
#include "grid/torus.hpp"
#include "util/parallel.hpp"

namespace dynamo::sim {

template <LocalRule R>
class ActiveEngineT {
  public:
    /// Dirty segments tracked per row; a row collecting more disjoint
    /// fronts merges the nearest two. Four covers the paper's scenarios
    /// (a wave has two fronts per row, plus wrap spill).
    static constexpr std::uint32_t kMaxSegments = 4;
    /// Two dirty cells within this many columns share one segment; the
    /// cells between are harmlessly re-evaluated (superset semantics).
    static constexpr std::uint32_t kSlack = 32;

    ActiveEngineT(const grid::Torus& torus, ColorField initial)
        : torus_(&torus), cur_(std::move(initial)), next_(cur_.size()) {
        require_complete(torus, cur_);
        const std::size_t slots = static_cast<std::size_t>(torus.rows()) * kMaxSegments;
        seg_lo_.resize(slots);
        seg_hi_.resize(slots);
        nseg_lo_.resize(slots);
        nseg_hi_.resize(slots);
        nseg_cnt_.assign(torus.rows(), 0);
        mark_everything();
    }

    /// Rewind to round 0 from `initial` on the same torus, reusing the
    /// buffers. Every row is dirty again, so the next round is one full
    /// byte round - always correct, as the dirty set only has to be a
    /// superset.
    void reset(const ColorField& initial) {
        require_complete(*torus_, initial);
        cur_.assign(initial.begin(), initial.end());
        mark_everything();  // nseg_cnt_ is all zero between rounds
        round_ = 0;
    }

    /// One synchronous round over the active segments; returns the number
    /// of vertices that changed color. Deterministic for any pool/grain.
    std::size_t step(ThreadPool* pool = nullptr, std::size_t grain = 1 << 14) {
        return step_impl(nullptr, pool, grain);
    }

    /// step() that also appends the changed cells to `out` - free here, as
    /// phase 2 already walks exactly those cells. Order is per-segment in
    /// row activation order, not globally sorted by vertex id.
    std::size_t step_collect(std::vector<CellChange>& out, ThreadPool* pool = nullptr,
                             std::size_t grain = 1 << 14) {
        return step_impl(&out, pool, grain);
    }

    const ColorField& colors() const noexcept { return cur_; }
    const grid::Torus& torus() const noexcept { return *torus_; }
    std::uint32_t round() const noexcept { return round_; }

    /// Cells scheduled for re-evaluation next round (segment cells, a
    /// superset of the exact dirty set). 0 iff the state is a fixed point.
    std::size_t frontier_size() const noexcept {
        std::size_t total = 0;
        for (const std::uint32_t i : active_rows_) {
            const std::size_t base = static_cast<std::size_t>(i) * kMaxSegments;
            for (std::uint32_t s = 0; s < seg_cnt_[i]; ++s) {
                total += seg_hi_[base + s] - seg_lo_[base + s];
            }
        }
        return total;
    }

  private:
    /// Make every row active with one full segment (round 0 evaluates
    /// everything).
    void mark_everything() {
        const std::uint32_t m = torus_->rows();
        seg_cnt_.assign(m, 1);
        active_rows_.resize(m);
        for (std::uint32_t i = 0; i < m; ++i) {
            seg_lo_[i * kMaxSegments] = 0;
            seg_hi_[i * kMaxSegments] = torus_->cols();
            active_rows_[i] = i;
        }
    }

    std::size_t step_impl(std::vector<CellChange>* out, ThreadPool* pool, std::size_t grain) {
        const std::uint32_t n = torus_->cols();

        // Phase 1: evaluate every active segment into next_. All reads come
        // from cur_ and writes land in disjoint rows, so the active-row
        // list splits into contiguous bands, one pool task per band - the
        // usual synchronous double-buffered round restricted to cells
        // whose neighborhood may have changed.
        const std::size_t row_grain = std::max<std::size_t>(1, grain / std::max(1u, n));
        parallel_for_blocks(pool, active_rows_.size(), row_grain,
                            [&](std::size_t lo, std::size_t hi) {
                                for (std::size_t a = lo; a < hi; ++a) {
                                    const std::uint32_t i = active_rows_[a];
                                    const std::size_t base =
                                        static_cast<std::size_t>(i) * kMaxSegments;
                                    for (std::uint32_t s = 0; s < seg_cnt_[i]; ++s) {
                                        detail::sweep_row_window<R>(*torus_, cur_.data(),
                                                                    next_.data(), i,
                                                                    seg_lo_[base + s],
                                                                    seg_hi_[base + s]);
                                    }
                                }
                            });

        // Phase 2: commit changed cells and mark them + their neighbors
        // dirty for the next round (the adjacency is symmetric: Up/Down and
        // Left/Right are mutually inverse links in all three topologies).
        // Serial on purpose: marking appends to shared lists, and the
        // resulting activation order is part of the determinism contract.
        std::size_t changed = 0;
        next_active_rows_.clear();
        for (const std::uint32_t i : active_rows_) {
            const std::size_t rbase = static_cast<std::size_t>(i) * n;
            const std::size_t base = static_cast<std::size_t>(i) * kMaxSegments;
            const RowLinks links = row_links(*torus_, i);
            for (std::uint32_t s = 0; s < seg_cnt_[i]; ++s) {
                for (std::uint32_t j = seg_lo_[base + s]; j < seg_hi_[base + s]; ++j) {
                    const std::size_t v = rbase + j;
                    if (next_[v] == cur_[v]) continue;
                    ++changed;
                    if (out) out->push_back({static_cast<grid::VertexId>(v), cur_[v], next_[v]});
                    cur_[v] = next_[v];
                    mark_with_neighbors(i, j, links);
                }
            }
        }

        // Rotate: freshly marked segments become current, and the rows we
        // hand over as "next" are reset to empty so the swap stays
        // O(active), not O(m).
        for (const std::uint32_t i : active_rows_) seg_cnt_[i] = 0;
        seg_lo_.swap(nseg_lo_);
        seg_hi_.swap(nseg_hi_);
        seg_cnt_.swap(nseg_cnt_);
        active_rows_.swap(next_active_rows_);
        ++round_;
        return changed;
    }

    /// Mark changed cell (i, j) and its four neighbors, in slot order
    /// (self, Up, Down, Left, Right). Interior columns take the row links
    /// of the stencil; the edge columns take Torus::neighbor.
    void mark_with_neighbors(std::uint32_t i, std::uint32_t j, const RowLinks& links) {
        mark(i, j);
        if (j != 0 && j + 1 != torus_->cols()) {
            mark(links.up, j + links.up_shift);
            mark(links.down, j - links.down_shift);
            mark(i, j - 1);
            mark(i, j + 1);
            return;
        }
        for (std::size_t d = 0; d < grid::kDegree; ++d) {
            const grid::Coord c = torus_->neighbor({i, j}, static_cast<grid::Direction>(d));
            mark(c.i, c.j);
        }
    }

    /// Record column j of row i as dirty for the next round: extend a
    /// nearby segment (within kSlack), insert a new one keeping the list
    /// sorted and disjoint, or - at kMaxSegments - widen the nearest
    /// neighbor instead. O(kMaxSegments) per mark.
    void mark(std::uint32_t i, std::uint32_t j) {
        const std::size_t base = static_cast<std::size_t>(i) * kMaxSegments;
        std::uint32_t cnt = nseg_cnt_[i];
        if (cnt == 0) {
            next_active_rows_.push_back(i);
            nseg_lo_[base] = j;
            nseg_hi_[base] = j + 1;
            nseg_cnt_[i] = 1;
            return;
        }
        // Position p = first segment starting beyond j; the only segments
        // that can absorb j are p-1 (left) and p (right).
        std::uint32_t p = 0;
        while (p < cnt && nseg_lo_[base + p] <= j) ++p;
        if (p > 0 && j < nseg_hi_[base + p - 1]) return;  // already covered
        const bool near_left = p > 0 && j - nseg_hi_[base + p - 1] < kSlack;
        const bool near_right = p < cnt && nseg_lo_[base + p] - (j + 1) < kSlack;
        if (near_left) {
            nseg_hi_[base + p - 1] = j + 1;
            // Extending may have reached the right neighbor: coalesce.
            if (p < cnt && nseg_hi_[base + p - 1] >= nseg_lo_[base + p]) {
                nseg_hi_[base + p - 1] = std::max(nseg_hi_[base + p - 1], nseg_hi_[base + p]);
                for (std::uint32_t s = p; s + 1 < cnt; ++s) {
                    nseg_lo_[base + s] = nseg_lo_[base + s + 1];
                    nseg_hi_[base + s] = nseg_hi_[base + s + 1];
                }
                nseg_cnt_[i] = cnt - 1;
            }
            return;
        }
        if (near_right) {
            nseg_lo_[base + p] = j;
            return;
        }
        if (cnt < kMaxSegments) {
            for (std::uint32_t s = cnt; s > p; --s) {
                nseg_lo_[base + s] = nseg_lo_[base + s - 1];
                nseg_hi_[base + s] = nseg_hi_[base + s - 1];
            }
            nseg_lo_[base + p] = j;
            nseg_hi_[base + p] = j + 1;
            nseg_cnt_[i] = cnt + 1;
            return;
        }
        // Overflow: widen the nearest existing segment to cover j (cells
        // between are a harmless superset).
        const std::uint32_t gap_left =
            p > 0 ? j - nseg_hi_[base + p - 1] : ~std::uint32_t{0};
        const std::uint32_t gap_right =
            p < cnt ? nseg_lo_[base + p] - (j + 1) : ~std::uint32_t{0};
        if (gap_left <= gap_right) {
            nseg_hi_[base + p - 1] = j + 1;
        } else {
            nseg_lo_[base + p] = j;
        }
    }

    const grid::Torus* torus_;
    ColorField cur_;
    ColorField next_;
    /// Segment bounds, kMaxSegments slots per row; [i*kMaxSegments + s]
    /// holds segment s of row i, valid for s < seg_cnt_[i], sorted by lo
    /// and pairwise disjoint.
    std::vector<std::uint32_t> seg_lo_, seg_hi_;
    std::vector<std::uint8_t> seg_cnt_;
    std::vector<std::uint32_t> nseg_lo_, nseg_hi_;  ///< next round's segments
    std::vector<std::uint8_t> nseg_cnt_;
    std::vector<std::uint32_t> active_rows_;  ///< rows with seg_cnt_ > 0, activation order
    std::vector<std::uint32_t> next_active_rows_;
    std::uint32_t round_ = 0;
};

} // namespace dynamo::sim
