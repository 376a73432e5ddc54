// dynamo/core/sim/csr_graph_engine.hpp
//
// The packed general-graph engine: the graph-tier analogue of the torus
// active-set engine (core/sim/active_engine.hpp), completing the engine
// roadmap - every workload shape (torus, graph, temporal) now runs packed,
// parallel, and frontier-driven.
//
// Substrate: an immutable CSR graph (graph/graph.hpp - one offsets array,
// one flat adjacency array) and packed 8-bit color state, so a round is
// pointer-free streaming over two flat arrays instead of the seed-era
// pointer-chasing per-vertex adjacency walks. Rules are GraphRule functor
// instances (graph/graph_rules.hpp): arbitrary-degree generalizations of
// the LocalRule family (plurality thresholds, Berger constant thresholds),
// the degree-4 adapter that runs every registry LocalRule verbatim on
// 4-regular graphs, and the round-dependent temporal rule.
//
// Active frontier: after the first full round only vertices whose
// neighborhood changed in the previous round can change in this one (true
// for every deterministic local rule), so the engine keeps a sorted dirty-
// vertex list and sweeps O(frontier) per round, not O(|V|). Stepping is
// pool-aware with the PR-6 active-set determinism contract:
//
//   * phase 1 (evaluation) partitions the frontier into contiguous bands,
//     one pool task per band - all reads come from cur_, each band writes
//     next_[] at disjoint vertices, so any pool/grain split computes the
//     same values;
//   * phase 2 (commit + marking) is serial over the frontier in ascending
//     vertex order: change lists are emitted ascending (the step_collect
//     contract the differential net locks), and the next frontier is
//     deduplicated by a round-stamp and then sorted, so the trajectory,
//     the change lists, and the frontier itself are bit-identical for any
//     pool and any grain - and to the full-sweep oracle of the same rule
//     (tests/test_graph_engine.cpp).
//
// Time-varying rules (rule.time_varying() == true, e.g. temporal link
// availability with edge_up < 1) break the frontier premise - a vertex
// whose neighborhood is unchanged may still recolor when links return -
// so for them the engine evaluates every vertex every round; correctness
// is never traded for the frontier shortcut. The engine reports such a
// rule through time_varying(), and run_to_terminal then ends the run on
// neither a quiet round nor a repeated state (core/run/runner.hpp).
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "core/coloring.hpp"
#include "graph/graph.hpp"
#include "util/parallel.hpp"

namespace dynamo::sim {

/// The general-graph rule contract: a functor instance (rules may carry
/// runtime state - a threshold, an availability seed) deciding one
/// vertex's next color from its own color and its CSR neighbor list.
/// `colors` is the full current field (rules index it by neighbor id);
/// `round` is the round being computed (>= 1), consumed only by
/// time-varying rules. Must be pure per (v, round) and safe to call
/// concurrently for distinct vertices.
template <typename R>
concept GraphRule = requires(const R& r, graphx::VertexId v, Color own,
                             std::span<const graphx::VertexId> nbrs, const Color* colors,
                             std::uint32_t round) {
    { r(v, own, nbrs, colors, round) } noexcept -> std::same_as<Color>;
    { r.time_varying() } noexcept -> std::convertible_to<bool>;
};

template <GraphRule R>
class CsrGraphEngineT {
  public:
    CsrGraphEngineT(const graphx::Graph& graph, ColorField initial, R rule = R{})
        : graph_(&graph), rule_(std::move(rule)), cur_(std::move(initial)),
          next_(cur_.size()), stamp_(cur_.size(), 0) {
        DYNAMO_REQUIRE(cur_.size() == graph.num_vertices(),
                       "color field size != graph vertex count");
        full_every_round_ = rule_.time_varying();
        // Round 0 evaluates everything; with a time-varying rule the
        // frontier stays the identity list for the whole run.
        frontier_.resize(cur_.size());
        std::iota(frontier_.begin(), frontier_.end(), graphx::VertexId{0});
    }

    /// One synchronous round over the frontier; returns the number of
    /// vertices that changed color. Deterministic for any pool/grain.
    std::size_t step(ThreadPool* pool = nullptr, std::size_t grain = 1 << 14) {
        return step_impl(nullptr, pool, grain);
    }

    /// step() that also appends the changed cells to `out`, in ascending
    /// vertex order (the frontier is kept sorted).
    std::size_t step_collect(std::vector<CellChange>& out, ThreadPool* pool = nullptr,
                             std::size_t grain = 1 << 14) {
        return step_impl(&out, pool, grain);
    }

    const ColorField& colors() const noexcept { return cur_; }
    const graphx::Graph& graph() const noexcept { return *graph_; }
    const R& rule() const noexcept { return rule_; }
    std::uint32_t round() const noexcept { return round_; }

    /// Does the rule recolor by round as well as by state? run_to_terminal
    /// then ends the run on neither a quiet round nor a repeated state.
    bool time_varying() const noexcept { return full_every_round_; }

    /// Vertices scheduled for re-evaluation next round. For frontier-
    /// driven rules, 0 iff the state is a fixed point; for time-varying
    /// rules, always |V|.
    std::size_t frontier_size() const noexcept { return frontier_.size(); }

  private:
    std::size_t step_impl(std::vector<CellChange>* out, ThreadPool* pool, std::size_t grain) {
        const std::uint32_t computing = round_ + 1;
        const Color* colors = cur_.data();

        // Phase 1: evaluate every frontier vertex into next_. Reads come
        // from cur_ only and the frontier holds distinct vertices, so
        // writes are disjoint and any band split is equivalent.
        parallel_for_blocks(pool, frontier_.size(), std::max<std::size_t>(1, grain),
                            [&](std::size_t lo, std::size_t hi) {
                                for (std::size_t a = lo; a < hi; ++a) {
                                    const graphx::VertexId v = frontier_[a];
                                    next_[v] = rule_(v, colors[v], graph_->neighbors(v),
                                                     colors, computing);
                                }
                            });

        // Phase 2: commit changed cells in ascending vertex order and mark
        // them + their neighbors dirty for the next round. Serial on
        // purpose: the ascending commit order is the step_collect contract,
        // and marking appends to a shared list.
        std::size_t changed = 0;
        next_frontier_.clear();
        for (const graphx::VertexId v : frontier_) {
            if (next_[v] == cur_[v]) continue;
            ++changed;
            if (out != nullptr) out->push_back({v, cur_[v], next_[v]});
            cur_[v] = next_[v];
            if (!full_every_round_) {
                mark(v, computing);
                for (const graphx::VertexId u : graph_->neighbors(v)) mark(u, computing);
            }
        }

        if (!full_every_round_) {
            // Canonical ascending frontier: makes the next round's change
            // list ascending and the whole trajectory independent of the
            // order marks were discovered in.
            std::sort(next_frontier_.begin(), next_frontier_.end());
            frontier_.swap(next_frontier_);
        }
        ++round_;
        return changed;
    }

    /// Round-stamp deduplication: a vertex enters the next frontier once
    /// per round, O(1) per mark, no clearing between rounds (the stamp
    /// value is the round being computed, which never repeats).
    void mark(graphx::VertexId v, std::uint32_t gen) {
        if (stamp_[v] == gen) return;
        stamp_[v] = gen;
        next_frontier_.push_back(v);
    }

    const graphx::Graph* graph_;
    R rule_;
    ColorField cur_;
    ColorField next_;  ///< scratch: meaningful only at frontier vertices
    std::vector<graphx::VertexId> frontier_;  ///< sorted ascending, distinct
    std::vector<graphx::VertexId> next_frontier_;
    std::vector<std::uint32_t> stamp_;  ///< stamp_[v] == gen -> already marked for round gen
    bool full_every_round_ = false;
    std::uint32_t round_ = 0;
};

} // namespace dynamo::sim
