// dynamo/core/sync_engine.hpp
//
// The synchronous reference engine for local recoloring protocols (paper
// Section III.D): the system is synchronous, one unit of time per round,
// every vertex updates simultaneously from the previous round's state.
//
// Implementation: classic double-buffered sweep. Reads come from the
// current buffer, writes go to the next buffer, and the swap is the round
// barrier - the shared-memory analogue of a BSP superstep / MPI halo
// exchange. The sweep is optionally partitioned into contiguous blocks
// executed on a ThreadPool; results are bit-identical to the serial sweep
// because writes are disjoint and reads never touch the write buffer.
//
// The engine walks the seed's flat neighbor table - the only one in the
// code base - with a sweep pointer: a rule compiles only its
// reference_sweep<Rule>, and the engine itself is compiled once. It is the
// oracle of the LocalRule engines (Packed/Active/BitplaneEngineT), the
// denominator of the bench speedup gates, and what Backend::Generic runs
// (reference_sweep<RuleFnOf<R>> for a LocalRule).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/coloring.hpp"
#include "core/run/runner.hpp"
#include "core/smp_rule.hpp"
#include "grid/torus.hpp"
#include "util/parallel.hpp"

namespace dynamo {

/// The SMP-Protocol as a runtime rule functor: the baseline the packed
/// engine is oracle-tested (tests/test_sim_packed.cpp) and benchmarked
/// (the perf_engine scenario, bench/bench_perf_engine.cpp) against.
struct ReferenceSmpRule {
    Color operator()(Color own, const std::array<Color, grid::kDegree>& nbr) const noexcept {
        return smp_update(own, nbr);
    }
};

/// The reference engine's neighbor table: the 4 slots of every vertex,
/// row-major, built from Torus::neighbors.
inline std::vector<grid::VertexId> reference_neighbor_table(const grid::Torus& torus) {
    std::vector<grid::VertexId> table;
    table.reserve(torus.size() * grid::kDegree);
    for (std::uint32_t i = 0; i < torus.rows(); ++i) {
        for (std::uint32_t j = 0; j < torus.cols(); ++j) {
            const auto nb = torus.neighbors(grid::Coord{i, j});
            table.insert(table.end(), nb.begin(), nb.end());
        }
    }
    return table;
}

/// One table-driven round over `table` (reference_neighbor_table of the
/// torus); returns the number of vertices that changed color.
using TableSweep = std::size_t (*)(const grid::Torus&, const grid::VertexId* table,
                                   const Color* src, Color* dst, ThreadPool* pool,
                                   std::size_t grain);

/// The seed engine's inner loop, monomorphized over a default-constructed
/// rule functor (own color + 4 neighbor slot colors -> new color).
template <typename Rule>
std::size_t reference_sweep(const grid::Torus& torus, const grid::VertexId* table,
                            const Color* src, Color* dst, ThreadPool* pool, std::size_t grain) {
    const Rule rule{};
    std::atomic<std::size_t> changed{0};
    parallel_for_blocks(pool, torus.size(), grain, [&](std::size_t lo, std::size_t hi) {
        std::size_t local = 0;
        for (std::size_t v = lo; v < hi; ++v) {
            const grid::VertexId* nb = table + v * grid::kDegree;
            const std::array<Color, grid::kDegree> nbr{src[nb[0]], src[nb[1]], src[nb[2]],
                                                       src[nb[3]]};
            const Color out = rule(src[v], nbr);
            dst[v] = out;
            local += (out != src[v]);
        }
        changed.fetch_add(local, std::memory_order_relaxed);
    });
    return changed.load(std::memory_order_relaxed);
}

/// The reference stepping engine: owns the neighbor table and steps it with
/// a TableSweep. Satisfies the run layer's Engine concept.
class BasicSyncEngine {
  public:
    BasicSyncEngine(const grid::Torus& torus, ColorField initial, TableSweep sweep)
        : torus_(&torus), sweep_(sweep), table_(reference_neighbor_table(torus)),
          cur_(std::move(initial)), next_(cur_.size()) {
        require_complete(torus, cur_);
    }

    /// One synchronous round; returns the number of vertices that changed
    /// color. Deterministic for any pool/grain combination.
    std::size_t step(ThreadPool* pool = nullptr, std::size_t grain = 1 << 14) {
        const std::size_t changed =
            sweep_(*torus_, table_.data(), cur_.data(), next_.data(), pool, grain);
        commit();
        return changed;
    }

    /// step() that also appends the changed cells to `out` (ascending
    /// vertex order) - an O(|V|) compare over the two resident buffers, no
    /// field copy.
    std::size_t step_collect(std::vector<CellChange>& out, ThreadPool* pool = nullptr,
                             std::size_t grain = 1 << 14) {
        const std::size_t changed =
            sweep_(*torus_, table_.data(), cur_.data(), next_.data(), pool, grain);
        if (changed != 0) append_changes(cur_, next_, out);
        commit();
        return changed;
    }

    const ColorField& colors() const noexcept { return cur_; }
    const grid::Torus& torus() const noexcept { return *torus_; }
    std::uint32_t round() const noexcept { return round_; }

  private:
    void commit() {
        cur_.swap(next_);
        ++round_;
    }

    const grid::Torus* torus_;
    TableSweep sweep_;
    std::vector<grid::VertexId> table_;
    ColorField cur_;
    ColorField next_;
    std::uint32_t round_ = 0;
};

/// The reference engine's run loop is compiled once, in rules/registry.cpp
/// (Backend::Generic's run): a caller that runs the engine directly links
/// that copy instead of compiling its own.
extern template RunResult run_to_terminal<BasicSyncEngine>(BasicSyncEngine&, const RunOptions&);

} // namespace dynamo
