// dynamo/core/sync_engine.hpp
//
// Synchronous stepping engines for local recoloring protocols (paper
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
// The engine is a template over a runtime rule functor (own color + 4
// neighbor slot colors -> new color) and always takes the generic
// table-driven sweep of core/sim/sweep.hpp: it is the reference engine the
// monomorphized LocalRule engines (PackedEngineT/ActiveEngineT/
// BitplaneEngineT via the rule registry) are oracle-tested against, and what
// Backend::Generic runs (RuleFnOf<R> adapts any LocalRule to it).
// Run-to-terminal drivers live in core/run/ (runner.hpp / simulate.hpp);
// this header is just the stepping substrate, exposed so examples and
// tests can single-step and inspect intermediate states.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/coloring.hpp"
#include "core/sim/sweep.hpp"
#include "core/smp_rule.hpp"
#include "grid/torus.hpp"
#include "util/parallel.hpp"

namespace dynamo {

/// The SMP-Protocol as a runtime rule functor: the baseline the packed
/// engine is oracle-tested (tests/test_sim_packed.cpp) and benchmarked
/// (bench/bench_perf_engine.cpp) against.
struct ReferenceSmpRule {
    Color operator()(Color own, const std::array<Color, grid::kDegree>& nbr) const noexcept {
        return smp_update(own, nbr);
    }
};

/// Stepping engine, templated over the local rule (own color + 4 neighbor
/// slot colors -> new color). Satisfies the run layer's Engine concept.
template <typename Rule>
class BasicSyncEngine {
  public:
    BasicSyncEngine(const grid::Torus& torus, ColorField initial, Rule rule = Rule{})
        : torus_(&torus), rule_(rule), cur_(std::move(initial)), next_(cur_.size()) {
        require_complete(torus, cur_);
    }

    /// One synchronous round; returns the number of vertices that changed
    /// color. Deterministic for any pool/grain combination.
    std::size_t step(ThreadPool* pool = nullptr, std::size_t grain = 1 << 14) {
        const std::size_t changed =
            sim::rule_sweep(*torus_, cur_.data(), next_.data(), rule_, pool, grain);
        commit();
        return changed;
    }

    /// step() that also appends the changed cells to `out` (ascending
    /// vertex order) - an O(|V|) compare over the two resident buffers, no
    /// field copy.
    std::size_t step_collect(std::vector<CellChange>& out, ThreadPool* pool = nullptr,
                             std::size_t grain = 1 << 14) {
        const std::size_t changed =
            sim::rule_sweep(*torus_, cur_.data(), next_.data(), rule_, pool, grain);
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
    Rule rule_;
    ColorField cur_;
    ColorField next_;
    std::uint32_t round_ = 0;
};

} // namespace dynamo
