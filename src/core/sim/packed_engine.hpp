// dynamo/core/sim/packed_engine.hpp
//
// The packed-state full-sweep engine: two row-major 8-bit color buffers
// ping-ponged through the cache-blocked stencil sweep of
// core/sim/sweep.hpp, templated over the LocalRule being stepped.
// Semantically identical to the seed double-buffered engine under the same
// rule (same synchronous round, same change counts, bit-identical
// trajectories - tests/test_sim_packed.cpp, tests/test_rules.cpp); the
// difference is purely the per-round cost. The rule registry
// (rules/registry.hpp) monomorphizes one instantiation per rule.
#pragma once

#include <cstdint>

#include "core/coloring.hpp"
#include "core/sim/sweep.hpp"
#include "grid/torus.hpp"
#include "util/parallel.hpp"

namespace dynamo::sim {

template <LocalRule R>
class PackedEngineT {
  public:
    using Rule = R;  ///< the rule stepped; run_to_terminal reads its period bound

    PackedEngineT(const grid::Torus& torus, ColorField initial)
        : torus_(&torus), cur_(std::move(initial)), next_(cur_.size()) {
        require_complete(torus, cur_);
    }

    /// One synchronous round; returns the number of vertices that changed
    /// color. Deterministic for any pool/grain combination.
    std::size_t step(ThreadPool* pool = nullptr, std::size_t grain = 1 << 14) {
        const std::size_t changed =
            rule_stencil_sweep<R>(*torus_, cur_.data(), next_.data(), pool, grain);
        cur_.swap(next_);
        ++round_;
        return changed;
    }

    /// step() that also appends the changed cells to `out` (ascending
    /// vertex order), for the run layer's observers.
    std::size_t step_collect(std::vector<CellChange>& out, ThreadPool* pool = nullptr,
                             std::size_t grain = 1 << 14) {
        const std::size_t changed =
            rule_stencil_sweep<R>(*torus_, cur_.data(), next_.data(), pool, grain);
        if (changed != 0) append_changes(cur_, next_, out);
        cur_.swap(next_);
        ++round_;
        return changed;
    }

    const ColorField& colors() const noexcept { return cur_; }
    const grid::Torus& torus() const noexcept { return *torus_; }
    std::uint32_t round() const noexcept { return round_; }

  private:
    const grid::Torus* torus_;
    ColorField cur_;
    ColorField next_;
    std::uint32_t round_ = 0;
};

} // namespace dynamo::sim
