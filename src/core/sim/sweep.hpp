// dynamo/core/sim/sweep.hpp
//
// Packed-state synchronous sweeps over the three torus topologies,
// templated over the LocalRule concept (core/sim/local_rule.hpp).
//
// The seed engine walked the flat neighbor table: 16 bytes of indices plus
// 4 scattered color loads per cell. For these topologies that traffic is
// almost entirely avoidable: every interior column has Left/Right = j∓1 and
// every row except the serpentine-wrapped pair has whole-row Up/Down
// pointers (i∓1 mod m), so the bulk of a round is a three-row stencil over
// 8-bit color buffers (core/sim/kernels.hpp) — unit-stride, table-free,
// auto-vectorizable. Only columns 0 / n-1 and (for the torus serpentinus)
// rows 0 / m-1 fall back to the precomputed table, O(m + n) cells of O(mn).
// The stencil is rule-agnostic: any LocalRule rides the same fast path,
// monomorphized per rule (rule_stencil_sweep<R>).
//
// Parallel decomposition: rows are split into contiguous bands, one
// ThreadPool task per band (writes are row-disjoint, so results are
// bit-identical to the serial sweep for any pool/grain). Within a band the
// sweep is cache-blocked into column panels of kColPanel cells so the
// up/own/down source rows of consecutive band rows stay resident between
// row iterations even when a single row outgrows the cache.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "core/coloring.hpp"
#include "core/sim/kernels.hpp"
#include "grid/torus.hpp"
#include "util/parallel.hpp"

namespace dynamo::sim {

/// Cache-block width of the tiled sweep, in cells. Five 8-bit streams
/// (three source rows, the destination row, and the change mask folded
/// into registers) at this width stay inside a typical 64 KiB L1.
inline constexpr std::size_t kColPanel = std::size_t{1} << 13;

namespace detail {

/// Sweep the column window [jlo, jhi) of a row whose Up/Down neighbors are
/// whole rows `up_row` / `down_row` (every row of a mesh/cordalis, interior
/// rows of a serpentinus). Interior columns take the stencil kernel;
/// columns 0 / n-1 (whose Left/Right wrap differs per topology) take the
/// neighbor table.
template <LocalRule R>
inline std::size_t sweep_plain_row(const Color* src, Color* dst, const grid::VertexId* table,
                                   std::uint32_t i, std::uint32_t up_row, std::uint32_t down_row,
                                   std::uint32_t n, std::size_t jlo, std::size_t jhi) noexcept {
    const std::size_t base = static_cast<std::size_t>(i) * n;
    std::size_t changed = 0;
    if (jlo == 0) changed += sweep_cell_table<R>(src, dst, table, base);
    const std::size_t slo = std::max<std::size_t>(jlo, 1);
    const std::size_t shi = std::min<std::size_t>(jhi, n - 1);
    if (slo < shi) {
        changed += sweep_row_interior<R>(src + static_cast<std::size_t>(up_row) * n, src + base,
                                         src + static_cast<std::size_t>(down_row) * n, dst + base,
                                         slo, shi);
    }
    if (jhi == n) changed += sweep_cell_table<R>(src, dst, table, base + n - 1);
    return changed;
}

/// Fully table-driven sweep of the column window [jlo, jhi) of row i; used
/// for the serpentine-wrapped rows whose Up/Down neighbors are not whole
/// rows.
template <LocalRule R>
inline std::size_t sweep_table_row(const Color* src, Color* dst, const grid::VertexId* table,
                                   std::uint32_t i, std::uint32_t n, std::size_t jlo,
                                   std::size_t jhi) noexcept {
    const std::size_t base = static_cast<std::size_t>(i) * n;
    std::size_t changed = 0;
    for (std::size_t j = jlo; j < jhi; ++j)
        changed += sweep_cell_table<R>(src, dst, table, base + j);
    return changed;
}

/// Sweep the column window [jlo, jhi) of row i, dispatching on whether the
/// row has whole-row Up/Down pointers. Shared by the full sweep below and
/// the active-set engine (core/sim/active_engine.hpp).
template <LocalRule R>
inline std::size_t sweep_row_window(const grid::Torus& torus, const Color* src, Color* dst,
                                    std::uint32_t i, std::size_t jlo, std::size_t jhi) noexcept {
    const std::uint32_t m = torus.rows();
    const std::uint32_t n = torus.cols();
    const bool serpentine_wrap = torus.topology() == grid::Topology::TorusSerpentinus &&
                                 (i == 0 || i == m - 1);
    if (serpentine_wrap) return sweep_table_row<R>(src, dst, torus.table_data(), i, n, jlo, jhi);
    return sweep_plain_row<R>(src, dst, torus.table_data(), i, grid::dec_mod(i, m),
                              grid::inc_mod(i, m), n, jlo, jhi);
}

} // namespace detail

/// One synchronous round of `R`: reads `src`, writes `dst` (both size()
/// cells, row-major), returns the number of cells that changed color.
/// Bit-identical to the table-driven reference sweep of the same rule for
/// every topology, pool, and grain.
template <LocalRule R>
std::size_t rule_stencil_sweep(const grid::Torus& torus, const Color* src, Color* dst,
                               ThreadPool* pool = nullptr, std::size_t grain = 1 << 14) {
    const std::uint32_t m = torus.rows();
    const std::uint32_t n = torus.cols();
    const std::size_t row_grain = std::max<std::size_t>(1, (grain + n - 1) / n);
    std::atomic<std::size_t> changed{0};
    parallel_for_blocks(pool, m, row_grain, [&](std::size_t rlo, std::size_t rhi) {
        std::size_t local = 0;
        for (std::size_t jlo = 0; jlo < n; jlo += kColPanel) {
            const std::size_t jhi = std::min<std::size_t>(n, jlo + kColPanel);
            for (std::size_t i = rlo; i < rhi; ++i) {
                local += detail::sweep_row_window<R>(torus, src, dst,
                                                     static_cast<std::uint32_t>(i), jlo, jhi);
            }
        }
        changed.fetch_add(local, std::memory_order_relaxed);
    });
    return changed.load(std::memory_order_relaxed);
}

/// Generic table-driven sweep for an arbitrary local rule (own color + 4
/// neighbor slot colors -> new color). This is the seed engine's inner
/// loop, kept as the Backend::Generic path (also reachable for a static
/// rule R via RuleFnOf<R>) and as the baseline every packed instantiation
/// is benchmarked and oracle-tested against.
template <typename Rule>
std::size_t rule_sweep(const grid::Torus& torus, const Color* src, Color* dst, const Rule& rule,
                       ThreadPool* pool = nullptr, std::size_t grain = 1 << 14) {
    const std::size_t count = torus.size();
    const grid::VertexId* table = torus.table_data();
    std::atomic<std::size_t> changed{0};
    parallel_for_blocks(pool, count, grain, [&](std::size_t lo, std::size_t hi) {
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

} // namespace dynamo::sim
