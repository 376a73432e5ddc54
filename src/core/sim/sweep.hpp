// dynamo/core/sim/sweep.hpp
//
// Packed-state synchronous sweeps over the three torus topologies,
// templated over the LocalRule concept (core/sim/local_rule.hpp).
//
// Every row of every topology is one kernel: the three-row stencil over
// its interior columns (core/sim/kernels.hpp) plus its two edge cells 0
// and n-1, whose Left/Right wrap differs per topology and which read
// Torus::neighbors. The stencil is rule-agnostic and monomorphized per
// LocalRule (rule_stencil_sweep<R>).
//
// Parallel decomposition: rows are split into contiguous bands, one
// ThreadPool task per band (writes are row-disjoint, so results are
// bit-identical to the serial sweep for any pool/grain). Within a band the
// sweep is cache-blocked into column panels of kColPanel cells so the
// up/own/down source rows of consecutive band rows stay resident between
// row iterations even when a single row outgrows the cache.
#pragma once

#include <algorithm>
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

/// One edge cell (column 0 or n-1) of the byte sweep, gathered through
/// Torus::neighbors. Returns whether it changed color.
template <LocalRule R>
inline std::size_t sweep_edge_cell(const grid::Torus& torus, const Color* src, Color* dst,
                                   std::uint32_t i, std::uint32_t j) noexcept {
    const auto nb = torus.neighbors(grid::Coord{i, j});
    const std::size_t v = static_cast<std::size_t>(i) * torus.cols() + j;
    const Color next = R::next(src[v], src[nb[0]], src[nb[1]], src[nb[2]], src[nb[3]]);
    dst[v] = next;
    return next != src[v];
}

/// Sweep the column window [jlo, jhi) of row i: the edge cells it holds
/// plus the stencil over its interior columns. Shared by the full sweep
/// below and the active-set engine (core/sim/active_engine.hpp).
template <LocalRule R>
inline std::size_t sweep_row_window(const grid::Torus& torus, const Color* src, Color* dst,
                                    std::uint32_t i, std::size_t jlo, std::size_t jhi) noexcept {
    const std::size_t n = torus.cols();
    std::size_t changed = 0;
    if (jlo == 0) changed += sweep_edge_cell<R>(torus, src, dst, i, 0);
    const std::size_t slo = std::max<std::size_t>(jlo, 1);
    const std::size_t shi = std::min<std::size_t>(jhi, n - 1);
    if (slo < shi) {
        // slo >= 1, so the shifted Down source never points before src.
        const RowLinks links = row_links(torus, i);
        const std::size_t base = i * n + slo;
        changed += sweep_row_interior<R>(src + links.up * n + slo + links.up_shift, src + base,
                                         src + links.down * n + slo - links.down_shift,
                                         dst + base, shi - slo);
    }
    if (jhi == n) changed += sweep_edge_cell<R>(torus, src, dst, i, n - 1);
    return changed;
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

} // namespace dynamo::sim
