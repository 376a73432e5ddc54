// dynamo/core/sim/bitplane_engine.hpp
//
// The bit-plane word-parallel engine (Backend::BitPlane): state packed
// one bit per cell per plane (core/sim/bitpack.hpp), rule kernels lifted
// from per-byte selects to boolean algebra over 64-cell limbs: one limb
// operation evaluates 64 cells where the byte stencil evaluates one.
//
// Kernels, derived from the branchless next() forms:
//
//   * Bi-color rules (kMaxColors == 2, 1 plane, bit = "is black"): every
//     shipped bi-color rule reads only (own is black, #black neighbors),
//     which is verified at compile time by probing R::next over all 2^5
//     bi-color neighborhoods. The #black count is computed with a
//     carry-save adder over the four neighbor limbs (2 half adders + one
//     2-bit add = 3 count bits), and the output is a mux over the
//     per-count condition masks probed from R::next - so a new bi-color
//     LocalRule gets its word kernel for free, and a rule that stops
//     being a count-only function of the neighborhood fails the build,
//     never silently diverges.
//
//   * Multi-color rules (3 planes, colors 1..7 packed as their own bit
//     patterns): the SMP trigger is computed word-parallel from the six
//     pairwise slot equalities. eq(x, y) is a 3-plane XNOR; the number of
//     equal pairs p identifies the neighborhood multiset - (4)->6,
//     (3,1)->3, (2,2)->2, (2,1,1)->1, distinct->0 - so "adopt the unique
//     plurality of multiplicity >= 2" is p in {1, 3, 6}, i.e. bit0|bit2
//     of a carry-save sum of the six equality bits. The adopted color is
//     unique whenever the trigger fires, so a fixed slot-priority select
//     over "slots in some pair" reproduces the byte kernel bit for bit.
//     Rules of the form g(own, smp_target) - SMP itself, the ordered
//     "+1" rule - plug their g in as R::bitplane_apply on whole limbs.
//
// Torus wrap: rows are swept as in the byte sweep (core/sim/sweep.hpp).
// Left/Right, and the shifted Up/Down rows of the serpentine wrap rows
// (RowLinks), are limb shifts with cross-limb carries; only the edge
// columns 0 / n-1 take a scalar fixup through Torus::neighbor.
//
// A round costs one sweep and nothing per cell unless a caller asks:
//
//   * step() returns the change count the sweep fuses in, and the
//     whole-state tests monochromatic() and repeats_two_back() read whole
//     limbs - the engine keeps the last three states packed (|V|/8 bytes
//     each per plane), the sweep writing into the oldest;
//   * step_collect() also walks the XOR diff of the two latest states and
//     appends the exact CellChange list in ascending vertex order;
//   * the byte mirror behind colors() is unpacked only when colors() is
//     read after a step() round. step_collect() keeps an up-to-date mirror
//     up to date O(changed), so a run that reads colors() every round never
//     unpacks.
//
// Trajectories are bit-identical to the byte engines for every supported
// rule, topology, pool, and grain (tests/test_sim_packed.cpp,
// tests/test_run.cpp).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

#include "core/coloring.hpp"
#include "core/sim/bitpack.hpp"
#include "core/sim/kernels.hpp"
#include "grid/torus.hpp"
#include "util/parallel.hpp"

namespace dynamo::sim {

/// Multi-color rules opt into the word-parallel path by providing
/// bitplane_apply(own, smp_target, out) over 3-plane limbs (the SMP
/// trigger is shared; the rule supplies g(own, target)).
template <typename R>
concept BitplaneWordRule = LocalRule<R> && requires(const Word* own, Word* out) {
    { R::bitplane_apply(own, own, out) } noexcept;
};

/// Can the bit-plane engine step R? Bi-color rules get the derived
/// count-table kernel; multi-color rules need the bitplane_apply hook.
/// The rule registry requires it of every registered rule.
template <typename R>
inline constexpr bool kBitplaneSupported =
    LocalRule<R> && (R::kMaxColors == 2 || BitplaneWordRule<R>);

/// Planes of the packed encoding (see bitpack.hpp).
template <LocalRule R>
inline constexpr int kBitplanePlanes = R::kMaxColors == 2 ? 1 : 3;

namespace bitplane_detail {

/// Probe R::next over the bi-color domain: does (own in {white, black},
/// count black neighbors) map to black?
template <LocalRule R>
constexpr std::array<std::array<bool, 5>, 2> bicolor_count_table() {
    std::array<std::array<bool, 5>, 2> table{};
    for (int ob = 0; ob < 2; ++ob) {
        const Color own = ob ? kBlack : kWhite;
        for (int count = 0; count <= 4; ++count) {
            const Color a = count > 0 ? kBlack : kWhite;
            const Color b = count > 1 ? kBlack : kWhite;
            const Color c = count > 2 ? kBlack : kWhite;
            const Color d = count > 3 ? kBlack : kWhite;
            table[ob][count] = R::next(own, a, b, c, d) == kBlack;
        }
    }
    return table;
}

/// The derivation above is sound only when R is a bi-color-closed
/// function of (own black?, #black) - verified by exhausting all 2 * 2^4
/// bi-color neighborhoods against the probed table.
template <LocalRule R>
constexpr bool bicolor_rule_is_count_only() {
    const auto table = bicolor_count_table<R>();
    for (int ob = 0; ob < 2; ++ob) {
        const Color own = ob ? kBlack : kWhite;
        for (int mask = 0; mask < 16; ++mask) {
            const Color a = (mask & 1) ? kBlack : kWhite;
            const Color b = (mask & 2) ? kBlack : kWhite;
            const Color c = (mask & 4) ? kBlack : kWhite;
            const Color d = (mask & 8) ? kBlack : kWhite;
            const int count = (mask & 1) + ((mask >> 1) & 1) + ((mask >> 2) & 1) +
                              ((mask >> 3) & 1);
            const Color out = R::next(own, a, b, c, d);
            if (out != kWhite && out != kBlack) return false;
            if ((out == kBlack) != table[ob][count]) return false;
        }
    }
    return true;
}

constexpr int row_sum(const std::array<bool, 5>& row) {
    int sum = 0;
    for (const bool b : row) sum += b;
    return sum;
}

} // namespace bitplane_detail

/// The word kernel of R: 64 lanes of next() per call. Inputs/outputs are
/// kBitplanePlanes<R>-limb arrays; lane j of every limb belongs to the
/// same cell.
template <LocalRule R>
struct BitplaneKernel {
    static constexpr int kPlanes = kBitplanePlanes<R>;

    static void next_words(const Word* own, const Word* up, const Word* down, const Word* left,
                           const Word* right, Word* out) noexcept {
        if constexpr (kPlanes == 1) {
            static_assert(bitplane_detail::bicolor_rule_is_count_only<R>(),
                          "bi-color word kernels are derived from next() as a function of "
                          "(own, #black neighbors); this rule reads more than that");
            static constexpr auto kTable = bitplane_detail::bicolor_count_table<R>();
            // #black neighbors per lane via a carry-save adder: two half
            // adders over {up, down} and {left, right}, then a 2-bit add.
            const Word a0 = up[0] ^ down[0], a1 = up[0] & down[0];
            const Word b0 = left[0] ^ right[0], b1 = left[0] & right[0];
            const Word c0 = a0 ^ b0, carry = a0 & b0;
            const Word t = a1 ^ b1;
            const Word c1 = t ^ carry;
            const Word c2 = (a1 & b1) | (carry & t);
            // Lane masks "count == k" (counts 0..4, so c2 implies c1=c0=0).
            const Word eq[5] = {~c2 & ~c1 & ~c0, ~c2 & ~c1 & c0, c1 & ~c0, c1 & c0, c2};
            out[0] = (own[0] & row_or<1>(eq)) | (~own[0] & row_or<0>(eq));
        } else {
            // Six pairwise slot equalities as 3-plane XNORs.
            const auto eq3 = [](const Word* x, const Word* y) noexcept -> Word {
                return ~((x[0] ^ y[0]) | (x[1] ^ y[1]) | (x[2] ^ y[2]));
            };
            const Word e_ud = eq3(up, down), e_ul = eq3(up, left), e_ur = eq3(up, right);
            const Word e_dl = eq3(down, left), e_dr = eq3(down, right), e_lr = eq3(left, right);
            // Pair count p in {0,1,2,3,6} via carry-save addition; the SMP
            // trigger "unique plurality >= 2" is p in {1,3,6} = bit0|bit2.
            const Word a0 = e_ud ^ e_ul, a1 = e_ud & e_ul;
            const Word b0 = e_ur ^ e_dl, b1 = e_ur & e_dl;
            const Word g0 = e_dr ^ e_lr, g1 = e_dr & e_lr;
            const Word s0 = a0 ^ b0, k0 = a0 & b0;
            const Word t1 = a1 ^ b1;
            const Word s1 = t1 ^ k0;
            const Word s2 = (a1 & b1) | (k0 & t1);
            const Word p0 = s0 ^ g0;
            const Word k1 = s0 & g0;
            const Word p2 = s2 | ((s1 & g1) | (k1 & (s1 ^ g1)));
            const Word adopt = p0 | p2;
            // The adopted color is unique whenever the trigger fires, so
            // the first slot (Up > Down > Left > Right) belonging to some
            // equal pair carries it.
            const Word in_u = e_ud | e_ul | e_ur;
            const Word in_d = e_ud | e_dl | e_dr;
            const Word in_l = e_ul | e_dl | e_lr;
            const Word sel_u = in_u;
            const Word sel_d = in_d & ~in_u;
            const Word sel_l = in_l & ~(in_u | in_d);
            const Word sel_r = ~(in_u | in_d | in_l);
            Word target[3];
            for (int p = 0; p < 3; ++p) {
                const Word cand = (up[p] & sel_u) | (down[p] & sel_d) | (left[p] & sel_l) |
                                  (right[p] & sel_r);
                target[p] = (cand & adopt) | (own[p] & ~adopt);
            }
            R::bitplane_apply(own, target, out);
        }
    }

  private:
    /// OR of the "count == k" masks that map to black for the given own
    /// bit - folded to a constant 0 / ~0 when the probed row is uniform.
    template <int OwnBlack>
    static Word row_or(const Word (&eq)[5]) noexcept {
        static constexpr auto kTable = bitplane_detail::bicolor_count_table<R>();
        constexpr auto row = kTable[OwnBlack];
        if constexpr (bitplane_detail::row_sum(row) == 5) {
            return ~Word{0};
        } else if constexpr (bitplane_detail::row_sum(row) == 0) {
            (void)eq;
            return 0;
        } else {
            Word mask = 0;
            if constexpr (row[0]) mask |= eq[0];
            if constexpr (row[1]) mask |= eq[1];
            if constexpr (row[2]) mask |= eq[2];
            if constexpr (row[3]) mask |= eq[3];
            if constexpr (row[4]) mask |= eq[4];
            return mask;
        }
    }
};

namespace bitplane_detail {

/// Lane j of the result is lane j-1 of `row` (lane 0 reads 0): a row's
/// Left neighbors, or the shifted Down row of a serpentine wrap row.
inline Word lanes_from_left(const Word* row, std::size_t w) noexcept {
    return (row[w] << 1) | (w > 0 ? row[w - 1] >> (kWordBits - 1) : 0);
}

/// Lane j of the result is lane j+1 of `row` (the last lane reads 0): a
/// row's Right neighbors, or the shifted Up row of a serpentine wrap row.
inline Word lanes_from_right(const Word* row, std::size_t w, std::size_t words) noexcept {
    return (row[w] >> 1) | (w + 1 < words ? row[w + 1] << (kWordBits - 1) : 0);
}

/// Scalar fixup for an edge column (0 or n-1): one cell through
/// Torus::neighbor, reading lanes of the packed source. Returns whether
/// the cell changed color (for the fused change count).
template <LocalRule R>
inline bool fixup_cell(const grid::Torus& torus, const BitField& src, BitField& dst,
                       std::uint32_t i, std::uint32_t j) noexcept {
    const auto at = [&](grid::Direction d) noexcept {
        const grid::Coord u = torus.neighbor(grid::Coord{i, j}, d);
        return src.get(u.i, u.j);
    };
    const Color before = src.get(i, j);
    const Color after = R::next(before, at(grid::Direction::Up), at(grid::Direction::Down),
                                at(grid::Direction::Left), at(grid::Direction::Right));
    dst.set(i, j, after);
    return after != before;
}

} // namespace bitplane_detail

/// One synchronous round of R over the packed planes: reads `src`, writes
/// every lane of `dst` (tail bits kept zero), and returns the number of
/// cells that changed color. The count is fused into the sweep - one
/// popcount of own XOR out per limb while both are still in registers,
/// instead of a second memory pass over the buffers. Rows are partitioned
/// into contiguous bands, one pool task per band; writes are row-disjoint
/// and the count is an integral sum, so the result (buffer AND count) is
/// bit-identical for any pool/grain.
template <LocalRule R>
std::size_t bitplane_sweep(const grid::Torus& torus, const BitField& src, BitField& dst,
                           ThreadPool* pool = nullptr, std::size_t grain = 1 << 14) {
    static_assert(kBitplaneSupported<R>, "rule has no word-parallel bit-plane kernel");
    constexpr int P = kBitplanePlanes<R>;
    const std::uint32_t m = torus.rows();
    const std::uint32_t n = torus.cols();
    const std::size_t words = src.words_per_row();
    const Word tail = src.tail_mask();
    const std::size_t row_grain = std::max<std::size_t>(1, (grain + n - 1) / n);
    // The edge columns 0 / n-1 are rewritten by the scalar fixups, so the
    // in-register diff must not count them; their lanes are masked out of
    // the first/last limb and the fixups report their own changes.
    const std::size_t last_w = static_cast<std::size_t>(n - 1) / kWordBits;
    const Word wrap_first = Word{1};
    const Word wrap_last = Word{1} << ((n - 1) % kWordBits);
    std::atomic<std::size_t> changed{0};
    parallel_for_blocks(pool, m, row_grain, [&](std::size_t rlo, std::size_t rhi) {
        std::size_t local = 0;
        for (std::size_t ri = rlo; ri < rhi; ++ri) {
            const auto i = static_cast<std::uint32_t>(ri);
            const RowLinks links = row_links(torus, i);
            std::array<const Word*, P> own_row, up_row, down_row;
            std::array<Word*, P> out_row;
            for (int p = 0; p < P; ++p) {
                own_row[p] = src.row(p, i);
                up_row[p] = src.row(p, links.up);
                down_row[p] = src.row(p, links.down);
                out_row[p] = dst.row(p, i);
            }
            for (std::size_t w = 0; w < words; ++w) {
                Word own[P], up[P], down[P], left[P], right[P], out[P];
                for (int p = 0; p < P; ++p) {
                    // The edge lanes get garbage here and are overwritten
                    // by the column fixups below.
                    own[p] = own_row[p][w];
                    up[p] = links.up_shift ? bitplane_detail::lanes_from_right(up_row[p], w, words)
                                           : up_row[p][w];
                    down[p] = links.down_shift ? bitplane_detail::lanes_from_left(down_row[p], w)
                                               : down_row[p][w];
                    left[p] = bitplane_detail::lanes_from_left(own_row[p], w);
                    right[p] = bitplane_detail::lanes_from_right(own_row[p], w, words);
                }
                BitplaneKernel<R>::next_words(own, up, down, left, right, out);
                const Word mask = (w + 1 == words) ? tail : ~Word{0};
                Word diff = 0;
                for (int p = 0; p < P; ++p) {
                    out_row[p][w] = out[p] & mask;
                    diff |= (own[p] ^ out[p]) & mask;
                }
                if (w == 0) diff &= ~wrap_first;
                if (w == last_w) diff &= ~wrap_last;
                local += static_cast<std::size_t>(std::popcount(diff));
            }
            local += bitplane_detail::fixup_cell<R>(torus, src, dst, i, 0);
            local += bitplane_detail::fixup_cell<R>(torus, src, dst, i, n - 1);
        }
        changed.fetch_add(local, std::memory_order_relaxed);
    });
    return changed.load(std::memory_order_relaxed);
}

/// The Backend::BitPlane engine. Satisfies the run layer's Engine
/// concept; colors() serves the byte mirror, unpacked when stale. Like
/// every engine it is not for concurrent use: colors() may write the
/// mirror.
template <LocalRule R>
class BitplaneEngineT {
    static_assert(kBitplaneSupported<R>, "rule has no word-parallel bit-plane kernel; "
                                         "use the packed/active/generic backends");

  public:
    BitplaneEngineT(const grid::Torus& torus, ColorField initial)
        : torus_(&torus), mirror_(std::move(initial)),
          cur_(torus.rows(), torus.cols(), kBitplanePlanes<R>), prev_(cur_), spare_(cur_) {
        require_complete(torus, mirror_);
        pack_field(mirror_, cur_);
    }

    /// Rewind to round 0 from `initial` on the same torus, reusing the
    /// buffers (the same palette requirement as the constructor). The
    /// engine knows no earlier state.
    void reset(const ColorField& initial) {
        require_complete(*torus_, initial);
        mirror_.assign(initial.begin(), initial.end());
        mirror_fresh_ = true;
        pack_field(mirror_, cur_);
        history_ = 0;
        round_ = 0;
    }

    /// Take `last_round` - the changed cells of the round that led to the
    /// current state, stepped by another engine - as this engine's
    /// history: undone, they give the state before, so the next round's
    /// repeats_two_back() compares with it. O(|V|/64 + changed).
    void seed_history(std::span<const CellChange> last_round) {
        const std::uint32_t n = torus_->cols();
        prev_ = cur_;
        for (const CellChange& ch : last_round) {
            prev_.set(static_cast<std::uint32_t>(ch.v / n), static_cast<std::uint32_t>(ch.v % n),
                      ch.before);
        }
        history_ = 1;
    }

    /// One synchronous round; returns the number of vertices that changed
    /// color, as the sweep counts it - no per-cell work. Deterministic for
    /// any pool/grain combination.
    std::size_t step(ThreadPool* pool = nullptr, std::size_t grain = 1 << 14) {
        const std::size_t changed = bitplane_sweep<R>(*torus_, cur_, spare_, pool, grain);
        // spare_ now holds the new state: rotate it to cur_, and the two
        // before it to prev_ and spare_.
        cur_.swap(spare_);
        prev_.swap(spare_);
        history_ = std::min(history_ + 1, 2);
        ++round_;
        if (changed != 0) mirror_fresh_ = false;
        return changed;
    }

    /// step() that also appends the changed cells to `out` (ascending
    /// vertex order), for the run layer's observers.
    std::size_t step_collect(std::vector<CellChange>& out, ThreadPool* pool = nullptr,
                             std::size_t grain = 1 << 14) {
        const bool fresh = mirror_fresh_;
        const std::size_t changed = step(pool, grain);
        walk_last_round(out, fresh ? &mirror_ : nullptr);
        mirror_fresh_ = fresh;
        return changed;
    }

    /// Appends the last round's changed cells to `out` (ascending vertex
    /// order), read from the two packed states: a diff walk, O(|V|/64 +
    /// changed). Needs a round stepped since the last reset.
    void collect_last_round(std::vector<CellChange>& out) const {
        DYNAMO_ASSERT(history_ >= 1, "no round stepped since the last reset");
        walk_last_round(out, nullptr);
    }

    /// Does every cell hold one color? A whole-limb test: each plane is all
    /// zeros or all ones, a row's last limb compared under tail_mask().
    bool monochromatic() const noexcept {
        const std::size_t words = cur_.words_per_row();
        const Word tail = cur_.tail_mask();
        for (int p = 0; p < kBitplanePlanes<R>; ++p) {
            const Word fill = (cur_.row(p, 0)[0] & 1u) ? ~Word{0} : Word{0};
            for (std::uint32_t i = 0; i < torus_->rows(); ++i) {
                const Word* row = cur_.row(p, i);
                for (std::size_t w = 0; w + 1 < words; ++w) {
                    if (row[w] != fill) return false;
                }
                if (row[words - 1] != (fill & tail)) return false;
            }
        }
        return true;
    }

    /// Is the current state the one two rounds back? A limb compare of
    /// the packed states; false until two rounds are known (seed_history
    /// counts as one).
    bool repeats_two_back() const noexcept { return history_ == 2 && cur_ == spare_; }

    const ColorField& colors() const {
        if (!mirror_fresh_) {
            unpack_field(cur_, mirror_);
            mirror_fresh_ = true;
        }
        return mirror_;
    }
    const grid::Torus& torus() const noexcept { return *torus_; }
    std::uint32_t round() const noexcept { return round_; }

  private:
    /// Serial diff walk of prev_ against cur_: appends the changed cells to
    /// `out`, and brings `mirror`, when given, from the state before the
    /// round up to date. Serial on purpose - the output order is part of
    /// the bit-identity contract with the byte engines.
    void walk_last_round(std::vector<CellChange>& out, ColorField* mirror) const {
        const std::uint32_t m = torus_->rows();
        const std::uint32_t n = torus_->cols();
        const std::size_t words = cur_.words_per_row();
        for (std::uint32_t i = 0; i < m; ++i) {
            for (std::size_t w = 0; w < words; ++w) {
                Word diff = 0;
                for (int p = 0; p < kBitplanePlanes<R>; ++p) {
                    diff |= prev_.row(p, i)[w] ^ cur_.row(p, i)[w];
                }
                while (diff != 0) {
                    const auto bit = static_cast<std::uint32_t>(std::countr_zero(diff));
                    diff &= diff - 1;
                    const auto j = static_cast<std::uint32_t>(w * kWordBits + bit);
                    const std::size_t v = static_cast<std::size_t>(i) * n + j;
                    const Color after = cur_.get(i, j);
                    Color before;
                    if (mirror != nullptr) {
                        before = (*mirror)[v];
                        (*mirror)[v] = after;
                    } else {
                        before = prev_.get(i, j);
                    }
                    out.push_back({static_cast<grid::VertexId>(v), before, after});
                }
            }
        }
    }

    const grid::Torus* torus_;
    mutable ColorField mirror_;       ///< unpacked current state (the colors() view)
    mutable bool mirror_fresh_ = true;
    BitField cur_;    ///< state(t)
    BitField prev_;   ///< state(t-1), once history_ >= 1
    BitField spare_;  ///< state(t-2), once history_ == 2; the next sweep's output
    int history_ = 0;  ///< rounds of packed history before cur_, at most 2
    std::uint32_t round_ = 0;
};

/// Raw packed-plane throughput in cells/second: pack once, then time
/// `rounds` sweep+count rounds after `warmup` (best of two passes, like
/// the byte-path bench arms). This is what the registry exposes to
/// bench_perf_engine's bit-plane section - the mirror/change machinery of
/// the full engine is deliberately out of the measured loop, mirroring
/// how the byte arms time the raw sweeps.
template <LocalRule R>
double bitplane_cells_per_sec(const grid::Torus& torus, const ColorField& field, int warmup,
                              int rounds) {
    BitField cur(torus.rows(), torus.cols(), kBitplanePlanes<R>);
    BitField next(torus.rows(), torus.cols(), kBitplanePlanes<R>);
    pack_field(field, cur);
    std::size_t sink = 0;
    for (int r = 0; r < warmup; ++r) {
        sink += bitplane_sweep<R>(torus, cur, next);
        cur.swap(next);
    }
    const double cells = static_cast<double>(torus.size()) * rounds;
    double best = 0.0;
    for (int pass = 0; pass < 2; ++pass) {
        const auto start = std::chrono::steady_clock::now();
        for (int r = 0; r < rounds; ++r) {
            sink += bitplane_sweep<R>(torus, cur, next);
            cur.swap(next);
        }
        const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
        best = std::max(best, cells / elapsed.count());
    }
    // Keep the measured work observable.
    if (sink == static_cast<std::size_t>(-1)) return 0.0;
    return best;
}

} // namespace dynamo::sim
