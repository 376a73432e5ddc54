// dynamo/core/sim/bitpack.hpp
//
// Bit-plane packed state for the word-parallel engine
// (core/sim/bitplane_engine.hpp). The byte engines spend one byte per
// cell although the paper's palettes fit in 3 bits; here a row is packed
// into 64-bit limbs, one bit per cell per plane, so one limb holds 64
// cells of one plane and the rule kernel becomes word-parallel boolean
// algebra over whole limbs.
//
// Two encodings, chosen per rule by the engine:
//
//   * 1 plane  (bi-color rules, kMaxColors == 2): bit = (color == kBlack).
//     Requires a strictly bi-colored field over {kWhite, kBlack}.
//   * 3 planes (multi-color rules with a word kernel): the bits of the
//     color value itself, colors 1..7. Plane p holds bit p of every cell.
//
// Layout: plane-major, then row-major - plane p of row i occupies
// words_per_row() consecutive limbs at row(p, i), so the bi-color case is
// one dense contiguous array and the sweep streams whole rows per plane.
// Bit j of limb w in a row is cell j + 64*w; bits at column >= cols() in
// the last limb of a row (the "tail") are kept zero by pack() and by the
// sweep's tail mask, so whole-limb popcounts and XOR diffs never see
// garbage lanes.
#pragma once

#include <cstdint>
#include <vector>

#include "core/coloring.hpp"
#include "core/transform.hpp"
#include "util/assert.hpp"

namespace dynamo::sim {

/// The limb type of the bit-plane state: 64 cells per word per plane.
using Word = std::uint64_t;
inline constexpr std::uint32_t kWordBits = 64;

class BitField {
  public:
    BitField() = default;
    BitField(std::uint32_t rows, std::uint32_t cols, int planes)
        : rows_(rows), cols_(cols), planes_(planes),
          words_per_row_((cols + kWordBits - 1) / kWordBits),
          words_(static_cast<std::size_t>(planes) * rows * words_per_row_, 0) {
        DYNAMO_REQUIRE(planes == 1 || planes == 3, "bit-plane state holds 1 or 3 planes");
    }

    std::uint32_t rows() const noexcept { return rows_; }
    std::uint32_t cols() const noexcept { return cols_; }
    int planes() const noexcept { return planes_; }
    /// Limbs per row per plane: ceil(cols / 64).
    std::size_t words_per_row() const noexcept { return words_per_row_; }

    Word* row(int plane, std::uint32_t i) noexcept {
        return words_.data() +
               (static_cast<std::size_t>(plane) * rows_ + i) * words_per_row_;
    }
    const Word* row(int plane, std::uint32_t i) const noexcept {
        return words_.data() +
               (static_cast<std::size_t>(plane) * rows_ + i) * words_per_row_;
    }

    /// Mask of the valid lanes of a row's LAST limb (tail bits zeroed).
    Word tail_mask() const noexcept {
        const std::uint32_t used = cols_ % kWordBits;
        return used == 0 ? ~Word{0} : (Word{1} << used) - 1;
    }

    /// Scalar lane access, used by the boundary fixups and pack/unpack:
    /// the color of cell (i, j) under this field's encoding.
    Color get(std::uint32_t i, std::uint32_t j) const noexcept {
        const std::size_t w = j / kWordBits;
        const Word bit = Word{1} << (j % kWordBits);
        if (planes_ == 1) return (row(0, i)[w] & bit) ? kBlack : kWhite;
        Color c = 0;
        for (int p = 0; p < 3; ++p) {
            c = static_cast<Color>(c | ((row(p, i)[w] & bit) ? (1u << p) : 0u));
        }
        return c;
    }

    /// Scalar lane write of cell (i, j) under this field's encoding.
    void set(std::uint32_t i, std::uint32_t j, Color c) noexcept {
        const std::size_t w = j / kWordBits;
        const Word bit = Word{1} << (j % kWordBits);
        if (planes_ == 1) {
            Word& word = row(0, i)[w];
            word = (c == kBlack) ? (word | bit) : (word & ~bit);
            return;
        }
        for (int p = 0; p < 3; ++p) {
            Word& word = row(p, i)[w];
            word = (c >> p) & 1u ? (word | bit) : (word & ~bit);
        }
    }

    void swap(BitField& other) noexcept {
        std::swap(rows_, other.rows_);
        std::swap(cols_, other.cols_);
        std::swap(planes_, other.planes_);
        std::swap(words_per_row_, other.words_per_row_);
        words_.swap(other.words_);
    }

  private:
    std::uint32_t rows_ = 0;
    std::uint32_t cols_ = 0;
    int planes_ = 1;
    std::size_t words_per_row_ = 0;
    std::vector<Word> words_;
};

/// Pack a row-major byte field into `out` (already sized rows x cols).
/// 1-plane encoding requires a strictly bi-colored field; 3-plane
/// encoding requires colors 1..7 (3 bits, kUnset excluded). Both
/// requirements fail loudly - the bit-plane engine never guesses.
void pack_field(const ColorField& field, BitField& out);

/// Does `field` fit the `planes`-plane encoding, i.e. would pack_field
/// accept it? Lets a caller pick another engine instead of catching.
bool packable(const ColorField& field, int planes) noexcept;

/// Unpack into a row-major byte field (resized to rows x cols).
void unpack_field(const BitField& in, ColorField& out);

} // namespace dynamo::sim
