// dynamo/core/sim/bitpack.cpp
//
// Packing between byte fields and the bit-plane encoding of bitpack.hpp,
// compiled once: every rule's bit-plane engine calls the same functions.
#include "core/sim/bitpack.hpp"

#include <algorithm>

namespace dynamo::sim {

namespace {

/// Plane p's bit of color c: the bi-color encoding's one plane is bit 1 of
/// kWhite = 1 / kBlack = 2, the 3-plane encoding's plane p is bit p.
inline Word plane_bit(Color c, int planes, int p) noexcept {
    return (c >> (planes == 1 ? 1 : p)) & 1u;
}

} // namespace

void pack_field(const ColorField& field, BitField& out) {
    const std::uint32_t m = out.rows();
    const std::uint32_t n = out.cols();
    DYNAMO_REQUIRE(field.size() == static_cast<std::size_t>(m) * n,
                   "field size does not match the bit-plane dimensions");
    DYNAMO_REQUIRE(packable(field, out.planes()),
                   out.planes() == 1 ? "bit-plane backend needs a strictly bi-colored field "
                                       "{1, 2} for a bi-color rule"
                                     : "bit-plane backend packs colors into 3 bits; palette "
                                       "must be within 1..7");
    // Whole limbs at a time; the tail lanes of a row's last limb stay zero.
    for (int p = 0; p < out.planes(); ++p) {
        for (std::uint32_t i = 0; i < m; ++i) {
            const Color* src = field.data() + static_cast<std::size_t>(i) * n;
            Word* row = out.row(p, i);
            for (std::size_t w = 0; w < out.words_per_row(); ++w) {
                const std::uint32_t lo = static_cast<std::uint32_t>(w) * kWordBits;
                const std::uint32_t lanes = std::min(kWordBits, n - lo);
                Word word = 0;
                for (std::uint32_t b = 0; b < lanes; ++b) {
                    word |= plane_bit(src[lo + b], out.planes(), p) << b;
                }
                row[w] = word;
            }
        }
    }
}

bool packable(const ColorField& field, int planes) noexcept {
    const Color top = planes == 1 ? kBlack : 7;
    bool fits = true;
    for (const Color c : field) fits &= c >= 1 && c <= top;
    return fits;
}

void unpack_field(const BitField& in, ColorField& out) {
    const std::uint32_t m = in.rows();
    const std::uint32_t n = in.cols();
    out.resize(static_cast<std::size_t>(m) * n);
    for (std::uint32_t i = 0; i < m; ++i) {
        Color* dst = out.data() + static_cast<std::size_t>(i) * n;
        if (in.planes() == 1) {
            const Word* row = in.row(0, i);
            for (std::uint32_t j = 0; j < n; ++j) {
                const Word bit = (row[j / kWordBits] >> (j % kWordBits)) & 1u;
                dst[j] = static_cast<Color>(kWhite + bit);
            }
            continue;
        }
        for (std::uint32_t j = 0; j < n; ++j) dst[j] = in.get(i, j);
    }
}

} // namespace dynamo::sim
