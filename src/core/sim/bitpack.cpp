// dynamo/core/sim/bitpack.cpp
//
// Packing between byte fields and the bit-plane encoding of bitpack.hpp,
// compiled once: every rule's bit-plane engine calls the same functions.
#include "core/sim/bitpack.hpp"

namespace dynamo::sim {

void pack_field(const ColorField& field, BitField& out) {
    const std::uint32_t m = out.rows();
    const std::uint32_t n = out.cols();
    DYNAMO_REQUIRE(field.size() == static_cast<std::size_t>(m) * n,
                   "field size does not match the bit-plane dimensions");
    for (std::uint32_t i = 0; i < m; ++i) {
        for (std::uint32_t j = 0; j < n; ++j) {
            const Color c = field[static_cast<std::size_t>(i) * n + j];
            if (out.planes() == 1) {
                DYNAMO_REQUIRE(c == kWhite || c == kBlack,
                               "bit-plane backend needs a strictly bi-colored field "
                               "{1, 2} for a bi-color rule");
            } else {
                DYNAMO_REQUIRE(c >= 1 && c <= 7,
                               "bit-plane backend packs colors into 3 bits; palette "
                               "must be within 1..7");
            }
            out.set(i, j, c);
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
        for (std::uint32_t j = 0; j < n; ++j) {
            out[static_cast<std::size_t>(i) * n + j] = in.get(i, j);
        }
    }
}

} // namespace dynamo::sim
