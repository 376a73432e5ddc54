#include "io/ascii.hpp"

#include <algorithm>
#include <sstream>

#include "core/run/result.hpp"

namespace dynamo::io {

std::string render_field(const grid::Torus& torus, const ColorField& field, Color k) {
    DYNAMO_REQUIRE(field.size() == torus.size(), "field size mismatch");
    std::ostringstream os;
    for (std::uint32_t i = 0; i < torus.rows(); ++i) {
        for (std::uint32_t j = 0; j < torus.cols(); ++j) {
            const Color c = field[torus.index(i, j)];
            char glyph;
            if (c == k) {
                glyph = 'B';
            } else if (c == kUnset) {
                glyph = '?';
            } else {
                // Letters in color order, skipping the seed color's slot.
                const int rank = c - 1 - (c > k ? 1 : 0);
                glyph = static_cast<char>('a' + (rank % 26));
            }
            os << glyph << ' ';
        }
        os << '\n';
    }
    return os.str();
}

std::string render_time_matrix(const grid::Torus& torus,
                               const std::vector<std::uint32_t>& k_time) {
    DYNAMO_REQUIRE(k_time.size() == torus.size(), "k_time size mismatch");
    std::uint32_t widest = 1;
    for (const std::uint32_t t : k_time) {
        if (t == kNeverK) continue;
        std::uint32_t digits = 1, x = t;
        while (x >= 10) {
            ++digits;
            x /= 10;
        }
        widest = std::max(widest, digits);
    }
    std::ostringstream os;
    for (std::uint32_t i = 0; i < torus.rows(); ++i) {
        for (std::uint32_t j = 0; j < torus.cols(); ++j) {
            const std::uint32_t t = k_time[torus.index(i, j)];
            std::string cell = (t == kNeverK) ? "." : std::to_string(t);
            if (cell.size() < widest) cell.insert(0, widest - cell.size(), ' ');
            os << cell << ' ';
        }
        os << '\n';
    }
    return os.str();
}

std::string render_wavefront(const std::vector<std::uint32_t>& newly_k) {
    std::ostringstream os;
    for (std::size_t r = 0; r < newly_k.size(); ++r) {
        if (r) os << ' ';
        os << r << ':' << newly_k[r];
    }
    return os.str();
}

} // namespace dynamo::io
