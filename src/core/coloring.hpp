// dynamo/core/coloring.hpp
//
// Colors and color fields. The paper's color set is C = {1, ..., k}; we
// represent colors as 1-based std::uint8_t values (up to 255 colors, far
// beyond anything the paper needs) and reserve 0 as the "unset" sentinel
// used by the condition solver while it searches partial assignments.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "grid/torus.hpp"
#include "util/assert.hpp"

namespace dynamo {

using Color = std::uint8_t;

/// Sentinel: not a legal color; used only for partial assignments.
inline constexpr Color kUnset = 0;

/// Dense per-vertex color assignment, indexed by grid::VertexId.
using ColorField = std::vector<Color>;

/// Returns a field of `size` vertices all holding `fill`.
inline ColorField make_field(std::size_t size, Color fill) {
    return ColorField(size, fill);
}

/// One vertex's recoloring within a synchronous round (before != after).
/// Engines report these to the run layer (core/run/) so observers see the
/// exact changed set without re-scanning or copying whole fields.
struct CellChange {
    grid::VertexId v;
    Color before;
    Color after;
};

/// Appends every differing cell of two equal-size fields to `out`, in
/// ascending vertex order. The diff-scan used by full-sweep engines to
/// report their changed cells.
inline void append_changes(const ColorField& before, const ColorField& after,
                           std::vector<CellChange>& out) {
    DYNAMO_ASSERT(before.size() == after.size(), "field size mismatch");
    for (std::size_t v = 0; v < before.size(); ++v) {
        if (before[v] != after[v]) {
            out.push_back({static_cast<grid::VertexId>(v), before[v], after[v]});
        }
    }
}

/// True iff every vertex holds exactly color k.
inline bool is_monochromatic(const ColorField& field, Color k) {
    return std::all_of(field.begin(), field.end(), [k](Color c) { return c == k; });
}

/// Number of vertices holding color k (|S_k| in the paper's notation).
inline std::size_t count_color(const ColorField& field, Color k) {
    return static_cast<std::size_t>(std::count(field.begin(), field.end(), k));
}

/// Number of distinct colors present in the field.
inline std::size_t distinct_colors(const ColorField& field) {
    bool seen[256] = {};
    std::size_t n = 0;
    for (const Color c : field) {
        if (!seen[c]) {
            seen[c] = true;
            ++n;
        }
    }
    return n;
}

/// Validates that a field matches a torus and contains no kUnset entries.
inline void require_complete(const grid::Torus& torus, const ColorField& field) {
    DYNAMO_REQUIRE(field.size() == torus.size(), "color field size != torus size");
    DYNAMO_REQUIRE(std::find(field.begin(), field.end(), kUnset) == field.end(),
                   "color field contains unset vertices");
}

} // namespace dynamo
