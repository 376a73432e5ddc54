// dynamo/core/search/canonical.cpp
//
// Symmetry-group construction and canonical-form computation: candidate
// vertex maps are filtered against the topology's adjacency, orbit
// sizes come from orbit-stabilizer counting, and non-seed colorings are
// canonicalized by first-occurrence relabeling (see canonical.hpp).
#include "core/search/canonical.hpp"

#include <algorithm>
#include <array>

namespace dynamo {

namespace {

/// Exact n! for the tiny factorials orbit accounting needs.
std::uint64_t factorial(std::uint32_t n) {
    DYNAMO_REQUIRE(n <= 20, "palette too large for exact orbit accounting");
    std::uint64_t f = 1;
    for (std::uint32_t i = 2; i <= n; ++i) f *= i;
    return f;
}

/// Does `perm` preserve the neighbor structure? Neighbor *slots* form a
/// multiset (degenerate m = 2 / n = 2 tori repeat entries), so images are
/// compared sorted.
bool is_automorphism(const grid::Torus& torus, const std::vector<grid::VertexId>& perm) {
    std::array<grid::VertexId, grid::kDegree> image, expected;
    for (grid::VertexId v = 0; v < torus.size(); ++v) {
        const auto nv = torus.neighbors(v);
        for (std::size_t s = 0; s < grid::kDegree; ++s) image[s] = perm[nv[s]];
        const auto nu = torus.neighbors(perm[v]);
        std::copy(nu.begin(), nu.end(), expected.begin());
        std::sort(image.begin(), image.end());
        std::sort(expected.begin(), expected.end());
        if (image != expected) return false;
    }
    return true;
}

} // namespace

SymmetryGroup::SymmetryGroup(const grid::Torus& torus) {
    const std::uint32_t m = torus.rows();
    const std::uint32_t n = torus.cols();
    const std::size_t size = torus.size();

    // Candidate maps: (i,j) -> pointop(i,j) + (a,b). The candidates form a
    // group (translations semidirect the point group), so the subset that
    // passes the automorphism filter - its intersection with Aut(T) - is a
    // group too: orbit sizes divide order(), which the tests assert.
    std::vector<std::vector<grid::VertexId>> kept;
    std::vector<grid::VertexId> perm(size);
    const int swaps = m == n ? 2 : 1;
    for (int swap_axes = 0; swap_axes < swaps; ++swap_axes) {
        for (int flip_i = 0; flip_i < 2; ++flip_i) {
            for (int flip_j = 0; flip_j < 2; ++flip_j) {
                for (std::uint32_t a = 0; a < m; ++a) {
                    for (std::uint32_t b = 0; b < n; ++b) {
                        for (std::uint32_t i = 0; i < m; ++i) {
                            for (std::uint32_t j = 0; j < n; ++j) {
                                std::uint32_t pi = swap_axes ? j : i;
                                std::uint32_t pj = swap_axes ? i : j;
                                if (flip_i) pi = m - 1 - pi;
                                if (flip_j) pj = n - 1 - pj;
                                perm[torus.index(i, j)] =
                                    torus.index((pi + a) % m, (pj + b) % n);
                            }
                        }
                        if (is_automorphism(torus, perm)) kept.push_back(perm);
                    }
                }
            }
        }
    }

    // Degenerate sizes can make distinct candidate maps coincide as vertex
    // permutations; deduplicate so order() counts group elements exactly.
    std::sort(kept.begin(), kept.end());
    kept.erase(std::unique(kept.begin(), kept.end()), kept.end());

    // Identity first (it always survives the filter).
    std::vector<grid::VertexId> identity(size);
    for (grid::VertexId v = 0; v < size; ++v) identity[v] = v;
    const auto id_pos = std::find(kept.begin(), kept.end(), identity);
    DYNAMO_ASSERT(id_pos != kept.end(), "identity missing from symmetry group");
    std::iter_swap(kept.begin(), id_pos);

    perms_ = std::move(kept);
}

void SymmetryGroup::map_field(std::size_t g, const ColorField& in, ColorField& out) const {
    DYNAMO_ASSERT(g < perms_.size(), "group element out of range");
    const auto& perm = perms_[g];
    DYNAMO_ASSERT(in.size() == perm.size(), "field size mismatch");
    out.resize(in.size());
    for (std::size_t v = 0; v < in.size(); ++v) out[perm[v]] = in[v];
}

void SymmetryGroup::map_sorted_set(std::size_t g, const std::vector<grid::VertexId>& vertices,
                                   std::vector<grid::VertexId>& out) const {
    DYNAMO_ASSERT(g < perms_.size(), "group element out of range");
    const auto& perm = perms_[g];
    out.resize(vertices.size());
    for (std::size_t idx = 0; idx < vertices.size(); ++idx) out[idx] = perm[vertices[idx]];
    std::sort(out.begin(), out.end());
}

bool SymmetryGroup::is_canonical_seed_set(
    const std::vector<grid::VertexId>& sorted_seeds) const {
    std::vector<grid::VertexId> image;
    for (std::size_t g = 1; g < perms_.size(); ++g) {
        map_sorted_set(g, sorted_seeds, image);
        if (image < sorted_seeds) return false;
    }
    return true;
}

std::vector<std::size_t> SymmetryGroup::set_stabilizer(
    const std::vector<grid::VertexId>& sorted_seeds) const {
    std::vector<std::size_t> stab{0};
    std::vector<grid::VertexId> image;
    for (std::size_t g = 1; g < perms_.size(); ++g) {
        map_sorted_set(g, sorted_seeds, image);
        if (image == sorted_seeds) stab.push_back(g);
    }
    return stab;
}

void relabel_non_seed_colors(ColorField& field) {
    std::array<Color, 256> remap{};  // 0 = color not yet seen
    Color next = 2;
    for (Color& c : field) {
        if (c < 2) continue;  // seed color (and the kUnset sentinel) fixed
        if (remap[c] == 0) remap[c] = next++;
        c = remap[c];
    }
}

ColoringOrbit classify_coloring(const SymmetryGroup& group,
                                const std::vector<std::size_t>& stabilizer,
                                const ColorField& field, Color total_colors,
                                ColorField& scratch) {
    // field is relabel-canonical, so the identity contributes 1 to the
    // pair stabilizer; every other stabilizer element is tested explicitly.
    std::uint64_t pair_stabilizer = 1;
    for (const std::size_t g : stabilizer) {
        if (g == 0) continue;
        group.map_field(g, field, scratch);
        relabel_non_seed_colors(scratch);
        if (scratch < field) return {};  // a smaller representative exists
        if (scratch == field) ++pair_stabilizer;
    }

    // Orbit-stabilizer under the full group x non-seed color relabeling:
    // |orbit| = |G| * base! / (pair_stabilizer * (base - used)!), where the
    // (base - used)! factor counts relabelings acting freely on the colors
    // the field does not use.
    const auto base = static_cast<std::uint32_t>(total_colors - 1);
    bool seen[256] = {};
    std::uint32_t used = 0;
    for (const Color c : field) {
        if (c >= 2 && !seen[c]) {
            seen[c] = true;
            ++used;
        }
    }
    DYNAMO_ASSERT(used <= base, "field uses colors outside the palette");
    const std::uint64_t numerator = static_cast<std::uint64_t>(group.order()) * factorial(base);
    const std::uint64_t denominator = pair_stabilizer * factorial(base - used);
    DYNAMO_ASSERT(numerator % denominator == 0, "orbit size must divide the group order");
    return {true, numerator / denominator};
}

} // namespace dynamo
