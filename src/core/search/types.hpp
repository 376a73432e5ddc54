// dynamo/core/search/types.hpp
//
// Shared option/result records of the exhaustive-search subsystem. A
// dynamo in this paper depends on the *entire* initial coloring, not just
// the seed set (Definition 2 remark), so an honest exhaustive check
// enumerates every seed set of a given size AND every coloring of the
// complement over the palette. Two drivers share these records:
//
//   * core/search/enumerate.* - the seed-era serial full enumeration
//     (every configuration, no quotienting, one rule.run per candidate),
//     kept as the oracle;
//   * core/search/sharded.*   - the symmetry-reduced sharded driver that
//     enumerates one representative per orbit of the torus symmetry
//     group x non-seed color relabeling, deterministically decomposed
//     into shards (bit-identical serial vs pooled) and verified 64
//     candidates at a time on lane batches.
//
// Every outcome reports whether the search was complete or truncated by
// budget - truncation is never silent.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "core/coloring.hpp"
#include "grid/torus.hpp"

namespace dynamo {

namespace rules {
struct RuleInfo;
}

/// The color of every seed in a search candidate; the others hold 2..|C|.
inline constexpr Color kSearchSeedColor = 1;

/// Every search counts monotone dynamos only (Definitions 2-3: the scope
/// of Theorems 1, 3 and 5) and examines every candidate: it assumes none
/// of the lemmas it is used to test.
struct SearchOptions {
    Color total_colors = 3;               ///< |C|; seeds hold color 1, others 2..|C|
    std::uint64_t max_sims = 50'000'000;  ///< simulation budget
    /// Local rule candidates are verified under (rules/registry.hpp);
    /// nullptr = the SMP protocol, the seed-era behaviour. Candidates stay
    /// in the search convention (seeds = color 1, complement 2..|C|) and
    /// are mapped to the rule's colors only to run (bi-color rules treat
    /// the seeds as the black faction; search_detail::rule_color in
    /// core/search/enumerate.hpp). Constraints enforced
    /// by the drivers: the palette must be admissible for the rule, and
    /// the symmetry quotient requires a color-symmetric rule or |C| = 2
    /// (where relabeling the single non-seed color is the identity).
    const rules::RuleInfo* rule = nullptr;
};

struct SearchOutcome {
    /// True when the probed sizes were decided exactly: either every
    /// candidate at every probed size was examined, or a witness was found
    /// (which settles the minimum regardless of later candidates).
    bool complete = false;
    /// Smallest size for which some (seed set, coloring) pair is a
    /// monotone dynamo; kNoDynamo if none exists up to `probed_max_size`.
    std::uint32_t min_size = kNoDynamo;
    std::uint32_t probed_max_size = 0;
    std::uint64_t sims = 0;
    std::uint64_t candidates = 0;  ///< (seed set, coloring) pairs examined
    /// Full-space configurations represented by the examined candidates:
    /// each canonical candidate covers its whole orbit under the torus
    /// symmetry group x non-seed color relabeling. Equal to `candidates`
    /// for the non-quotiented enumerator.
    std::uint64_t covered = 0;
    /// covered / candidates - the symmetry-reduction factor actually
    /// achieved (1.0 for the full enumerator).
    double reduction_factor = 1.0;
    /// Order of the vertex-symmetry group used (1 when not quotienting).
    std::uint64_t group_order = 1;
    std::vector<grid::VertexId> witness_seeds;
    ColorField witness_field;

    static constexpr std::uint32_t kNoDynamo = std::numeric_limits<std::uint32_t>::max();
};

/// Does ANY coloring of the non-seed vertices (over colors 2..|C|) make
/// `seeds` a monotone dynamo for color 1? Exhaustive over
/// colorings; complete unless the budget is hit.
struct SeedProbe {
    bool found = false;
    bool complete = false;
    std::uint64_t sims = 0;
    ColorField witness_field;
};

} // namespace dynamo
