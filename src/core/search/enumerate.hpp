// dynamo/core/search/enumerate.hpp
//
// The seed-era serial full enumeration: every seed set of a given size
// AND every coloring of the complement, simulated one by one. Exponential,
// so feasible only for tiny tori / small palettes. No candidate is pruned
// (by the Lemma-1 bounding box or a non-k-block, say), so a result never
// assumes the lemmas it is used to test.
//
// This driver is kept verbatim from the seed implementation for two jobs:
//   * the seed-era entry points (their pinned tests keep exact behaviour,
//     including the sims == budget + 1 truncation accounting);
//   * the brute-force oracle that the symmetry-reduced sharded driver
//     (core/search/sharded.hpp) is tested against.
// SearchOptions::rule threads any registered LocalRule through the same
// enumeration. Every candidate, under every rule, is verified by one
// rule.run with the search target set (verify_candidate), which for the
// default SMP is exactly what verify_dynamo runs.
#pragma once

#include <cstdint>
#include <vector>

#include "core/search/types.hpp"

namespace dynamo {

/// Probe seed-set sizes 1, 2, ... until a dynamo is found (returning the
/// minimum size) or `max_size` is exhausted. k is fixed to color 1; by
/// color symmetry of the SMP rule this loses no generality.
SearchOutcome exhaustive_min_dynamo(const grid::Torus& torus, std::uint32_t max_size,
                                    const SearchOptions& options = {});

/// Exhaustive coloring probe for one fixed seed set (see SeedProbe).
SeedProbe seed_set_admits_dynamo(const grid::Torus& torus,
                                 const std::vector<grid::VertexId>& seeds,
                                 const SearchOptions& options = {});

namespace search_detail {

/// Resolve and validate SearchOptions::rule for a search driver: the
/// palette must be admissible for the rule. Returns the resolved registry
/// entry (SMP when rule is null). The ONE rule-option validator, shared by the serial enumerator
/// and the sharded driver so the two can never drift apart; the sharded
/// driver layers its quotient-soundness check on top.
const rules::RuleInfo& validate_search_rule(const SearchOptions& options);

/// `rule`'s color for search-convention color `c`: a bi-color rule reads
/// the seeds as the black (faulty) faction of [15] and every other vertex
/// as white; any other rule runs the field as it is. A candidate is a hit
/// when it floods rule_color(rule, kSearchSeedColor).
Color rule_color(const rules::RuleInfo& rule, Color c) noexcept;

/// Is the search-convention `field` a monotone dynamo for the search
/// target under `rule`? One rule.run with the target set. The serial
/// enumerator verifies every candidate with it; the sharded driver, the
/// candidates its lane batches cannot decide.
bool verify_candidate(const grid::Torus& torus, const rules::RuleInfo& rule,
                      const ColorField& field);

/// The non-seed vertices in ascending order.
std::vector<grid::VertexId> free_vertices(const grid::Torus& torus,
                                          const std::vector<grid::VertexId>& seeds);

/// Advance a combination (sorted index vector over [0, n)); returns false
/// after the last combination. Shared by both search drivers.
bool next_combination(std::vector<std::uint32_t>& comb, std::uint32_t n);

/// Advance an odometer over `digits` base-`base` values; false on wrap.
/// The raw (non-canonical) complement-coloring enumeration of both
/// drivers.
bool next_odometer(std::vector<std::uint8_t>& digits, std::uint8_t base);

} // namespace search_detail

} // namespace dynamo
