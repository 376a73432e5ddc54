// dynamo/core/search/sharded.hpp
//
// The symmetry-reduced, sharded exhaustive dynamo search. Replaces the
// serial full enumerator as the workhorse behind the Theorem 1/3/5 lower
// bound verifications:
//
//   * candidates are quotiented by the torus symmetry group x non-seed
//     color relabeling (core/search/canonical.hpp); each orbit is examined
//     once and SearchOutcome reports the exact number of raw
//     configurations covered plus the achieved reduction factor;
//   * the canonical enumeration is decomposed into deterministic work
//     shards - canonical seed set j of the current size belongs to shard
//     j mod num_shards, whatever thread runs it - so the aggregate outcome
//     is bit-identical serial vs pooled (the BatchRunner guarantee);
//   * a shard verifies its candidates 64 at a time on the rule's lane
//     batch (core/sim/lane_engine.hpp; SearchOptions::rule, nullptr = the
//     SMP protocol - non-SMP rules get the soundness guards described in
//     types.hpp); a lane still live at the lane cap, and a palette the
//     lanes cannot hold, re-run through rule.run. A unit reports its first
//     deciding candidate in enumeration order with the counters rolled
//     back to it, so batching changes no outcome;
//   * the simulation budget is split into fixed per-shard slices; a shard
//     that exhausts its slice raises a shared atomic truncation flag and
//     stops, the OTHER shards still finish the current size, and the
//     outcome then reports complete = false (unless a witness was found,
//     which settles the minimum exactly) - truncation is never silent,
//     and every shard's stopping point depends only on its slice and
//     unit order, which keeps truncated outcomes identical serial vs
//     pooled.
//
// Within one seed-set size every shard always processes its full slice of
// units (no early exit on the first witness), which is what makes
// candidate counts independent of the decomposition width; the witness is
// the lowest-indexed canonical unit that found one.
#pragma once

#include <cstdint>

#include "core/search/types.hpp"
#include "util/parallel.hpp"

namespace dynamo {

struct ParallelSearchOptions {
    SearchOptions base;      ///< palette, monotonicity, prunes, total sim budget
    unsigned num_shards = 1; ///< deterministic decomposition width (fixed, not #threads)
    ThreadPool* pool = nullptr;  ///< nullptr runs the shards serially, same results
    /// Quotient by the torus symmetry group and color relabeling. With
    /// false the driver enumerates the raw space (every seed set, every
    /// coloring) - the configuration the parity tests use to compare
    /// against the serial oracle candidate-for-candidate.
    bool use_symmetry = true;
};

/// Minimum (monotone) dynamo size by canonical exhaustive search, probing
/// seed-set sizes 1..max_size. Seeds hold color 1 w.l.o.g.
SearchOutcome parallel_min_dynamo(const grid::Torus& torus, std::uint32_t max_size,
                                  const ParallelSearchOptions& options = {});

} // namespace dynamo
