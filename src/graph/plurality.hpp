// dynamo/graph/plurality.hpp
//
// The SMP-Protocol generalized to arbitrary-degree graphs, for the
// scale-free extension experiments. On the 4-regular torus the paper's
// rule reads "adopt the unique plurality color of multiplicity >= 2";
// on general graphs the multiplicity threshold must scale with degree, so
// the engine supports three thresholds:
//
//   * AtLeastTwo   - the literal torus rule (>= 2 regardless of degree);
//   * SimpleHalf   - unique plurality with multiplicity >= ceil(d/2), the
//                    simple-majority analogue;
//   * StrongHalf   - >= floor(d/2) + 1, the strong-majority analogue.
//
// Ties (no unique qualifying plurality) always keep the current color,
// matching the paper's Prefer-Current-flavored ambiguity resolution.
#pragma once

#include <cstdint>

#include "core/coloring.hpp"
#include "core/run/runner.hpp"
#include "graph/graph.hpp"

namespace dynamo::graphx {

enum class PluralityThreshold : std::uint8_t { AtLeastTwo, SimpleHalf, StrongHalf };

/// One synchronous round over the graph; returns number of changed
/// vertices.
std::size_t plurality_step(const Graph& graph, const ColorField& current, ColorField& next,
                           PluralityThreshold threshold);

/// Full run of the plurality rule with `threshold` through the shared run
/// loop (run_to_terminal on the CSR graph engine, pool-aware, observers
/// honored) - identical terminal-round semantics to the torus drivers.
RunResult simulate_plurality(const Graph& graph, const ColorField& initial,
                             PluralityThreshold threshold, const RunOptions& options = {});

} // namespace dynamo::graphx
