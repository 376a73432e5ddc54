// dynamo/graph/builder.hpp
//
// Named-kind graph construction + named-rule dispatch: the string-keyed
// layer the campaign scenarios, the bench harness, and the differential
// net share, so "which topology" and "which rule" are data (CLI values,
// JSONL fields) rather than code at every call site.
//
// Graph kinds (build_graph):
//   ba          Barabasi-Albert, param = attachment count m (default 2)
//   er          Erdos-Renyi, param = edge probability p (default 8/n)
//   ws          Watts-Strogatz, k = 2, param = rewiring beta (default 0.1)
//   ring        ring lattice, param = half-width k (default 2)
//   lollipop    clique + path, param = clique fraction (default 0.5)
//   expander    random 4-regular matching-union multigraph (param = degree,
//               default 4; n rounded up to even)
//   torus-mesh / torus-cordalis / torus-serpentinus
//               the paper tori as graphs, rows = floor(sqrt(n)) clamped to
//               >= 2, cols = n / rows clamped to >= 2 (the built size is
//               rows*cols, the closest torus at most n)
//
// Rule names (run_graph_rule): plurality-atleast2 / plurality-simple /
// plurality-strong (graph/plurality.hpp thresholds) and threshold-R for
// R in 1..8 (Berger-style irreversible constant threshold).
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "core/run/runner.hpp"
#include "graph/graph.hpp"

namespace dynamo::graphx {

/// Deterministic construction of a named graph kind. `param` <= 0 selects
/// the kind's default. Throws std::invalid_argument on unknown kinds or
/// inadmissible sizes.
Graph build_graph(const std::string& kind, std::size_t num_vertices, double param,
                  std::uint64_t seed);

/// The kinds build_graph accepts, for CLI help and docs.
std::span<const char* const> known_graph_kinds() noexcept;

/// Run a named rule on `graph` from `initial` through the shared run loop
/// (CSR engine, pool-aware, observers honored). Throws on unknown names.
RunResult run_graph_rule(const std::string& rule, const Graph& graph,
                         const ColorField& initial, const RunOptions& options);

} // namespace dynamo::graphx
