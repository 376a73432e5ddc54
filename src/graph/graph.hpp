// dynamo/graph/graph.hpp
//
// General-graph substrate for the paper's "future work" extension
// (Conclusions: "scale-free networks could be studied under the
// SMP-Protocol"). Immutable undirected graphs in compressed sparse row
// (CSR) layout: one offsets array, one flat adjacency array - the
// cache-friendly shape of the reference engine's torus neighbor table
// (core/sync_engine.hpp), generalized to arbitrary degree.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace dynamo::graphx {

using VertexId = std::uint32_t;
using Edge = std::pair<VertexId, VertexId>;

class Graph {
  public:
    /// Build from an undirected edge list (each pair stored in both
    /// directions). Self-loops are rejected; parallel edges are kept (they
    /// weight the neighbor's color twice, like degenerate torus slots).
    static Graph from_edges(std::size_t num_vertices, const std::vector<Edge>& edges);

    std::size_t num_vertices() const noexcept { return offsets_.size() - 1; }
    std::size_t num_edges() const noexcept { return adjacency_.size() / 2; }

    std::span<const VertexId> neighbors(VertexId v) const noexcept {
        DYNAMO_ASSERT(v + 1 < offsets_.size(), "vertex id out of range");
        return {adjacency_.data() + offsets_[v], adjacency_.data() + offsets_[v + 1]};
    }

    std::uint32_t degree(VertexId v) const noexcept {
        DYNAMO_ASSERT(v + 1 < offsets_.size(), "vertex id out of range");
        return offsets_[v + 1] - offsets_[v];
    }

    std::uint32_t max_degree() const noexcept;
    double mean_degree() const noexcept;

    /// Number of connected components (BFS).
    std::size_t connected_components() const;

  private:
    Graph() = default;
    std::vector<std::uint32_t> offsets_;   // num_vertices + 1
    std::vector<VertexId> adjacency_;      // 2 * num_edges
};

} // namespace dynamo::graphx
