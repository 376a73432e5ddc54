// Topology tests: the three torus definitions of paper Section II.A,
// verified cell-by-cell against the prose definitions plus structural
// properties (4-regularity, handshake symmetry, a brute-force edge
// multiset of each topology) swept over sizes with TEST_P.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "grid/torus.hpp"

namespace dynamo::grid {
namespace {

TEST(TorusBasics, IndexCoordRoundTrip) {
    Torus t(Topology::ToroidalMesh, 4, 7);
    EXPECT_EQ(t.size(), 28u);
    for (VertexId v = 0; v < t.size(); ++v) {
        const Coord c = t.coord(v);
        EXPECT_EQ(t.index(c), v);
    }
}

TEST(TorusBasics, RejectsDegenerateSizes) {
    EXPECT_THROW(Torus(Topology::ToroidalMesh, 1, 5), std::invalid_argument);
    EXPECT_THROW(Torus(Topology::TorusCordalis, 5, 1), std::invalid_argument);
    EXPECT_THROW(Torus(Topology::TorusSerpentinus, 1, 1), std::invalid_argument);
}

TEST(TorusBasics, TopologyNames) {
    EXPECT_STREQ(to_string(Topology::ToroidalMesh), "toroidal-mesh");
    EXPECT_STREQ(to_string(Topology::TorusCordalis), "torus-cordalis");
    EXPECT_STREQ(to_string(Topology::TorusSerpentinus), "torus-serpentinus");
    EXPECT_EQ(topology_from_string("mesh"), Topology::ToroidalMesh);
    EXPECT_EQ(topology_from_string("cordalis"), Topology::TorusCordalis);
    EXPECT_EQ(topology_from_string("torus-serpentinus"), Topology::TorusSerpentinus);
    EXPECT_THROW(topology_from_string("klein-bottle"), std::invalid_argument);
}

// --- Definition 1: toroidal mesh ---------------------------------------------

TEST(ToroidalMesh, InteriorNeighbors) {
    Torus t(Topology::ToroidalMesh, 5, 5);
    const auto nb = t.neighbors(t.index(2, 2));
    EXPECT_EQ(nb[std::size_t(Direction::Up)], t.index(1, 2));
    EXPECT_EQ(nb[std::size_t(Direction::Down)], t.index(3, 2));
    EXPECT_EQ(nb[std::size_t(Direction::Left)], t.index(2, 1));
    EXPECT_EQ(nb[std::size_t(Direction::Right)], t.index(2, 3));
}

TEST(ToroidalMesh, WrapsBothAxes) {
    Torus t(Topology::ToroidalMesh, 4, 6);
    EXPECT_EQ(t.neighbor(t.index(0, 3), Direction::Up), t.index(3, 3));
    EXPECT_EQ(t.neighbor(t.index(3, 3), Direction::Down), t.index(0, 3));
    EXPECT_EQ(t.neighbor(t.index(2, 0), Direction::Left), t.index(2, 5));
    EXPECT_EQ(t.neighbor(t.index(2, 5), Direction::Right), t.index(2, 0));
}

// --- Torus cordalis: row links spiral into the next row ----------------------

TEST(TorusCordalis, RowEndConnectsToNextRowStart) {
    Torus t(Topology::TorusCordalis, 4, 5);
    // "the last vertex v(i, n-1) of each row is connected to the first
    //  vertex v((i+1) mod m, 0) of row i+1"
    EXPECT_EQ(t.neighbor(t.index(0, 4), Direction::Right), t.index(1, 0));
    EXPECT_EQ(t.neighbor(t.index(2, 4), Direction::Right), t.index(3, 0));
    EXPECT_EQ(t.neighbor(t.index(3, 4), Direction::Right), t.index(0, 0));
    // Inverse direction.
    EXPECT_EQ(t.neighbor(t.index(1, 0), Direction::Left), t.index(0, 4));
    EXPECT_EQ(t.neighbor(t.index(0, 0), Direction::Left), t.index(3, 4));
}

TEST(TorusCordalis, VerticalLinksMatchMesh) {
    Torus cordalis(Topology::TorusCordalis, 5, 4);
    Torus mesh(Topology::ToroidalMesh, 5, 4);
    for (VertexId v = 0; v < cordalis.size(); ++v) {
        EXPECT_EQ(cordalis.neighbor(v, Direction::Up), mesh.neighbor(v, Direction::Up));
        EXPECT_EQ(cordalis.neighbor(v, Direction::Down), mesh.neighbor(v, Direction::Down));
    }
}

TEST(TorusCordalis, HorizontalLinksFormOneHamiltonianCycle) {
    Torus t(Topology::TorusCordalis, 4, 5);
    // Following Right from (0,0) must visit all 20 vertices before returning.
    VertexId v = t.index(0, 0);
    std::size_t steps = 0;
    do {
        v = t.neighbor(v, Direction::Right);
        ++steps;
    } while (v != t.index(0, 0) && steps <= t.size());
    EXPECT_EQ(steps, t.size());
}

// --- Torus serpentinus: columns serpentine too --------------------------------

TEST(TorusSerpentinus, ColumnEndConnectsToPreviousColumnStart) {
    Torus t(Topology::TorusSerpentinus, 4, 5);
    // "the last vertex v(m-1, j) of each column j is connected to the first
    //  vertex v(0, (j-1) mod n) of column j-1"
    EXPECT_EQ(t.neighbor(t.index(3, 2), Direction::Down), t.index(0, 1));
    EXPECT_EQ(t.neighbor(t.index(3, 0), Direction::Down), t.index(0, 4));
    // Inverse direction.
    EXPECT_EQ(t.neighbor(t.index(0, 1), Direction::Up), t.index(3, 2));
    EXPECT_EQ(t.neighbor(t.index(0, 4), Direction::Up), t.index(3, 0));
}

TEST(TorusSerpentinus, HorizontalLinksMatchCordalis) {
    Torus serp(Topology::TorusSerpentinus, 5, 4);
    Torus cord(Topology::TorusCordalis, 5, 4);
    for (VertexId v = 0; v < serp.size(); ++v) {
        EXPECT_EQ(serp.neighbor(v, Direction::Left), cord.neighbor(v, Direction::Left));
        EXPECT_EQ(serp.neighbor(v, Direction::Right), cord.neighbor(v, Direction::Right));
    }
}

TEST(TorusSerpentinus, VerticalLinksFormOneHamiltonianCycle) {
    Torus t(Topology::TorusSerpentinus, 4, 5);
    VertexId v = t.index(0, 0);
    std::size_t steps = 0;
    do {
        v = t.neighbor(v, Direction::Down);
        ++steps;
    } while (v != t.index(0, 0) && steps <= t.size());
    EXPECT_EQ(steps, t.size());
}

// --- Paper block remarks encoded as adjacency facts ---------------------------

TEST(TopologyRemarks, SingleColumnClosureDiffersPerTopology) {
    // A single column of same-colored vertices is a cycle (each member has
    // two member-neighbors) in mesh and cordalis, but not in serpentinus,
    // where the column's ends leave the column (paper Definition 4 remark).
    for (const Topology topo :
         {Topology::ToroidalMesh, Topology::TorusCordalis, Topology::TorusSerpentinus}) {
        Torus t(topo, 5, 5);
        int min_in_column = 4;
        for (std::uint32_t i = 0; i < 5; ++i) {
            int in_column = 0;
            for (const VertexId u : t.neighbors(t.index(i, 2))) {
                if (t.coord(u).j == 2) ++in_column;
            }
            min_in_column = std::min(min_in_column, in_column);
        }
        if (topo == Topology::TorusSerpentinus) {
            EXPECT_LT(min_in_column, 2) << to_string(topo);
        } else {
            EXPECT_GE(min_in_column, 2) << to_string(topo);
        }
    }
}

TEST(TopologyRemarks, SingleRowClosureOnlyInMesh) {
    // A single row closes onto itself only in the toroidal mesh (in the
    // cordalis/serpentinus the row spirals into the next row).
    for (const Topology topo :
         {Topology::ToroidalMesh, Topology::TorusCordalis, Topology::TorusSerpentinus}) {
        Torus t(topo, 5, 5);
        int min_in_row = 4;
        for (std::uint32_t j = 0; j < 5; ++j) {
            int in_row = 0;
            for (const VertexId u : t.neighbors(t.index(2, j))) {
                if (t.coord(u).i == 2) ++in_row;
            }
            min_in_row = std::min(min_in_row, in_row);
        }
        if (topo == Topology::ToroidalMesh) {
            EXPECT_GE(min_in_row, 2) << to_string(topo);
        } else {
            EXPECT_LT(min_in_row, 2) << to_string(topo);
        }
    }
}

// --- Structural property sweep ------------------------------------------------

struct TopoParam {
    Topology topo;
    std::uint32_t m;
    std::uint32_t n;
};

class TorusProperties : public ::testing::TestWithParam<TopoParam> {};

TEST_P(TorusProperties, FourRegular) {
    const auto [topo, m, n] = GetParam();
    Torus t(topo, m, n);
    for (VertexId v = 0; v < t.size(); ++v) {
        EXPECT_EQ(t.neighbors(v).size(), kDegree);
        for (const VertexId u : t.neighbors(v)) {
            ASSERT_LT(u, t.size());
            EXPECT_NE(u, v) << "self-loop at " << v;
        }
    }
}

TEST_P(TorusProperties, HandshakeSymmetryWithMultiplicity) {
    // u appears in N(v) exactly as often as v appears in N(u) - parallel
    // slots on degenerate sizes included.
    const auto [topo, m, n] = GetParam();
    Torus t(topo, m, n);
    std::map<std::pair<VertexId, VertexId>, int> half_edges;
    for (VertexId v = 0; v < t.size(); ++v) {
        for (const VertexId u : t.neighbors(v)) ++half_edges[{v, u}];
    }
    for (const auto& [edge, count] : half_edges) {
        const auto rev = half_edges.find({edge.second, edge.first});
        ASSERT_NE(rev, half_edges.end());
        EXPECT_EQ(rev->second, count);
    }
}

TEST_P(TorusProperties, DirectionsAreMutuallyInverse) {
    const auto [topo, m, n] = GetParam();
    Torus t(topo, m, n);
    for (VertexId v = 0; v < t.size(); ++v) {
        EXPECT_EQ(t.neighbor(t.neighbor(v, Direction::Up), Direction::Down), v);
        EXPECT_EQ(t.neighbor(t.neighbor(v, Direction::Down), Direction::Up), v);
        EXPECT_EQ(t.neighbor(t.neighbor(v, Direction::Left), Direction::Right), v);
        EXPECT_EQ(t.neighbor(t.neighbor(v, Direction::Right), Direction::Left), v);
    }
}

TEST_P(TorusProperties, AdjacencyMatchesSectionIIA) {
    // Brute force from the paper's wording, independent of neighbor_coord:
    // the undirected edge multiset of each topology against the half-edges
    // of neighbors() (each edge {a, b} is the half-edges a->b and b->a).
    const auto [topo, m, n] = GetParam();
    Torus t(topo, m, n);
    const auto id = [n = n](std::uint32_t i, std::uint32_t j) { return i * n + j; };
    std::map<std::pair<VertexId, VertexId>, int> edges;
    const auto add = [&](VertexId a, VertexId b) { ++edges[{std::min(a, b), std::max(a, b)}]; };
    const VertexId mn = m * n;
    for (std::uint32_t i = 0; i < m; ++i) {
        for (std::uint32_t j = 0; j < n; ++j) {
            // Horizontal links: the mesh closes each row on itself; the
            // cordalis and serpentinus chain all rows into the row spiral
            // v ~ v+1 mod mn.
            if (topo == Topology::ToroidalMesh) {
                add(id(i, j), id(i, (j + 1) % n));
            } else {
                add(id(i, j), (id(i, j) + 1) % mn);
            }
            // Vertical links: mesh and cordalis close each column on
            // itself; the serpentinus links (m-1, j) to (0, j-1) instead,
            // the column spiral.
            if (topo != Topology::TorusSerpentinus || i + 1 < m) {
                add(id(i, j), id((i + 1) % m, j));
            } else {
                add(id(m - 1, j), id(0, (j + n - 1) % n));
            }
        }
    }
    std::map<std::pair<VertexId, VertexId>, int> half_edges;
    for (VertexId v = 0; v < t.size(); ++v) {
        for (const VertexId u : t.neighbors(v)) ++half_edges[{std::min(u, v), std::max(u, v)}];
    }
    for (auto& [edge, count] : edges) count *= 2;
    EXPECT_EQ(half_edges, edges);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, TorusProperties,
    ::testing::Values(TopoParam{Topology::ToroidalMesh, 2, 2},
                      TopoParam{Topology::ToroidalMesh, 2, 5},
                      TopoParam{Topology::ToroidalMesh, 5, 2},
                      TopoParam{Topology::ToroidalMesh, 3, 3},
                      TopoParam{Topology::ToroidalMesh, 7, 4},
                      TopoParam{Topology::ToroidalMesh, 16, 16},
                      TopoParam{Topology::TorusCordalis, 2, 2},
                      TopoParam{Topology::TorusCordalis, 2, 6},
                      TopoParam{Topology::TorusCordalis, 6, 2},
                      TopoParam{Topology::TorusCordalis, 3, 5},
                      TopoParam{Topology::TorusCordalis, 9, 7},
                      TopoParam{Topology::TorusSerpentinus, 2, 2},
                      TopoParam{Topology::TorusSerpentinus, 2, 4},
                      TopoParam{Topology::TorusSerpentinus, 4, 2},
                      TopoParam{Topology::TorusSerpentinus, 5, 3},
                      TopoParam{Topology::TorusSerpentinus, 8, 11}),
    [](const ::testing::TestParamInfo<TopoParam>& pinfo) {
        const auto& p = pinfo.param;
        std::string name = to_string(p.topo);
        for (auto& c : name) {
            if (c == '-') c = '_';
        }
        return name + "_" + std::to_string(p.m) + "x" + std::to_string(p.n);
    });

} // namespace
} // namespace dynamo::grid
