// General-graph substrate and generators for the scale-free extension:
// CSR integrity, generator structural guarantees, torus adapter
// equivalence, and the plurality engine's threshold semantics.
#include <gtest/gtest.h>

#include <set>

#include "core/builders.hpp"
#include "core/run/simulate.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/plurality.hpp"

namespace dynamo::graphx {
namespace {

using grid::Topology;
using grid::Torus;

TEST(Graph, CsrRoundTripSmall) {
    const Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}});
    EXPECT_EQ(g.num_vertices(), 4u);
    EXPECT_EQ(g.num_edges(), 5u);
    EXPECT_EQ(g.degree(0), 3u);
    EXPECT_EQ(g.degree(3), 2u);
    const auto n0 = g.neighbors(0);
    EXPECT_EQ(std::vector<VertexId>(n0.begin(), n0.end()), (std::vector<VertexId>{1, 2, 3}));
}

TEST(GraphRules, ThresholdNamesParseStrictly) {
    // std::stoi used to run "threshold-2x" as threshold-2 (labelled and
    // cached under the wrong name) and die on "threshold-99999999999".
    const Graph graph = build_graph("ring", 16, 0, 1);
    const ColorField field(graph.num_vertices(), kWhite);
    EXPECT_EQ(run_graph_rule("threshold-2", graph, field, {}).termination,
              Termination::Monochromatic);
    for (const std::string rule : {"threshold-2x", "threshold-99999999999", "threshold-0",
                                   "threshold-9", "threshold-+2", "threshold-", "bogus"}) {
        try {
            run_graph_rule(rule, graph, field, {});
            FAIL() << rule << " was accepted";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("known: plurality-atleast2"), std::string::npos)
                << e.what();
        }
    }
}

TEST(Graph, RejectsBadEdges) {
    EXPECT_THROW(Graph::from_edges(3, {{0, 3}}), std::invalid_argument);
    EXPECT_THROW(Graph::from_edges(3, {{1, 1}}), std::invalid_argument);
}

TEST(Graph, HandshakeAcrossCsr) {
    Xoshiro256 rng(99);
    const Graph g = erdos_renyi(60, 0.1, rng);
    std::size_t total_degree = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
        total_degree += g.degree(v);
        for (const VertexId u : g.neighbors(v)) {
            const auto back = g.neighbors(u);
            EXPECT_NE(std::find(back.begin(), back.end(), v), back.end());
        }
    }
    EXPECT_EQ(total_degree, 2 * g.num_edges());
}

TEST(Generators, BarabasiAlbertShape) {
    Xoshiro256 rng(7);
    const std::size_t n = 300;
    const std::uint32_t m_attach = 3;
    const Graph g = barabasi_albert(n, m_attach, rng);
    EXPECT_EQ(g.num_vertices(), n);
    // clique edges + m per subsequent vertex
    const std::size_t expected_edges =
        (m_attach + 1) * m_attach / 2 + (n - m_attach - 1) * m_attach;
    EXPECT_EQ(g.num_edges(), expected_edges);
    EXPECT_EQ(g.connected_components(), 1u);
    // Scale-free signature: hubs far above the mean degree.
    EXPECT_GE(g.max_degree(), 3 * static_cast<std::uint32_t>(g.mean_degree()));
    for (VertexId v = 0; v < n; ++v) EXPECT_GE(g.degree(v), m_attach);
}

TEST(Generators, BarabasiAlbertIsDeterministicPerSeed) {
    Xoshiro256 r1(42), r2(42);
    const Graph a = barabasi_albert(100, 2, r1);
    const Graph b = barabasi_albert(100, 2, r2);
    for (VertexId v = 0; v < 100; ++v) {
        const auto na = a.neighbors(v), nb = b.neighbors(v);
        ASSERT_EQ(std::vector<VertexId>(na.begin(), na.end()),
                  std::vector<VertexId>(nb.begin(), nb.end()));
    }
}

TEST(Generators, ErdosRenyiEdgeCases) {
    Xoshiro256 rng(1);
    EXPECT_EQ(erdos_renyi(20, 0.0, rng).num_edges(), 0u);
    EXPECT_EQ(erdos_renyi(20, 1.0, rng).num_edges(), 190u);
    EXPECT_THROW(erdos_renyi(20, 1.5, rng), std::invalid_argument);
}

TEST(Generators, RingLattice) {
    const Graph g = ring_lattice(10, 2);
    for (VertexId v = 0; v < 10; ++v) EXPECT_EQ(g.degree(v), 4u);
    EXPECT_EQ(g.num_edges(), 20u);
    EXPECT_EQ(g.connected_components(), 1u);
    EXPECT_THROW(ring_lattice(4, 2), std::invalid_argument);
}

TEST(Generators, WattsStrogatzPreservesEdgeCount) {
    Xoshiro256 rng(5);
    const Graph g = watts_strogatz(50, 3, 0.2, rng);
    EXPECT_EQ(g.num_edges(), 150u);
    EXPECT_EQ(g.num_vertices(), 50u);
}

TEST(Generators, TorusAdapterIsFourRegular) {
    for (const Topology topo :
         {Topology::ToroidalMesh, Topology::TorusCordalis, Topology::TorusSerpentinus}) {
        Torus t(topo, 5, 6);
        const Graph g = from_torus(t);
        EXPECT_EQ(g.num_vertices(), t.size());
        for (VertexId v = 0; v < g.num_vertices(); ++v) EXPECT_EQ(g.degree(v), 4u);
    }
}

TEST(PluralityEngine, MatchesTorusEngineOnAdaptedGraphs) {
    // The AtLeastTwo threshold on the adapted graph is exactly the SMP
    // rule; full traces must coincide.
    for (const Topology topo :
         {Topology::ToroidalMesh, Topology::TorusCordalis, Topology::TorusSerpentinus}) {
        Torus t(topo, 7, 7);
        const Configuration cfg = build_minimum_dynamo(t);
        const Graph g = from_torus(t);

        const RunResult torus_trace = simulate(t, cfg.field);
        RunOptions gopts;
        gopts.target = cfg.k;
        const RunResult graph_trace =
            simulate_plurality(g, cfg.field, PluralityThreshold::AtLeastTwo, gopts);

        EXPECT_EQ(graph_trace.termination, torus_trace.termination) << to_string(topo);
        EXPECT_EQ(graph_trace.rounds, torus_trace.rounds) << to_string(topo);
        EXPECT_EQ(graph_trace.final_colors, torus_trace.final_colors) << to_string(topo);
    }
}

TEST(PluralityEngine, ThresholdSemanticsOnAStar) {
    // Star with 5 leaves: center sees 5 neighbors; 3 share a color.
    std::vector<Edge> edges;
    for (VertexId leaf = 1; leaf <= 5; ++leaf) edges.emplace_back(0, leaf);
    const Graph g = Graph::from_edges(6, edges);
    ColorField f{9, 2, 2, 2, 3, 4};

    ColorField next;
    // AtLeastTwo: 3 >= 2 -> adopt.
    plurality_step(g, f, next, PluralityThreshold::AtLeastTwo);
    EXPECT_EQ(next[0], 2);
    // SimpleHalf: ceil(5/2) = 3 -> adopt.
    plurality_step(g, f, next, PluralityThreshold::SimpleHalf);
    EXPECT_EQ(next[0], 2);
    // StrongHalf: floor(5/2)+1 = 3 -> adopt; with only 2 occurrences keep.
    plurality_step(g, f, next, PluralityThreshold::StrongHalf);
    EXPECT_EQ(next[0], 2);
    ColorField weaker{9, 2, 2, 3, 4, 5};
    plurality_step(g, weaker, next, PluralityThreshold::StrongHalf);
    EXPECT_EQ(next[0], 9);
    plurality_step(g, weaker, next, PluralityThreshold::AtLeastTwo);
    EXPECT_EQ(next[0], 2);
}

TEST(PluralityEngine, TiesKeepCurrentColor) {
    std::vector<Edge> edges;
    for (VertexId leaf = 1; leaf <= 4; ++leaf) edges.emplace_back(0, leaf);
    const Graph g = Graph::from_edges(5, edges);
    ColorField f{7, 2, 2, 3, 3};
    ColorField next;
    plurality_step(g, f, next, PluralityThreshold::AtLeastTwo);
    EXPECT_EQ(next[0], 7);
}

TEST(PluralityEngine, DetectsCyclesAndFixedPoints) {
    // Two vertices joined by two parallel edges flip each other forever
    // under AtLeastTwo (each sees the other's color twice).
    const Graph g = Graph::from_edges(2, {{0, 1}, {0, 1}});
    const RunResult trace = simulate_plurality(g, {1, 2}, PluralityThreshold::AtLeastTwo);
    EXPECT_EQ(trace.termination, Termination::Cycle);
    EXPECT_EQ(trace.cycle_period, 2u);
}

TEST(PluralityEngine, TracksTargetMonotonicity) {
    Torus t(Topology::ToroidalMesh, 6, 6);
    const Configuration cfg = build_theorem2_configuration(t);
    const Graph g = from_torus(t);
    RunOptions opts;
    opts.target = cfg.k;
    const RunResult trace = simulate_plurality(g, cfg.field, PluralityThreshold::AtLeastTwo, opts);
    EXPECT_TRUE(trace.reached_mono(cfg.k));
    EXPECT_TRUE(trace.monotone);
    EXPECT_EQ(count_color(trace.final_colors, cfg.k), t.size());
}

} // namespace
} // namespace dynamo::graphx
