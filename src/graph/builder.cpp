#include "graph/builder.hpp"

#include <array>
#include <cmath>
#include <utility>

#include "core/sim/csr_graph_engine.hpp"
#include "graph/generators.hpp"
#include "graph/graph_rules.hpp"
#include "grid/torus.hpp"
#include "util/rng.hpp"

namespace dynamo::graphx {

namespace {

constexpr std::array<const char*, 9> kKinds = {
    "ba",       "er",         "ws",
    "ring",     "lollipop",   "expander",
    "torus-mesh", "torus-cordalis", "torus-serpentinus",
};

Graph build_torus_graph(grid::Topology topo, std::size_t n) {
    auto rows = static_cast<std::uint32_t>(std::sqrt(static_cast<double>(n)));
    if (rows < 2) rows = 2;
    auto cols = static_cast<std::uint32_t>(n / rows);
    if (cols < 2) cols = 2;
    const grid::Torus torus(topo, rows, cols);
    return from_torus(torus);
}

} // namespace

Graph build_graph(const std::string& kind, std::size_t num_vertices, double param,
                  std::uint64_t seed) {
    DYNAMO_REQUIRE(num_vertices >= 1, "graph needs at least one vertex");
    Xoshiro256 rng(seed);
    if (kind == "ba") {
        const auto m = param > 0 ? static_cast<std::uint32_t>(param) : 2u;
        return barabasi_albert(num_vertices, m, rng);
    }
    if (kind == "er") {
        const double p =
            param > 0 ? param : std::min(1.0, 8.0 / static_cast<double>(num_vertices));
        return erdos_renyi(num_vertices, p, rng);
    }
    if (kind == "ws") {
        const double beta = param > 0 ? param : 0.1;
        return watts_strogatz(num_vertices, 2, beta, rng);
    }
    if (kind == "ring") {
        const auto k = param > 0 ? static_cast<std::uint32_t>(param) : 2u;
        return ring_lattice(num_vertices, k);
    }
    if (kind == "lollipop") {
        const double frac = param > 0 ? param : 0.5;
        DYNAMO_REQUIRE(frac < 1.0 || num_vertices >= 2, "lollipop fraction outside (0, 1]");
        auto clique = static_cast<std::size_t>(static_cast<double>(num_vertices) * frac);
        if (clique < 2) clique = 2;
        if (clique > num_vertices) clique = num_vertices;
        return lollipop(clique, num_vertices - clique);
    }
    if (kind == "expander") {
        const auto d = param > 0 ? static_cast<std::uint32_t>(param) : 4u;
        const std::size_t n = num_vertices + (num_vertices % 2);  // matchings need even n
        return random_regular(n, d, rng);
    }
    if (kind == "torus-mesh") {
        return build_torus_graph(grid::Topology::ToroidalMesh, num_vertices);
    }
    if (kind == "torus-cordalis") {
        return build_torus_graph(grid::Topology::TorusCordalis, num_vertices);
    }
    if (kind == "torus-serpentinus") {
        return build_torus_graph(grid::Topology::TorusSerpentinus, num_vertices);
    }
    throw std::invalid_argument("unknown graph kind: " + kind);
}

std::span<const char* const> known_graph_kinds() noexcept { return kKinds; }

RunResult run_graph_rule(const std::string& rule, const Graph& graph,
                         const ColorField& initial, const RunOptions& options) {
    if (rule == "plurality-atleast2" || rule == "plurality-simple" ||
        rule == "plurality-strong") {
        PluralityThreshold t = PluralityThreshold::SimpleHalf;
        if (rule == "plurality-atleast2") t = PluralityThreshold::AtLeastTwo;
        if (rule == "plurality-strong") t = PluralityThreshold::StrongHalf;
        return simulate_plurality(graph, initial, t, options);
    }
    if (rule.rfind("threshold-", 0) == 0) {
        const int r = std::stoi(rule.substr(10));
        DYNAMO_REQUIRE(r >= 1 && r <= 8, "constant threshold outside 1..8");
        sim::CsrGraphEngineT<ConstantThresholdRule> engine(
            graph, initial, ConstantThresholdRule{static_cast<std::uint32_t>(r)});
        return run_to_terminal(engine, options);
    }
    throw std::invalid_argument("unknown graph rule: " + rule);
}

} // namespace dynamo::graphx
