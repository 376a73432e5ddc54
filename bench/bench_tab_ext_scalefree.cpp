// Extension X1 (the paper's conclusions: "scale-free networks could be
// studied under the SMP-Protocol"): the generalized plurality protocol on
// Barabasi-Albert, Erdos-Renyi and Watts-Strogatz graphs, comparing seed
// strategies (hub-first vs random) and seed budgets - the viral-marketing
// question the paper's introduction motivates.
#include <algorithm>
#include <numeric>

#include "analysis/stats.hpp"
#include "graph/generators.hpp"
#include "graph/plurality.hpp"

#include "bench_common.hpp"

#include "scenario/scenario.hpp"

namespace {

using namespace dynamo;
using graphx::Graph;

ColorField seeded_field(const Graph& g, const std::vector<graphx::VertexId>& seeds,
                        Color colors, Xoshiro256& rng) {
    ColorField f(g.num_vertices());
    for (auto& c : f) c = static_cast<Color>(2 + rng.below(colors - 1));
    for (const auto v : seeds) f[v] = 1;
    return f;
}

std::vector<graphx::VertexId> top_degree_seeds(const Graph& g, std::size_t count) {
    std::vector<graphx::VertexId> order(g.num_vertices());
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
        return g.degree(a) > g.degree(b);
    });
    order.resize(count);
    return order;
}

std::vector<graphx::VertexId> random_seeds(const Graph& g, std::size_t count,
                                           Xoshiro256& rng) {
    std::vector<graphx::VertexId> order(g.num_vertices());
    std::iota(order.begin(), order.end(), 0u);
    deterministic_shuffle(order.begin(), order.end(), rng);
    order.resize(count);
    return order;
}

} // namespace

namespace {

int scenario_main(dynamo::scenario::Context& ctx) {
    std::ostream& out = ctx.out;
    using namespace dynamo::bench;
    const dynamo::CliArgs& args = ctx.args;
    const auto n = static_cast<std::size_t>(args.get_int("n", 400));
    const auto trials = static_cast<std::size_t>(args.get_int("trials", 12));

    print_banner(out,
                 "X1 - SMP plurality protocol on general graphs: seed strategy comparison");
    ConsoleTable table({"graph", "threshold", "seeds", "strategy", "P(k-mono)",
                        "mean final k-share", "mean rounds"});

    const auto run_case = [&](const char* name, const Graph& g,
                              graphx::PluralityThreshold thr, const char* thr_name,
                              std::size_t budget, bool hubs) {
        Xoshiro256 rng(0xf00d + budget + (hubs ? 1 : 0));
        std::size_t mono = 0;
        double share = 0.0, rounds = 0.0;
        for (std::size_t t = 0; t < trials; ++t) {
            const auto seeds =
                hubs ? top_degree_seeds(g, budget) : random_seeds(g, budget, rng);
            const ColorField f = seeded_field(g, seeds, 4, rng);
            RunOptions opts;
            opts.target = 1;
            const RunResult trace = simulate_plurality(g, f, thr, opts);
            mono += trace.reached_mono(1);
            share += static_cast<double>(count_color(trace.final_colors, 1)) /
                     static_cast<double>(g.num_vertices());
            rounds += trace.rounds;
        }
        table.add_row(name, thr_name, budget, hubs ? "hub-first" : "random",
                      static_cast<double>(mono) / static_cast<double>(trials),
                      share / static_cast<double>(trials),
                      rounds / static_cast<double>(trials));
    };

    Xoshiro256 gen_rng(0x5caf);
    const Graph ba = graphx::barabasi_albert(n, 3, gen_rng);
    const Graph er = graphx::erdos_renyi(n, 6.0 / static_cast<double>(n), gen_rng);
    const Graph ws = graphx::watts_strogatz(n, 3, 0.1, gen_rng);

    for (const std::size_t budget : {n / 20, n / 8, n / 4}) {
        run_case("barabasi-albert", ba, graphx::PluralityThreshold::SimpleHalf, "simple-half",
                 budget, true);
        run_case("barabasi-albert", ba, graphx::PluralityThreshold::SimpleHalf, "simple-half",
                 budget, false);
        run_case("erdos-renyi", er, graphx::PluralityThreshold::SimpleHalf, "simple-half",
                 budget, true);
        run_case("erdos-renyi", er, graphx::PluralityThreshold::SimpleHalf, "simple-half",
                 budget, false);
        run_case("watts-strogatz", ws, graphx::PluralityThreshold::SimpleHalf, "simple-half",
                 budget, true);
        run_case("watts-strogatz", ws, graphx::PluralityThreshold::SimpleHalf, "simple-half",
                 budget, false);
    }
    table.print(out);
    out << "graphs: BA(n=" << n << ", m=3)  ER(mean degree 6)  WS(k=3, beta=0.1); "
              << trials << " trials per cell.\n"
              << "shape: hub-first seeding dominates random on the scale-free graph and\n"
                 "matters far less on the homogeneous controls - the influential-network\n"
                 "effect the paper's viral-marketing framing predicts.\n";
    return 0;
}

[[maybe_unused]] const bool registered = dynamo::scenario::register_scenario({
    "tab_ext_scalefree",
    "table",
    "X1 - SMP plurality on scale-free and random graphs: hub-first vs random seeding",
    0,
    {
        {"n", dynamo::scenario::ParamType::Int, "400", "80", "graph size"},
        {"trials", dynamo::scenario::ParamType::Int, "12", "2", "trials per cell"},
    },
    &scenario_main,
});

} // namespace
