// Regenerates the Proposition 3 analysis: how many colors a minimum-size
// dynamo needs.
//
//   * N = min(m,n) = 2: for |C| > 2 a single k column of size m is a
//     dynamo (with alternating foreign colors); with |C| = 2 it stalls.
//   * The |C| >= 4 requirement of Theorems 2/4/6: the condition-solver
//     PORTFOLIO (racing value orders across the ThreadPool) decides, per
//     torus size, whether a coloring satisfying the theorem conditions
//     exists with 3, 4 or 5 total colors - mapping the color landscape the
//     paper's "pattern can be repeated" remark glosses over. One racer's
//     complete Unsat run proves unsatisfiability for the whole cell.
#include "core/search/portfolio.hpp"

#include "bench_common.hpp"

#include "scenario/scenario.hpp"

namespace {

int scenario_main(dynamo::scenario::Context& ctx) {
    std::ostream& out = ctx.out;
    using namespace dynamo;
    using namespace dynamo::bench;
    const CliArgs& args = ctx.args;
    const auto max_dim = args.get_int_as<std::uint32_t>("max-dim", 9);

    print_banner(out, "Proposition 3 - N = 2: a k column on an m x 2 mesh");
    ConsoleTable n2({"m", "|C|", "foreign pattern", "dynamo"});
    for (const std::uint32_t m : {4u, 6u}) {
        grid::Torus torus(grid::Topology::ToroidalMesh, m, 2);
        // |C| = 3: alternate foreign colors down column 1 -> dynamo.
        ColorField alt(torus.size());
        for (std::uint32_t i = 0; i < m; ++i) {
            alt[torus.index(i, 0)] = 1;
            alt[torus.index(i, 1)] = static_cast<Color>(2 + (i % 2));
        }
        const DynamoVerdict with3 = verify_dynamo(torus, alt, 1);
        n2.add_row(m, 3, "alternating {2,3}", yesno(with3.is_dynamo));
        // |C| = 2: the foreign column is monochromatic -> 2+2 ties, stall.
        ColorField mono(torus.size());
        for (std::uint32_t i = 0; i < m; ++i) {
            mono[torus.index(i, 0)] = 1;
            mono[torus.index(i, 1)] = 2;
        }
        const DynamoVerdict with2 = verify_dynamo(torus, mono, 1);
        n2.add_row(m, 2, "monochromatic {2}", yesno(with2.is_dynamo));
    }
    n2.print(out);
    out << "paper: 'For more than two colors a column of k-colored vertices is a\n"
                 "dynamo of size m' - confirmed; with two colors it is not.\n";

    print_banner(out,
                 "Theorem 2/4/6 color landscape - portfolio feasibility of the conditions");
    ConsoleTable landscape({"topology", "m", "n", "|C|=3", "|C|=4", "|C|=5",
                            "stripe builder uses"});
    ThreadPool pool;
    const auto probe = [&](grid::Topology topo, std::uint32_t m, std::uint32_t n) {
        grid::Torus torus(topo, m, n);
        Configuration built;
        std::vector<grid::VertexId> seeds;
        if (topo == grid::Topology::ToroidalMesh) {
            built = build_theorem2_configuration(torus);
            seeds = theorem2_seeds(torus);
        } else {
            built = build_minimum_dynamo(torus);
            seeds = built.seeds;
        }
        ColorField partial(torus.size(), kUnset);
        for (const grid::VertexId v : seeds) partial[v] = 1;
        std::string cell[3];
        for (Color total = 3; total <= 5; ++total) {
            PortfolioOptions popts;
            popts.base.total_colors = total;
            popts.base.max_nodes = 3'000'000;  // per racer (Unsat must fit in one run)
            popts.num_racers = std::max(4u, pool.size());
            popts.pool = &pool;
            const PortfolioResult r = solve_condition_portfolio(torus, partial, 1, popts);
            cell[total - 3] = r.status == SolverStatus::Satisfied   ? "sat"
                              : r.status == SolverStatus::Unsat     ? "unsat"
                                                                    : "budget-out";
        }
        landscape.add_row(to_string(topo), m, n, cell[0], cell[1], cell[2],
                          static_cast<int>(built.colors_used));
    };
    for (std::uint32_t s = 4; s <= max_dim; ++s) {
        probe(grid::Topology::ToroidalMesh, s, s);
    }
    probe(grid::Topology::TorusCordalis, 5, 5);
    probe(grid::Topology::TorusCordalis, 6, 6);
    probe(grid::Topology::TorusCordalis, 6, 7);
    probe(grid::Topology::TorusSerpentinus, 6, 6);
    landscape.print(out);
    out << "reading: |C| = 3 is never enough (Proposition 3 / Theorem 2 floor); the\n"
                 "solver settles whether |C| = 4 admits *some* valid pattern at sizes where\n"
                 "our closed-form stripe family needs 5 or 6 colors.\n";
    return 0;
}

[[maybe_unused]] const bool registered = dynamo::scenario::register_scenario({
    "tab_prop3_colors",
    "table",
    "Proposition 3 - how many colors a minimum dynamo needs (portfolio feasibility "
    "landscape)",
    0,
    {
        {"max-dim", dynamo::scenario::ParamType::Int, "9", "5", "square-mesh probe upper bound"},
    },
    &scenario_main,
});

} // namespace
