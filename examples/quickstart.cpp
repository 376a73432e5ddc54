// quickstart - the five-minute tour of the dynamo library.
//
// Builds the paper's minimum monotone dynamo on a 9x9 toroidal mesh
// (Figure 1/2, Theorem 2), runs the SMP-Protocol, and prints what
// happened. Start here, then see the other examples for domain scenarios.
//
//   ./quickstart [--topology=mesh|cordalis|serpentinus] [--m=9] [--n=9]
#include <iostream>

#include "core/bounds.hpp"
#include "core/builders.hpp"
#include "core/dynamo.hpp"
#include "io/ascii.hpp"
#include "util/cli.hpp"

#include "scenario/scenario.hpp"

namespace {

int scenario_main(dynamo::scenario::Context& ctx) {
    std::ostream& out = ctx.out;
    using namespace dynamo;
    const CliArgs& args = ctx.args;
    const grid::Topology topo =
        grid::topology_from_string(args.get_string("topology", "mesh"));
    const auto m = args.get_int_as<std::uint32_t>("m", 9);
    const auto n = args.get_int_as<std::uint32_t>("n", 9);

    // 1. A torus (Definition 1 / cordalis / serpentinus).
    grid::Torus torus(topo, m, n);
    out << "torus: " << to_string(topo) << ' ' << m << 'x' << n << " ("
              << torus.size() << " vertices)\n";

    // 2. The paper's minimum-size seed set plus a coloring of the other
    //    vertices satisfying the Theorem 2/4/6 conditions.
    const Configuration cfg = build_minimum_dynamo(torus);
    out << "seeds: |S_k| = " << cfg.seeds.size() << " (lower bound "
              << size_lower_bound(topo, m, n) << "), colors |C| = "
              << int(cfg.colors_used) << "\n\ninitial configuration (B = seed):\n"
              << io::render_field(torus, cfg.field, cfg.k);

    // 3. Run the SMP-Protocol and verify the dynamo property.
    const DynamoVerdict verdict = verify_dynamo(torus, cfg.field, cfg.k);
    out << "\nverdict: " << verdict.summary() << '\n';

    // 4. Inspect the wave: when did each vertex turn k?
    out << "\nadoption rounds (the paper's Figure 5/6 matrices):\n"
              << io::render_time_matrix(torus, verdict.trace.k_time)
              << "wavefront sizes per round: " << io::render_wavefront(verdict.trace.newly_k)
              << '\n';
    return verdict.is_monotone ? 0 : 1;
}

[[maybe_unused]] const bool registered = dynamo::scenario::register_scenario({
    "quickstart",
    "example",
    "Five-minute tour: build the paper's minimum dynamo, run the SMP-Protocol, "
    "inspect the wave",
    0,
    {
        {"topology", dynamo::scenario::ParamType::String, "mesh", "",
         "mesh | cordalis | serpentinus"},
        {"m", dynamo::scenario::ParamType::Int, "9", "5", "torus rows"},
        {"n", dynamo::scenario::ParamType::Int, "9", "5", "torus columns"},
    },
    &scenario_main,
});

} // namespace
