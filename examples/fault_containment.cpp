// fault_containment - the dynamo literature's original motivation (Peleg;
// Flocchini et al. [15]): majority-based self-stabilization in a
// processor array. A faulty state (color) spreads if faults are placed
// like a dynamo; a well-designed state assignment *contains* them.
//
// Scenario: a 10x10 toroidal-mesh processor array.
//   1. adversarial fault placement (Theorem 2): m+n-2 faulty processors
//      take the whole array down;
//   2. the same budget placed in a blob: the healthy states contain it;
//   3. defensive state assignment (the Figure-4 stall pattern): no
//      recoloring can arise at all, whatever the faulty column does.
//
//   ./fault_containment [--m=10] [--n=10]
#include <iostream>

#include "core/blocks.hpp"
#include "core/builders.hpp"
#include "core/dynamo.hpp"
#include "io/ascii.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

#include "scenario/scenario.hpp"

namespace {

int scenario_main(dynamo::scenario::Context& ctx) {
    std::ostream& out = ctx.out;
    using namespace dynamo;
    const CliArgs& args = ctx.args;
    const auto m = args.get_int_as<std::uint32_t>("m", 10);
    const auto n = args.get_int_as<std::uint32_t>("n", 10);
    grid::Torus array(grid::Topology::ToroidalMesh, m, n);
    const Color faulty = 1;

    ConsoleTable table({"scenario", "faulty procs", "outcome", "final faulty share",
                        "rounds"});

    // 1. Adversarial placement: the Theorem-2 cross.
    {
        const Configuration cfg = build_theorem2_configuration(array, faulty);
        const DynamoVerdict v = verify_dynamo(array, cfg.field, faulty);
        table.add_row("adversarial cross (Thm 2)", cfg.seeds.size(),
                      v.is_dynamo ? "TOTAL FAILURE" : "contained",
                      static_cast<double>(count_color(v.trace.final_colors, faulty)) /
                          static_cast<double>(array.size()),
                      v.trace.rounds);
    }

    // 2. Same budget as a square blob in otherwise condition-respecting
    //    states: healthy blocks contain the fault.
    {
        Configuration cfg = build_theorem2_configuration(array, faulty);
        // Clear the cross, repaint the same number of faults as a blob.
        for (const grid::VertexId v : cfg.seeds) {
            cfg.field[v] = 2;  // healthy state
        }
        std::uint32_t placed = 0;
        const auto budget = static_cast<std::uint32_t>(cfg.seeds.size());
        for (std::uint32_t i = 2; i < m && placed < budget; ++i) {
            for (std::uint32_t j = 2; j < 2 + (budget + 3) / 4 && placed < budget; ++j) {
                cfg.field[array.index(i, j)] = faulty;
                ++placed;
            }
        }
        const DynamoVerdict v = verify_dynamo(array, cfg.field, faulty);
        table.add_row("same budget, blob", placed,
                      v.is_dynamo ? "TOTAL FAILURE" : "contained",
                      static_cast<double>(count_color(v.trace.final_colors, faulty)) /
                          static_cast<double>(array.size()),
                      v.trace.rounds);
    }

    // 3. Defensive assignment: vertical stripe states (Figure 4) freeze
    //    the dynamics outright.
    {
        const Configuration cfg = build_fig4_stalled_configuration(array, faulty);
        const DynamoVerdict v = verify_dynamo(array, cfg.field, faulty);
        table.add_row("defensive stripes (Fig 4)", cfg.seeds.size(),
                      v.trace.total_recolorings == 0 ? "frozen (0 recolorings)" : "moved",
                      static_cast<double>(count_color(v.trace.final_colors, faulty)) /
                          static_cast<double>(array.size()),
                      v.trace.rounds);
    }

    table.print(out);

    out << "\nwhy the blob is contained: every healthy 2x2 neighborhood around it is a\n"
                 "block (Definition 4) and the complement forms a non-faulty-block\n"
                 "(Definition 5) - certificate: "
              << (has_non_dynamo_certificate(
                      array, build_fig4_stalled_configuration(array, faulty).field, faulty)
                      ? "present"
                      : "absent")
              << " for the defensive assignment.\n"
              << "\nlesson (the paper's): vulnerability is geometric - m+n-2 faults suffice\n"
                 "iff they span a row+column cross; placement, not count, decides survival.\n";
    return 0;
}

[[maybe_unused]] const bool registered = dynamo::scenario::register_scenario({
    "fault_containment",
    "example",
    "Fault containment in a processor array: adversarial cross vs blob vs defensive "
    "stripe placements",
    0,
    {
        {"m", dynamo::scenario::ParamType::Int, "10", "", "array rows"},
        {"n", dynamo::scenario::ParamType::Int, "10", "", "array columns"},
    },
    &scenario_main,
});

} // namespace
