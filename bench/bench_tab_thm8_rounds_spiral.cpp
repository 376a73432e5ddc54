// Regenerates the Theorem 8 evaluation: rounds to the monochromatic
// configuration on the torus cordalis (Theorem-4 configuration) and the
// torus serpentinus (Theorem-6, both orientations), against the paper's
// formula
//     m odd : (floor((m-1)/2) - 1) * n + ceil(n/2)
//     m even: (floor((m-1)/2) - 1) * n + 1
// Deviation D3: the even-m branch undercounts by n-1; the measured law is
// (m/2 - 1) * n, encoded as spiral_rounds_derived. The serpentinus column
// orientation (N = m) has no paper formula; its measured values are
// tabulated for the record.
#include "bench_common.hpp"

#include "scenario/scenario.hpp"

namespace {

int scenario_main(dynamo::scenario::Context& ctx) {
    std::ostream& out = ctx.out;
    using namespace dynamo;
    using namespace dynamo::bench;
    const CliArgs& args = ctx.args;
    const auto max_dim = static_cast<std::uint32_t>(args.get_int("max-dim", 14));

    for (const grid::Topology topo :
         {grid::Topology::TorusCordalis, grid::Topology::TorusSerpentinus}) {
        print_banner(out, std::string("Theorem 8 - rounds on the ") + to_string(topo) +
                                    " (row construction)");
        ConsoleTable table(
            {"m", "n", "measured", "paper", "vs paper", "derived", "vs derived"});
        std::size_t odd_match = 0, odd_total = 0, derived_match = 0, total = 0;
        for (std::uint32_t m = 3; m <= max_dim; ++m) {
            for (std::uint32_t n = 3; n <= max_dim; n += (n < 8 ? 2 : 3)) {
                if (topo == grid::Topology::TorusSerpentinus && n > m) continue;  // N = n only
                grid::Torus torus(topo, m, n);
                const Configuration cfg = build_theorem4_configuration(torus);
                const RunResult trace = run_traced(torus, cfg);
                const std::uint32_t paper = spiral_rounds_paper(m, n);
                const std::uint32_t derived = spiral_rounds_derived(m, n);
                table.add_row(m, n, trace.rounds, paper, match_tag(trace.rounds, paper),
                              derived, match_tag(trace.rounds, derived));
                ++total;
                derived_match += (trace.rounds == derived);
                if (m % 2 == 1) {
                    ++odd_total;
                    odd_match += (trace.rounds == paper);
                }
            }
        }
        table.print(out);
        out << "odd-m cases matching the paper formula: " << odd_match << "/" << odd_total
                  << "\nall cases matching the derived formula: " << derived_match << "/"
                  << total << '\n';
    }

    print_banner(out,
                 "Serpentinus column orientation (N = m < n): measured rounds (no paper formula)");
    ConsoleTable cols({"m", "n", "|S_k|", "measured rounds", "monotone"});
    for (std::uint32_t m = 3; m <= 8; ++m) {
        for (std::uint32_t n = m + 1; n <= max_dim; n += 2) {
            grid::Torus torus(grid::Topology::TorusSerpentinus, m, n);
            const Configuration cfg = build_theorem6_configuration(torus);
            const RunResult trace = run_traced(torus, cfg);
            cols.add_row(m, n, cfg.seeds.size(), trace.rounds,
                         yesno(trace.reached_mono(cfg.k) && trace.monotone));
        }
    }
    cols.print(out);
    return 0;
}

[[maybe_unused]] const bool registered = dynamo::scenario::register_scenario({
    "tab_thm8_rounds_spiral",
    "table",
    "Theorem 8 - rounds on the spiral tori vs the paper and derived formulas "
    "(deviation D3)",
    0,
    {
        {"max-dim", dynamo::scenario::ParamType::Int, "14", "5", "sweep upper bound"},
    },
    &scenario_main,
});

} // namespace
