// Baseline comparison (B1): the bi-colored majority dynamos of [15]
// against the multicolored SMP dynamos on the same tori - seed budget and
// convergence rounds for the four baseline rule variants. This regenerates
// the "who wins, by what factor" relationship the paper's Propositions
// 1-2 encode.
#include "core/transform.hpp"
#include "rules/majority.hpp"

#include "bench_common.hpp"

#include "scenario/scenario.hpp"

namespace {

int scenario_main(dynamo::scenario::Context& ctx) {
    std::ostream& out = ctx.out;
    using namespace dynamo;
    using namespace dynamo::bench;
    const CliArgs& args = ctx.args;
    const auto max_dim = args.get_int_as<std::uint32_t>("max-dim", 24);

    print_banner(out,
                 "B1 - SMP minimum dynamos vs bi-color majority baselines (full cross seeds)");
    ConsoleTable table({"torus", "topology", "SMP |S_k| (min)", "SMP rounds",
                        "simple-PB rounds", "simple-PC rounds", "strong floods"});
    for (const grid::Topology topo :
         {grid::Topology::ToroidalMesh, grid::Topology::TorusCordalis,
          grid::Topology::TorusSerpentinus}) {
        for (std::uint32_t s = 6; s <= max_dim; s += 6) {
            grid::Torus torus(topo, s, s);
            const Configuration cfg = build_minimum_dynamo(torus);
            const RunResult smp = run_traced(torus, cfg);

            const ColorField bi = phi_collapse(cfg.field, cfg.k);
            const RunResult pb =
                rules::simulate_majority(torus, bi, rules::reverse_simple_majority());
            const rules::MajorityRule pc{rules::MajorityKind::Simple,
                                         rules::TiePolicy::PreferCurrent, true};
            const RunResult pc_trace = rules::simulate_majority(torus, bi, pc);
            const RunResult strong =
                rules::simulate_majority(torus, bi, rules::reverse_strong_majority());

            table.add_row(std::to_string(s) + "x" + std::to_string(s), to_string(topo),
                          cfg.seeds.size(), smp.rounds,
                          pb.reached_mono(kBlack) ? std::to_string(pb.rounds) : "no flood",
                          pc_trace.reached_mono(kBlack) ? std::to_string(pc_trace.rounds)
                                                        : "no flood",
                          yesno(strong.reached_mono(kBlack)));
        }
    }
    table.print(out);
    out << "shape: the same seed budget floods faster under simple majority (weaker\n"
                 "rule: pairs win ties), identically-or-slower under Prefer-Current, and\n"
                 "never under strong majority - the ordering Propositions 1/2 rely on.\n";
    return 0;
}

[[maybe_unused]] const bool registered = dynamo::scenario::register_scenario({
    "tab_baseline_majority",
    "table",
    "B1 - SMP minimum dynamos vs the bi-color majority baselines of [15] across tori",
    0,
    {
        {"max-dim", dynamo::scenario::ParamType::Int, "24", "6", "sweep upper bound"},
    },
    &scenario_main,
});

} // namespace
