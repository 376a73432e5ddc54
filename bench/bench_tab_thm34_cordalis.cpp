// Regenerates the Theorem 3 / Theorem 4 evaluation for the torus cordalis:
// the n+1 construction across a size sweep, with condition checks,
// monotone-dynamo verification, color counts, and the tiny-torus
// exhaustive probe for the lower bound.
#include "core/search/sharded.hpp"

#include "bench_common.hpp"

#include "scenario/scenario.hpp"

namespace {

int scenario_main(dynamo::scenario::Context& ctx) {
    std::ostream& out = ctx.out;
    using namespace dynamo;
    using namespace dynamo::bench;
    const CliArgs& args = ctx.args;
    const auto max_dim = args.get_int_as<std::uint32_t>("max-dim", 16);

    print_banner(out,
                 "Theorems 3 & 4 - cordalis dynamo size: construction vs lower bound n+1");
    ConsoleTable table({"m", "n", "bound n+1", "|S_k| built", "|C|", "conditions",
                        "monotone dynamo", "rounds"});
    for (std::uint32_t m = 3; m <= max_dim; m += (m < 8 ? 1 : 3)) {
        for (std::uint32_t n = 3; n <= max_dim; n += (n < 8 ? 2 : 4)) {
            grid::Torus torus(grid::Topology::TorusCordalis, m, n);
            const Configuration cfg = build_theorem4_configuration(torus);
            const ConditionReport rep = check_theorem_conditions(torus, cfg.field, cfg.k);
            const RunResult trace = run_traced(torus, cfg);
            table.add_row(m, n, cordalis_size_lower_bound(m, n), cfg.seeds.size(),
                          static_cast<int>(cfg.colors_used), rep.ok() ? "hold" : "VIOLATED",
                          yesno(trace.reached_mono(cfg.k) && trace.monotone), trace.rounds);
        }
    }
    table.print(out);
    out << "note: |C| = 4 exactly when n = 0 (mod 3); the stripe family needs 5 (6 for\n"
                 "n = 5) otherwise - whether |C| = 4 suffices there is probed by the\n"
                 "Proposition 3 bench via the condition solver.\n";

    print_banner(out, "Theorem 3 exhaustive probe on the 3x3 cordalis (finding D5)");
    {
        grid::Torus torus(grid::Topology::TorusCordalis, 3, 3);
        ThreadPool pool;
        ParallelSearchOptions opts;
        opts.base.total_colors = 3;
        opts.num_shards = 2 * pool.size();
        opts.pool = &pool;
        const SearchOutcome outcome = parallel_min_dynamo(torus, 3, opts);
        ConsoleTable probe({"torus", "|C|", "paper bound", "exhaustive min size", "complete"});
        probe.add_row("3x3", 3, cordalis_size_lower_bound(3, 3),
                      outcome.min_size == SearchOutcome::kNoDynamo
                          ? std::string("none <= 3")
                          : std::to_string(outcome.min_size),
                      yesno(outcome.complete));
        probe.print(out);
        if (outcome.min_size != SearchOutcome::kNoDynamo) {
            out << "witness (B = seed):\n" << io::render_field(torus, outcome.witness_field, 1);
        }
    }
    return 0;
}

[[maybe_unused]] const bool registered = dynamo::scenario::register_scenario({
    "tab_thm34_cordalis",
    "table",
    "Theorems 3 & 4 - cordalis dynamo size vs the n+1 bound, plus the 3x3 "
    "exhaustive probe",
    0,
    {
        {"max-dim", dynamo::scenario::ParamType::Int, "16", "5", "sweep upper bound"},
    },
    &scenario_main,
});

} // namespace
