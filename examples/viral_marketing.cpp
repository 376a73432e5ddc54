// viral_marketing - the paper's motivating scenario (Section I): pick a
// minimal set of individuals so that a new "brand" (color) spreads through
// the whole network by word of mouth, against competing brands.
//
// We model a 12x18 cordalis "social ring" (people talk to their two
// neighbors along a ring plus two contacts one block away - exactly the
// chordal-ring structure of the torus cordalis). Brand k = 1 launches with
// the Theorem-4 seed budget (n + 1 = 19 people out of 216); rival brands
// hold everyone else. We compare the engineered seeding against spending
// the same budget on random customers (Monte-Carlo), and against a bigger
// random budget.
//
//   ./viral_marketing [--m=12] [--n=18] [--trials=40]
#include <iostream>

#include "analysis/census.hpp"
#include "analysis/montecarlo.hpp"
#include "core/builders.hpp"
#include "core/dynamo.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

#include "scenario/scenario.hpp"

namespace {

int scenario_main(dynamo::scenario::Context& ctx) {
    std::ostream& out = ctx.out;
    using namespace dynamo;
    const CliArgs& args = ctx.args;
    const auto m = args.get_int_as<std::uint32_t>("m", 12);
    const auto n = args.get_int_as<std::uint32_t>("n", 18);
    const auto trials = args.get_int_as<std::size_t>("trials", 40);

    grid::Torus market(grid::Topology::TorusCordalis, m, n);
    out << "market: " << market.size() << " customers on a " << m << "x" << n
              << " torus cordalis (ring + block contacts)\n";

    // Engineered launch: Theorem 4's n+1 seeds with condition-satisfying
    // rival-brand placement.
    const Configuration launch = build_theorem4_configuration(market);
    const DynamoVerdict verdict = verify_dynamo(market, launch.field, launch.k);
    out << "\nengineered launch (" << launch.seeds.size() << " seeded customers): "
              << verdict.summary() << '\n';

    // Same budget, random customers, random rival brands.
    ConsoleTable table({"strategy", "seeds", "P(total adoption)", "mean final share",
                        "mean rounds (if total)"});
    table.add_row("engineered (Theorem 4)", launch.seeds.size(),
                  verdict.is_dynamo ? 1.0 : 0.0, verdict.is_dynamo ? 1.0 : 0.0,
                  static_cast<double>(verdict.trace.rounds));

    Xoshiro256 rng(2026);
    for (const double factor : {1.0, 3.0, 8.0}) {
        const auto budget = static_cast<std::size_t>(
            factor * static_cast<double>(launch.seeds.size()));
        std::size_t total = 0;
        double share = 0.0, rounds = 0.0;
        for (std::size_t t = 0; t < trials; ++t) {
            ColorField f = analysis::random_coloring(market.size(), launch.k,
                                                     launch.colors_used, 0.0, rng);
            // Place exactly `budget` random seeds.
            std::vector<grid::VertexId> ids(market.size());
            for (grid::VertexId v = 0; v < market.size(); ++v) ids[v] = v;
            deterministic_shuffle(ids.begin(), ids.end(), rng);
            for (std::size_t s = 0; s < budget && s < ids.size(); ++s) {
                f[ids[s]] = launch.k;
            }
            const DynamoVerdict v = verify_dynamo(market, f, launch.k);
            total += v.is_dynamo;
            share += static_cast<double>(count_color(v.trace.final_colors, launch.k)) /
                     static_cast<double>(market.size());
            if (v.is_dynamo) rounds += v.trace.rounds;
        }
        table.add_row("random x" + std::to_string(static_cast<int>(factor)), budget,
                      static_cast<double>(total) / static_cast<double>(trials),
                      share / static_cast<double>(trials),
                      total ? rounds / static_cast<double>(total) : 0.0);
    }
    out << '\n';
    table.print(out);
    out << "\nmoral: placement beats budget - the engineered n+1 seeding always\n"
                 "converts the whole market, while the same (and even much larger) budgets\n"
                 "spent at random mostly stall against rival-brand blocks (Definition 4).\n";
    return 0;
}

[[maybe_unused]] const bool registered = dynamo::scenario::register_scenario({
    "viral_marketing",
    "example",
    "Viral marketing on a cordalis social ring: engineered Theorem-4 seeding vs "
    "random budgets",
    0,
    {
        {"m", dynamo::scenario::ParamType::Int, "12", "6", "ring rows"},
        {"n", dynamo::scenario::ParamType::Int, "18", "9", "ring columns"},
        {"trials", dynamo::scenario::ParamType::Int, "40", "6", "random-seeding trials per budget"},
    },
    &scenario_main,
});

} // namespace
