// PERF: exhaustive-search scaling - the seed-era serial full enumerator
// vs the symmetry-reduced sharded driver (core/search/sharded.hpp) on the
// committed reference workload: minimum monotone dynamo on the 4x4
// toroidal mesh with |C| = 3, probing seed sizes 1..6 under a 2M-sim
// budget.
//
// Three arms, same budget:
//   * seed enumerator   - exhaustive_min_dynamo, every raw configuration;
//     truncates at the budget (complete = false) long before an answer;
//   * canonical serial  - parallel_min_dynamo, orbits only, pool = null;
//   * canonical pooled  - same decomposition on the ThreadPool; the
//     outcome must be bit-identical to the serial arm.
//
// Throughput is configurations DECIDED per second: raw candidates/sec for
// the enumerator, covered (orbit-weighted) configurations/sec for the
// canonical arms - the honest apples-to-apples rate, since one canonical
// candidate settles its entire orbit. The committed record lives in
// BENCH_search_scaling.json; CI regenerates it and fails if the pooled
// speedup drops below the gate or the canonical arm stops completing the
// workload the seed enumerator cannot finish.
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "core/blocks.hpp"
#include "core/dynamo.hpp"
#include "core/search/enumerate.hpp"
#include "core/search/sharded.hpp"
#include "io/ascii.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

#include "scenario/scenario.hpp"

namespace {

using namespace dynamo;

struct ArmReport {
    SearchOutcome outcome;
    double seconds = 0;

    double decided_per_sec() const {
        const auto decided = static_cast<double>(
            outcome.covered != 0 ? outcome.covered : outcome.candidates);
        return seconds > 0 ? decided / seconds : 0.0;
    }
};

void write_arm(std::ostream& out, const char* name, const ArmReport& arm, bool last = false) {
    const SearchOutcome& o = arm.outcome;
    out << "    \"" << name << "\": {"
        << "\"complete\": " << (o.complete ? "true" : "false") << ", "
        << "\"min_size\": " << (o.min_size == SearchOutcome::kNoDynamo
                                    ? std::string("null")
                                    : std::to_string(o.min_size))
        << ", "
        << "\"probed_max_size\": " << o.probed_max_size << ", "
        << "\"candidates\": " << o.candidates << ", "
        << "\"covered\": " << o.covered << ", "
        << "\"sims\": " << o.sims << ", "
        << "\"reduction_factor\": " << o.reduction_factor << ", "
        << "\"group_order\": " << o.group_order << ", "
        << "\"seconds\": " << arm.seconds << ", "
        << "\"decided_per_sec\": " << arm.decided_per_sec() << "}" << (last ? "" : ",")
        << "\n";
}

bool outcomes_identical(const SearchOutcome& a, const SearchOutcome& b) {
    return a.complete == b.complete && a.min_size == b.min_size &&
           a.probed_max_size == b.probed_max_size && a.sims == b.sims &&
           a.candidates == b.candidates && a.covered == b.covered &&
           a.witness_seeds == b.witness_seeds && a.witness_field == b.witness_field;
}

} // namespace

namespace {

int scenario_main(dynamo::scenario::Context& ctx) {
    std::ostream& out = ctx.out;
    const CliArgs& args = ctx.args;
    if (args.has("help")) {
        out << "bench_search_scaling - seed enumerator vs symmetry-reduced sharded "
                     "search\n"
                     "  --json-report[=FILE]  write the JSON record (default "
                     "BENCH_search_scaling.json)\n"
                     "  --topology NAME       mesh | cordalis | serpentinus (default mesh)\n"
                     "  --rows N --cols N     torus size (default 4x4)\n"
                     "  --colors N            |C| (default 3)\n"
                     "  --max-size N          probe seed sizes 1..N (default 6)\n"
                     "  --budget N            simulation budget per arm (default 2000000)\n"
                     "  --shards N            decomposition width (default 8)\n"
                     "  --workers N           pool size for the pooled arm (default hw)\n";
        return 0;
    }
    const auto topology = grid::topology_from_string(args.get_string("topology", "mesh"));
    const auto rows = args.get_int_as<std::uint32_t>("rows", 4);
    const auto cols = args.get_int_as<std::uint32_t>("cols", 4);
    const auto colors = args.get_int_as<Color>("colors", 3);
    const auto max_size = args.get_int_as<std::uint32_t>("max-size", 6);
    const auto budget = args.get_int_as<std::uint64_t>("budget", 2'000'000);
    const auto shards = args.get_int_as<unsigned>("shards", 8);
    const auto workers_arg = args.get_int("workers", 0);
    const auto workers =
        workers_arg > 0 ? static_cast<unsigned>(workers_arg) : ThreadPool::default_threads();
    // The JSON record is written only when --json-report is passed, so a
    // bare console run can never clobber the committed baseline.
    const bool write_json = args.has("json-report");
    std::string path = args.get_string("json-report", "");
    if (path.empty()) path = "BENCH_search_scaling.json";  // bare --json-report flag
    constexpr double kTargetSpeedup = 8.0;

    const grid::Torus torus(topology, rows, cols);

    // Arm 1: the seed-era serial full enumerator.
    ArmReport seed;
    {
        SearchOptions opts;
        opts.total_colors = colors;
        opts.max_sims = budget;
        Stopwatch watch;
        seed.outcome = exhaustive_min_dynamo(torus, max_size, opts);
        seed.seconds = watch.seconds();
    }
    std::cerr << "seed enumerator: " << seed.outcome.candidates << " candidates in "
              << seed.seconds << "s (" << seed.decided_per_sec() / 1e6
              << " M decided/s), complete=" << seed.outcome.complete << "\n";

    // Arms 2+3: the canonical sharded driver, serial then pooled.
    ParallelSearchOptions copts;
    copts.base.total_colors = colors;
    copts.base.max_sims = budget;
    copts.num_shards = shards;

    ArmReport serial;
    {
        Stopwatch watch;
        serial.outcome = parallel_min_dynamo(torus, max_size, copts);
        serial.seconds = watch.seconds();
    }
    ArmReport pooled;
    {
        ThreadPool pool(workers);
        copts.pool = &pool;
        Stopwatch watch;
        pooled.outcome = parallel_min_dynamo(torus, max_size, copts);
        pooled.seconds = watch.seconds();
    }
    const bool identical = outcomes_identical(serial.outcome, pooled.outcome);
    for (const auto* arm : {&serial, &pooled}) {
        std::cerr << (arm == &serial ? "canonical serial: " : "canonical pooled: ")
                  << arm->outcome.candidates << " canonical candidates covering "
                  << arm->outcome.covered << " in " << arm->seconds << "s ("
                  << arm->decided_per_sec() / 1e6 << " M decided/s), reduction "
                  << arm->outcome.reduction_factor << "x, complete=" << arm->outcome.complete
                  << "\n";
    }

    const double speedup =
        seed.decided_per_sec() > 0 ? pooled.decided_per_sec() / seed.decided_per_sec() : 0.0;
    // The headline acceptance: a workload the seed enumerator truncates on
    // is now decided exactly, under the very same budget.
    const bool complete_flip = !seed.outcome.complete && pooled.outcome.complete;
    const bool meets_target = identical && speedup >= kTargetSpeedup;

    std::cerr << "speedup (pooled canonical vs seed enumerator): " << speedup
              << (identical ? "" : " [SERIAL/POOLED MISMATCH]")
              << ", complete flip: " << (complete_flip ? "yes" : "no") << "\n";
    if (pooled.outcome.min_size != SearchOutcome::kNoDynamo) {
        std::cerr << "min monotone dynamo size: " << pooled.outcome.min_size << " (witness)\n"
                  << io::render_field(torus, pooled.outcome.witness_field, 1);
    }

    if (!write_json) return meets_target ? 0 : 1;
    std::ofstream json_out(path);
    if (!json_out) {
        std::cerr << "cannot open " << path << " for writing\n";
        return 1;
    }
    json_out << "{\n"
        << "  \"bench\": \"bench_search_scaling\",\n"
        << "  \"config\": {\"topology\": \"" << grid::to_string(topology) << "\", \"rows\": "
        << rows << ", \"cols\": " << cols << ", \"colors\": " << int(colors)
        << ", \"max_size\": " << max_size << ", \"budget\": " << budget << ", \"shards\": "
        << shards << ", \"workers\": " << workers << "},\n"
        << "  \"arms\": {\n";
    write_arm(json_out, "seed_enumerator", seed);
    write_arm(json_out, "canonical_serial", serial);
    write_arm(json_out, "canonical_pooled", pooled, /*last=*/true);
    json_out << "  },\n"
        << "  \"bit_identical\": " << (identical ? "true" : "false") << ",\n"
        << "  \"speedup\": " << speedup << ",\n"
        << "  \"target_speedup\": " << kTargetSpeedup << ",\n"
        << "  \"complete_flip\": " << (complete_flip ? "true" : "false") << ",\n"
        << "  \"meets_target\": " << (meets_target ? "true" : "false") << "\n"
        << "}\n";
    std::cerr << "wrote " << path << "\n";
    return 0;
}

[[maybe_unused]] const bool registered = dynamo::scenario::register_scenario({
    "search_scaling",
    "search",
    "Seed-era full enumerator vs the symmetry-reduced sharded search on the "
    "committed scaling workload (BENCH_search_scaling.json)",
    0,
    {
        {"json-report", dynamo::scenario::ParamType::OptValue, "", "",
         "write the JSON record (default BENCH_search_scaling.json)"},
        {"topology", dynamo::scenario::ParamType::String, "mesh", "",
         "mesh | cordalis | serpentinus"},
        {"rows", dynamo::scenario::ParamType::Int, "4", "3", "torus rows"},
        {"cols", dynamo::scenario::ParamType::Int, "4", "3", "torus columns"},
        {"colors", dynamo::scenario::ParamType::Int, "3", "", "palette size |C|"},
        {"max-size", dynamo::scenario::ParamType::Int, "6", "2", "probe seed sizes 1..N"},
        {"budget", dynamo::scenario::ParamType::Int, "2000000", "20000",
         "simulation budget per arm"},
        {"shards", dynamo::scenario::ParamType::Int, "8", "", "decomposition width"},
        {"workers", dynamo::scenario::ParamType::Int, "0", "2",
         "pool size for the pooled arm (0 = hardware)"},
        {"help", dynamo::scenario::ParamType::Flag, "", "", "print the option summary and exit"},
    },
    &scenario_main,
});

} // namespace
