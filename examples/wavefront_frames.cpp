// wavefront_frames - visual companion to Figures 5/6: renders the k-wave
// of a dynamo as ASCII snapshots and a sequence of PPM images (one per
// round) ready for `ffmpeg -i frame_%03d.ppm wave.gif`.
//
// Run-API showcase: the frame dumping, census/entropy trace, and adoption
// bookkeeping are all observers attached to one simulate() call - no
// hand-rolled step loop (compare the seed version of this file).
//
//   ./wavefront_frames [--topology=cordalis] [--m=16] [--n=16]
//                      [--outdir=/tmp/dynamo_frames] [--every=1]
#include <iostream>

#include "analysis/census_series.hpp"
#include "core/builders.hpp"
#include "core/run/simulate.hpp"
#include "io/ascii.hpp"
#include "io/frame_dumper.hpp"
#include "util/cli.hpp"

#include "scenario/scenario.hpp"

namespace {

int scenario_main(dynamo::scenario::Context& ctx) {
    std::ostream& out = ctx.out;
    using namespace dynamo;
    const CliArgs& args = ctx.args;
    const grid::Topology topo =
        grid::topology_from_string(args.get_string("topology", "cordalis"));
    const auto m = args.get_int_as<std::uint32_t>("m", 16);
    const auto n = args.get_int_as<std::uint32_t>("n", 16);
    const std::string outdir = args.get_string("outdir", "/tmp/dynamo_frames");
    const auto every = args.get_int_as<std::uint32_t>("every", 1);

    grid::Torus torus(topo, m, n);
    const Configuration cfg = build_minimum_dynamo(torus);

    out << "round 0 (" << to_string(topo) << ' ' << m << 'x' << n << ", |S_k|="
              << cfg.seeds.size() << "):\n"
              << io::render_field(torus, cfg.field, cfg.k);

    io::FrameDumper frames(torus, outdir, every, /*scale=*/12);
    analysis::CensusSeries census;
    RunOptions opts;
    opts.target = cfg.k;
    opts.observers = {&frames, &census};
    const RunResult result = simulate(torus, cfg.field, opts);

    out << "round " << result.rounds << " (" << to_string(result.termination) << "):\n"
              << io::render_field(torus, result.final_colors, cfg.k);

    out << "\nentropy decay (bits/round):";
    for (const auto& sample : census.samples()) out << ' ' << sample.entropy_bits;
    out << "\nwavefront sizes per round: " << io::render_wavefront(result.newly_k);

    out << "\nwrote " << frames.frames_written() << " PPM frames to " << outdir
              << " (assemble: ffmpeg -i " << outdir << "/frame_%03d.ppm wave.gif)\n";
    return result.reached_mono(cfg.k) ? 0 : 1;
}

[[maybe_unused]] const bool registered = dynamo::scenario::register_scenario({
    "wavefront_frames",
    "example",
    "Render the k-wave of a dynamo as ASCII snapshots plus PPM frames via run-API "
    "observers",
    0,
    {
        {"topology", dynamo::scenario::ParamType::String, "cordalis", "",
         "mesh | cordalis | serpentinus"},
        {"m", dynamo::scenario::ParamType::Int, "16", "6", "torus rows"},
        {"n", dynamo::scenario::ParamType::Int, "16", "6", "torus columns"},
        {"outdir", dynamo::scenario::ParamType::String, "/tmp/dynamo_frames",
         "/tmp/dynamo_frames_smoke", "PPM output directory"},
        {"every", dynamo::scenario::ParamType::Int, "1", "", "dump every Nth round"},
    },
    &scenario_main,
});

} // namespace
