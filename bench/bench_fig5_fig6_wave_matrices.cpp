// Regenerates Figures 5 and 6: the per-vertex recoloring-time matrices
// ("time-steps remaining to assume color k") for the 5x5 toroidal mesh
// under the full-cross configuration and the 5x5 torus cordalis under the
// Theorem-4 configuration, compared cell-by-cell against the matrices
// printed in the paper.
#include "bench_common.hpp"

#include "scenario/scenario.hpp"

namespace {

using namespace dynamo;
using namespace dynamo::bench;

template <std::size_t M, std::size_t N>
void compare(std::ostream& out, const grid::Torus& torus, const RunResult& trace,
             const std::uint32_t (&expected)[M][N], const char* what) {
    out << "\nmeasured matrix (" << what << "):\n"
        << io::render_time_matrix(torus, trace.k_time);
    std::size_t mismatches = 0;
    for (std::uint32_t i = 0; i < M; ++i) {
        for (std::uint32_t j = 0; j < N; ++j) {
            if (trace.k_time[torus.index(i, j)] != expected[i][j]) ++mismatches;
        }
    }
    out << "paper matrix comparison: "
        << (mismatches == 0 ? "EXACT MATCH (all 25 cells)"
                            : std::to_string(mismatches) + " cells differ")
        << '\n';
}

} // namespace

namespace {

int scenario_main(dynamo::scenario::Context& ctx) {
    std::ostream& out = ctx.out;
    print_banner(out, "Figure 5 - recoloring-time matrix, 5x5 toroidal mesh (full cross)");
    {
        grid::Torus torus(grid::Topology::ToroidalMesh, 5, 5);
        const Configuration cfg = build_full_cross_configuration(torus);
        const RunResult trace = run_traced(torus, cfg);
        static const std::uint32_t expected[5][5] = {{0, 0, 0, 0, 0},
                                                     {0, 1, 2, 2, 1},
                                                     {0, 2, 3, 3, 2},
                                                     {0, 2, 3, 3, 2},
                                                     {0, 1, 2, 2, 1}};
        compare(out, torus, trace, expected, "mesh, full row+column cross");
        out << "rounds: measured " << trace.rounds << ", Theorem 7 formula "
                  << mesh_rounds_paper(5, 5) << " -> "
                  << match_tag(trace.rounds, mesh_rounds_paper(5, 5)) << '\n';
    }

    print_banner(out, "Figure 6 - recoloring-time matrix, 5x5 torus cordalis (Theorem 4)");
    {
        grid::Torus torus(grid::Topology::TorusCordalis, 5, 5);
        const Configuration cfg = build_theorem4_configuration(torus);
        const RunResult trace = run_traced(torus, cfg);
        static const std::uint32_t expected[5][5] = {{0, 0, 0, 0, 0},
                                                     {0, 1, 2, 3, 4},
                                                     {5, 6, 7, 8, 7},
                                                     {6, 7, 8, 7, 6},
                                                     {5, 4, 3, 2, 1}};
        compare(out, torus, trace, expected, "cordalis, row + next-row vertex");
        out << "rounds: measured " << trace.rounds << ", Theorem 8 formula "
                  << spiral_rounds_paper(5, 5) << " -> "
                  << match_tag(trace.rounds, spiral_rounds_paper(5, 5)) << '\n';
    }
    return 0;
}

[[maybe_unused]] const bool registered = dynamo::scenario::register_scenario({
    "fig5_fig6_wave_matrices",
    "figure",
    "Figures 5 & 6 - per-vertex recoloring-time matrices on the 5x5 mesh and "
    "cordalis, compared cell-by-cell against the paper",
    0,
    {},
    &scenario_main,
});

} // namespace
