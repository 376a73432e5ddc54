// Metamorphic properties of the SMP-Protocol - invariances that must hold
// for ANY correct implementation, checked on randomized instances:
//
//   * color-permutation equivariance: relabel colors by any permutation
//     pi, simulate, and the trace is the pi-image of the original;
//   * translation equivariance: the torus has no distinguished origin, so
//     shifting the initial field shifts the whole evolution;
//   * idempotence of terminal states: re-running from a fixed point
//     changes nothing;
//   * Lemma 3's block-size bounds on randomly grown blocks;
//   * soundness nets over the search subsystem: the Theorem 2/4/6
//     sufficient conditions imply monotone dynamos (randomized over torus
//     sizes, topologies and palettes, with solver-generated instances);
//     the non-dynamo certificate never fires on accepted configurations;
//     every minimum witness the exhaustive search finds satisfies Lemma 1
//     and holds no non-k-block.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/blocks.hpp"
#include "core/builders.hpp"
#include "core/conditions.hpp"
#include "core/dynamo.hpp"
#include "core/run/simulate.hpp"
#include "core/search/enumerate.hpp"
#include "core/search/sharded.hpp"
#include "core/solver.hpp"
#include "util/rng.hpp"

namespace dynamo {
namespace {

using grid::Topology;
using grid::Torus;

ColorField random_field(const Torus& t, Color colors, Xoshiro256& rng) {
    ColorField f(t.size());
    for (auto& c : f) c = static_cast<Color>(1 + rng.below(colors));
    return f;
}

TEST(Metamorphic, ColorPermutationEquivariance) {
    Xoshiro256 rng(0x9e4);
    for (const Topology topo :
         {Topology::ToroidalMesh, Topology::TorusCordalis, Topology::TorusSerpentinus}) {
        for (int trial = 0; trial < 8; ++trial) {
            Torus t(topo, 8, 7);
            const ColorField f = random_field(t, 5, rng);

            // Random permutation pi of {1..5}.
            std::array<Color, 6> pi{};
            std::iota(pi.begin() + 1, pi.end(), 1);
            for (std::size_t i = 5; i > 1; --i) {
                std::swap(pi[i], pi[1 + rng.below(i)]);
            }
            ColorField g(f.size());
            for (std::size_t v = 0; v < f.size(); ++v) g[v] = pi[f[v]];

            RunOptions opts;
            opts.max_rounds = 50;
            const RunResult ta = simulate(t, f, opts);
            const RunResult tb = simulate(t, g, opts);
            ASSERT_EQ(ta.rounds, tb.rounds) << to_string(topo) << ' ' << trial;
            ASSERT_EQ(ta.termination, tb.termination) << to_string(topo) << ' ' << trial;
            for (std::size_t v = 0; v < f.size(); ++v) {
                ASSERT_EQ(pi[ta.final_colors[v]], tb.final_colors[v])
                    << to_string(topo) << ' ' << trial << " vertex " << v;
            }
        }
    }
}

TEST(Metamorphic, TranslationEquivarianceOnTheMesh) {
    // The toroidal mesh is vertex-transitive under all translations.
    Xoshiro256 rng(0x7a5);
    Torus t(Topology::ToroidalMesh, 8, 8);
    for (int trial = 0; trial < 8; ++trial) {
        const ColorField f = random_field(t, 4, rng);
        const std::uint32_t di = static_cast<std::uint32_t>(rng.below(8));
        const std::uint32_t dj = static_cast<std::uint32_t>(rng.below(8));
        ColorField g(f.size());
        for (std::uint32_t i = 0; i < 8; ++i) {
            for (std::uint32_t j = 0; j < 8; ++j) {
                g[t.index((i + di) % 8, (j + dj) % 8)] = f[t.index(i, j)];
            }
        }
        RunOptions opts;
        opts.max_rounds = 40;
        const RunResult ta = simulate(t, f, opts);
        const RunResult tb = simulate(t, g, opts);
        ASSERT_EQ(ta.rounds, tb.rounds) << trial;
        for (std::uint32_t i = 0; i < 8; ++i) {
            for (std::uint32_t j = 0; j < 8; ++j) {
                ASSERT_EQ(ta.final_colors[t.index(i, j)],
                          tb.final_colors[t.index((i + di) % 8, (j + dj) % 8)])
                    << trial << ' ' << i << ',' << j;
            }
        }
    }
}

TEST(Metamorphic, RowTranslationEquivarianceOnTheCordalis) {
    // The cordalis spiral is invariant under whole-row shifts (i -> i+d).
    Xoshiro256 rng(0xc0d);
    Torus t(Topology::TorusCordalis, 7, 6);
    for (int trial = 0; trial < 8; ++trial) {
        const ColorField f = random_field(t, 4, rng);
        const std::uint32_t di = 1 + static_cast<std::uint32_t>(rng.below(6));
        ColorField g(f.size());
        for (std::uint32_t i = 0; i < 7; ++i) {
            for (std::uint32_t j = 0; j < 6; ++j) {
                g[t.index((i + di) % 7, j)] = f[t.index(i, j)];
            }
        }
        RunOptions opts;
        opts.max_rounds = 40;
        const RunResult ta = simulate(t, f, opts);
        const RunResult tb = simulate(t, g, opts);
        ASSERT_EQ(ta.rounds, tb.rounds) << trial;
        ASSERT_EQ(ta.termination, tb.termination) << trial;
    }
}

TEST(Metamorphic, TerminalStatesAreIdempotent) {
    Xoshiro256 rng(0x1de);
    for (int trial = 0; trial < 10; ++trial) {
        Torus t(Topology::ToroidalMesh, 7, 7);
        RunOptions opts;
        opts.max_rounds = 60;
        const RunResult first = simulate(t, random_field(t, 3, rng), opts);
        if (first.termination != Termination::FixedPoint &&
            first.termination != Termination::Monochromatic) {
            continue;  // cycles are terminal but not fixed
        }
        const RunResult again = simulate(t, first.final_colors, opts);
        EXPECT_EQ(again.rounds, 0u) << trial;
        EXPECT_EQ(again.final_colors, first.final_colors) << trial;
    }
}

TEST(Lemma3, BlockSizeLowerBounds) {
    // Lemma 3: a k-block B on an m x n mesh has |B| >= m_B + n_B when its
    // bounding box is proper, and |B| >= m_B + n_B - 1 when it spans a
    // full dimension. Verify on randomly grown valid blocks.
    Xoshiro256 rng(0x1e3);
    Torus t(Topology::ToroidalMesh, 9, 9);
    for (int trial = 0; trial < 60; ++trial) {
        // Grow a random rectangle-ish union of 2x2 squares: always a block.
        ColorField f(t.size(), 2);
        const int squares = 1 + static_cast<int>(rng.below(4));
        for (int s = 0; s < squares; ++s) {
            const auto bi = static_cast<std::uint32_t>(rng.below(8));
            const auto bj = static_cast<std::uint32_t>(rng.below(8));
            for (std::uint32_t di = 0; di < 2; ++di)
                for (std::uint32_t dj = 0; dj < 2; ++dj)
                    f[t.index((bi + di) % 9, (bj + dj) % 9)] = 1;
        }
        for (const auto& block : find_k_blocks(t, f, 1)) {
            const BoundingBox box = bounding_box(t, block);
            const std::uint32_t bound = (box.rows >= t.rows() || box.cols >= t.cols())
                                            ? box.rows + box.cols - 1
                                            : box.rows + box.cols;
            EXPECT_GE(block.size(), bound)
                << trial << ": block of " << block.size() << " in box " << box.rows << "x"
                << box.cols;
        }
    }
}

TEST(ConditionsOracle, StrictAcceptedColoringsAreMonotoneDynamos) {
    // Theorems 2/4/6 as a property: for the theorem seed geometries, any
    // complete coloring accepted by check_theorem_conditions AND
    // seed_neighbors_distinct (condition (2) extended to the seed class -
    // see the finding in core/conditions.hpp) is a monotone dynamo.
    // Instances are generated by the backtracking solver under randomized
    // value orders, over random torus sizes, all three topologies, and
    // |C| in {4, 5}.
    Xoshiro256 rng(0x0c1e);
    int strict = 0;
    for (const Topology topo :
         {Topology::ToroidalMesh, Topology::TorusCordalis, Topology::TorusSerpentinus}) {
        for (int trial = 0; trial < 64; ++trial) {
            const auto m = static_cast<std::uint32_t>(4 + rng.below(3));
            const auto n = static_cast<std::uint32_t>(4 + rng.below(3));
            Torus t(topo, m, n);
            const Configuration cfg = topo == Topology::ToroidalMesh
                                          ? build_theorem2_configuration(t)
                                          : build_minimum_dynamo(t);
            ColorField partial(t.size(), kUnset);
            for (const grid::VertexId v : cfg.seeds) partial[v] = 1;

            SolverOptions opts;
            opts.total_colors = static_cast<Color>(4 + rng.below(2));
            opts.rng_seed = rng.next() | 1;
            opts.max_nodes = 150'000;
            const SolverResult result = solve_condition_coloring(t, partial, 1, opts);
            if (!result.found()) continue;  // budget-out / unsat: nothing to test

            ASSERT_TRUE(theorem_conditions_hold(t, result.field, 1))
                << to_string(topo) << ' ' << m << 'x' << n;
            if (!seed_neighbors_distinct(t, result.field, 1)) continue;
            ++strict;
            const DynamoVerdict verdict = verify_dynamo(t, result.field, 1);
            EXPECT_TRUE(verdict.is_monotone)
                << to_string(topo) << ' ' << m << 'x' << n << ": " << verdict.summary();
        }
    }
    EXPECT_GE(strict, 10) << "too few strict instances sampled to trust the net";
}

TEST(ConditionsOracle, PlainConditionsAreNotSufficientPinnedCounterexample) {
    // The finding itself, pinned: WITHOUT the seed-distinctness extension
    // the checker accepts colorings of the Theorem-2 seed set that are
    // not monotone dynamos. The hunt below is deterministic (fixed rng
    // stream), so this documents a concrete counterexample forever; if a
    // future change makes check_theorem_conditions imply monotone dynamos
    // outright, this test will fail and the finding should be re-examined.
    Xoshiro256 rng(0x0bad);
    for (int attempt = 0; attempt < 40; ++attempt) {
        const auto m = static_cast<std::uint32_t>(4 + rng.below(2));
        const auto n = static_cast<std::uint32_t>(4 + rng.below(2));
        Torus t(Topology::ToroidalMesh, m, n);
        ColorField partial(t.size(), kUnset);
        for (const grid::VertexId v : theorem2_seeds(t)) partial[v] = 1;
        SolverOptions opts;
        opts.total_colors = 4;
        opts.rng_seed = rng.next() | 1;
        opts.max_nodes = 150'000;
        const SolverResult result = solve_condition_coloring(t, partial, 1, opts);
        if (!result.found()) continue;
        if (seed_neighbors_distinct(t, result.field, 1)) continue;
        if (verify_dynamo(t, result.field, 1).is_monotone) continue;
        // Found: accepted by the plain conditions, yet not a monotone
        // dynamo - and the strict extension correctly rejects it.
        ASSERT_TRUE(theorem_conditions_hold(t, result.field, 1));
        SUCCEED();
        return;
    }
    FAIL() << "no counterexample found: plain conditions may now be sufficient";
}

TEST(ConditionsOracle, MutatedStrictColoringsStaySound) {
    // Metamorphic follow-up: mutate accepted colorings cell by cell; when
    // the strict checker still accepts, the verdict must still be a
    // monotone dynamo (the oracle holds on the whole accepted region, not
    // just on solver outputs).
    Xoshiro256 rng(0x517e);
    // 6x6: n = 0 (mod 3), where the paper's stripe family needs only 4
    // colors, so strict solutions are plentiful at |C| = 5 (on 5x5 the
    // stripe family needs 6 colors and strict |C|=5 solutions are rare
    // to nonexistent).
    Torus t(Topology::ToroidalMesh, 6, 6);
    ColorField partial(t.size(), kUnset);
    for (const grid::VertexId v : theorem2_seeds(t)) partial[v] = 1;
    // Hunt (deterministically) for a STRICT base solution to mutate
    // around; mutations of a non-strict base almost never re-enter the
    // strict region.
    SolverResult base;
    for (int attempt = 0; attempt < 60 && !base.found(); ++attempt) {
        SolverOptions opts;
        opts.total_colors = 5;
        opts.rng_seed = rng.next() | 1;
        opts.max_nodes = 150'000;
        SolverResult candidate = solve_condition_coloring(t, partial, 1, opts);
        if (candidate.found() && seed_neighbors_distinct(t, candidate.field, 1)) {
            base = std::move(candidate);
        }
    }
    ASSERT_TRUE(base.found()) << "no strict base solution found";

    int accepted = 0;
    for (int trial = 0; trial < 200; ++trial) {
        ColorField mutated = base.field;
        const auto v = static_cast<grid::VertexId>(rng.below(t.size()));
        if (mutated[v] == 1) continue;  // keep the seed set fixed
        mutated[v] = static_cast<Color>(2 + rng.below(4));
        if (!theorem_conditions_hold(t, mutated, 1)) continue;
        if (!seed_neighbors_distinct(t, mutated, 1)) continue;
        ++accepted;
        EXPECT_TRUE(verify_dynamo(t, mutated, 1).is_monotone) << trial;
    }
    EXPECT_GT(accepted, 0);
}

TEST(CertificateSoundness, NeverFiresOnConfigurationsTheSimulationAccepts) {
    // has_non_dynamo_certificate is a *negative* certificate: it may
    // never fire on a configuration verify_dynamo accepts. Randomized
    // over topologies, palettes and seed densities biased so both
    // accepted and rejected configurations occur.
    Xoshiro256 rng(0xce47);
    int dynamos = 0;
    for (const Topology topo :
         {Topology::ToroidalMesh, Topology::TorusCordalis, Topology::TorusSerpentinus}) {
        for (int trial = 0; trial < 60; ++trial) {
            const auto m = static_cast<std::uint32_t>(3 + rng.below(3));
            const auto n = static_cast<std::uint32_t>(3 + rng.below(3));
            Torus t(topo, m, n);
            const Color colors = static_cast<Color>(2 + rng.below(3));
            const double density = 0.3 + 0.5 * rng.uniform();
            ColorField f(t.size());
            for (auto& c : f) {
                c = rng.bernoulli(density) ? Color{1}
                                           : static_cast<Color>(2 + rng.below(colors - 1));
            }
            const bool accepted = verify_dynamo(t, f, 1).is_dynamo;
            if (accepted) {
                ++dynamos;
                EXPECT_FALSE(has_non_dynamo_certificate(t, f, 1))
                    << to_string(topo) << ' ' << m << 'x' << n << " trial " << trial;
            }
        }
    }
    EXPECT_GE(dynamos, 10) << "too few dynamos sampled to trust the net";
}

/// The non-k-block certificate and, on the toroidal mesh, Lemma 1 on one
/// monotone dynamo: no block of another color (which could never recolor)
/// is left in its field, and its seeds span at least (m-1) x (n-1). Lemma
/// 1 is the mesh's lemma: on the 3x3 torus cordalis four minimum
/// witnesses span only two rows.
void expect_lemma1_and_no_non_k_block(const Torus& t, const std::vector<grid::VertexId>& seeds,
                                      const ColorField& field) {
    EXPECT_FALSE(has_non_k_block(t, field, kSearchSeedColor)) << to_string(t.topology());
    if (t.topology() != Topology::ToroidalMesh) return;
    const BoundingBox box = bounding_box(t, seeds);
    EXPECT_GE(box.rows + 1, t.rows());
    EXPECT_GE(box.cols + 1, t.cols());
}

TEST(SearchLemmas, EveryMinimumWitnessPassesTheBoxAndHasNoNonKBlock) {
    // The searches prune nothing, so they do not assume these lemmas: on
    // tiny tori, the canonical search's witness and a witness of every
    // seed set of the minimum size that admits a monotone dynamo satisfy
    // them.
    for (const Topology topo :
         {Topology::ToroidalMesh, Topology::TorusCordalis, Topology::TorusSerpentinus}) {
        Torus t(topo, 3, 3);
        ParallelSearchOptions par;
        par.base.total_colors = 3;
        par.num_shards = 2;
        const SearchOutcome outcome = parallel_min_dynamo(t, 3, par);
        ASSERT_TRUE(outcome.complete);
        ASSERT_NE(outcome.min_size, SearchOutcome::kNoDynamo) << to_string(topo);
        expect_lemma1_and_no_non_k_block(t, outcome.witness_seeds, outcome.witness_field);

        std::vector<std::uint32_t> comb(outcome.min_size);
        std::iota(comb.begin(), comb.end(), 0u);
        std::size_t witnesses = 0;
        do {
            const std::vector<grid::VertexId> seeds(comb.begin(), comb.end());
            const SeedProbe probe = seed_set_admits_dynamo(t, seeds, par.base);
            ASSERT_TRUE(probe.complete);
            if (!probe.found) continue;
            ++witnesses;
            expect_lemma1_and_no_non_k_block(t, seeds, probe.witness_field);
        } while (search_detail::next_combination(comb, static_cast<std::uint32_t>(t.size())));
        EXPECT_GT(witnesses, 0u) << to_string(topo);
    }
}

TEST(Lemma3, ColumnAndCrossExamples) {
    Torus t(Topology::ToroidalMesh, 6, 8);
    // A full column: box 6x1, spans m -> bound m_B + n_B - 1 = 6. Size 6.
    ColorField col(t.size(), 2);
    for (std::uint32_t i = 0; i < 6; ++i) col[t.index(i, 2)] = 1;
    const auto blocks = find_k_blocks(t, col, 1);
    ASSERT_EQ(blocks.size(), 1u);
    EXPECT_EQ(blocks[0].size(), 6u);
    const BoundingBox box = bounding_box(t, blocks[0]);
    EXPECT_EQ(box.rows + box.cols - 1, 6u);
}

} // namespace
} // namespace dynamo
