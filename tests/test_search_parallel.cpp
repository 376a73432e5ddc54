// The sharded symmetry-reduced search driver (core/search/sharded.hpp)
// and the solver portfolio (core/search/portfolio.hpp):
//
//   * bit-identical aggregate outcomes serial vs pooled and across shard
//     counts {1, 2, 7} (the shard, not the worker, is the determinism
//     unit);
//   * budget truncation is reported atomically under the pool (regression
//     for the racy plain-bool write) and is never silent;
//   * agreement with the serial full enumerator on every decided value;
//   * the portfolio settles Satisfied/Unsat instances and sums its node
//     accounting.
#include <gtest/gtest.h>

#include "core/builders.hpp"
#include "core/conditions.hpp"
#include "core/dynamo.hpp"
#include "core/search/enumerate.hpp"
#include "core/search/portfolio.hpp"
#include "core/search/sharded.hpp"
#include "rules/registry.hpp"
#include "util/rng.hpp"

namespace dynamo {
namespace {

using grid::Topology;
using grid::Torus;

/// The outcome fields that must be bit-identical across decompositions.
void expect_identical(const SearchOutcome& a, const SearchOutcome& b, const char* what) {
    EXPECT_EQ(a.complete, b.complete) << what;
    EXPECT_EQ(a.min_size, b.min_size) << what;
    EXPECT_EQ(a.probed_max_size, b.probed_max_size) << what;
    EXPECT_EQ(a.sims, b.sims) << what;
    EXPECT_EQ(a.candidates, b.candidates) << what;
    EXPECT_EQ(a.covered, b.covered) << what;
    EXPECT_EQ(a.group_order, b.group_order) << what;
    EXPECT_EQ(a.witness_seeds, b.witness_seeds) << what;
    EXPECT_EQ(a.witness_field, b.witness_field) << what;
}

TEST(ParallelSearch, SerialVsPooledBitIdenticalAcrossShardCounts) {
    ThreadPool pool(4);
    for (const Topology topo : {Topology::ToroidalMesh, Topology::TorusCordalis}) {
        Torus t(topo, 3, 3);
        SearchOutcome reference;
        bool have_reference = false;
        for (const unsigned shards : {1u, 2u, 7u}) {
            ParallelSearchOptions serial;
            serial.base.total_colors = 3;
            serial.num_shards = shards;
            ParallelSearchOptions pooled = serial;
            pooled.pool = &pool;

            const SearchOutcome s = parallel_min_dynamo(t, 3, serial);
            const SearchOutcome p = parallel_min_dynamo(t, 3, pooled);
            expect_identical(s, p, to_string(topo));
            if (!have_reference) {
                reference = s;
                have_reference = true;
            } else {
                // Untruncated outcomes are also independent of the
                // decomposition width itself.
                expect_identical(reference, s, to_string(topo));
            }
        }
        EXPECT_TRUE(reference.complete);
    }
}

TEST(ParallelSearch, AgreesWithTheSerialFullEnumerator) {
    struct Case {
        Topology topo;
        std::uint32_t m, n;
        Color colors;
        std::uint32_t probe_to;
    };
    const Case cases[] = {
        {Topology::ToroidalMesh, 3, 3, 2, 4},  // no dynamo <= 4
        {Topology::ToroidalMesh, 3, 3, 3, 3},  // min 3 (finding D5)
        {Topology::ToroidalMesh, 3, 3, 4, 3},  // min 2
        {Topology::TorusCordalis, 3, 3, 3, 3},  // min 2
    };
    ThreadPool pool(4);
    for (const Case& c : cases) {
        Torus t(c.topo, c.m, c.n);
        SearchOptions full;
        full.total_colors = c.colors;
        const SearchOutcome oracle = exhaustive_min_dynamo(t, c.probe_to, full);

        ParallelSearchOptions opts;
        opts.base.total_colors = c.colors;
        opts.num_shards = 4;
        opts.pool = &pool;
        const SearchOutcome canonical = parallel_min_dynamo(t, c.probe_to, opts);

        ASSERT_TRUE(oracle.complete);
        ASSERT_TRUE(canonical.complete);
        EXPECT_EQ(canonical.min_size, oracle.min_size) << int(c.colors);
        // The quotient must never examine more than the raw space, and its
        // coverage accounting must stay within it.
        EXPECT_LE(canonical.candidates, oracle.candidates);
        if (canonical.min_size != SearchOutcome::kNoDynamo) {
            // The canonical witness is a real witness.
            const DynamoVerdict verdict = verify_dynamo(t, canonical.witness_field, 1);
            EXPECT_TRUE(verdict.is_monotone) << verdict.summary();
        }
    }
}

TEST(ParallelSearch, NonSymmetricModeMatchesTheOracleCandidateForCandidate) {
    // use_symmetry = false makes the driver enumerate the raw space; on a
    // no-dynamo instance (no early exit anywhere) its counts must equal
    // the serial enumerator's exactly.
    Torus t(Topology::ToroidalMesh, 3, 3);
    SearchOptions full;
    full.total_colors = 2;
    const SearchOutcome oracle = exhaustive_min_dynamo(t, 4, full);

    ParallelSearchOptions opts;
    opts.base.total_colors = 2;
    opts.use_symmetry = false;
    opts.num_shards = 3;
    const SearchOutcome raw = parallel_min_dynamo(t, 4, opts);

    ASSERT_TRUE(oracle.complete);
    ASSERT_TRUE(raw.complete);
    EXPECT_EQ(raw.min_size, oracle.min_size);
    EXPECT_EQ(raw.candidates, oracle.candidates);
    EXPECT_EQ(raw.sims, oracle.sims);
    EXPECT_EQ(raw.covered, raw.candidates);
    EXPECT_EQ(raw.group_order, 1u);
}

TEST(ParallelSearch, TruncationIsReportedIdenticallySerialAndPooled) {
    // Regression for the racy truncation flag: with 7 shards racing on the
    // pool and an absurdly small budget, every decomposition must agree -
    // complete=false, and the same deterministic counters.
    Torus t(Topology::ToroidalMesh, 3, 4);
    ParallelSearchOptions serial;
    serial.base.total_colors = 3;
    serial.base.max_sims = 40;  // forces truncation in every shard
    serial.num_shards = 7;

    ThreadPool pool(4);
    ParallelSearchOptions pooled = serial;
    pooled.pool = &pool;

    const SearchOutcome s = parallel_min_dynamo(t, 4, serial);
    ASSERT_FALSE(s.complete);
    EXPECT_GT(s.sims, 0u);

    for (int repeat = 0; repeat < 5; ++repeat) {
        const SearchOutcome p = parallel_min_dynamo(t, 4, pooled);
        expect_identical(s, p, "truncated");
    }
}

TEST(ParallelSearch, QuickVerdictMatchesVerifyDynamo) {
    // The search verifies through the SMP entry's search verifier (packed
    // engine via run_to_terminal, target color 1); it must classify
    // exactly like the RunResult-carrying verify_dynamo on random fields
    // and on known dynamos.
    Xoshiro256 rng(0x9d1);
    for (const Topology topo :
         {Topology::ToroidalMesh, Topology::TorusCordalis, Topology::TorusSerpentinus}) {
        Torus t(topo, 4, 4);
        const auto verifier = rules::smp_rule().make_search_verifier(t);
        for (int trial = 0; trial < 20; ++trial) {
            ColorField f(t.size());
            for (auto& c : f) c = static_cast<Color>(1 + rng.below(3));
            const DynamoVerdict slow = verify_dynamo(t, f, 1);
            const QuickVerdict quick = verifier->verify(f);
            ASSERT_EQ(quick.is_dynamo, slow.is_dynamo) << to_string(topo) << ' ' << trial;
            ASSERT_EQ(quick.is_monotone, slow.is_monotone) << to_string(topo) << ' ' << trial;
            ASSERT_EQ(quick.rounds, slow.trace.rounds) << to_string(topo) << ' ' << trial;
        }
        // SMP is color-symmetric: swapping k and 1 puts the seeds in the
        // search convention without changing the verdict.
        const Configuration cfg = build_minimum_dynamo(t);
        ColorField seeds_as_one = cfg.field;
        for (Color& c : seeds_as_one) c = c == cfg.k ? 1 : c == 1 ? cfg.k : c;
        EXPECT_TRUE(verifier->verify(seeds_as_one).is_monotone);
    }
}

// --- solver portfolio --------------------------------------------------------

TEST(Portfolio, FindsValidColoringsAndSumsNodes) {
    Torus t(Topology::ToroidalMesh, 6, 6);
    ColorField partial(t.size(), kUnset);
    for (const grid::VertexId v : theorem2_seeds(t)) partial[v] = 1;

    ThreadPool pool(4);
    PortfolioOptions opts;
    opts.base.total_colors = 5;
    opts.num_racers = 4;
    opts.pool = &pool;
    const PortfolioResult result = solve_condition_portfolio(t, partial, 1, opts);
    ASSERT_TRUE(result.found());
    // The portfolio promises a condition-satisfying coloring - NOT a
    // monotone dynamo; the plain conditions are not sufficient for that
    // (see the pinned counterexample in tests/test_properties.cpp).
    EXPECT_TRUE(check_theorem_conditions(t, result.field, 1).ok());
    EXPECT_GE(result.winner, 0);
    EXPECT_GT(result.total_nodes, 0u);
}

TEST(Portfolio, ProvesUnsatFromAnyRacer) {
    // |C| = 3 on the 5x5 cross is unsatisfiable (Theorem 2 needs 4); one
    // complete racer proves it for the portfolio.
    Torus t(Topology::ToroidalMesh, 5, 5);
    ColorField partial(t.size(), kUnset);
    for (const grid::VertexId v : theorem2_seeds(t)) partial[v] = 1;

    ThreadPool pool(4);
    PortfolioOptions opts;
    opts.base.total_colors = 3;
    opts.num_racers = 3;
    opts.pool = &pool;
    const PortfolioResult result = solve_condition_portfolio(t, partial, 1, opts);
    EXPECT_EQ(result.status, SolverStatus::Unsat);
    EXPECT_GE(result.winner, 0);
}

TEST(Portfolio, BudgetExhaustionIsReported) {
    Torus t(Topology::ToroidalMesh, 8, 8);
    ColorField partial(t.size(), kUnset);
    for (const grid::VertexId v : theorem2_seeds(t)) partial[v] = 1;

    PortfolioOptions opts;
    opts.base.total_colors = 4;
    opts.base.max_nodes = 5;  // per racer: nobody concludes
    opts.num_racers = 4;
    const PortfolioResult result = solve_condition_portfolio(t, partial, 1, opts);
    EXPECT_EQ(result.status, SolverStatus::BudgetOut);
    EXPECT_EQ(result.winner, -1);
    EXPECT_LE(result.total_nodes, 24u);  // every racer stopped at its own budget
}

TEST(Portfolio, SerialRaceIsDeterministic) {
    Torus t(Topology::ToroidalMesh, 6, 6);
    ColorField partial(t.size(), kUnset);
    for (const grid::VertexId v : theorem2_seeds(t)) partial[v] = 1;

    PortfolioOptions opts;
    opts.base.total_colors = 5;
    opts.num_racers = 3;
    const PortfolioResult a = solve_condition_portfolio(t, partial, 1, opts);
    const PortfolioResult b = solve_condition_portfolio(t, partial, 1, opts);
    ASSERT_TRUE(a.found());
    EXPECT_EQ(a.field, b.field);
    EXPECT_EQ(a.winner, b.winner);
    EXPECT_EQ(a.total_nodes, b.total_nodes);
    EXPECT_EQ(a.winner_rng_seed, b.winner_rng_seed);
}

TEST(Portfolio, CancelledSoloSolverReportsCancelled) {
    // The cooperative token alone, without the portfolio: a pre-set flag
    // stops the solver almost immediately.
    Torus t(Topology::ToroidalMesh, 8, 8);
    ColorField partial(t.size(), kUnset);
    for (const grid::VertexId v : theorem2_seeds(t)) partial[v] = 1;
    std::atomic<bool> cancel{true};
    SolverOptions opts;
    opts.total_colors = 4;
    opts.cancel = &cancel;
    const SolverResult result = solve_condition_coloring(t, partial, 1, opts);
    EXPECT_EQ(result.status, SolverStatus::Cancelled);
    EXPECT_LE(result.nodes, 2048u);
}

} // namespace
} // namespace dynamo
