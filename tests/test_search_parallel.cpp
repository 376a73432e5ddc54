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
#include "core/sim/lane_engine.hpp"
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
        // 8 colors: past the lanes' 7-color palette, so the sharded
        // driver verifies every candidate through rule.run.
        {Topology::ToroidalMesh, 2, 2, 8, 2},  // min 2
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

/// Budgets that end a 64-lane batch after its first lane, one lane short of
/// full, exactly full, one lane into the second batch and one into the
/// third; 0 = unbounded.
constexpr std::uint64_t kBatchEdgeBudgets[] = {0, 1, 63, 64, 65, 129};

/// The search instances of the batch-edge tests: a 3x3 mesh with no dynamo
/// up to size 4 (no early exit anywhere), and one with a witness at size 2
/// that lanes reach mid-batch.
struct EdgeCase {
    Topology topo;
    Color colors;
    std::uint32_t probe_to;
};
constexpr EdgeCase kEdgeCases[] = {
    {Topology::ToroidalMesh, 2, 4},
    {Topology::TorusCordalis, 3, 3},
};

/// The one-shard raw-space driver rebuilt from the serial oracle's
/// per-seed-set probe: the seed sets of each size in combination order,
/// each given the budget left, the size finished past a witness (the
/// driver decides only once a size is done), stopping at the first
/// truncation. Every candidate is simulated (none is pruned), so candidates
/// == covered == sims.
SearchOutcome one_shard_oracle(const Torus& t, std::uint32_t max_size, const SearchOptions& opts) {
    SearchOutcome out;
    std::uint64_t used = 0;
    for (std::uint32_t size = 1; size <= max_size; ++size) {
        std::vector<std::uint32_t> comb(size);
        for (std::uint32_t i = 0; i < size; ++i) comb[i] = i;
        bool truncated = false;
        do {
            const std::vector<grid::VertexId> seeds(comb.begin(), comb.end());
            SearchOptions left = opts;
            left.max_sims = opts.max_sims - used;
            SeedProbe probe = seed_set_admits_dynamo(t, seeds, left);
            used += probe.sims;
            if (probe.found && out.witness_seeds.empty()) {
                out.witness_seeds = seeds;
                out.witness_field = std::move(probe.witness_field);
            }
            truncated = !probe.complete;
        } while (!truncated && search_detail::next_combination(comb, t.size()));
        out.probed_max_size = size;
        if (!out.witness_seeds.empty()) out.min_size = size;
        if (!out.witness_seeds.empty() || truncated) break;
    }
    out.complete = out.min_size != SearchOutcome::kNoDynamo || used <= opts.max_sims;
    out.sims = out.candidates = out.covered = used;
    return out;
}

TEST(ParallelSearch, NonSymmetricModeMatchesTheOracleCandidateForCandidate) {
    // use_symmetry = false makes the driver enumerate the raw space. At one
    // shard it walks the serial enumerator's order, truncated outcomes
    // included, because the lanes report the first deciding candidate with
    // the counters rolled back to it: its verdict and witness equal
    // exhaustive_min_dynamo's, and so do its counts when no witness is
    // found. Past a witness the driver still finishes the size, so its
    // counts are then those of the oracle's per-seed-set probes
    // (one_shard_oracle). At 3 and 8 shards it must be serial == pooled.
    ThreadPool pool(4);
    for (const EdgeCase& c : kEdgeCases) {
        Torus t(c.topo, 3, 3);
        // Also budgets that end one simulation before, on and after the
        // oracle's witness.
        std::vector<std::uint64_t> budgets(std::begin(kBatchEdgeBudgets),
                                           std::end(kBatchEdgeBudgets));
        SearchOptions unbounded;
        unbounded.total_colors = c.colors;
        const SearchOutcome decided = exhaustive_min_dynamo(t, c.probe_to, unbounded);
        if (decided.min_size != SearchOutcome::kNoDynamo) {
            budgets.insert(budgets.end(), {decided.sims - 1, decided.sims, decided.sims + 1});
        }
        for (const std::uint64_t budget : budgets) {
            const std::string where = std::string(to_string(c.topo)) + " budget " +
                                      std::to_string(budget);
            SearchOptions full = unbounded;
            if (budget != 0) full.max_sims = budget;
            const SearchOutcome oracle = exhaustive_min_dynamo(t, c.probe_to, full);

            ParallelSearchOptions opts;
            opts.base = full;
            opts.use_symmetry = false;
            const SearchOutcome one = parallel_min_dynamo(t, c.probe_to, opts);
            expect_identical(one_shard_oracle(t, c.probe_to, full), one, where.c_str());
            EXPECT_EQ(one.complete, oracle.complete) << where;
            EXPECT_EQ(one.min_size, oracle.min_size) << where;
            EXPECT_EQ(one.witness_seeds, oracle.witness_seeds) << where;
            EXPECT_EQ(one.witness_field, oracle.witness_field) << where;
            if (oracle.min_size == SearchOutcome::kNoDynamo) {
                expect_identical(oracle, one, where.c_str());
            }
            EXPECT_EQ(one.covered, one.candidates) << where;
            EXPECT_EQ(one.group_order, 1u) << where;

            for (const unsigned shards : {3u, 8u}) {
                opts.num_shards = shards;
                opts.pool = nullptr;
                const SearchOutcome raw = parallel_min_dynamo(t, c.probe_to, opts);
                opts.pool = &pool;
                expect_identical(raw, parallel_min_dynamo(t, c.probe_to, opts), where.c_str());
                EXPECT_EQ(raw.covered, raw.candidates) << where;
                EXPECT_EQ(raw.group_order, 1u) << where;
                if (budget != 0) continue;  // the shards split the budget
                ASSERT_TRUE(oracle.complete) << where;
                EXPECT_TRUE(raw.complete) << where;
                EXPECT_EQ(raw.min_size, oracle.min_size) << where;
                if (oracle.min_size == SearchOutcome::kNoDynamo) {
                    EXPECT_EQ(raw.candidates, oracle.candidates) << where;
                    EXPECT_EQ(raw.sims, oracle.sims) << where;
                }
            }
        }
    }

    // The witness instance really decides mid-batch: the witness is
    // neither the first nor the last lane of its unit's batch, and the
    // budgets above end the search both before and after it.
    Torus t(kEdgeCases[1].topo, 3, 3);
    SearchOptions full;
    full.total_colors = kEdgeCases[1].colors;
    const SearchOutcome oracle = exhaustive_min_dynamo(t, kEdgeCases[1].probe_to, full);
    ASSERT_NE(oracle.min_size, SearchOutcome::kNoDynamo);
    const std::uint64_t lane =
        (seed_set_admits_dynamo(t, oracle.witness_seeds, full).sims - 1) % 64;
    EXPECT_NE(lane, 0u);
    EXPECT_NE(lane, 63u);
    EXPECT_GT(oracle.sims, 129u);
}

TEST(ParallelSearch, TruncationIsReportedIdenticallySerialAndPooled) {
    // Regression for the racy truncation flag: with shards racing on the
    // pool and budgets that end batches early, on their edges and just
    // past them, every decomposition must agree - complete=false, and the
    // same deterministic counters.
    ThreadPool pool(4);
    Torus t(Topology::ToroidalMesh, 3, 4);
    for (const std::uint64_t budget : {std::uint64_t{40}, std::uint64_t{1}, std::uint64_t{63},
                                       std::uint64_t{64}, std::uint64_t{65}, std::uint64_t{129}}) {
        for (const unsigned shards : {3u, 7u, 8u}) {
            const std::string where =
                "truncated budget " + std::to_string(budget) + " shards " + std::to_string(shards);
            ParallelSearchOptions serial;
            serial.base.total_colors = 3;
            serial.base.max_sims = budget;  // forces truncation in every shard
            serial.num_shards = shards;
            ParallelSearchOptions pooled = serial;
            pooled.pool = &pool;

            const SearchOutcome s = parallel_min_dynamo(t, 4, serial);
            ASSERT_FALSE(s.complete) << where;
            EXPECT_GT(s.sims, 0u) << where;
            for (int repeat = 0; repeat < 5; ++repeat) {
                expect_identical(s, parallel_min_dynamo(t, 4, pooled), where.c_str());
            }
        }
    }
    // The witness instance of the batch-edge cases, under the quotient.
    for (const EdgeCase& c : kEdgeCases) {
        Torus small(c.topo, 3, 3);
        for (const std::uint64_t budget : kBatchEdgeBudgets) {
            for (const unsigned shards : {3u, 8u}) {
                const std::string where = std::string(to_string(c.topo)) + " budget " +
                                          std::to_string(budget) + " shards " +
                                          std::to_string(shards);
                ParallelSearchOptions serial;
                serial.base.total_colors = c.colors;
                if (budget != 0) serial.base.max_sims = budget;
                serial.num_shards = shards;
                ParallelSearchOptions pooled = serial;
                pooled.pool = &pool;
                expect_identical(parallel_min_dynamo(small, c.probe_to, serial),
                                 parallel_min_dynamo(small, c.probe_to, pooled), where.c_str());
            }
        }
    }
}

TEST(ParallelSearch, LaneVerdictsMatchVerifyDynamo) {
    // The search verifies its SMP candidates on the SMP lane batch, target
    // color 1; each ended lane must classify exactly like the
    // RunResult-carrying verify_dynamo on random fields and on known
    // dynamos.
    Xoshiro256 rng(0x9d1);
    for (const Topology topo :
         {Topology::ToroidalMesh, Topology::TorusCordalis, Topology::TorusSerpentinus}) {
        Torus t(topo, 4, 4);
        std::vector<ColorField> fields;
        for (int trial = 0; trial < 20; ++trial) {
            ColorField f(t.size());
            for (auto& c : f) c = static_cast<Color>(1 + rng.below(3));
            fields.push_back(std::move(f));
        }
        // SMP is color-symmetric: swapping k and 1 puts the seeds in the
        // search convention without changing the verdict.
        const Configuration cfg = build_minimum_dynamo(t);
        ColorField seeds_as_one = cfg.field;
        for (Color& c : seeds_as_one) c = c == cfg.k ? 1 : c == 1 ? cfg.k : c;
        fields.push_back(seeds_as_one);

        const auto batch = rules::smp_rule().make_lane_batch(t);
        batch->clear();
        for (unsigned lane = 0; lane < fields.size(); ++lane) {
            for (std::size_t v = 0; v < t.size(); ++v) batch->put(lane, v, fields[lane][v]);
        }
        std::array<sim::LaneOutcome, sim::LaneBatch::kLanes> ends;
        batch->run(static_cast<unsigned>(fields.size()), sim::kDefaultLaneCap, 1, ends);
        for (std::size_t lane = 0; lane < fields.size(); ++lane) {
            const std::string where = std::string(to_string(topo)) + ' ' + std::to_string(lane);
            const DynamoVerdict slow = verify_dynamo(t, fields[lane], 1);
            const sim::LaneOutcome& quick = ends[lane];
            ASSERT_TRUE(quick.ended) << where;
            const bool is_dynamo =
                quick.termination == Termination::Monochromatic && quick.mono == 1;
            ASSERT_EQ(is_dynamo, slow.is_dynamo) << where;
            ASSERT_EQ(is_dynamo && quick.monotone, slow.is_monotone) << where;
            ASSERT_EQ(quick.rounds, slow.trace.rounds) << where;
        }
        const sim::LaneOutcome& known = ends[fields.size() - 1];
        EXPECT_TRUE(known.termination == Termination::Monochromatic && known.mono == 1 &&
                    known.monotone)
            << to_string(topo);
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
