// Constructive configurations (Theorems 2, 4, 6 + Figures 3/4): seed sets
// match the paper's sizes exactly, every construction verifies as a
// monotone dynamo across size sweeps, and the counterexamples fail in the
// documented ways.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/blocks.hpp"
#include "core/bounds.hpp"
#include "core/builders.hpp"
#include "core/conditions.hpp"
#include "core/dynamo.hpp"

namespace dynamo {
namespace {

using grid::Topology;
using grid::Torus;

TEST(Seeds, Theorem2SeedsAreColumnPlusShortRow) {
    Torus t(Topology::ToroidalMesh, 5, 7);
    const auto seeds = theorem2_seeds(t);
    EXPECT_EQ(seeds.size(), mesh_construction_size(5, 7));  // m + n - 2 = 10
    const std::set<grid::VertexId> set(seeds.begin(), seeds.end());
    for (std::uint32_t i = 0; i < 5; ++i) EXPECT_TRUE(set.count(t.index(i, 0)));
    for (std::uint32_t j = 1; j < 6; ++j) EXPECT_TRUE(set.count(t.index(0, j)));
    EXPECT_FALSE(set.count(t.index(0, 6)));  // the pendant is not a seed
}

TEST(Seeds, Theorem4SeedsAreRowPlusOne) {
    Torus t(Topology::TorusCordalis, 6, 5);
    const auto seeds = theorem4_seeds(t);
    EXPECT_EQ(seeds.size(), cordalis_construction_size(6, 5));  // n + 1 = 6
    const std::set<grid::VertexId> set(seeds.begin(), seeds.end());
    for (std::uint32_t j = 0; j < 5; ++j) EXPECT_TRUE(set.count(t.index(0, j)));
    EXPECT_TRUE(set.count(t.index(1, 0)));
}

TEST(Seeds, Theorem6PicksTheSmallerDimension) {
    {
        Torus t(Topology::TorusSerpentinus, 8, 5);  // N = n = 5
        EXPECT_EQ(theorem6_seeds(t).size(), serpentinus_construction_size(8, 5));  // N + 1 = 6
    }
    {
        Torus t(Topology::TorusSerpentinus, 5, 8);  // N = m = 5
        const auto seeds = theorem6_seeds(t);
        EXPECT_EQ(seeds.size(), serpentinus_construction_size(5, 8));  // N + 1 = 6
        const std::set<grid::VertexId> set(seeds.begin(), seeds.end());
        for (std::uint32_t i = 0; i < 5; ++i) EXPECT_TRUE(set.count(t.index(i, 0)));
        EXPECT_TRUE(set.count(t.index(0, 1)));
    }
}

TEST(Seeds, FullCrossSize) {
    Torus t(Topology::ToroidalMesh, 6, 9);
    EXPECT_EQ(full_cross_seeds(t).size(), 6u + 9u - 1u);
}

struct SweepParam {
    std::uint32_t m;
    std::uint32_t n;
};

class ConstructionSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ConstructionSweep, Theorem2IsAMinimumSizeMonotoneDynamo) {
    const auto [m, n] = GetParam();
    Torus t(Topology::ToroidalMesh, m, n);
    const Configuration cfg = build_theorem2_configuration(t);

    EXPECT_EQ(cfg.seeds.size(), mesh_size_lower_bound(m, n));
    EXPECT_EQ(count_color(cfg.field, cfg.k), cfg.seeds.size());
    EXPECT_TRUE(check_theorem_conditions(t, cfg.field, cfg.k).ok());

    const DynamoVerdict verdict = verify_dynamo(t, cfg.field, cfg.k);
    EXPECT_TRUE(verdict.is_dynamo) << m << "x" << n << ": " << verdict.summary();
    EXPECT_TRUE(verdict.is_monotone) << m << "x" << n;

    // Theorem 1(i): the seed bounding box spans at least (m-1) x (n-1).
    const BoundingBox box = bounding_box(t, cfg.seeds);
    EXPECT_GE(box.rows + 1, m);
    EXPECT_GE(box.cols + 1, n);
}

TEST_P(ConstructionSweep, Theorem4CordalisIsAMinimumSizeMonotoneDynamo) {
    const auto [m, n] = GetParam();
    Torus t(Topology::TorusCordalis, m, n);
    const Configuration cfg = build_theorem4_configuration(t);
    EXPECT_EQ(cfg.seeds.size(), cordalis_size_lower_bound(m, n));
    EXPECT_TRUE(check_theorem_conditions(t, cfg.field, cfg.k).ok());
    const DynamoVerdict verdict = verify_dynamo(t, cfg.field, cfg.k);
    EXPECT_TRUE(verdict.is_monotone) << m << "x" << n << ": " << verdict.summary();
}

TEST_P(ConstructionSweep, Theorem6SerpentinusIsAMinimumSizeMonotoneDynamo) {
    const auto [m, n] = GetParam();
    Torus t(Topology::TorusSerpentinus, m, n);
    const Configuration cfg = build_theorem6_configuration(t);
    EXPECT_EQ(cfg.seeds.size(), serpentinus_size_lower_bound(m, n));
    EXPECT_TRUE(check_theorem_conditions(t, cfg.field, cfg.k).ok());
    const DynamoVerdict verdict = verify_dynamo(t, cfg.field, cfg.k);
    EXPECT_TRUE(verdict.is_monotone) << m << "x" << n << ": " << verdict.summary();
}

TEST_P(ConstructionSweep, FullCrossIsAMonotoneDynamo) {
    const auto [m, n] = GetParam();
    Torus t(Topology::ToroidalMesh, m, n);
    const Configuration cfg = build_full_cross_configuration(t);
    EXPECT_EQ(cfg.seeds.size(), m + n - 1);
    EXPECT_TRUE(check_theorem_conditions(t, cfg.field, cfg.k).ok());
    // Period-3 stripes + k: 4 colors once there are >= 3 stripes; m = 3
    // only has two stripe rows.
    EXPECT_EQ(cfg.colors_used, std::min<std::uint32_t>(m - 1, 3) + 1);
    const DynamoVerdict verdict = verify_dynamo(t, cfg.field, cfg.k);
    EXPECT_TRUE(verdict.is_monotone) << m << "x" << n;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ConstructionSweep,
    ::testing::Values(SweepParam{3, 3}, SweepParam{3, 4}, SweepParam{4, 3}, SweepParam{4, 4},
                      SweepParam{5, 5}, SweepParam{5, 8}, SweepParam{8, 5}, SweepParam{6, 6},
                      SweepParam{7, 9}, SweepParam{9, 7}, SweepParam{9, 9}, SweepParam{10, 11},
                      SweepParam{12, 12}, SweepParam{13, 6}, SweepParam{15, 15},
                      SweepParam{20, 17}),
    [](const ::testing::TestParamInfo<SweepParam>& pinfo) {
        return std::to_string(pinfo.param.m) + "x" + std::to_string(pinfo.param.n);
    });

TEST(ConstructionColors, MeshUsesFourColorsWhenADimensionIsDivisibleByThree) {
    for (std::uint32_t m = 3; m <= 12; ++m) {
        for (std::uint32_t n = 3; n <= 12; ++n) {
            Torus t(Topology::ToroidalMesh, m, n);
            const Configuration cfg = build_theorem2_configuration(t);
            if ((m - 1) % 3 == 0 || (n - 1) % 3 == 0 || m % 3 == 0 || n % 3 == 0) {
                // At least one orientation admits a cheap plan; never more
                // than 5 total in any case.
                EXPECT_LE(cfg.colors_used, 5) << m << "x" << n;
            }
            EXPECT_GE(cfg.colors_used, 4) << m << "x" << n;  // Proposition 3 floor
            EXPECT_LE(cfg.colors_used, 6) << m << "x" << n;
        }
    }
}

TEST(ConstructionColors, SeedColorCanBeAnyPaletteEntry) {
    // k is a free parameter: rebuild with k = 3 and verify everything.
    Torus t(Topology::ToroidalMesh, 7, 7);
    const Configuration cfg = build_theorem2_configuration(t, 3);
    EXPECT_EQ(cfg.k, 3);
    EXPECT_EQ(count_color(cfg.field, 3), cfg.seeds.size());
    EXPECT_TRUE(check_theorem_conditions(t, cfg.field, 3).ok());
    const DynamoVerdict verdict = verify_dynamo(t, cfg.field, 3);
    EXPECT_TRUE(verdict.is_monotone);
    ASSERT_TRUE(verdict.trace.mono.has_value());
    EXPECT_EQ(*verdict.trace.mono, 3);
}

TEST(Counterexamples, Fig3HostileBlockPreventsTheDynamo) {
    Torus t(Topology::ToroidalMesh, 9, 9);
    const Configuration cfg = build_fig3_blocked_configuration(t);
    EXPECT_EQ(cfg.seeds.size(), mesh_size_lower_bound(9, 9));

    const DynamoVerdict verdict = verify_dynamo(t, cfg.field, cfg.k);
    EXPECT_FALSE(verdict.is_dynamo) << verdict.summary();

    // The hostile 2x2 square is an invariant foreign block: it survives in
    // the final configuration.
    const Color hostile = cfg.field[t.index(t.rows() / 2, t.cols() / 2)];
    EXPECT_TRUE(has_k_block(t, cfg.field, hostile));
    EXPECT_TRUE(has_k_block(t, verdict.trace.final_colors, hostile));
}

TEST(Counterexamples, Fig4StallHasANonKBlockCertificate) {
    Torus t(Topology::ToroidalMesh, 8, 9);
    const Configuration cfg = build_fig4_stalled_configuration(t);
    // The foreign stripes form a non-k-block, so failure is certified
    // without simulation...
    EXPECT_TRUE(has_non_dynamo_certificate(t, cfg.field, cfg.k));
    // ...and the simulation agrees: nothing recolors, not a dynamo.
    const DynamoVerdict verdict = verify_dynamo(t, cfg.field, cfg.k);
    EXPECT_FALSE(verdict.is_dynamo);
    EXPECT_EQ(verdict.trace.total_recolorings, 0u);
}

TEST(Counterexamples, BuiltDynamosHaveNoNonKBlock) {
    // Lemma 2: T - S_k must not contain a non-k-block for a monotone dynamo.
    for (std::uint32_t mn = 4; mn <= 10; mn += 3) {
        Torus t(Topology::ToroidalMesh, mn, mn);
        const Configuration cfg = build_theorem2_configuration(t);
        EXPECT_FALSE(has_non_k_block(t, cfg.field, cfg.k)) << mn;
    }
}

TEST(Builders, RejectUnsupportedInputs) {
    Torus mesh(Topology::ToroidalMesh, 5, 5);
    Torus cord(Topology::TorusCordalis, 5, 5);
    EXPECT_THROW(build_theorem2_configuration(cord), std::invalid_argument);
    EXPECT_THROW(build_theorem4_configuration(mesh), std::invalid_argument);
    EXPECT_THROW(build_theorem6_configuration(cord), std::invalid_argument);
    Torus tiny(Topology::ToroidalMesh, 5, 5);
    EXPECT_THROW(build_fig3_blocked_configuration(tiny), std::invalid_argument);
}

TEST(Builders, MinimumDynamoDispatchesOnTopology) {
    for (const Topology topo :
         {Topology::ToroidalMesh, Topology::TorusCordalis, Topology::TorusSerpentinus}) {
        Torus t(topo, 7, 6);
        const Configuration cfg = build_minimum_dynamo(t);
        EXPECT_EQ(cfg.seeds.size(), size_lower_bound(topo, 7, 6)) << to_string(topo);
        const DynamoVerdict verdict = verify_dynamo(t, cfg.field, cfg.k);
        EXPECT_TRUE(verdict.is_monotone) << to_string(topo);
    }
}

} // namespace
} // namespace dynamo
