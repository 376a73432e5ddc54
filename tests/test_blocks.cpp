// Blocks (paper Definitions 4/5): construction examples from the paper's
// prose, core extraction correctness, and the two invariance properties
// the lower bounds rest on - k-block members never recolor, non-k-block
// members never adopt k - verified against the simulator on randomized
// fields with planted blocks.
#include <gtest/gtest.h>

#include "core/blocks.hpp"
#include "core/run/simulate.hpp"
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

void paint_column(const Torus& t, ColorField& f, std::uint32_t j, Color c) {
    for (std::uint32_t i = 0; i < t.rows(); ++i) f[t.index(i, j)] = c;
}
void paint_row(const Torus& t, ColorField& f, std::uint32_t i, Color c) {
    for (std::uint32_t j = 0; j < t.cols(); ++j) f[t.index(i, j)] = c;
}

// --- Paper remark after Definition 4 -----------------------------------------
// "a single column of k-colored vertices is a k-block in a toroidal mesh and
//  in a torus cordalis but not in a torus serpentinus, whereas two
//  consecutive columns constitute a k-block in all the tori. A single row is
//  a k-block in a toroidal mesh but not in a torus cordalis / serpentinus,
//  whereas two consecutive rows constitute a k-block in all the tori."

TEST(BlockExamples, SingleColumnPerTopology) {
    for (const Topology topo :
         {Topology::ToroidalMesh, Topology::TorusCordalis, Topology::TorusSerpentinus}) {
        Torus t(topo, 6, 6);
        ColorField f(t.size(), 2);
        paint_column(t, f, 3, 1);
        const bool expect_block = topo != Topology::TorusSerpentinus;
        EXPECT_EQ(has_k_block(t, f, 1), expect_block) << to_string(topo);
    }
}

TEST(BlockExamples, SingleRowPerTopology) {
    for (const Topology topo :
         {Topology::ToroidalMesh, Topology::TorusCordalis, Topology::TorusSerpentinus}) {
        Torus t(topo, 6, 6);
        ColorField f(t.size(), 2);
        paint_row(t, f, 2, 1);
        const bool expect_block = topo == Topology::ToroidalMesh;
        EXPECT_EQ(has_k_block(t, f, 1), expect_block) << to_string(topo);
    }
}

TEST(BlockExamples, TwoConsecutiveColumnsInAllTopologies) {
    for (const Topology topo :
         {Topology::ToroidalMesh, Topology::TorusCordalis, Topology::TorusSerpentinus}) {
        Torus t(topo, 6, 6);
        ColorField f(t.size(), 2);
        paint_column(t, f, 2, 1);
        paint_column(t, f, 3, 1);
        EXPECT_TRUE(has_k_block(t, f, 1)) << to_string(topo);
    }
}

TEST(BlockExamples, TwoConsecutiveRowsInAllTopologies) {
    for (const Topology topo :
         {Topology::ToroidalMesh, Topology::TorusCordalis, Topology::TorusSerpentinus}) {
        Torus t(topo, 6, 6);
        ColorField f(t.size(), 2);
        paint_row(t, f, 1, 1);
        paint_row(t, f, 2, 1);
        EXPECT_TRUE(has_k_block(t, f, 1)) << to_string(topo);
    }
}

TEST(BlockExamples, TwoByTwoSquareIsABlockEverywhere) {
    for (const Topology topo :
         {Topology::ToroidalMesh, Topology::TorusCordalis, Topology::TorusSerpentinus}) {
        Torus t(topo, 6, 7);
        ColorField f(t.size(), 2);
        f[t.index(2, 2)] = f[t.index(2, 3)] = f[t.index(3, 2)] = f[t.index(3, 3)] = 1;
        const auto blocks = find_k_blocks(t, f, 1);
        ASSERT_EQ(blocks.size(), 1u) << to_string(topo);
        EXPECT_EQ(blocks[0].size(), 4u) << to_string(topo);
    }
}

TEST(BlockExamples, NonKBlockFromTwoForeignLines) {
    // The paper says "two consecutive rows or columns of vertices not
    // colored by k constitute a non-k-block in all the tori" (after
    // Definition 5). REPRODUCTION FINDING (deviation D6): under the strict
    // Definition-5 reading this holds for the mesh (both orientations) and
    // for cordalis *columns*, but NOT for cordalis rows or for the
    // serpentinus: the spiral wrap leaves the band's end cells with only
    // two in-set neighbors and the 3-core unravels entirely.
    const auto two_rows = [](const Torus& t) {
        ColorField f(t.size(), 1);
        paint_row(t, f, 3, 2);
        paint_row(t, f, 4, 3);
        return f;
    };
    const auto two_cols = [](const Torus& t) {
        ColorField f(t.size(), 1);
        paint_column(t, f, 3, 2);
        paint_column(t, f, 4, 3);
        return f;
    };

    {
        Torus t(Topology::ToroidalMesh, 6, 6);
        EXPECT_TRUE(has_non_k_block(t, two_rows(t), 1));
        EXPECT_TRUE(has_non_k_block(t, two_cols(t), 1));
    }
    {
        Torus t(Topology::TorusCordalis, 6, 6);
        EXPECT_TRUE(has_non_k_block(t, two_cols(t), 1));
        EXPECT_FALSE(has_non_k_block(t, two_rows(t), 1));  // spiral end cells unravel
    }
    {
        Torus t(Topology::TorusSerpentinus, 6, 6);
        EXPECT_FALSE(has_non_k_block(t, two_rows(t), 1));
        EXPECT_FALSE(has_non_k_block(t, two_cols(t), 1));
        // Only the full complement survives the 3-core in the serpentinus.
        ColorField f(t.size(), 2);
        EXPECT_TRUE(has_non_k_block(t, f, 1));
    }
    // An entirely-k field has an empty complement: no non-k-block.
    Torus t(Topology::ToroidalMesh, 6, 6);
    EXPECT_FALSE(has_non_k_block(t, ColorField(t.size(), 1), 1));
}

TEST(Blocks, DanglingCellsArePrunedFromTheCore) {
    // A plus-sign: center 2x2 block plus four pendant cells; the pendants
    // have only one member neighbor and must be pruned.
    Torus t(Topology::ToroidalMesh, 8, 8);
    ColorField f(t.size(), 2);
    for (std::uint32_t i = 3; i <= 4; ++i)
        for (std::uint32_t j = 3; j <= 4; ++j) f[t.index(i, j)] = 1;
    f[t.index(2, 3)] = 1;
    f[t.index(5, 4)] = 1;
    f[t.index(3, 2)] = 1;
    f[t.index(4, 5)] = 1;
    const auto blocks = find_k_blocks(t, f, 1);
    ASSERT_EQ(blocks.size(), 1u);
    EXPECT_EQ(blocks[0].size(), 4u);
}

TEST(Blocks, SeparateComponentsAreReportedSeparately) {
    Torus t(Topology::ToroidalMesh, 10, 10);
    ColorField f(t.size(), 3);
    for (std::uint32_t i = 1; i <= 2; ++i)
        for (std::uint32_t j = 1; j <= 2; ++j) f[t.index(i, j)] = 1;
    for (std::uint32_t i = 6; i <= 7; ++i)
        for (std::uint32_t j = 6; j <= 7; ++j) f[t.index(i, j)] = 1;
    const auto blocks = find_k_blocks(t, f, 1);
    EXPECT_EQ(blocks.size(), 2u);
}

TEST(Blocks, UnionOfKBlocksPredicate) {
    Torus t(Topology::ToroidalMesh, 6, 6);
    ColorField f(t.size(), 2);
    paint_column(t, f, 0, 1);
    EXPECT_TRUE(is_union_of_k_blocks(t, f, 1));
    f[t.index(3, 3)] = 1;  // isolated k vertex: not in any block
    EXPECT_FALSE(is_union_of_k_blocks(t, f, 1));
}

// --- Invariance properties (the heart of the lower bounds) -------------------

class BlockInvariance : public ::testing::TestWithParam<Topology> {};

TEST_P(BlockInvariance, KBlockMembersNeverRecolor) {
    const Topology topo = GetParam();
    Xoshiro256 rng(0xb10c + static_cast<int>(topo));
    for (int trial = 0; trial < 20; ++trial) {
        Torus t(topo, 7, 8);
        ColorField f = random_field(t, 4, rng);
        const auto blocks = find_k_blocks(t, f, 1);
        RunOptions opts;
        opts.max_rounds = 64;
        opts.detect_cycles = true;
        const RunResult trace = simulate(t, f, opts);
        for (const auto& block : blocks) {
            for (const grid::VertexId v : block) {
                ASSERT_EQ(trace.final_colors[v], 1)
                    << to_string(topo) << " trial " << trial << " vertex " << v;
            }
        }
    }
}

TEST_P(BlockInvariance, NonKBlockMembersNeverAdoptK) {
    const Topology topo = GetParam();
    Xoshiro256 rng(0x0bad + static_cast<int>(topo));
    for (int trial = 0; trial < 20; ++trial) {
        Torus t(topo, 7, 8);
        ColorField f = random_field(t, 4, rng);
        const auto nblocks = find_non_k_blocks(t, f, 1);
        RunOptions opts;
        opts.max_rounds = 64;
        const RunResult trace = simulate(t, f, opts);
        for (const auto& block : nblocks) {
            for (const grid::VertexId v : block) {
                ASSERT_NE(trace.final_colors[v], 1)
                    << to_string(topo) << " trial " << trial << " vertex " << v;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, BlockInvariance,
                         ::testing::Values(Topology::ToroidalMesh, Topology::TorusCordalis,
                                           Topology::TorusSerpentinus),
                         [](const ::testing::TestParamInfo<grid::Topology>& pinfo) {
                             std::string name = grid::to_string(pinfo.param);
                             for (auto& c : name) {
                                 if (c == '-') c = '_';
                             }
                             return name;
                         });

// --- Bounding boxes (Lemma 1 / Theorem 1(i) support) --------------------------

TEST(BoundingBox, EmptySetIsZero) {
    Torus t(Topology::ToroidalMesh, 5, 5);
    const BoundingBox box = bounding_box(t, {});
    EXPECT_EQ(box.rows, 0u);
    EXPECT_EQ(box.cols, 0u);
}

TEST(BoundingBox, SimpleRectangles) {
    Torus t(Topology::ToroidalMesh, 6, 8);
    std::vector<grid::VertexId> vs{t.index(1, 2), t.index(3, 5)};
    const BoundingBox box = bounding_box(t, vs);
    EXPECT_EQ(box.rows, 3u);
    EXPECT_EQ(box.cols, 4u);
}

TEST(BoundingBox, MinimizesOverCyclicShifts) {
    // Vertices in rows {0, 5} of a 6-row torus: the wrapped interval
    // {5, 0} has length 2, not 6.
    Torus t(Topology::ToroidalMesh, 6, 8);
    std::vector<grid::VertexId> vs{t.index(0, 0), t.index(5, 0)};
    const BoundingBox box = bounding_box(t, vs);
    EXPECT_EQ(box.rows, 2u);
    EXPECT_EQ(box.cols, 1u);
}

TEST(BoundingBox, FullSpanWhenColumnsAlternate) {
    Torus t(Topology::ToroidalMesh, 4, 6);
    // Columns {0, 2, 4}: largest empty gap is 1, so the cyclic cover is 5.
    std::vector<grid::VertexId> vs{t.index(0, 0), t.index(0, 2), t.index(0, 4)};
    EXPECT_EQ(bounding_box(t, vs).cols, 5u);
}

TEST(BoundingBox, ColorBoundingBoxMatchesManual) {
    Torus t(Topology::ToroidalMesh, 5, 5);
    ColorField f(t.size(), 2);
    f[t.index(1, 1)] = 1;
    f[t.index(2, 4)] = 1;
    const BoundingBox box = color_bounding_box(t, f, 1);
    EXPECT_EQ(box.rows, 2u);
    // Columns {1, 4}: wrapped interval {4, 0, 1} of length 3.
    EXPECT_EQ(box.cols, 3u);
}

// --- Lemma 1 as a dynamic property --------------------------------------------

TEST(Lemma1, DerivedSetsCannotOutgrowTheBoundingBox) {
    // "if m_S < m-1 and/or n_S < n-1 then any derivable set stays within":
    // seed a small patch and check the k-set's bounding box never exceeds
    // the initial one (plus nothing), over several random trials.
    Xoshiro256 rng(0x1e44a1);
    for (int trial = 0; trial < 15; ++trial) {
        Torus t(Topology::ToroidalMesh, 8, 8);
        ColorField f = random_field(t, 3, rng);
        for (auto& c : f) {
            if (c == 1) c = 2;  // clear color 1
        }
        // Plant a 3x3 patch of k = 1 (box 3x3, well under (m-1)x(n-1)).
        for (std::uint32_t i = 2; i <= 4; ++i)
            for (std::uint32_t j = 2; j <= 4; ++j) f[t.index(i, j)] = 1;
        const BoundingBox before = color_bounding_box(t, f, 1);
        RunOptions opts;
        opts.max_rounds = 64;
        const RunResult trace = simulate(t, f, opts);
        const BoundingBox after = color_bounding_box(t, trace.final_colors, 1);
        EXPECT_LE(after.rows, before.rows) << trial;
        EXPECT_LE(after.cols, before.cols) << trial;
    }
}

} // namespace
} // namespace dynamo
