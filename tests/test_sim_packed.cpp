// Packed-state sim subsystem oracle tests: the branchless kernel against
// an exhaustive enumeration of the SMP rule, and the packed / active /
// parallel sweeps against the seed table-driven engine - bit-identical
// round trajectories on all three topologies, including the degenerate
// m = 2 / n = 2 grids where neighbor slots alias.
#include <gtest/gtest.h>

#include "core/run/simulate.hpp"
#include "core/sim/active_engine.hpp"
#include "core/sim/bitplane_engine.hpp"
#include "core/sim/kernels.hpp"
#include "core/sim/packed_engine.hpp"
#include "core/sim/sweep.hpp"
#include "rules/incremental.hpp"
#include "rules/majority.hpp"
#include "rules/threshold.hpp"
#include "util/rng.hpp"

namespace dynamo {
namespace {

using grid::Coord;
using grid::Direction;
using grid::Topology;
using grid::Torus;

constexpr Topology kTopologies[] = {Topology::ToroidalMesh, Topology::TorusCordalis,
                                    Topology::TorusSerpentinus};

ColorField random_field(std::size_t size, Color colors, Xoshiro256& rng) {
    ColorField f(size);
    for (auto& c : f) c = static_cast<Color>(1 + rng.below(colors));
    return f;
}

TEST(SimKernels, BranchlessKernelMatchesSmpDecideExhaustively) {
    // All 5^5 combinations of own color + 4 neighbor slots over 5 colors
    // cover every multiset shape ((4), (3,1), (2,2), (2,1,1), (1,1,1,1))
    // in every slot order, with own both inside and outside the multiset.
    for (Color own = 1; own <= 5; ++own) {
        for (Color a = 1; a <= 5; ++a) {
            for (Color b = 1; b <= 5; ++b) {
                for (Color c = 1; c <= 5; ++c) {
                    for (Color d = 1; d <= 5; ++d) {
                        const std::array<Color, grid::kDegree> nbr{a, b, c, d};
                        ASSERT_EQ(sim::SmpRule::next(own, a, b, c, d), smp_update(own, nbr))
                            << "own=" << int(own) << " nbr=" << int(a) << int(b) << int(c)
                            << int(d);
                    }
                }
            }
        }
    }
}

/// One round of R straight from the paper's neighbor formulas
/// (Torus::neighbor_coord): no row pointers, shifted rows or edge cells.
template <sim::LocalRule R>
ColorField formula_round(const Torus& t, const ColorField& f) {
    const std::uint32_t m = t.rows(), n = t.cols();
    ColorField next(t.size());
    for (std::uint32_t i = 0; i < m; ++i) {
        for (std::uint32_t j = 0; j < n; ++j) {
            std::array<Color, grid::kDegree> nbr{};
            for (std::size_t s = 0; s < grid::kDegree; ++s) {
                const Coord nc = Torus::neighbor_coord(t.topology(), m, n, Coord{i, j},
                                                       static_cast<Direction>(s));
                nbr[s] = f[static_cast<std::size_t>(nc.i) * n + nc.j];
            }
            const std::size_t v = static_cast<std::size_t>(i) * n + j;
            next[v] = R::next(f[v], nbr[0], nbr[1], nbr[2], nbr[3]);
        }
    }
    return next;
}

/// Packed, active, bit-plane and the reference engine, stepped 25 rounds
/// against the formula trajectory on every topology, including the
/// degenerate 2-wide sizes and rows spanning several bit-plane limbs.
template <sim::LocalRule R>
void engines_follow_formula(Color colors) {
    Xoshiro256 rng(0xf0e1);
    for (const Topology topo : kTopologies) {
        for (const auto& [m, n] : {std::pair{2u, 2u}, {2u, 9u}, {9u, 2u}, {3u, 3u}, {9u, 7u},
                                   {5u, 65u}, {4u, 129u}}) {
            const Torus t(topo, m, n);
            ColorField expected = random_field(t.size(), colors, rng);
            sim::PackedEngineT<R> packed(t, expected);
            sim::ActiveEngineT<R> active(t, expected);
            sim::BitplaneEngineT<R> bitplane(t, expected);
            BasicSyncEngine<sim::RuleFnOf<R>> reference(t, expected);
            for (int r = 0; r < 25; ++r) {
                const ColorField next = formula_round<R>(t, expected);
                std::size_t changed = 0;
                for (std::size_t v = 0; v < next.size(); ++v) changed += next[v] != expected[v];
                expected = next;
                const auto check = [&](auto& engine, const char* name) {
                    ASSERT_EQ(engine.step(), changed) << R::kName << " " << name << " "
                                                      << to_string(topo) << " " << m << "x" << n
                                                      << " round " << r;
                    ASSERT_EQ(engine.colors(), expected) << R::kName << " " << name << " "
                                                         << to_string(topo) << " " << m << "x"
                                                         << n << " round " << r;
                };
                check(packed, "packed");
                check(active, "active");
                check(bitplane, "bitplane");
                check(reference, "reference");
                if (::testing::Test::HasFatalFailure()) return;
            }
        }
    }
}

TEST(SimEngines, EveryEngineFollowsTheNeighborCoordTrajectory) {
    engines_follow_formula<sim::SmpRule>(4);
    engines_follow_formula<rules::MajorityPreferBlack>(2);
}

TEST(SimSweep, PackedTrajectoriesBitIdenticalToSeedEngine) {
    // The acceptance oracle: the packed SMP engine against the seed
    // table-driven sweep (ReferenceSmpRule), lockstep, all topologies,
    // including degenerate and non-square sizes.
    Xoshiro256 rng(0x9a11);
    for (const Topology topo : kTopologies) {
        for (const auto& [m, n] :
             {std::pair{2u, 2u}, {2u, 9u}, {9u, 2u}, {3u, 3u}, {9u, 7u}, {16u, 16u}, {5u, 33u}}) {
            const Torus t(topo, m, n);
            const ColorField f = random_field(t.size(), 4, rng);

            sim::PackedEngineT<sim::SmpRule> packed(t, f);
            BasicSyncEngine<ReferenceSmpRule> seed(t, f);
            for (int r = 0; r < 30; ++r) {
                const std::size_t ca = packed.step();
                const std::size_t cb = seed.step();
                ASSERT_EQ(ca, cb) << to_string(topo) << " " << m << "x" << n << " round " << r;
                ASSERT_EQ(packed.colors(), seed.colors())
                    << to_string(topo) << " " << m << "x" << n << " round " << r;
            }
        }
    }
}

TEST(SimSweep, ParallelTiledSweepIsBitIdenticalToSerial) {
    // Determinism across decompositions: any pool size and any grain must
    // reproduce the serial sweep exactly (writes are row-disjoint).
    Xoshiro256 rng(0x7007);
    ThreadPool pool(4);
    for (const Topology topo : kTopologies) {
        const Torus t(topo, 33, 17);
        const ColorField f = random_field(t.size(), 4, rng);
        sim::PackedEngineT<sim::SmpRule> serial(t, f);
        sim::PackedEngineT<sim::SmpRule> threaded(t, f);
        for (int r = 0; r < 20; ++r) {
            const std::size_t ca = serial.step();
            const std::size_t cb = threaded.step(&pool, /*grain=*/1);
            ASSERT_EQ(ca, cb) << to_string(topo) << " round " << r;
            ASSERT_EQ(serial.colors(), threaded.colors()) << to_string(topo) << " round " << r;
        }
    }
}

TEST(SimSweep, ColumnPanelBlockingIsBitIdentical) {
    // A row wider than one cache panel exercises the jlo/jhi window seams
    // (kColPanel cells per tile pass).
    Xoshiro256 rng(0xca11);
    const std::uint32_t n = static_cast<std::uint32_t>(2 * sim::kColPanel + 37);
    for (const Topology topo : kTopologies) {
        const Torus t(topo, 3, n);
        const ColorField f = random_field(t.size(), 3, rng);
        sim::PackedEngineT<sim::SmpRule> packed(t, f);
        BasicSyncEngine<ReferenceSmpRule> seed(t, f);
        for (int r = 0; r < 4; ++r) {
            ASSERT_EQ(packed.step(), seed.step()) << to_string(topo) << " round " << r;
            ASSERT_EQ(packed.colors(), seed.colors()) << to_string(topo) << " round " << r;
        }
    }
}

TEST(SimActive, ActiveEngineMatchesPackedThroughOscillationsAndWaves) {
    Xoshiro256 rng(0xac71);
    for (const Topology topo : kTopologies) {
        for (int trial = 0; trial < 6; ++trial) {
            const Torus t(topo, 12, 10);
            const ColorField f = random_field(t.size(), 4, rng);
            sim::PackedEngineT<sim::SmpRule> full(t, f);
            sim::ActiveEngineT<sim::SmpRule> active(t, f);
            for (int r = 0; r < 40; ++r) {
                const std::size_t ca = full.step();
                const std::size_t cb = active.step();
                ASSERT_EQ(ca, cb) << to_string(topo) << " trial " << trial << " round " << r;
                ASSERT_EQ(full.colors(), active.colors())
                    << to_string(topo) << " trial " << trial << " round " << r;
            }
        }
    }
}

TEST(SimActive, FixedPointEmptiesTheActiveSet) {
    const Torus t(Topology::ToroidalMesh, 6, 6);
    sim::ActiveEngineT<sim::SmpRule> engine(t, ColorField(t.size(), 2));
    EXPECT_EQ(engine.step(), 0u);
    EXPECT_EQ(engine.frontier_size(), 0u);
    // Once empty the active set stays empty at zero per-round cost.
    EXPECT_EQ(engine.step(), 0u);
    EXPECT_EQ(engine.frontier_size(), 0u);
}

// ---------------------------------------------------------------------------
// Bit-plane engine oracles
// ---------------------------------------------------------------------------

/// Drive R's word kernel one 64-lane batch at a time over an exhaustive
/// enumeration of (own, a, b, c, d) in 1..colors, comparing every lane
/// against the scalar R::next - the word-level analogue of the 5^5
/// branchless-kernel test above.
template <typename R>
void exhaustive_word_kernel_parity(Color colors) {
    constexpr int kPlanes = sim::kBitplanePlanes<R>;
    const auto encode = [](Color c, int plane) -> sim::Word {
        if constexpr (kPlanes == 1) return c == kBlack ? 1 : 0;
        return (c >> plane) & 1u;
    };
    Color own_c[64], a_c[64], b_c[64], c_c[64], d_c[64];
    int lanes = 0;
    const auto flush = [&]() {
        if (lanes == 0) return;
        sim::Word own[kPlanes] = {}, up[kPlanes] = {}, down[kPlanes] = {};
        sim::Word left[kPlanes] = {}, right[kPlanes] = {}, out[kPlanes] = {};
        for (int l = 0; l < lanes; ++l) {
            for (int p = 0; p < kPlanes; ++p) {
                own[p] |= encode(own_c[l], p) << l;
                up[p] |= encode(a_c[l], p) << l;
                down[p] |= encode(b_c[l], p) << l;
                left[p] |= encode(c_c[l], p) << l;
                right[p] |= encode(d_c[l], p) << l;
            }
        }
        sim::BitplaneKernel<R>::next_words(own, up, down, left, right, out);
        for (int l = 0; l < lanes; ++l) {
            Color got;
            if constexpr (kPlanes == 1) {
                got = (out[0] >> l) & 1u ? kBlack : kWhite;
            } else {
                got = 0;
                for (int p = 0; p < kPlanes; ++p) {
                    got = static_cast<Color>(got | (((out[p] >> l) & 1u) << p));
                }
            }
            ASSERT_EQ(got, R::next(own_c[l], a_c[l], b_c[l], c_c[l], d_c[l]))
                << R::kName << " own=" << int(own_c[l]) << " nbr=" << int(a_c[l]) << int(b_c[l])
                << int(c_c[l]) << int(d_c[l]);
        }
        lanes = 0;
    };
    const Color lo = kPlanes == 1 ? kWhite : Color(1);
    for (Color own = lo; own <= colors; ++own) {
        for (Color a = lo; a <= colors; ++a) {
            for (Color b = lo; b <= colors; ++b) {
                for (Color c = lo; c <= colors; ++c) {
                    for (Color d = lo; d <= colors; ++d) {
                        own_c[lanes] = own;
                        a_c[lanes] = a;
                        b_c[lanes] = b;
                        c_c[lanes] = c;
                        d_c[lanes] = d;
                        if (++lanes == 64) flush();
                    }
                }
            }
        }
    }
    flush();
}

TEST(SimBitplane, WordKernelsMatchNextExhaustively) {
    // Bi-color rules over all 2^5 neighborhoods (every majority/threshold
    // family member, both tie policies, both reversibilities)...
    exhaustive_word_kernel_parity<rules::MajorityPreferBlack>(kBlack);
    exhaustive_word_kernel_parity<rules::MajorityPreferCurrent>(kBlack);
    exhaustive_word_kernel_parity<rules::StrongMajority>(kBlack);
    exhaustive_word_kernel_parity<rules::IrreversibleMajority>(kBlack);
    exhaustive_word_kernel_parity<rules::IrreversibleMajorityPreferCurrent>(kBlack);
    exhaustive_word_kernel_parity<rules::IrreversibleStrongMajority>(kBlack);
    exhaustive_word_kernel_parity<rules::Threshold<1>>(kBlack);
    exhaustive_word_kernel_parity<rules::Threshold<2>>(kBlack);
    exhaustive_word_kernel_parity<rules::Threshold<3>>(kBlack);
    exhaustive_word_kernel_parity<rules::Threshold<4>>(kBlack);
    // ... and the 3-plane pair-counting kernel over the FULL 3-bit palette
    // 1..7 (7^5 = 16807 neighborhoods: every multiset shape, every slot
    // order, own inside and outside, all encodable colors).
    exhaustive_word_kernel_parity<sim::SmpRule>(7);
    exhaustive_word_kernel_parity<rules::IncrementalStep>(7);
}

TEST(SimBitplane, PackRoundTripsAndValidates) {
    const Torus t(Topology::ToroidalMesh, 3, 70);
    Xoshiro256 rng(0xb17);
    const ColorField f = random_field(t.size(), 7, rng);
    sim::BitField bits(3, 70, 3);
    sim::pack_field(f, bits);
    ColorField back;
    sim::unpack_field(bits, back);
    EXPECT_EQ(back, f);
    // The 1-plane encoding refuses anything but a strict {white, black}
    // field; the 3-plane encoding refuses colors outside 1..7.
    sim::BitField one(3, 70, 1);
    EXPECT_THROW(sim::pack_field(f, one), std::invalid_argument);
    EXPECT_THROW(sim::pack_field(ColorField(t.size(), 8), bits), std::invalid_argument);
}

/// Lockstep oracle: the bit-plane engine against the byte packed engine,
/// per round, on all topologies and awkward sizes - including multi-limb
/// rows (n > 64) and rows whose last limb has a thin tail.
template <typename R>
void bitplane_lockstep(Color colors, int rounds = 25) {
    Xoshiro256 rng(0xb1a5);
    for (const Topology topo : kTopologies) {
        for (const auto& [m, n] : {std::pair{2u, 2u}, {2u, 9u}, {9u, 2u}, {3u, 3u}, {9u, 7u},
                                   {16u, 16u}, {5u, 33u}, {3u, 70u}, {4u, 129u}}) {
            const Torus t(topo, m, n);
            const ColorField f = random_field(t.size(), colors, rng);
            sim::PackedEngineT<R> packed(t, f);
            sim::BitplaneEngineT<R> bitplane(t, f);
            for (int r = 0; r < rounds; ++r) {
                const std::size_t ca = packed.step();
                const std::size_t cb = bitplane.step();
                ASSERT_EQ(ca, cb)
                    << R::kName << " " << to_string(topo) << " " << m << "x" << n << " round " << r;
                ASSERT_EQ(packed.colors(), bitplane.colors())
                    << R::kName << " " << to_string(topo) << " " << m << "x" << n << " round " << r;
            }
        }
    }
}

TEST(SimBitplane, BicolorTrajectoriesBitIdenticalToPacked) {
    bitplane_lockstep<rules::MajorityPreferBlack>(2);
    bitplane_lockstep<rules::MajorityPreferCurrent>(2);
    bitplane_lockstep<rules::IrreversibleStrongMajority>(2);
    bitplane_lockstep<rules::Threshold<2>>(2);
}

TEST(SimBitplane, MulticolorTrajectoriesBitIdenticalToPacked) {
    bitplane_lockstep<sim::SmpRule>(5);
    bitplane_lockstep<rules::IncrementalStep>(4);
}

TEST(SimBitplane, PooledSweepIsBitIdenticalToSerial) {
    // Row-band parallel sweep determinism: any pool and any grain must
    // reproduce the serial limbs exactly (writes are row-disjoint).
    Xoshiro256 rng(0xb0a7);
    ThreadPool pool(4);
    for (const Topology topo : kTopologies) {
        const Torus t(topo, 33, 130);
        const ColorField f = random_field(t.size(), 2, rng);
        sim::BitplaneEngineT<rules::MajorityPreferBlack> serial(t, f);
        sim::BitplaneEngineT<rules::MajorityPreferBlack> threaded(t, f);
        for (int r = 0; r < 12; ++r) {
            const std::size_t ca = serial.step();
            const std::size_t cb = threaded.step(&pool, /*grain=*/1);
            ASSERT_EQ(ca, cb) << to_string(topo) << " round " << r;
            ASSERT_EQ(serial.colors(), threaded.colors()) << to_string(topo) << " round " << r;
        }
    }
}

TEST(SimBitplane, StepCollectReportsChangesInAscendingVertexOrder) {
    Xoshiro256 rng(0xc0de);
    const Torus t(Topology::TorusCordalis, 9, 70);
    const ColorField f = random_field(t.size(), 2, rng);
    sim::BitplaneEngineT<rules::MajorityPreferBlack> engine(t, f);
    sim::PackedEngineT<rules::MajorityPreferBlack> oracle(t, f);
    for (int r = 0; r < 8; ++r) {
        std::vector<CellChange> changes;
        const std::size_t changed = engine.step_collect(changes);
        oracle.step();
        ASSERT_EQ(changes.size(), changed);
        for (std::size_t i = 0; i + 1 < changes.size(); ++i) {
            ASSERT_LT(changes[i].v, changes[i + 1].v) << "round " << r;
        }
        for (const CellChange& ch : changes) {
            ASSERT_EQ(ch.after, engine.colors()[ch.v]);
            ASSERT_NE(ch.before, ch.after);
        }
        ASSERT_EQ(engine.colors(), oracle.colors()) << "round " << r;
    }
}

} // namespace
} // namespace dynamo
