// Unit tests for util/: RNG determinism and statistics, thread pool
// semantics, parallel_for partitioning, CLI parsing, table formatting.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <numeric>
#include <set>
#include <span>
#include <stdexcept>
#include <utility>

#include "util/assert.hpp"
#include "util/cli.hpp"
#include "util/isa.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace dynamo {
namespace {

TEST(Assertions, RequireThrowsInvalidArgument) {
    EXPECT_THROW(DYNAMO_REQUIRE(false, "boom"), std::invalid_argument);
    EXPECT_NO_THROW(DYNAMO_REQUIRE(true, "fine"));
}

TEST(Assertions, EnsureThrowsLogicError) {
    EXPECT_THROW(DYNAMO_ENSURE(false, "boom"), std::logic_error);
}

TEST(Assertions, MessageContainsContext) {
    try {
        DYNAMO_REQUIRE(1 == 2, "one is not two");
        FAIL() << "should have thrown";
    } catch (const std::invalid_argument& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("one is not two"), std::string::npos);
        EXPECT_NE(msg.find("1 == 2"), std::string::npos);
    }
}

TEST(SplitMix64, DeterministicStream) {
    SplitMix64 a(42), b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
    SplitMix64 a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i) equal += (a.next() == b.next());
    EXPECT_EQ(equal, 0);
}

TEST(Xoshiro256, DeterministicStream) {
    Xoshiro256 a(7), b(7);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro256, BelowStaysInRange) {
    Xoshiro256 rng(123);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
        for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(Xoshiro256, BelowCoversAllResidues) {
    Xoshiro256 rng(5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 400; ++i) seen.insert(rng.below(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Xoshiro256, UniformInUnitInterval) {
    Xoshiro256 rng(9);
    double sum = 0.0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / trials, 0.5, 0.02);
}

TEST(Xoshiro256, WideProductEqualsTheUint128Product) {
    // Both words of mul_wide(x, c) against the __uint128_t product, for the
    // lane draw's below() bounds 2..6, at the 32-bit edges and at random x.
    std::vector<std::uint64_t> xs = {0, 1, (1ULL << 32) - 1, 1ULL << 32, ~0ULL};
    Xoshiro256 rng(0x3a1d);
    for (int i = 0; i < 10000; ++i) xs.push_back(rng.next());
    for (std::uint32_t c = 2; c <= 6; ++c) {
        for (const std::uint64_t x : xs) {
            const __uint128_t m = static_cast<__uint128_t>(x) * c;
            const WideProduct w = mul_wide(x, c);
            ASSERT_EQ(w.hi, static_cast<std::uint64_t>(m >> 64)) << x << " * " << c;
            ASSERT_EQ(w.lo, static_cast<std::uint64_t>(m)) << x << " * " << c;
        }
    }
    static_assert(mul_wide(~0ULL, 0xffffffffU).hi == 0xfffffffeULL);
    static_assert(mul_wide(~0ULL, 0xffffffffU).lo == 0xffffffff00000001ULL);
}

TEST(IsaLevels, TheHostRunsTheBaselineAndEveryLevelUpToItsBest) {
    const std::span<const isa::Level> levels = isa::host_levels();
    ASSERT_FALSE(levels.empty());
    EXPECT_EQ(levels.front(), isa::Level::Baseline);
    EXPECT_EQ(levels.back(), isa::best());
    for (std::size_t i = 0; i < levels.size(); ++i) {
        EXPECT_EQ(static_cast<std::size_t>(levels[i]), i);
        EXPECT_TRUE(isa::runs(levels[i]));
    }
    for (const isa::Level level : isa::kLevels) {
        EXPECT_EQ(isa::runs(level), level <= isa::best()) << isa::to_string(level);
    }
#if !DYNAMO_ISA_LEVELS
    EXPECT_EQ(isa::best(), isa::Level::Baseline);
#endif
}

TEST(Xoshiro256, ForkProducesIndependentStream) {
    Xoshiro256 parent(11);
    Xoshiro256 child = parent.fork();
    int equal = 0;
    for (int i = 0; i < 64; ++i) equal += (parent.next() == child.next());
    EXPECT_LE(equal, 1);
}

TEST(DeterministicShuffle, IsAPermutationAndReproducible) {
    std::vector<int> xs(50);
    std::iota(xs.begin(), xs.end(), 0);
    std::vector<int> ys = xs;
    Xoshiro256 r1(3), r2(3);
    deterministic_shuffle(xs.begin(), xs.end(), r1);
    deterministic_shuffle(ys.begin(), ys.end(), r2);
    EXPECT_EQ(xs, ys);
    std::vector<int> sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    for (int i = 0; i < 50; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(ThreadPool, ExecutesAllJobs) {
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    for (int i = 0; i < 100; ++i) pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, PropagatesJobExceptions) {
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("job failed"); });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // The pool must stay usable after a failed batch.
    std::atomic<int> counter{0};
    pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, RejectsZeroWorkers) { EXPECT_THROW(ThreadPool(0), std::invalid_argument); }

TEST(ParallelFor, CoversRangeExactlyOnce) {
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    parallel_for_blocks(&pool, hits.size(), 16, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, RunsInlineForSmallRanges) {
    // No pool: must still execute the whole range on the caller thread.
    std::vector<int> hits(10, 0);
    parallel_for_blocks(nullptr, hits.size(), 1 << 20, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) ++hits[i];
    });
    for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
    ThreadPool pool(2);
    bool called = false;
    parallel_for_blocks(&pool, 0, 1, [&](std::size_t, std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(CliArgs, ParsesKeyValueForms) {
    // Note: without a grammar, a bare flag followed by a non-option token
    // consumes it as a value ("--flag pos1" means flag=pos1), so
    // undeclared flags go last. Declared flags (see the grammar tests
    // below) never consume the next token.
    const char* argv[] = {"prog", "--alpha=3", "--beta", "4", "pos1", "--flag"};
    CliArgs args(6, argv);
    EXPECT_EQ(args.get_int("alpha", 0), 3);
    EXPECT_EQ(args.get_int("beta", 0), 4);
    EXPECT_TRUE(args.get_flag("flag"));
    EXPECT_FALSE(args.get_flag("missing"));
    EXPECT_EQ(args.get_int("missing", 7), 7);
    ASSERT_EQ(args.positional().size(), 1u);
    EXPECT_EQ(args.positional()[0], "pos1");
}

TEST(CliArgs, ParsesDoublesAndStrings) {
    const char* argv[] = {"prog", "--rho=0.25", "--name=mesh"};
    CliArgs args(3, argv);
    EXPECT_DOUBLE_EQ(args.get_double("rho", 0.0), 0.25);
    EXPECT_EQ(args.get_string("name", ""), "mesh");
}

TEST(CliArgs, RejectsMalformedNumbers) {
    const char* argv[] = {"prog", "--alpha=xyz"};
    CliArgs args(2, argv);
    EXPECT_THROW(args.get_int("alpha", 0), std::invalid_argument);
}

// Regression: a negative numeric value after a flag ("--offset -3") must
// bind as the flag's value, not open a new flag or turn into a positional
// — in every parsing mode.
TEST(CliArgs, NegativeValueAfterFlagIsAValue) {
    const char* argv[] = {"prog", "--offset", "-3", "--scale=-2.5"};
    CliArgs plain(4, argv);
    EXPECT_EQ(plain.get_int("offset", 0), -3);
    EXPECT_DOUBLE_EQ(plain.get_double("scale", 0.0), -2.5);
    EXPECT_TRUE(plain.positional().empty());

    CliGrammar grammar;
    grammar.value_keys = {"offset"};
    CliArgs declared(4, argv, grammar);
    EXPECT_EQ(declared.get_int("offset", 0), -3);
    EXPECT_TRUE(declared.positional().empty());
}

TEST(CliArgs, DeclaredFlagNeverConsumesTheNextToken) {
    // The documented greedy-fallback wart ("--flag pos1" eats pos1) goes
    // away once the flag is declared in the grammar.
    const char* argv[] = {"prog", "--flag", "pos1"};
    CliGrammar grammar;
    grammar.flag_keys = {"flag"};
    CliArgs args(3, argv, grammar);
    EXPECT_TRUE(args.get_flag("flag"));
    EXPECT_EQ(args.get_string("flag", "sentinel"), "");
    ASSERT_EQ(args.positional().size(), 1u);
    EXPECT_EQ(args.positional()[0], "pos1");
}

TEST(CliArgs, DeclaredValueKeyAlwaysConsumes) {
    // A declared value key binds even a "--"-prefixed token as its value,
    // and reports a missing value instead of silently degrading to a flag.
    const char* argv[] = {"prog", "--name", "--weird"};
    CliGrammar grammar;
    grammar.value_keys = {"name"};
    CliArgs args(3, argv, grammar);
    EXPECT_EQ(args.get_string("name", ""), "--weird");

    const char* truncated[] = {"prog", "--name"};
    EXPECT_THROW(CliArgs(2, truncated, grammar), std::invalid_argument);
}

TEST(CliArgs, RequireDeclaredRefusesKeysOutsideTheGrammar) {
    CliGrammar grammar;
    grammar.flag_keys = {"verbose"};
    grammar.value_keys = {"cache-dir"};
    const char* good[] = {"prog", "--verbose", "--cache-dir=/tmp/c", "pos"};
    EXPECT_NO_THROW(CliArgs(4, good, grammar).require_declared(grammar));

    // Every form of an unknown key is refused, by name: --k=v, --k v and a
    // bare --k.
    const char* with_eq[] = {"prog", "--verbose", "--bogus=1", ""};
    const char* with_value[] = {"prog", "--bogus", "1", "--verbose"};
    const char* bare[] = {"prog", "--verbose", "--bogus", ""};
    for (const auto& [argc, argv] : {std::pair{3, with_eq}, std::pair{4, with_value},
                                     std::pair{3, bare}}) {
        const CliArgs args(argc, argv, grammar);
        try {
            args.require_declared(grammar);
            ADD_FAILURE() << argv[1] << " " << argv[2] << " was accepted";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("--bogus"), std::string::npos) << e.what();
        }
    }
    // An empty grammar refuses every key and still takes positionals.
    const char* positional[] = {"prog", "a", "b"};
    EXPECT_NO_THROW(CliArgs(3, positional).require_declared(CliGrammar{}));
    const char* flagged[] = {"prog", "a", "--markdown"};
    EXPECT_THROW(CliArgs(3, flagged).require_declared(CliGrammar{}), std::invalid_argument);
}

TEST(CliArgs, Uint64CoversFullRangeAndRejectsNegatives) {
    const char* argv[] = {"prog", "--seed=14023699124914558617", "--bad=-1"};
    CliArgs args(3, argv);
    EXPECT_EQ(args.get_uint64("seed", 0), 14023699124914558617ull);
    EXPECT_EQ(args.get_uint64("missing", 7), 7u);
    EXPECT_THROW(args.get_uint64("bad", 0), std::invalid_argument);
}

TEST(CliArgs, NumbersParseCompletely) {
    // A number with trailing characters is rejected, not read up to them.
    const std::map<std::string, std::string> params{
        {"workers", "2oops"}, {"fraction", "1.9"}, {"seed", "12abc"},
        {"rate", "0.5x"}, {"offset", "-3"}, {"epsilon", "1e-3"}};
    const CliArgs args(params);
    for (const char* key : {"workers", "fraction"}) {
        try {
            args.get_int(key, 0);
            ADD_FAILURE() << key << " parsed as an integer";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(std::string("--") + key), std::string::npos)
                << e.what();
        }
    }
    EXPECT_THROW(args.get_uint64("seed", 0), std::invalid_argument);
    EXPECT_THROW(args.get_double("rate", 0.0), std::invalid_argument);
    EXPECT_EQ(args.get_int("offset", 0), -3);
    EXPECT_DOUBLE_EQ(args.get_double("epsilon", 0.0), 1e-3);
}

TEST(CliArgs, MapConstructorBindsParams) {
    const std::map<std::string, std::string> params{{"m", "6"}, {"density", "0.25"}};
    CliArgs args(params);
    EXPECT_EQ(args.get_int("m", 0), 6);
    EXPECT_DOUBLE_EQ(args.get_double("density", 0.0), 0.25);
    EXPECT_TRUE(args.positional().empty());
}

TEST(ConsoleTable, AlignsAndCounts) {
    ConsoleTable table({"m", "n", "rounds"});
    table.add_row(5, 5, 8);
    table.add_row(10, 10, 32);
    EXPECT_EQ(table.rows(), 2u);
    std::ostringstream os;
    table.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("rounds"), std::string::npos);
    EXPECT_NE(out.find("32"), std::string::npos);
}

TEST(ConsoleTable, RejectsArityMismatch) {
    ConsoleTable table({"a", "b"});
    EXPECT_THROW(table.add_row(1), std::invalid_argument);
}

TEST(Stopwatch, TimeAdvances) {
    Stopwatch sw;
    double sink = 0;
    for (int i = 0; i < 100000; ++i) sink += i;
    (void)sink;
    EXPECT_GE(sw.seconds(), 0.0);
    EXPECT_GE(sw.millis(), 0.0);
}

} // namespace
} // namespace dynamo
