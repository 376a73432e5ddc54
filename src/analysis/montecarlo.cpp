#include "analysis/montecarlo.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <span>

#include "core/run/batch.hpp"
#include "core/sim/lane_engine.hpp"
#include "rules/registry.hpp"

namespace dynamo::analysis {

namespace {

void require_coloring(Color k, Color num_colors, double density) {
    DYNAMO_REQUIRE(num_colors >= 2, "need at least two colors");
    DYNAMO_REQUIRE(k >= 1 && k <= num_colors, "target color outside palette");
    DYNAMO_REQUIRE(density >= 0.0 && density <= 1.0, "density outside [0, 1]");
}

/// One cell of random_coloring: k with probability `density`, otherwise
/// uniform over the palette minus k. random_lane_fields makes the same
/// draws, so a trial's field does not depend on its engine.
inline Color draw_color(Color k, Color num_colors, double density, Xoshiro256& rng) {
    if (rng.bernoulli(density)) return k;
    const auto c = static_cast<Color>(1 + rng.below(num_colors - 1));
    return c >= k ? static_cast<Color>(c + 1) : c;
}

using sim::Word;
constexpr unsigned kLanes = sim::LaneBatch::kLanes;

/// Bit p of every lane's byte in `codes`, as one word: bit l is lane l.
/// Eight lanes at a time, byte i of `eight` lands on bit 56 + i of the
/// product and no two partial products meet.
Word lane_bits(const std::uint8_t (&codes)[kLanes], int p) noexcept {
    static_assert(std::endian::native == std::endian::little, "bytes load lane-ordered");
    Word word = 0;
    for (unsigned group = 0; group < kLanes / 8; ++group) {
        std::uint64_t eight = 0;
        std::memcpy(&eight, codes + 8 * group, sizeof eight);
        eight = (eight >> p) & 0x0101010101010101ULL;
        word |= ((eight * 0x0102040810204080ULL) >> 56) << (8 * group);
    }
    return word;
}

std::atomic<std::uint64_t> lane_trials{0};
std::atomic<std::uint64_t> lane_fallbacks{0};

} // namespace

ColorField random_coloring(std::size_t size, Color k, Color num_colors, double density,
                           Xoshiro256& rng) {
    require_coloring(k, num_colors, density);
    ColorField field(size);
    for (std::size_t v = 0; v < size; ++v) field[v] = draw_color(k, num_colors, density, rng);
    return field;
}

void random_lane_fields(sim::LaneBatch& lanes, Color k, Color num_colors, double density,
                        std::span<Xoshiro256> rngs) {
    require_coloring(k, num_colors, density);
    DYNAMO_REQUIRE(!rngs.empty() && rngs.size() <= kLanes, "a lane block holds 1..64 trials");
    const int planes = lanes.planes();
    DYNAMO_REQUIRE(planes == 1 ? num_colors == 2 : num_colors <= sim::LaneBatch::kMaxColor,
                   "palette outside the lane batch's encoding");
    const std::size_t used = rngs.size();
    const Word live = used == kLanes ? ~Word{0} : (Word{1} << used) - 1;

    // bernoulli(density) is (x >> 11) * 2^-53 < density. Scaling both sides
    // by 2^53 is exact in double, and the left side is an integer, so the
    // test is (x >> 11) < ceil(density * 2^53), at most 2^53.
    const auto k_below = static_cast<std::uint64_t>(std::ceil(std::ldexp(density, 53)));
    // A lane that did not draw k draws i = below(others), color 1 + i with
    // k skipped, and redraws by below's own rule (never for others = 1, 2
    // or 4; so never under a bi-color rule).
    const std::uint64_t others = num_colors - 1u;
    const std::uint64_t redraw_under = Xoshiro256::below_threshold(others);
    // Colors as the batch stores them: bit p of a code is plane p.
    const auto code = [&](unsigned c) {
        return static_cast<std::uint8_t>(planes == 1 ? c == kBlack : c);
    };
    std::array<std::uint8_t, sim::LaneBatch::kMaxColor> other_code{};
    for (unsigned i = 0; i < others; ++i) other_code[i] = code(i + 1 >= k ? i + 2 : i + 1);
    const std::uint8_t k_code = code(k);

    // The generators, copied out one array per state word, so the lanes
    // step as independent chains and no store to the batch can alias them.
    // Lanes past `used` step copies of lane 0, and their bits are dropped.
    std::uint64_t s[4][kLanes] = {};
    for (unsigned l = 0; l < kLanes; ++l) {
        const std::array<std::uint64_t, 4>& state = rngs[l < used ? l : 0].state();
        for (unsigned w = 0; w < 4; ++w) s[w][l] = state[w];
    }
    std::uint8_t drew_k[kLanes] = {};
    std::uint64_t second[kLanes] = {};
    // Lane l's color code when it did not draw k; a 2-color palette has one.
    std::uint8_t codes[kLanes] = {};
    std::fill_n(codes, kLanes, other_code[0]);
    for (std::size_t v = 0; v < lanes.torus().size(); ++v) {
        // Every lane draws, and steps a copy for the second draw that only
        // the lanes which did not draw k keep: no branch on the draw.
        for (unsigned l = 0; l < kLanes; ++l) {
            std::uint64_t s0 = s[0][l], s1 = s[1][l], s2 = s[2][l], s3 = s[3][l];
            const std::uint64_t x = Xoshiro256::step(s0, s1, s2, s3);
            // 1 iff (x >> 11) < k_below, both being below 2^63.
            const std::uint64_t k_bit = ((x >> 11) - k_below) >> 63;
            drew_k[l] = static_cast<std::uint8_t>(k_bit);
            std::uint64_t t0 = s0, t1 = s1, t2 = s2, t3 = s3;
            second[l] = Xoshiro256::step(t0, t1, t2, t3);
            const std::uint64_t keep = 0 - k_bit;
            s[0][l] = t0 ^ ((t0 ^ s0) & keep);
            s[1][l] = t1 ^ ((t1 ^ s1) & keep);
            s[2][l] = t2 ^ ((t2 ^ s2) & keep);
            s[3][l] = t3 ^ ((t3 ^ s3) & keep);
        }
        const Word k_lanes = lane_bits(drew_k, 0);
        if (others > 1) {
            // below(others) on the second draw; a lane whose draw falls
            // under below's threshold draws again from its own generator.
            Word redraws = 0;
            for (unsigned l = 0; l < kLanes; ++l) {
                const __uint128_t m = static_cast<__uint128_t>(second[l]) * others;
                redraws |= Word{static_cast<std::uint64_t>(m) < redraw_under} << l;
                codes[l] = other_code[static_cast<std::size_t>(m >> 64)];
            }
            for (redraws &= live & ~k_lanes; redraws != 0; redraws &= redraws - 1) {
                const auto l = static_cast<unsigned>(std::countr_zero(redraws));
                __uint128_t m = 0;
                do {
                    const std::uint64_t x = Xoshiro256::step(s[0][l], s[1][l], s[2][l], s[3][l]);
                    m = static_cast<__uint128_t>(x) * others;
                } while (static_cast<std::uint64_t>(m) < redraw_under);
                codes[l] = other_code[static_cast<std::size_t>(m >> 64)];
            }
        }
        Word* words = lanes.round0(v);
        for (int p = 0; p < planes; ++p) {
            const Word k_plane = (k_code >> p) & 1u ? k_lanes : 0;
            words[p] = (k_plane | (lane_bits(codes, p) & ~k_lanes)) & live;
        }
    }
    for (unsigned l = 0; l < used; ++l) rngs[l] = Xoshiro256({s[0][l], s[1][l], s[2][l], s[3][l]});
}

LaneTrialCounts lane_trial_counts() noexcept { return {lane_trials.load(), lane_fallbacks.load()}; }

namespace {

/// Per-trial record, reduced in trial order so floating-point sums are
/// identical for every execution schedule.
struct TrialOutcome {
    Termination termination = Termination::RoundLimit;
    std::uint32_t rounds = 0;
    std::optional<Color> mono;
    std::size_t final_k = 0;
};

/// The rule the trials run under: nullptr is the SMP protocol; an explicit
/// rule must admit the palette.
const rules::RuleInfo& trial_rule(Color num_colors, const rules::RuleInfo* rule) {
    if (rule == nullptr) return rules::smp_rule();
    DYNAMO_REQUIRE(rule->admits_palette(num_colors),
                   std::string("palette size inadmissible for rule '") + rule->name + "'");
    return *rule;
}

/// Lane trials need a torus of at most this many cells. A batch sweeps all
/// 64 lanes until its last lane ends, and a lane that outlives the lane cap
/// runs twice, so the gain narrows as runs get longer with the torus:
/// 7-12x per trial at 8x8, 1.5-5.5x at 128x128 over densities 0.01-0.95
/// (4-vCPU Xeon, g++ 12.2; the table is in CHANGES.md). Larger tori still
/// won at 256x256, but a batch's states (up to 168 bytes per cell) would
/// leave the cache, so they keep one engine per trial.
constexpr std::size_t kLaneMaxCells = 128 * 128;

/// The trials of one density point. Shared verbatim by the fixed and
/// adaptive paths, so an adaptive point's prefix is bit-identical to a
/// fixed-trial run.
struct TrialSet {
    const grid::Torus& torus;
    Color k;
    double density;
    Color num_colors;
    const rules::RuleInfo& rule;
    Backend backend;

    /// Backend::Auto trials run 64 at a time on the rule's lane batch when
    /// the palette fits the bit-plane encoding and the torus is small. An
    /// explicit backend keeps one rule.run per trial, which makes it the
    /// cross-check of the lanes.
    bool on_lanes() const noexcept {
        return backend == Backend::Auto && sim::LaneBatch::holds(rule.bicolor(), num_colors) &&
               torus.size() <= kLaneMaxCells;
    }

    /// outcomes[t] for every trial t in [lo, hi) of the batch seeded with
    /// `seed`: a random coloring from the trial's private substream, run to
    /// termination.
    void run(std::size_t lo, std::size_t hi, std::uint64_t seed, ThreadPool* pool,
             std::vector<TrialOutcome>& outcomes) const {
        const BatchRunner batch(pool);
        if (!on_lanes()) {
            batch.run_trials(lo, hi, seed, [&](std::size_t t, Xoshiro256& rng) {
                outcomes[t] = run_one(rng);
            });
            return;
        }
        batch.run_trial_blocks(lo, hi, sim::LaneBatch::kLanes, seed,
                               [&](std::size_t first, std::span<Xoshiro256> rngs) {
                                   run_block(first, rngs, seed, outcomes);
                               });
    }

  private:
    /// One trial on its own engine (Backend `backend`).
    TrialOutcome run_one(Xoshiro256& rng) const {
        const ColorField initial = random_coloring(torus.size(), k, num_colors, density, rng);
        RunOptions opts;
        opts.backend = backend;
        const RunResult result = rule.run(torus, initial, opts);
        return {result.termination, result.rounds, result.mono,
                count_color(result.final_colors, k)};
    }

    /// Trials first .. first + rngs.size() - 1 on one lane batch: the
    /// trials' fields are drawn cell by cell into their lanes
    /// (random_lane_fields), and a lane still running at the lane cap
    /// re-runs on its own engine from the same substream.
    void run_block(std::size_t first, std::span<Xoshiro256> rngs, std::uint64_t seed,
                   std::vector<TrialOutcome>& outcomes) const {
        const std::unique_ptr<sim::LaneBatch> lanes = rule.make_lane_batch(torus);
        random_lane_fields(*lanes, k, num_colors, density, rngs);
        std::array<sim::LaneOutcome, sim::LaneBatch::kLanes> ends;
        lanes->run(static_cast<unsigned>(rngs.size()), sim::kDefaultLaneCap, k, ends);
        std::uint64_t fallbacks = 0;
        for (std::size_t lane = 0; lane < rngs.size(); ++lane) {
            const sim::LaneOutcome& end = ends[lane];
            if (end.ended) {
                outcomes[first + lane] = {
                    end.termination, end.rounds,
                    end.mono != kUnset ? std::optional<Color>(end.mono) : std::nullopt,
                    end.count};
            } else {
                Xoshiro256 rng(substream_seed(seed, first + lane));
                outcomes[first + lane] = run_one(rng);
                ++fallbacks;
            }
        }
        lane_trials.fetch_add(rngs.size(), std::memory_order_relaxed);
        lane_fallbacks.fetch_add(fallbacks, std::memory_order_relaxed);
    }
};

/// Deterministic trial-order reduction of the first `trials` outcomes.
DensityPoint reduce_outcomes(const grid::Torus& torus, double density,
                             const std::vector<TrialOutcome>& outcomes, std::size_t trials) {
    DensityPoint point;
    point.density = density;
    point.trials = trials;
    double rounds_sum = 0.0;
    double k_fraction_sum = 0.0;
    for (std::size_t t = 0; t < trials; ++t) {
        const TrialOutcome& outcome = outcomes[t];
        switch (outcome.termination) {
            case Termination::Monochromatic:
                // k-monochromatic iff every vertex holds k at termination.
                if (outcome.mono && outcome.final_k == torus.size()) {
                    ++point.k_mono;
                    rounds_sum += outcome.rounds;
                } else if (outcome.mono) {
                    ++point.other_mono;
                }
                break;
            case Termination::Cycle: ++point.cycles; break;
            case Termination::FixedPoint: ++point.fixed_points; break;
            case Termination::RoundLimit: break;
        }
        k_fraction_sum +=
            static_cast<double>(outcome.final_k) / static_cast<double>(torus.size());
    }
    if (point.k_mono > 0) rounds_sum /= static_cast<double>(point.k_mono);
    point.mean_rounds_mono = rounds_sum;
    point.mean_final_k_fraction = k_fraction_sum / static_cast<double>(trials ? trials : 1);
    return point;
}

} // namespace

DensityPoint run_density_point(const grid::Torus& torus, Color k, double density,
                               Color num_colors, std::size_t trials, std::uint64_t seed,
                               ThreadPool* pool, const rules::RuleInfo* rule, Backend backend) {
    const TrialSet set{torus, k, density, num_colors, trial_rule(num_colors, rule), backend};
    std::vector<TrialOutcome> outcomes(trials);
    set.run(0, trials, seed, pool, outcomes);
    return reduce_outcomes(torus, density, outcomes, trials);
}

AdaptiveDensityPoint run_density_point_adaptive(const grid::Torus& torus, Color k,
                                                double density, Color num_colors,
                                                std::uint64_t seed,
                                                const AdaptiveOptions& options,
                                                ThreadPool* pool, const rules::RuleInfo* rule,
                                                Backend backend) {
    const TrialSet set{torus, k, density, num_colors, trial_rule(num_colors, rule), backend};
    // Grown chunk by chunk: memory follows the trials run, not the cap.
    std::vector<TrialOutcome> outcomes;
    static_assert(stats::SequentialEstimator::kChunk == sim::LaneBatch::kLanes,
                  "an estimator chunk is one lane batch");
    const stats::SequentialEstimator estimator({options.stopping, options.max_trials});
    const stats::SequentialResult result =
        estimator.run_chunks([&](std::size_t lo, std::size_t hi, std::span<double> values) {
            outcomes.resize(hi);
            set.run(lo, hi, seed, pool, outcomes);
            for (std::size_t t = lo; t < hi; ++t) {
                const bool is_k_mono = outcomes[t].termination == Termination::Monochromatic &&
                                       outcomes[t].mono && *outcomes[t].mono == k;
                values[t - lo] = is_k_mono ? 1.0 : 0.0;
            }
        });

    AdaptiveDensityPoint adaptive;
    adaptive.point = reduce_outcomes(torus, density, outcomes, result.trials);
    adaptive.half_width = result.half_width;
    adaptive.lower = result.lower;
    adaptive.upper = result.upper;
    adaptive.decided = result.decided;
    adaptive.converged = result.converged;
    adaptive.computed = result.computed;
    return adaptive;
}

std::vector<DensityPoint> run_density_sweep(const grid::Torus& torus, Color k,
                                            const std::vector<double>& densities,
                                            Color num_colors, std::size_t trials,
                                            std::uint64_t seed, ThreadPool* pool,
                                            const rules::RuleInfo* rule, Backend backend) {
    std::vector<DensityPoint> points;
    points.reserve(densities.size());
    for (std::size_t i = 0; i < densities.size(); ++i) {
        points.push_back(run_density_point(torus, k, densities[i], num_colors, trials,
                                           substream_seed(seed, i), pool, rule, backend));
    }
    return points;
}

} // namespace dynamo::analysis
