#include "analysis/montecarlo.hpp"

#include <optional>

#include "core/run/batch.hpp"
#include "rules/registry.hpp"

namespace dynamo::analysis {

ColorField random_coloring(std::size_t size, Color k, Color num_colors, double density,
                           Xoshiro256& rng) {
    DYNAMO_REQUIRE(num_colors >= 2, "need at least two colors");
    DYNAMO_REQUIRE(k >= 1 && k <= num_colors, "target color outside palette");
    DYNAMO_REQUIRE(density >= 0.0 && density <= 1.0, "density outside [0, 1]");
    ColorField field(size);
    for (std::size_t v = 0; v < size; ++v) {
        if (rng.bernoulli(density)) {
            field[v] = k;
        } else {
            // Uniform over the palette minus k.
            Color c = static_cast<Color>(1 + rng.below(num_colors - 1));
            if (c >= k) c = static_cast<Color>(c + 1);
            field[v] = c;
        }
    }
    return field;
}

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

/// One trial: a random coloring from the trial's private substream, run
/// to termination. Shared verbatim by the fixed and adaptive paths, so an
/// adaptive point's prefix is bit-identical to a fixed-trial run.
TrialOutcome run_one_trial(const grid::Torus& torus, Color k, double density,
                           Color num_colors, const rules::RuleInfo& rule, Backend backend,
                           Xoshiro256& rng) {
    const ColorField initial = random_coloring(torus.size(), k, num_colors, density, rng);
    // Backend::Auto: each (serial) trial steps the active-set engine on
    // thin rounds and the bit-plane engine on dense ones; parallelism is
    // across trials, not within the sweep.
    RunOptions opts;
    opts.backend = backend;
    const RunResult result = rule.run(torus, initial, opts);
    return {result.termination, result.rounds, result.mono,
            count_color(result.final_colors, k)};
}

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
    const rules::RuleInfo& trials_rule = trial_rule(num_colors, rule);
    std::vector<TrialOutcome> outcomes(trials);
    BatchRunner batch(pool);
    batch.run_trials(trials, seed, [&](std::size_t t, Xoshiro256& rng) {
        outcomes[t] = run_one_trial(torus, k, density, num_colors, trials_rule, backend, rng);
    });
    return reduce_outcomes(torus, density, outcomes, trials);
}

AdaptiveDensityPoint run_density_point_adaptive(const grid::Torus& torus, Color k,
                                                double density, Color num_colors,
                                                std::uint64_t seed,
                                                const AdaptiveOptions& options,
                                                ThreadPool* pool, const rules::RuleInfo* rule,
                                                Backend backend) {
    const rules::RuleInfo& trials_rule = trial_rule(num_colors, rule);
    std::vector<TrialOutcome> outcomes(options.max_trials);
    stats::SequentialOptions seq;
    seq.stopping = options.stopping;
    seq.max_trials = options.max_trials;
    seq.chunk = options.chunk;
    const stats::SequentialEstimator estimator(seq, pool);
    const stats::SequentialResult result =
        estimator.run(seed, [&](std::size_t t, Xoshiro256& rng) {
            outcomes[t] = run_one_trial(torus, k, density, num_colors, trials_rule, backend, rng);
            const bool is_k_mono = outcomes[t].termination == Termination::Monochromatic &&
                                   outcomes[t].mono && *outcomes[t].mono == k;
            return is_k_mono ? 1.0 : 0.0;
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
