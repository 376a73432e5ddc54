// dynamo/analysis/montecarlo.hpp
//
// Monte-Carlo experiment harness: the paper proves worst/best-case bounds
// for engineered seed sets; the M1 experiment complements them with the
// average-case picture - the probability that a *random* initial coloring
// with k-density rho reaches the k-monochromatic configuration, per
// topology, plus conditional round counts.
//
// Every trial draws from its own deterministic RNG substream
// (substream_seed(seed, trial), see core/run/batch.hpp) and runs on the
// BatchRunner, so a table cell is a pure function of (topology, k,
// density, |C|, trials, seed) - identical whether trials execute serially
// or across the ThreadPool, and reproducible from a printed seed.
// Adaptive mode (run_density_point_adaptive) adds sequential stopping on
// top: the same per-trial substreams, but the trial count is decided by
// an anytime-valid confidence sequence (stats/confidence.hpp), so the
// point is a pure function of (params, seed, ci_target, delta) —
// bit-identical serial vs pooled and independent of chunk geometry.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/stats.hpp"
#include "core/coloring.hpp"
#include "core/run/backend.hpp"
#include "grid/torus.hpp"
#include "stats/sequential.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace dynamo::rules {
struct RuleInfo;
}

namespace dynamo::analysis {

struct DensityPoint {
    double density = 0.0;
    std::size_t trials = 0;
    std::size_t k_mono = 0;        ///< trials ending k-monochromatic
    std::size_t other_mono = 0;    ///< trials ending monochromatic in another color
    std::size_t cycles = 0;        ///< trials ending in a limit cycle
    std::size_t fixed_points = 0;  ///< non-monochromatic fixed points
    double mean_rounds_mono = 0.0; ///< mean rounds over k-mono trials
    double mean_final_k_fraction = 0.0;  ///< mean |S_k|/|V| at termination

    double p_k_mono() const noexcept {
        return trials ? static_cast<double>(k_mono) / static_cast<double>(trials) : 0.0;
    }

    /// Wilson 95% interval on p_k_mono: even fixed-trial tables report
    /// uncertainty, not bare point estimates.
    double p_ci_half() const noexcept { return wilson_halfwidth(k_mono, trials); }
    double p_ci_lower() const noexcept { return wilson_lower(k_mono, trials); }
    double p_ci_upper() const noexcept { return wilson_upper(k_mono, trials); }
};

/// Sequential-stopping configuration for an adaptive density point.
struct AdaptiveOptions {
    /// Boundary, ci_target / decision_threshold, delta, union_count,
    /// min_trials — see stats/confidence.hpp.
    stats::StoppingConfig stopping;
    std::size_t max_trials = 10000;  ///< hard cap when the rule never fires
    /// Trials generated per batch round; affects throughput only, never
    /// the result (chunk tails past the stop are discarded).
    std::size_t chunk = 64;
};

/// An adaptively-stopped density point: the census covers exactly the
/// `point.trials` observations the confidence sequence consumed, and the
/// interval fields are the sequence's anytime-valid CI on p_k_mono.
struct AdaptiveDensityPoint {
    DensityPoint point;
    double half_width = 1.0;
    double lower = 0.0;
    double upper = 1.0;
    int decided = 0;          ///< -1 / +1 when the CI excludes the threshold
    bool converged = false;   ///< stopping rule fired before max_trials
    std::size_t computed = 0; ///< trials generated incl. the discarded chunk tail
};

/// Random coloring: each vertex takes color k with probability `density`,
/// otherwise a uniform color from the remaining palette.
ColorField random_coloring(std::size_t size, Color k, Color num_colors, double density,
                           Xoshiro256& rng);

/// One sweep point: `trials` random colorings at the given density, trial
/// t seeded with substream_seed(seed, t), executed on `pool` when given
/// (bit-identical results either way). `rule` selects the local rule the
/// trials run under (rules/registry.hpp); nullptr = the SMP protocol, the
/// seed-era behaviour bit for bit. `backend` selects the engine each
/// trial steps (core/run/backend.hpp) - all backends produce identical
/// outcomes, so the parameter exists for engine cross-validation and
/// perf experiments. The caller owns the color conventions: k is the
/// flooding target under that rule (kBlack for bi-color rules).
DensityPoint run_density_point(const grid::Torus& torus, Color k, double density,
                               Color num_colors, std::size_t trials, std::uint64_t seed,
                               ThreadPool* pool = nullptr,
                               const rules::RuleInfo* rule = nullptr,
                               Backend backend = Backend::Auto);

/// Full sweep over a density grid; density i uses the substream
/// substream_seed(seed, i) so points are independent of each other too.
std::vector<DensityPoint> run_density_sweep(const grid::Torus& torus, Color k,
                                            const std::vector<double>& densities,
                                            Color num_colors, std::size_t trials,
                                            std::uint64_t seed, ThreadPool* pool = nullptr,
                                            const rules::RuleInfo* rule = nullptr,
                                            Backend backend = Backend::Auto);

/// Adaptive counterpart of run_density_point: trial t still draws from
/// substream_seed(seed, t), but the trial count is decided by the
/// confidence sequence in `options.stopping` (width target, decision
/// threshold, or both), capped at options.max_trials. The census over
/// the consumed prefix is bit-identical to a fixed-trial run of the same
/// length — adaptive stopping changes WHEN to stop, never what a trial
/// is — and the whole result is independent of pool and chunk geometry.
AdaptiveDensityPoint run_density_point_adaptive(const grid::Torus& torus, Color k,
                                                double density, Color num_colors,
                                                std::uint64_t seed,
                                                const AdaptiveOptions& options,
                                                ThreadPool* pool = nullptr,
                                                const rules::RuleInfo* rule = nullptr,
                                                Backend backend = Backend::Auto);

} // namespace dynamo::analysis
