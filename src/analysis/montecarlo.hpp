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
// bit-identical serial vs pooled, on lanes or one engine per trial.
// On lanes, a block's fields are drawn cell by cell with all 64
// generators stepped together (random_lane_fields), but each lane makes
// exactly the draws of random_coloring from its substream, so a trial's
// field does not depend on how it is drawn.
#pragma once

#include <cstdint>
#include <span>
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
namespace dynamo::sim {
class LaneBatch;
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

/// Trials that ran on a lane batch, and lanes re-run on a scalar engine
/// because they outlived the lane cap, over every density point in this
/// process. Tests read the difference around a call; nothing else depends
/// on them.
struct LaneTrialCounts {
    std::uint64_t lanes = 0;
    std::uint64_t fallbacks = 0;
};
LaneTrialCounts lane_trial_counts() noexcept;

/// Random coloring: each vertex takes color k with probability `density`,
/// otherwise a uniform color from the remaining palette.
ColorField random_coloring(std::size_t size, Color k, Color num_colors, double density,
                           Xoshiro256& rng);

/// random_coloring for a block of lane trials: lane l of `lanes`' round-0
/// state (sim::LaneBatch::round0) receives the field
/// random_coloring(cells, k, num_colors, density, rngs[l]) would return,
/// and rngs[l] ends where that call leaves it. It draws cell by cell, all
/// lanes at once: each lane still makes exactly its own generator's draws
/// in their order, so the fields are bit-identical to the per-lane ones.
/// 1 <= rngs.size() <= 64; lanes at and above rngs.size() are left 0. A
/// bi-color (1-plane) batch takes a 2-color palette only.
void random_lane_fields(sim::LaneBatch& lanes, Color k, Color num_colors, double density,
                        std::span<Xoshiro256> rngs);

/// One sweep point: `trials` random colorings at the given density, trial
/// t seeded with substream_seed(seed, t), executed on `pool` when given
/// (bit-identical results either way). `rule` selects the local rule the
/// trials run under (rules/registry.hpp); nullptr = the SMP protocol, the
/// seed-era behaviour bit for bit. `backend` selects the engine the
/// trials step (core/run/backend.hpp): Backend::Auto runs them 64 at a
/// time on the rule's lane batch (core/sim/lane_engine.hpp) when the
/// palette has at most 7 colors and the torus at most 128x128 cells, any
/// other backend one run per trial. All produce identical outcomes, so
/// the parameter exists for engine cross-validation and perf experiments.
/// The caller owns the color conventions: k is the flooding target under
/// that rule (kBlack for bi-color rules).
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
/// is — and the whole result is independent of the pool and the backend.
/// Trials run in chunks of stats::SequentialEstimator::kChunk (one lane
/// batch each); max_trials = 0 throws std::invalid_argument.
AdaptiveDensityPoint run_density_point_adaptive(const grid::Torus& torus, Color k,
                                                double density, Color num_colors,
                                                std::uint64_t seed,
                                                const AdaptiveOptions& options,
                                                ThreadPool* pool = nullptr,
                                                const rules::RuleInfo* rule = nullptr,
                                                Backend backend = Backend::Auto);

} // namespace dynamo::analysis
