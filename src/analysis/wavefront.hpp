// dynamo/analysis/wavefront.hpp
//
// Wavefront statistics from a simulation trace: how the k-wave of a
// dynamo advances round by round. Theorems 7/8 are statements about the
// wave's *duration*; these helpers expose its *shape* (per-round widths,
// peak, speed), which the examples report and the Theorem 7/8 benches use
// to explain the mesh-vs-spiral contrast: diamond waves on the mesh grow
// then shrink (peak in the middle), spiral waves advance at a constant
// 2 cells/round.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/run/result.hpp"
#include "util/assert.hpp"

namespace dynamo::analysis {

struct WavefrontStats {
    std::uint32_t rounds = 0;        ///< rounds with a nonzero front
    std::uint32_t seeds = 0;         ///< newly_k[0]
    std::uint32_t peak = 0;          ///< widest single-round front
    std::uint32_t peak_round = 0;    ///< round where the peak occurred
    double mean_front = 0.0;         ///< mean adoptions/round over active rounds
    std::uint64_t total_adopted = 0; ///< sum over rounds >= 1

    /// Average front speed = adopted cells per active round.
    double speed() const noexcept {
        return rounds ? static_cast<double>(total_adopted) / rounds : 0.0;
    }
};

/// Summarize a trace produced with RunOptions::target set.
inline WavefrontStats wavefront_stats(const RunResult& trace) {
    DYNAMO_REQUIRE(!trace.newly_k.empty(),
                   "trace has no wavefront data (set RunOptions::target)");
    WavefrontStats s;
    s.seeds = trace.newly_k[0];
    for (std::uint32_t r = 1; r < trace.newly_k.size(); ++r) {
        const std::uint32_t w = trace.newly_k[r];
        if (w == 0) continue;
        ++s.rounds;
        s.total_adopted += w;
        if (w > s.peak) {
            s.peak = w;
            s.peak_round = r;
        }
    }
    s.mean_front = s.rounds ? static_cast<double>(s.total_adopted) / s.rounds : 0.0;
    return s;
}

/// True iff the front is unimodal (grows to one peak, then shrinks) -
/// the diamond-wave signature of the mesh cross configurations.
inline bool front_is_unimodal(const RunResult& trace) {
    bool descending = false;
    for (std::uint32_t r = 2; r < trace.newly_k.size(); ++r) {
        if (trace.newly_k[r] > trace.newly_k[r - 1]) {
            if (descending) return false;
        } else if (trace.newly_k[r] < trace.newly_k[r - 1]) {
            descending = true;
        }
    }
    return true;
}

/// Round-by-round cumulative k-share (0..1] for plotting/thresholding.
inline std::vector<double> cumulative_k_share(const RunResult& trace, std::size_t num_vertices) {
    DYNAMO_REQUIRE(num_vertices > 0, "empty torus");
    std::vector<double> shares;
    shares.reserve(trace.newly_k.size());
    std::uint64_t acc = 0;
    for (const std::uint32_t w : trace.newly_k) {
        acc += w;
        shares.push_back(static_cast<double>(acc) / static_cast<double>(num_vertices));
    }
    return shares;
}

} // namespace dynamo::analysis
