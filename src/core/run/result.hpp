// dynamo/core/run/result.hpp
//
// Terminal classification and the result record of a simulation run.
//
// RunResult is the one record shared by every engine (packed full sweep,
// active-set fast path, generic rules, general graphs, temporal links) and
// every run driver; field names and semantics are the seed driver's bit for
// bit.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "core/coloring.hpp"

namespace dynamo {

/// Sentinel adoption time for vertices that never (stably) hold the target.
inline constexpr std::uint32_t kNeverK = std::numeric_limits<std::uint32_t>::max();

enum class Termination : std::uint8_t {
    Monochromatic,  ///< all vertices share one color (stable under any rule
                    ///< that maps a unanimous neighborhood to itself)
    FixedPoint,     ///< no vertex changed, but not monochromatic
    Cycle,          ///< state repeated with period >= 1
    RoundLimit,     ///< defensive cap reached
};

const char* to_string(Termination t) noexcept;

struct RunResult {
    Termination termination = Termination::RoundLimit;

    /// Rounds executed until the terminal condition first held. For a
    /// dynamo this is exactly the paper's "number of rounds needed to
    /// reach the monochromatic configuration".
    std::uint32_t rounds = 0;

    /// The shared color when termination == Monochromatic.
    std::optional<Color> mono;

    /// Cycle period when termination == Cycle.
    std::uint32_t cycle_period = 0;

    std::uint64_t total_recolorings = 0;

    ColorField final_colors;

    // --- target-color bookkeeping (filled by the run loop's target tracker,
    // --- switched on by RunOptions::target) ---

    /// k_time[v]: round at which v most recently assumed the target color
    /// (0 for initially-k vertices); kNeverK if v is not k at termination.
    /// For monotone dynamos this is the paper's Figures 5/6 matrix.
    std::vector<std::uint32_t> k_time;

    /// newly_k[r]: vertices that assumed the target color at round r
    /// (index 0 = initial seeds). The wavefront profile.
    std::vector<std::uint32_t> newly_k;

    /// Definition 3: no vertex ever abandoned the target color.
    bool monotone = true;

    bool reached_mono(Color k) const {
        return termination == Termination::Monochromatic && mono && *mono == k;
    }
};

} // namespace dynamo
