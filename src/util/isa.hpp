// dynamo/util/isa.hpp
//
// The x86-64 levels a hot loop can be compiled for, and the widest one
// this host runs. The lane draw (analysis/montecarlo.cpp) keeps its loop
// in one always_inline function, calls it directly for the build's own
// target, and wraps it in [[DYNAMO_TARGET_V3]] and [[DYNAMO_TARGET_V4]]
// functions beside that. Callers run best(), picked once per process;
// tests run every level of host_levels() against the baseline. The loop
// is integer and bitwise only, so every level computes the same bytes.
// Builds for other architectures compile the baseline alone, and
// host_levels() is the baseline.
#pragma once

#include <cstddef>
#include <span>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DYNAMO_ISA_LEVELS 1
/// AVX2, BMI1/2, FMA, LZCNT, MOVBE (x86-64-v3).
#define DYNAMO_TARGET_V3 gnu::target("arch=x86-64-v3")
/// v3 plus AVX-512 F, BW, DQ, VL (x86-64-v4).
#define DYNAMO_TARGET_V4 gnu::target("arch=x86-64-v4")
#else
#define DYNAMO_ISA_LEVELS 0
#endif

namespace dynamo::isa {

/// Each level runs everything the one before it runs.
enum class Level : unsigned char { Baseline, V3, V4 };

inline constexpr Level kLevels[] = {Level::Baseline, Level::V3, Level::V4};

inline const char* to_string(Level level) noexcept {
    switch (level) {
        case Level::Baseline: return "baseline";
        case Level::V3: return "x86-64-v3";
        case Level::V4: return "x86-64-v4";
    }
    return "unknown";
}

/// The widest level this host runs, read from the CPU once. The feature
/// names are the ones GCC and clang both accept; a CPU with AVX2, BMI2 and
/// FMA has the rest of v3 too.
inline Level best() noexcept {
    static const Level level = [] {
#if DYNAMO_ISA_LEVELS
        __builtin_cpu_init();
        if (!(__builtin_cpu_supports("avx2") && __builtin_cpu_supports("bmi2") &&
              __builtin_cpu_supports("fma")))
            return Level::Baseline;
        if (!(__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
              __builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("avx512vl")))
            return Level::V3;
        return Level::V4;
#else
        return Level::Baseline;
#endif
    }();
    return level;
}

/// Every level this host runs, baseline first and best() last.
inline std::span<const Level> host_levels() noexcept {
    return {kLevels, static_cast<std::size_t>(best()) + 1};
}

inline bool runs(Level level) noexcept { return level <= best(); }

} // namespace dynamo::isa
