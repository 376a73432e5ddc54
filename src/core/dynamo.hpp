// dynamo/core/dynamo.hpp
//
// Dynamo verification (paper Definitions 2 and 3): given an initial
// coloring and a target color k, decide by simulation whether S_k is a
// dynamo (a k-monochromatic configuration is reached in finite time) and
// whether it is monotone (the k-colored set only ever grows).
//
// Termination is guaranteed: the system is finite and deterministic, so
// the engine's cycle detection (or its round cap) bounds every run.
#pragma once

#include <cstdint>
#include <string>

#include "core/run/result.hpp"

namespace dynamo {

class ThreadPool;

struct DynamoVerdict {
    bool is_dynamo = false;    ///< reached the k-monochromatic configuration
    bool is_monotone = false;  ///< and the k-set never shrank (Definition 3)
    RunResult trace;           ///< full simulation evidence

    /// Short human-readable explanation for benches and error messages.
    std::string summary() const;
};

/// Simulate and classify. `pool` may be null (serial).
DynamoVerdict verify_dynamo(const grid::Torus& torus, const ColorField& initial, Color k,
                            ThreadPool* pool = nullptr);

/// Evidence-free verdict for search inner loops: same classification as
/// verify_dynamo, without retaining the RunResult. Each registered rule
/// produces one through RuleInfo::make_search_verifier (rules/registry.hpp),
/// which simulates on the rule's packed full-sweep engine; the engines are
/// bit-identical, so the verdicts agree (tests/test_search_parallel.cpp
/// cross-checks them).
struct QuickVerdict {
    bool is_dynamo = false;
    bool is_monotone = false;
    std::uint32_t rounds = 0;
};

/// Classify a finished run as a QuickVerdict for target k. The ONE
/// verdict fold, shared by the rule registry's monomorphized verifiers
/// (rules/registry.cpp).
QuickVerdict classify_quick_verdict(const RunResult& result, Color k);

/// Fast *negative* certificate (no simulation): if the complement of S_k
/// already contains a non-k-block (Definition 5), S_k cannot be a dynamo.
/// Returns true when such a certificate exists.
bool has_non_dynamo_certificate(const grid::Torus& torus, const ColorField& initial, Color k);

} // namespace dynamo
