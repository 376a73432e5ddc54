// dynamo/core/dynamo.hpp
//
// Dynamo verification (paper Definitions 2 and 3): given an initial
// coloring and a target color k, decide by simulation whether S_k is a
// dynamo (a k-monochromatic configuration is reached in finite time) and
// whether it is monotone (the k-colored set only ever grows).
//
// Termination is guaranteed: the system is finite and deterministic, so
// the engine's cycle detection (or its round cap) bounds every run. The
// exhaustive search classifies the same way without keeping the trace:
// one rule.run per candidate in its oracle, lane batches in the sharded
// driver (core/search/).
#pragma once

#include <string>

#include "core/run/result.hpp"

namespace dynamo {

struct DynamoVerdict {
    bool is_dynamo = false;    ///< reached the k-monochromatic configuration
    bool is_monotone = false;  ///< and the k-set never shrank (Definition 3)
    RunResult trace;           ///< full simulation evidence

    /// Short human-readable explanation for benches and error messages.
    std::string summary() const;
};

/// Simulate (serially) and classify.
DynamoVerdict verify_dynamo(const grid::Torus& torus, const ColorField& initial, Color k);

/// Fast *negative* certificate (no simulation): if the complement of S_k
/// already contains a non-k-block (Definition 5), S_k cannot be a dynamo.
/// Returns true when such a certificate exists.
bool has_non_dynamo_certificate(const grid::Torus& torus, const ColorField& initial, Color k);

} // namespace dynamo
