// dynamo/graph/temporal.hpp
//
// Time-varying interaction topologies - the second extension the paper's
// conclusions call for ("such a protocol should be investigated in
// contexts where graphs are subject to intermittent availability of both
// links and nodes", citing Casteigts-Flocchini-Quattrociocchi-Santoro).
//
// Model: each round, every undirected torus edge is independently *present*
// with probability `edge_up`, decided by a deterministic hash of
// (seed, round, edge), so both endpoints agree and runs are reproducible.
// A vertex applies the SMP plurality semantics over its present neighbor
// slots only: adopt the unique plurality color of multiplicity >= 2 among
// present neighbors; otherwise (including < 2 present) keep its color.
// Degenerate parallel slots (m = 2 or n = 2) share one edge decision.
#pragma once

#include <cstdint>

#include "core/coloring.hpp"
#include "core/run/runner.hpp"
#include "grid/torus.hpp"

namespace dynamo::graphx {

struct TemporalOptions {
    double edge_up = 1.0;        ///< per-round availability of each edge
    std::uint64_t seed = 0x7e3;  ///< availability stream seed
};

/// Simulate the SMP-Protocol on `torus` under intermittent edge
/// availability. With edge_up == 1.0 this reproduces core::simulate()
/// exactly (asserted in tests). `run.max_rounds == 0` selects this
/// model's own cap of 8*|V| + 64; the other fields apply as given. While
/// links flicker (edge_up < 1) the rule is time-varying, so the run ends
/// on neither a quiet round nor a repeated state (core/run/runner.hpp):
/// only a monochromatic state, an observer stop or the cap ends it.
RunResult simulate_temporal(const grid::Torus& torus, const ColorField& initial,
                            const TemporalOptions& options, RunOptions run = {});

} // namespace dynamo::graphx
