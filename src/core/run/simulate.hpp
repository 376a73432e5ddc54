// dynamo/core/run/simulate.hpp
//
// The torus-level entry point of the run API: simulate() (the
// SMP-Protocol), routed through a Backend-selected engine and the shared
// run_to_terminal() loop. Every other LocalRule runs through its registry
// entry (rules::rule_or_throw(name).run, rules/registry.hpp): the registry
// is the one place a rule type is compiled into engines, and simulate() is
// defined there too, so no caller compiles its own copy of them.
//
// Backend::Auto is the active-set engine: per-round cost O(frontier),
// best on the thin frontiers of Theorems 7-8 (pool-aware since the
// segmented rewrite); dense churn runs faster on BitPlane. Every backend
// steps every registered rule. A runtime rule functor has no registry
// entry: it runs on the reference engine alone, by constructing
// BasicSyncEngine(torus, initial, &reference_sweep<Rule>) and calling
// run_to_terminal (core/sync_engine.hpp). All backends produce bit-identical RunResults -
// same trajectories, same terminal classification, same round accounting
// (property-tested per rule in tests/test_run.cpp and tests/test_rules.cpp).
//
// The engine headers come along for code that steps an engine directly
// (sim::ActiveEngineT<R>, sim::PackedEngineT<R>, sim::BitplaneEngineT<R>).
#pragma once

#include "core/run/runner.hpp"
#include "core/sim/active_engine.hpp"
#include "core/sim/bitplane_engine.hpp"
#include "core/sim/packed_engine.hpp"
#include "core/sync_engine.hpp"
#include "grid/torus.hpp"

namespace dynamo {

/// Run the SMP-Protocol from `initial` until a terminal behaviour (see
/// Termination). The same compiled run as rules::smp_rule().run.
RunResult simulate(const grid::Torus& torus, const ColorField& initial,
                   const RunOptions& options = {});

} // namespace dynamo
