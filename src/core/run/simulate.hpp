// dynamo/core/run/simulate.hpp
//
// The torus-level entry point of the run API: simulate() (the
// SMP-Protocol), routed through a Backend-selected engine and the shared
// run_to_terminal() loop. Every other LocalRule runs through its registry
// entry (rules::rule_or_throw(name).run, rules/registry.hpp): the registry
// is the one place a rule type is compiled into engines, and simulate() is
// defined there too, so no caller compiles its own copy of them.
//
// Backend::Auto is adaptive (core/sim/hybrid_engine.hpp): it steps the
// active-set engine while rounds are thin - O(frontier), the wavefronts
// of Theorems 7-8 - and the bit-plane engine while they are dense - the
// churn of majority dynamics from a random or collapsed coloring -
// deciding after each round from its change count alone, so serial and
// pooled runs switch alike. Active, BitPlane and Auto are one engine type
// with a fixed hand-over policy. Every backend steps every registered rule
// (BitPlane within its 1..7 palette; Auto stays on the active engine for a
// field outside it). A runtime rule functor has no registry
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
