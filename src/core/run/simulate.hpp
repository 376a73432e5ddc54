// dynamo/core/run/simulate.hpp
//
// The torus-level entry points of the run API: simulate() (the
// SMP-Protocol) and simulate_rule() (any runtime rule functor), routed
// through a Backend-selected engine and the shared run_to_terminal()
// loop. Every other LocalRule runs through its registry entry
// (rules::rule_or_throw(name).run, rules/registry.hpp): the registry is the
// one place a rule type is compiled into engines, and simulate() is defined
// there too, so no caller compiles its own copy of them.
//
// Backend::Auto picks the fastest correct substrate: a LocalRule goes
// through the active-set engine - per-round cost O(frontier), the
// thin-wave regime of Theorems 7-8, pool-aware since the segmented
// rewrite - and a runtime rule functor takes the table-driven generic
// sweep. Explicit backends are honored or refused loudly (a rule the
// requested engine cannot step is an error naming the alternatives, never
// a silent fallback). All backends produce bit-identical RunResults -
// same trajectories, same terminal classification, same round accounting
// (property-tested per rule in tests/test_run.cpp and tests/test_rules.cpp).
//
// The engine headers come along for code that steps an engine directly
// (sim::ActiveEngineT<R>, sim::PackedEngineT<R>, sim::BitplaneEngineT<R>).
#pragma once

#include <stdexcept>

#include "core/run/runner.hpp"
#include "core/sim/active_engine.hpp"
#include "core/sim/bitplane_engine.hpp"
#include "core/sim/packed_engine.hpp"
#include "core/sync_engine.hpp"
#include "grid/torus.hpp"

namespace dynamo {

/// Run a runtime rule functor from `initial` until a terminal behaviour.
/// A functor type is opaque to the stencil engines, so only the
/// table-driven generic sweep can step it - an explicit packed/active/
/// bitplane request is refused loudly, never silently downgraded (a
/// LocalRule type should get a registry entry instead).
template <typename Rule>
RunResult simulate_rule(const grid::Torus& torus, const ColorField& initial, Rule rule,
                        const RunOptions& options = {}) {
    require_complete(torus, initial);
    const Backend backend = options.backend == Backend::Auto ? Backend::Generic : options.backend;
    if (backend != Backend::Generic) {
        throw std::invalid_argument(
            backend_unsupported_message(backend, "<runtime functor>", "auto, generic") +
            "; compile it as a LocalRule (a registry entry) for the stencil engines");
    }
    BasicSyncEngine<Rule> engine(torus, initial, rule);
    return run_to_terminal(engine, options);
}

/// Run the SMP-Protocol from `initial` until a terminal behaviour (see
/// Termination). The same compiled run as rules::smp_rule().run.
RunResult simulate(const grid::Torus& torus, const ColorField& initial,
                   const RunOptions& options = {});

} // namespace dynamo
