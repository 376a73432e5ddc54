// dynamo/core/run/backend.hpp
//
// The Backend enum and its name mapping: which stepping substrate
// simulate(), a registry rule's run and simulate_rule() route a run
// through. Runtime layers (the `dynamo` CLI's `backend=` parameters,
// campaign manifests) resolve names through backend_from_name() and get
// their error lists from known_backend_names(), exactly like rule names
// resolve through rules/registry.hpp. Every backend steps every registered
// rule (the registry refuses at compile time a rule without a bit-plane
// kernel); only a runtime rule functor is limited to the generic sweep,
// and simulate_rule() refuses the rest through
// backend_unsupported_message().
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace dynamo {

/// Which stepping substrate simulate() routes a run through.
enum class Backend : std::uint8_t {
    Auto,      ///< the fastest correct substrate: the (pool-capable)
               ///< active-set engine for LocalRules, Generic for runtime
               ///< rule functors
    Packed,    ///< full-sweep engine (packed byte stencil fast path)
    Active,    ///< active-set engine: re-evaluates dirty spans only,
               ///< O(frontier) rounds; pooled phase-1 when given a pool
    Generic,   ///< seed-style table-driven sweep, any rule functor
    BitPlane,  ///< bit-plane word-parallel engine (core/sim/
               ///< bitplane_engine.hpp): 64 cells per limb per plane,
               ///< rules with a word-parallel kernel only
};

/// Canonical lowercase name of a backend ("auto", "packed", "active",
/// "generic", "bitplane") - the CLI/manifest `backend=` vocabulary.
const char* backend_name(Backend b) noexcept;

/// Resolve a `backend=` value; nullopt if unknown.
std::optional<Backend> backend_from_name(std::string_view name) noexcept;

/// "active, auto, bitplane, generic, packed" - for error messages, in the
/// same sorted style as rules::known_rule_names().
std::string known_backend_names();

/// The one actionable message for an unsupported rule x backend
/// combination (simulate_rule() refusing a stencil backend for a runtime
/// functor). `supported` names the backends that DO step the rule (e.g.
/// "auto, generic").
std::string backend_unsupported_message(Backend backend, std::string_view rule_name,
                                        std::string_view supported);

} // namespace dynamo
