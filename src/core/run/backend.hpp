// dynamo/core/run/backend.hpp
//
// The Backend enum and its name mapping: which stepping substrate
// simulate() and a registry rule's run route a run through. Runtime layers
// (the `dynamo` CLI's `backend=` parameters, campaign manifests) resolve
// names through backend_from_name() and get their error lists from
// known_backend_names(), exactly like rule names resolve through
// rules/registry.hpp. Every backend steps every registered rule (the
// registry refuses at compile time a rule without a bit-plane kernel);
// BitPlane only within its palette, colors 1..7 ({1, 2} under a bi-color
// rule), and refuses any other field.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace dynamo {

/// Which stepping substrate simulate() routes a run through.
enum class Backend : std::uint8_t {
    Auto,      ///< adaptive: Active on thin rounds, BitPlane on dense
               ///< ones, switching per round on the change count
               ///< (core/sim/hybrid_engine.hpp); stays on Active for a
               ///< palette BitPlane cannot hold
    Packed,    ///< full-sweep engine (packed byte stencil fast path)
    Active,    ///< active-set engine: re-evaluates dirty spans only,
               ///< O(frontier) rounds; pooled phase-1 when given a pool
    Generic,   ///< seed-style table-driven sweep (BasicSyncEngine)
    BitPlane,  ///< bit-plane word-parallel engine (core/sim/
               ///< bitplane_engine.hpp): 64 cells per limb per plane
};

/// Canonical lowercase name of a backend ("auto", "packed", "active",
/// "generic", "bitplane") - the CLI/manifest `backend=` vocabulary.
const char* backend_name(Backend b) noexcept;

/// Resolve a `backend=` value; nullopt if unknown.
std::optional<Backend> backend_from_name(std::string_view name) noexcept;

/// "active, auto, bitplane, generic, packed" - for error messages, in the
/// same sorted style as rules::known_rule_names().
std::string known_backend_names();

} // namespace dynamo
