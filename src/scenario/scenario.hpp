// dynamo/scenario/scenario.hpp
//
// The scenario registry: every paper table/figure reproduction, every
// example, and the perf/search benches register here as a named scenario
// with a typed parameter schema and an entry function. One `dynamo` CLI
// binary lists, describes, and runs them (`dynamo run <name>`), and the
// campaign layer (scenario/campaign.hpp) sweeps them over parameter grids.
//
// A scenario's contract:
//   * it reads parameters only through ctx.args (declared in its schema —
//     `dynamo run` and the campaign layer validate against it);
//   * it writes its human-readable report to ctx.out (std::cout under the
//     CLI, a private buffer under the campaign layer — so
//     scenarios must not write to std::cout directly);
//   * it may record machine-readable results in ctx.metrics (what the
//     result cache keys on and campaigns aggregate);
//   * given equal parameters it produces equal metrics regardless of
//     threading (scenarios derive randomness from a `seed` parameter via
//     RNG substreams, never from global state).
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "util/cli.hpp"

namespace dynamo::scenario {

enum class ParamType {
    Int,
    /// Full-range non-negative 64-bit integer (RNG substream seeds);
    /// read with CliArgs::get_uint64.
    Uint,
    Double,
    String,
    Flag,
    /// `--key[=value]`: a flag that may carry a value via the '=' form
    /// (e.g. --json-report[=FILE]). Parses under the greedy fallback rule
    /// of util/cli.hpp, exactly like the seed-era binaries did.
    OptValue,
    /// A registered local-rule name (rules/registry.hpp): `--rule=smp`,
    /// `--rule=majority-prefer-black`, ... Validation resolves the value
    /// against the registry, so an unknown rule is rejected at parse time
    /// - by `dynamo run` and by manifest binding checks - with a message
    /// listing the known names.
    Rule,
    /// An engine backend name (core/run/backend.hpp): `--backend=auto`,
    /// `--backend=bitplane`, ... Validated against backend_from_name the
    /// same way Rule values resolve against the rule registry, so an
    /// unknown backend is rejected at parse/bind time with a message
    /// listing the known names. Every backend steps every registered
    /// rule.
    Backend,
};

const char* to_string(ParamType t) noexcept;

struct ParamSpec {
    std::string name;
    ParamType type = ParamType::Int;
    std::string default_value;  ///< rendered in --help/describe; "" for flags
    std::string smoke_value;    ///< tiny-but-representative value for smoke runs ("" = default)
    std::string help;

    const std::string& smoke_or_default() const noexcept {
        return smoke_value.empty() ? default_value : smoke_value;
    }
};

/// Execution context handed to a scenario's entry function.
struct Context {
    const CliArgs& args;
    std::ostream& out;
    /// Machine-readable results (deterministic key -> value). Campaigns
    /// store these in the result cache and aggregate them; timing-like
    /// values belong here too but are excluded from determinism checks
    /// only by scenarios not emitting them when it matters.
    std::map<std::string, std::string> metrics;
};

struct Scenario {
    std::string name;   ///< registry key, [a-z0-9_]+; also the CLI name
    std::string kind;   ///< "table" | "figure" | "search" | "perf" | "example" | "point"
    std::string title;  ///< one-line summary (list/describe/catalog)
    /// Bump when a code change invalidates previously cached results of
    /// this scenario (feeds the content-addressed cache key together with
    /// the global kCodeEpoch in scenario/cache.hpp).
    int epoch = 0;
    std::vector<ParamSpec> params;
    int (*fn)(Context&) = nullptr;
};

/// Register at static-initialization time (the bench/example TUs live in
/// an OBJECT library so their registrations always link). Returns true so
/// call sites can bind it to a [[maybe_unused]] static.
bool register_scenario(Scenario s);

/// Lookup by name; nullptr if unknown.
const Scenario* find(const std::string& name);

/// All registered scenarios, sorted by name.
std::vector<const Scenario*> all();

/// CliGrammar derived from the declared parameters (flags never consume
/// the next token, value keys always do — see util/cli.hpp).
CliGrammar grammar(const Scenario& s);

/// Strict scalar validation: true iff `value` parses COMPLETELY as
/// `type` (no trailing garbage — "1e3" and "1.5" are not Ints). Int
/// additionally accepts full-range unsigned values (RNG seeds). Shared
/// by CLI arg validation and manifest binding checks.
bool value_parses_as(ParamType type, const std::string& value);

/// Validation of provided args against the schema: unknown keys, type
/// errors, positional arguments. Returns "" when valid, else an actionable
/// message.
std::string validate_args(const Scenario& s, const CliArgs& args);

/// Run with already-parsed args. Exceptions escape to the caller.
int run(const Scenario& s, Context& ctx);

/// `dynamo list` / `dynamo list --markdown`: the scenario catalog. The
/// markdown form is committed as docs/scenarios.md and CI-gated against
/// drift, so its output must be a pure function of the registry.
void print_list(std::ostream& out, bool markdown);

/// `dynamo describe <name>`: title, kind, parameter table, example command.
void print_describe(std::ostream& out, const Scenario& s);

} // namespace dynamo::scenario
