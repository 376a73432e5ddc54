// dynamo/rules/registry.hpp
//
// The runtime rule registry: names -> monomorphized entry points of the
// LocalRule family (core/sim/local_rule.hpp). It is the one place a rule
// type is compiled into engines: the `dynamo` CLI's `--rule=` parameter,
// campaign manifests, the search layer's SearchOptions::rule, simulate()
// and the simulate_majority / simulate_threshold / simulate_incremental
// helpers all reach the same instantiations through it. Every entry point
// is a plain function pointer into a template instantiation: no virtual
// dispatch in any per-cell loop, one indirect call per simulation/sweep.
//
// Registered rules (tests/test_rules.cpp pins each kernel against its
// reference functor over every neighborhood). A name marked "alias of"
// runs the compiled rule of the name it equals (see rules/majority.hpp for
// the identities); the registry's run refuses a field outside {1, 2} under
// every bi-color rule, so an alias gives the same result as its own kernel
// on every field it accepts:
//
//   smp                                    the paper's protocol (default)
//   majority-prefer-black                  simple majority, ties to black [15]
//   majority-prefer-current                simple majority, ties keep [26];
//                                          alias of strong-majority
//   strong-majority                        >= 3 of 4 neighbors
//   irreversible-majority                  [15]'s reverse simple majority;
//                                          alias of threshold-2
//   irreversible-majority-prefer-current   reverse simple majority, ties keep;
//                                          alias of threshold-3
//   irreversible-strong-majority           [15]'s reverse strong majority;
//                                          alias of threshold-3
//   threshold-1 .. threshold-4             Berger-style irreversible r-threshold
//   incremental                            the ordered "+1" rule of [4]/[5]
//
// The list is static (a fixed table, not self-registration): rules are
// code, and the set of monomorphized engines is a build-time property -
// 8 rule types for 12 names.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/dynamo.hpp"
#include "core/run/runner.hpp"
#include "core/sim/local_rule.hpp"
#include "core/sync_engine.hpp"
#include "grid/torus.hpp"
#include "util/parallel.hpp"

namespace dynamo::sim {
class LaneBatch;
}

namespace dynamo::rules {

/// Reusable type-erased verifier for search inner loops: owns one packed
/// engine per instance (reset per candidate, no per-candidate allocation)
/// and the search->rule color-convention bridge. `initial` is always in
/// the SEARCH convention - seeds hold color 1, the complement colors
/// 2..|C|. Color-symmetric rules run it verbatim with target 1; bi-color
/// rules view the seeds as the black (faulty) faction - color 1 maps to
/// kBlack, everything else to kWhite - and verify black flooding, the
/// dynamo semantics of [15].
class RuleVerifier {
  public:
    virtual ~RuleVerifier() = default;
    virtual QuickVerdict verify(const ColorField& initial) = 0;
};

/// One registered rule: identity metadata plus monomorphized entry points.
/// An alias row has its own name and shares everything else with the row
/// of the rule it equals.
struct RuleInfo {
    const char* name;      ///< registry key, also the CLI `--rule=` value
    Color min_colors;      ///< smallest admissible palette
    Color max_colors;      ///< largest admissible palette; 0 = unbounded
    bool irreversible;     ///< one color absorbing: every run is monotone
    bool color_symmetric;  ///< equivariant under arbitrary color permutations

    /// The cell kernel itself (diagnostics, kernel-parity tests).
    Color (*next)(Color own, Color a, Color b, Color c, Color d);
    /// One packed stencil round (rule_stencil_sweep<R> instantiation).
    std::size_t (*sweep)(const grid::Torus&, const Color*, Color*, ThreadPool*, std::size_t);
    /// One seed-style table-driven round (the Generic baseline) over a
    /// reference_neighbor_table of the torus: reference_sweep<RuleFnOf<R>>,
    /// the sweep Backend::Generic's BasicSyncEngine steps.
    TableSweep generic_sweep;
    /// The full Backend-selected run (every Backend steps every rule).
    /// Under a bi-color rule it throws std::invalid_argument for a field
    /// holding a color other than 1 and 2, on every backend.
    RunResult (*run)(const grid::Torus&, const ColorField&, const RunOptions&);
    /// Search-convention verifier factory (see RuleVerifier).
    std::unique_ptr<RuleVerifier> (*make_search_verifier)(const grid::Torus&);
    /// Lane batch factory (sim::LaneBatchT<R>, core/sim/lane_engine.hpp):
    /// up to 64 runs on one torus at once, under the run's defaults. The
    /// Monte-Carlo trials of Backend::Auto step it.
    std::unique_ptr<sim::LaneBatch> (*make_lane_batch)(const grid::Torus&);

    /// Raw bit-plane sweep throughput (sim::bitplane_cells_per_sec<R>),
    /// for the perf_engine scenario's bit-plane section. Every registered
    /// rule has a word kernel: registering one without fails to compile.
    double (*bitplane_cells_per_sec)(const grid::Torus&, const ColorField&, int warmup,
                                     int rounds);

    bool bicolor() const noexcept { return max_colors == 2; }
    /// Is a palette of |C| colors admissible under this rule?
    bool admits_palette(Color total_colors) const noexcept {
        return total_colors >= min_colors && (max_colors == 0 || total_colors <= max_colors);
    }
};

/// Lookup by registry name; nullptr if unknown.
const RuleInfo* find_rule(std::string_view name);

/// Lookup that throws std::invalid_argument naming the known rules.
const RuleInfo& rule_or_throw(const std::string& name);

/// The SMP entry (the default rule everywhere a rule is optional).
const RuleInfo& smp_rule();

/// All registered rules in name order (catalogs, docs, benches).
const std::vector<const RuleInfo*>& all_rules();

/// "incremental, irreversible-majority, ..." - for error messages.
std::string known_rule_names();

} // namespace dynamo::rules
