// dynamo/rules/registry.cpp
//
// Monomorphization site of the rule registry: each table row binds a
// LocalRule type's kernel, sweeps, simulate_as and lane batch
// instantiations to its runtime name (see registry.hpp for the catalog).
// This is the only file that compiles a rule into engines (a row's
// reference_sweep steps the one BasicSyncEngine); simulate()
// (core/run/simulate.hpp) is defined here as the SMP row's run. A name
// that equals another rule is an alias row of that rule's type, so each
// distinct rule is compiled once.
#include "rules/registry.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/run/simulate.hpp"
#include "core/sim/hybrid_engine.hpp"
#include "core/sim/lane_engine.hpp"
#include "core/sim/packed_engine.hpp"
#include "core/transform.hpp"
#include "rules/incremental.hpp"
#include "rules/majority.hpp"
#include "rules/threshold.hpp"

namespace dynamo {

// The one copy of the reference engine's run loop (core/sync_engine.hpp).
template RunResult run_to_terminal<BasicSyncEngine>(BasicSyncEngine&, const RunOptions&);

} // namespace dynamo

namespace dynamo::rules {

namespace {

/// Throws std::invalid_argument unless `field` holds only kWhite and
/// kBlack. Kept out of line: every bi-color simulate_as calls one copy.
[[gnu::noinline]] void require_bicolor_field(const ColorField& field, const char* rule);

/// The monomorphized, Backend-selected run of rule R (RuleInfo::run).
/// Active, BitPlane and Auto share one engine type, and so one stepping
/// loop per rule; only its hand-over policy differs.
template <sim::LocalRule R>
RunResult simulate_as(const grid::Torus& torus, const ColorField& initial,
                      const RunOptions& options) {
    require_complete(torus, initial);
    // Alias rows equal their canonical rule only on {1, 2} (majority.hpp).
    if constexpr (R::kMaxColors == 2) require_bicolor_field(initial, R::kName);
    using Hybrid = sim::HybridEngineT<R>;
    typename Hybrid::Policy policy = Hybrid::Policy::Adaptive;
    switch (options.backend) {
        case Backend::Generic: {
            BasicSyncEngine engine(torus, initial, &reference_sweep<sim::RuleFnOf<R>>);
            return run_to_terminal(engine, options);
        }
        case Backend::Packed: {
            sim::PackedEngineT<R> engine(torus, initial);
            return run_to_terminal(engine, options);
        }
        case Backend::Active: policy = Hybrid::Policy::Active; break;
        case Backend::BitPlane: policy = Hybrid::Policy::BitPlane; break;
        case Backend::Auto: break;
    }
    Hybrid engine(torus, initial, policy);
    return run_to_terminal(engine, options);
}

template <sim::LocalRule R>
constexpr RuleInfo make_info() {
    static_assert(sim::kBitplaneSupported<R>,
                  "a registered rule needs a bit-plane word kernel: bi-color, or a "
                  "bitplane_apply hook (core/sim/bitplane_engine.hpp)");
    return RuleInfo{
        R::kName,
        R::kMinColors,
        R::kMaxColors,
        R::kIrreversible,
        R::kColorSymmetric,
        &R::next,
        &sim::rule_stencil_sweep<R>,
        &reference_sweep<sim::RuleFnOf<R>>,
        &simulate_as<R>,
        +[](const grid::Torus& t) {
            return std::unique_ptr<sim::LaneBatch>(new sim::LaneBatchT<R>(t));
        },
        &sim::bitplane_cells_per_sec<R>,
    };
}

/// The row of rule R under another name: the same entry points and
/// metadata as make_info<R>, and its own name.
template <sim::LocalRule R>
constexpr RuleInfo make_alias(const char* name) {
    RuleInfo info = make_info<R>();
    info.name = name;
    return info;
}

const RuleInfo kRules[] = {
    // The paper's SMP protocol: adopt the unique neighbor plurality of
    // multiplicity >= 2; 2+2 ties keep.
    make_info<sim::SmpRule>(),
    // Bi-color simple majority of [15]; 2-2 ties recolor to black.
    make_info<MajorityPreferBlack>(),
    // Simple majority with 2-2 ties keeping the current color (Peleg [26])
    // equals strong-majority: a 2-2 split keeps.
    make_alias<StrongMajority>("majority-prefer-current"),
    // Bi-color strong majority: >= 3 of 4 neighbors.
    make_info<StrongMajority>(),
    // On {1, 2} the irreversible majorities are constant-threshold rules:
    // [15]'s reverse simple majority (black absorbing, ties to black - the
    // monotone fault semantics) is threshold-2, and both the reverse simple
    // majority with Prefer-Current ties and [15]'s reverse strong majority
    // (black absorbing, >= 3 of 4 to flip) are threshold-3.
    make_alias<Threshold<2>>("irreversible-majority"),
    make_alias<Threshold<3>>("irreversible-majority-prefer-current"),
    make_alias<Threshold<3>>("irreversible-strong-majority"),
    // Berger-style irreversible r-thresholds: contagion (any black neighbor
    // infects), half the degree, the strong-majority flip requirement, and
    // unanimity (flip only when surrounded).
    make_info<Threshold<1>>(),
    make_info<Threshold<2>>(),
    make_info<Threshold<3>>(),
    make_info<Threshold<4>>(),
    // The ordered "+1" rule of [4]/[5]: step one color toward the SMP
    // trigger.
    make_info<IncrementalStep>(),
};

void require_bicolor_field(const ColorField& field, const char* rule) {
    if (is_bicolored(field)) return;
    // Name every registry row that runs this rule, aliases included.
    const RuleInfo& canonical = *find_rule(rule);
    std::string names;
    for (const RuleInfo& row : kRules) {
        if (row.run != canonical.run) continue;
        names += names.empty() ? "'" : ", '";
        names += std::string(row.name) + "'";
    }
    throw std::invalid_argument("bi-color rule (" + names +
                                ") requires a field of colors 1 (white) and 2 (black) only");
}

} // namespace

const RuleInfo* find_rule(std::string_view name) {
    for (const RuleInfo& rule : kRules) {
        if (name == rule.name) return &rule;
    }
    return nullptr;
}

const RuleInfo& rule_or_throw(const std::string& name) {
    const RuleInfo* rule = find_rule(name);
    DYNAMO_REQUIRE(rule != nullptr, "unknown rule '" + name + "'; known: " + known_rule_names());
    return *rule;
}

const RuleInfo& smp_rule() { return kRules[0]; }

const std::vector<const RuleInfo*>& all_rules() {
    static const std::vector<const RuleInfo*> sorted = [] {
        std::vector<const RuleInfo*> out;
        for (const RuleInfo& rule : kRules) out.push_back(&rule);
        std::sort(out.begin(), out.end(), [](const RuleInfo* a, const RuleInfo* b) {
            return std::string_view(a->name) < std::string_view(b->name);
        });
        return out;
    }();
    return sorted;
}

std::string known_rule_names() {
    std::string names;
    for (const RuleInfo* rule : all_rules()) {
        if (!names.empty()) names += ", ";
        names += rule->name;
    }
    return names;
}

} // namespace dynamo::rules

namespace dynamo {

RunResult simulate(const grid::Torus& torus, const ColorField& initial,
                   const RunOptions& options) {
    return rules::simulate_as<sim::SmpRule>(torus, initial, options);
}

} // namespace dynamo
