// dynamo/core/search/enumerate.cpp
//
// The seed-era serial full enumeration, kept as the oracle for the
// quotiented driver (see enumerate.hpp for why its exact accounting is
// pinned): one rule.run per candidate.
#include "core/search/enumerate.hpp"

#include "core/transform.hpp"
#include "rules/registry.hpp"

namespace dynamo {

namespace search_detail {

const rules::RuleInfo& validate_search_rule(const SearchOptions& options) {
    const rules::RuleInfo& rule =
        options.rule != nullptr ? *options.rule : rules::smp_rule();
    DYNAMO_REQUIRE(rule.admits_palette(options.total_colors),
                   std::string("palette size inadmissible for rule '") + rule.name + "'");
    return rule;
}

Color rule_color(const rules::RuleInfo& rule, Color c) noexcept {
    if (!rule.bicolor()) return c;
    return c == kSearchSeedColor ? kBlack : kWhite;
}

bool verify_candidate(const grid::Torus& torus, const rules::RuleInfo& rule,
                      const ColorField& field) {
    ColorField mapped(field.size());
    for (std::size_t v = 0; v < field.size(); ++v) mapped[v] = rule_color(rule, field[v]);
    RunOptions opts;
    opts.target = rule_color(rule, kSearchSeedColor);
    const RunResult result = rule.run(torus, mapped, opts);
    return result.reached_mono(*opts.target) && result.monotone;
}

std::vector<grid::VertexId> free_vertices(const grid::Torus& torus,
                                          const std::vector<grid::VertexId>& seeds) {
    std::vector<char> is_seed(torus.size(), 0);
    for (const grid::VertexId v : seeds) is_seed[v] = 1;
    std::vector<grid::VertexId> rest;
    for (grid::VertexId v = 0; v < torus.size(); ++v) {
        if (!is_seed[v]) rest.push_back(v);
    }
    return rest;
}

bool next_combination(std::vector<std::uint32_t>& comb, std::uint32_t n) {
    const std::size_t s = comb.size();
    for (std::size_t idx = s; idx-- > 0;) {
        if (comb[idx] < n - (s - idx)) {
            ++comb[idx];
            for (std::size_t later = idx + 1; later < s; ++later) {
                comb[later] = comb[later - 1] + 1;
            }
            return true;
        }
    }
    return false;
}

bool next_odometer(std::vector<std::uint8_t>& digits, std::uint8_t base) {
    for (std::size_t idx = digits.size(); idx-- > 0;) {
        if (++digits[idx] < base) return true;
        digits[idx] = 0;
    }
    return false;
}

} // namespace search_detail

namespace {

struct ProbeContext {
    const grid::Torus& torus;
    const SearchOptions& options;
    const rules::RuleInfo& rule;
    std::uint64_t sims = 0;
    std::uint64_t candidates = 0;
};

/// Try every complement coloring for a fixed seed set. Returns 1 if a
/// dynamo was found (filling witness), 0 if none, -1 on budget exhaustion.
int probe_seed_set(ProbeContext& ctx, const std::vector<grid::VertexId>& seeds,
                   ColorField& witness) {
    const grid::Torus& torus = ctx.torus;
    const SearchOptions& opt = ctx.options;
    const std::vector<grid::VertexId> rest = search_detail::free_vertices(torus, seeds);

    const std::uint8_t base = static_cast<std::uint8_t>(opt.total_colors - 1);
    std::vector<std::uint8_t> digits(rest.size(), 0);

    ColorField field(torus.size(), kSearchSeedColor);
    do {
        ++ctx.candidates;
        for (std::size_t idx = 0; idx < rest.size(); ++idx) {
            field[rest[idx]] = static_cast<Color>(2 + digits[idx]);
        }
        if (++ctx.sims > opt.max_sims) return -1;
        if (search_detail::verify_candidate(torus, ctx.rule, field)) {
            witness = field;
            return 1;
        }
    } while (search_detail::next_odometer(digits, base));
    return 0;
}

} // namespace

SeedProbe seed_set_admits_dynamo(const grid::Torus& torus,
                                 const std::vector<grid::VertexId>& seeds,
                                 const SearchOptions& options) {
    DYNAMO_REQUIRE(options.total_colors >= 2, "need at least two colors");
    const rules::RuleInfo& rule = search_detail::validate_search_rule(options);
    SeedProbe probe;
    ProbeContext ctx{torus, options, rule};
    ColorField witness;
    const int r = probe_seed_set(ctx, seeds, witness);
    probe.found = r == 1;
    probe.complete = r != -1;
    probe.sims = ctx.sims;
    if (probe.found) probe.witness_field = std::move(witness);
    return probe;
}

SearchOutcome exhaustive_min_dynamo(const grid::Torus& torus, std::uint32_t max_size,
                                    const SearchOptions& options) {
    DYNAMO_REQUIRE(options.total_colors >= 2, "need at least two colors");
    const auto n = static_cast<std::uint32_t>(torus.size());
    DYNAMO_REQUIRE(max_size <= n, "max_size exceeds |V|");
    const rules::RuleInfo& rule = search_detail::validate_search_rule(options);

    ProbeContext ctx{torus, options, rule};
    SearchOutcome outcome;
    int r = 0;  // probe_seed_set's verdict: 1 found, -1 budget exhausted
    for (std::uint32_t size = 1; size <= max_size && r == 0; ++size) {
        std::vector<std::uint32_t> comb(size);
        for (std::uint32_t idx = 0; idx < size; ++idx) comb[idx] = idx;
        outcome.probed_max_size = size;
        do {
            std::vector<grid::VertexId> seeds(comb.begin(), comb.end());
            ColorField witness;
            r = probe_seed_set(ctx, seeds, witness);
            if (r == 1) {
                outcome.min_size = size;
                outcome.witness_seeds = std::move(seeds);
                outcome.witness_field = std::move(witness);
            }
        } while (r == 0 && search_detail::next_combination(comb, n));
    }

    outcome.complete = r != -1;
    outcome.sims = ctx.sims;
    outcome.candidates = outcome.covered = ctx.candidates;  // no quotienting: one orbit each
    outcome.reduction_factor = 1.0;
    return outcome;
}

} // namespace dynamo
