// dynamo/core/search/enumerate.cpp
//
// The seed-era serial full enumeration, kept verbatim as the oracle for
// the quotiented driver (see enumerate.hpp for why its exact accounting is
// pinned).
#include "core/search/enumerate.hpp"

#include "core/blocks.hpp"
#include "core/dynamo.hpp"
#include "rules/registry.hpp"

namespace dynamo {

namespace search_detail {

const rules::RuleInfo& validate_search_rule(const SearchOptions& options) {
    const rules::RuleInfo& rule =
        options.rule != nullptr ? *options.rule : rules::smp_rule();
    DYNAMO_REQUIRE(rule.admits_palette(options.total_colors),
                   std::string("palette size inadmissible for rule '") + rule.name + "'");
    DYNAMO_REQUIRE((!options.use_box_prune && !options.use_block_prune) ||
                       &rule == &rules::smp_rule(),
                   "the box/block prunes are SMP-specific; disable them for other rules");
    return rule;
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

constexpr Color kSeedColor = 1;

struct ProbeContext {
    const grid::Torus& torus;
    const SearchOptions& options;
    std::uint64_t& sims;
    std::uint64_t& candidates;
    /// Non-null when options.rule is set: candidates verify through the
    /// rule's packed-engine verifier. Null keeps the seed-era SMP path
    /// (verify_dynamo) verbatim, pinned accounting and all.
    rules::RuleVerifier* verifier = nullptr;
};

/// Try every complement coloring for a fixed seed set. Returns 1 if a
/// dynamo was found (filling witness), 0 if none, -1 on budget exhaustion.
int probe_seed_set(ProbeContext& ctx, const std::vector<grid::VertexId>& seeds,
                   ColorField& witness) {
    const grid::Torus& torus = ctx.torus;
    const SearchOptions& opt = ctx.options;

    if (opt.use_box_prune) {
        const BoundingBox box = bounding_box(torus, seeds);
        if (box.rows + 1 < torus.rows() || box.cols + 1 < torus.cols()) return 0;
    }

    std::vector<grid::VertexId> rest;
    {
        std::vector<char> is_seed(torus.size(), 0);
        for (const grid::VertexId v : seeds) is_seed[v] = 1;
        for (grid::VertexId v = 0; v < torus.size(); ++v) {
            if (!is_seed[v]) rest.push_back(v);
        }
    }

    const std::uint8_t base = static_cast<std::uint8_t>(opt.total_colors - 1);
    std::vector<std::uint8_t> digits(rest.size(), 0);

    ColorField field(torus.size(), kSeedColor);
    do {
        ++ctx.candidates;
        for (std::size_t idx = 0; idx < rest.size(); ++idx) {
            field[rest[idx]] = static_cast<Color>(2 + digits[idx]);
        }
        if (opt.use_block_prune && has_non_k_block(torus, field, kSeedColor)) continue;

        if (++ctx.sims > opt.max_sims) return -1;
        bool hit;
        if (ctx.verifier != nullptr) {
            const QuickVerdict verdict = ctx.verifier->verify(field);
            hit = opt.require_monotone ? verdict.is_monotone : verdict.is_dynamo;
        } else {
            const DynamoVerdict verdict = verify_dynamo(torus, field, kSeedColor);
            hit = opt.require_monotone ? verdict.is_monotone : verdict.is_dynamo;
        }
        if (hit) {
            witness = field;
            return 1;
        }
    } while (search_detail::next_odometer(digits, base));
    return 0;
}

/// Validate the rule options and build the verifier to probe through
/// (null = the pinned SMP path, which verify_dynamo serves verbatim).
std::unique_ptr<rules::RuleVerifier> validate_rule_options(const grid::Torus& torus,
                                                           const SearchOptions& options) {
    const rules::RuleInfo& rule = search_detail::validate_search_rule(options);
    if (&rule == &rules::smp_rule()) return nullptr;
    return rule.make_search_verifier(torus);
}

} // namespace

SeedProbe seed_set_admits_dynamo(const grid::Torus& torus,
                                 const std::vector<grid::VertexId>& seeds,
                                 const SearchOptions& options) {
    DYNAMO_REQUIRE(options.total_colors >= 2, "need at least two colors");
    const std::unique_ptr<rules::RuleVerifier> verifier = validate_rule_options(torus, options);
    SeedProbe probe;
    std::uint64_t sims = 0, candidates = 0;
    ProbeContext ctx{torus, options, sims, candidates, verifier.get()};
    ColorField witness;
    const int r = probe_seed_set(ctx, seeds, witness);
    probe.found = r == 1;
    probe.complete = r != -1;
    probe.sims = sims;
    if (probe.found) probe.witness_field = std::move(witness);
    return probe;
}

SearchOutcome exhaustive_min_dynamo(const grid::Torus& torus, std::uint32_t max_size,
                                    const SearchOptions& options) {
    DYNAMO_REQUIRE(options.total_colors >= 2, "need at least two colors");
    const auto n = static_cast<std::uint32_t>(torus.size());
    DYNAMO_REQUIRE(max_size <= n, "max_size exceeds |V|");
    const std::unique_ptr<rules::RuleVerifier> verifier = validate_rule_options(torus, options);

    SearchOutcome outcome;
    std::uint64_t sims = 0, candidates = 0;
    ProbeContext ctx{torus, options, sims, candidates, verifier.get()};

    const auto fill_counts = [&] {
        outcome.sims = sims;
        outcome.candidates = candidates;
        outcome.covered = candidates;  // no quotienting: one orbit each
        outcome.reduction_factor = 1.0;
    };

    for (std::uint32_t size = 1; size <= max_size; ++size) {
        std::vector<std::uint32_t> comb(size);
        for (std::uint32_t idx = 0; idx < size; ++idx) comb[idx] = idx;

        bool more = true;
        while (more) {
            std::vector<grid::VertexId> seeds(comb.begin(), comb.end());
            ColorField witness;
            const int r = probe_seed_set(ctx, seeds, witness);
            if (r == -1) {
                outcome.complete = false;
                outcome.probed_max_size = size;
                fill_counts();
                return outcome;
            }
            if (r == 1) {
                outcome.complete = true;
                outcome.min_size = size;
                outcome.probed_max_size = size;
                fill_counts();
                outcome.witness_seeds = std::move(seeds);
                outcome.witness_field = std::move(witness);
                return outcome;
            }
            more = search_detail::next_combination(comb, n);
        }
        outcome.probed_max_size = size;
    }

    outcome.complete = true;
    fill_counts();
    return outcome;
}

} // namespace dynamo
