// dynamo/core/search/sharded.cpp
//
// The deterministic sharded driver over the canonical enumeration: unit =
// canonical seed set, shard = unit index mod width, per-shard budget
// slices with an atomic truncation flag (see sharded.hpp for the
// bit-identical-aggregation contract).
#include "core/search/sharded.hpp"

#include <array>
#include <atomic>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>

#include "core/search/canonical.hpp"
#include "core/search/enumerate.hpp"
#include "core/sim/lane_engine.hpp"
#include "rules/registry.hpp"

namespace dynamo {

namespace {

constexpr std::uint64_t kNoUnit = std::numeric_limits<std::uint64_t>::max();

struct UnitResult {
    int status = 0;  ///< 1 found, 0 none, -1 budget truncated
    std::uint64_t sims = 0;
    std::uint64_t candidates = 0;
    std::uint64_t covered = 0;
    ColorField witness;
};

/// A shard's lane batch for one seed-set size, and the candidates queued
/// on it: lane l holds fields[l] (search convention), and the unit's
/// candidate and coverage counts just after it was examined.
struct LaneQueue {
    /// Null when the palette does not fit the lanes: every `ends` entry
    /// then stays unended, and each candidate runs through rule.run.
    std::unique_ptr<sim::LaneBatch> batch;
    unsigned size = 0;
    std::array<ColorField, sim::LaneBatch::kLanes> fields;
    std::array<std::uint64_t, sim::LaneBatch::kLanes> candidates{}, covered{};
    std::array<sim::LaneOutcome, sim::LaneBatch::kLanes> ends;
};

/// Examine every (canonical) complement coloring of one canonical seed
/// set, in enumeration order, verifying 64 candidates per lane batch run.
/// `sim_budget` is the shard's remaining slice. The result is the first
/// deciding candidate's - a hit, or the one that exceeds the budget
/// (status -1, sims = budget + 1) - with the counters rolled back to it,
/// exactly as if every candidate had been verified on its own.
UnitResult probe_unit(const grid::Torus& torus, const SearchOptions& opt,
                      const rules::RuleInfo& rule, const SymmetryGroup* group,
                      const std::vector<std::size_t>& stabilizer,
                      const std::vector<grid::VertexId>& seeds, LaneQueue& lanes,
                      std::uint64_t sim_budget) {
    UnitResult result;
    const std::vector<grid::VertexId> rest = search_detail::free_vertices(torus, seeds);

    const auto base = static_cast<std::uint8_t>(opt.total_colors - 1);
    const Color target = search_detail::rule_color(rule, kSearchSeedColor);
    ColorField field(torus.size(), kSearchSeedColor);
    ColorField scratch;

    // Verifies the queued candidates in lane order up to the first hit,
    // which takes the counters back to the state just after it.
    const auto flush = [&]() -> int {
        const unsigned queued = std::exchange(lanes.size, 0u);
        if (queued != 0 && lanes.batch) {
            lanes.batch->run(queued, sim::kDefaultLaneCap, target, lanes.ends);
        }
        for (unsigned l = 0; l < queued; ++l) {
            const sim::LaneOutcome& end = lanes.ends[l];
            const bool hit = end.ended ? end.termination == Termination::Monochromatic &&
                                             end.mono == target && end.monotone
                                       : search_detail::verify_candidate(torus, rule,
                                                                         lanes.fields[l]);
            if (!hit) continue;
            result.sims -= queued - l - 1;
            result.candidates = lanes.candidates[l];
            result.covered = lanes.covered[l];
            result.witness = std::move(lanes.fields[l]);
            return 1;
        }
        return 0;
    };

    const auto examine = [&](const std::vector<std::uint8_t>& digits) -> int {
        for (std::size_t idx = 0; idx < rest.size(); ++idx) {
            field[rest[idx]] = static_cast<Color>(2 + digits[idx]);
        }
        std::uint64_t orbit = 1;
        if (group != nullptr) {
            const ColoringOrbit cls =
                classify_coloring(*group, stabilizer, field, opt.total_colors, scratch);
            if (!cls.canonical) return 0;  // another representative covers it
            orbit = cls.orbit_size;
        }
        ++result.candidates;
        result.covered += orbit;
        if (result.sims == sim_budget) {
            // This candidate exceeds the budget; a queued one may still hit.
            if (flush() == 1) return 1;
            ++result.sims;
            return -1;
        }
        ++result.sims;
        const unsigned lane = lanes.size++;
        if (lanes.batch) {
            if (lane == 0) lanes.batch->clear();
            for (std::size_t v = 0; v < field.size(); ++v) {
                lanes.batch->put(lane, v, search_detail::rule_color(rule, field[v]));
            }
        }
        lanes.fields[lane] = field;
        lanes.candidates[lane] = result.candidates;
        lanes.covered[lane] = result.covered;
        return lanes.size == sim::LaneBatch::kLanes ? flush() : 0;
    };

    // Canonical colorings are restricted-growth strings; the raw space is
    // every digit string.
    RgOdometer canonical(rest.size(), base);
    std::vector<std::uint8_t> raw(rest.size(), 0);
    int status = 0;
    do {
        status = examine(group != nullptr ? canonical.digits() : raw);
    } while (status == 0 &&
             (group != nullptr ? canonical.next() : search_detail::next_odometer(raw, base)));
    result.status = status != 0 ? status : flush();
    return result;
}

/// Per-shard accumulator; written only by the worker that owns the shard,
/// folded in shard order after the pool barrier.
struct ShardState {
    std::uint64_t sims = 0;
    std::uint64_t candidates = 0;
    std::uint64_t covered = 0;
    std::uint64_t found_unit = kNoUnit;
    ColorField witness;
};

} // namespace

SearchOutcome parallel_min_dynamo(const grid::Torus& torus, std::uint32_t max_size,
                                  const ParallelSearchOptions& options) {
    const SearchOptions& base = options.base;
    DYNAMO_REQUIRE(base.total_colors >= 2, "need at least two colors");
    const rules::RuleInfo& rule = search_detail::validate_search_rule(base);
    // On top of the shared validation: the color-relabeling half of the
    // quotient permutes the non-seed colors 2..|C|, which only preserves
    // dynamo-ness for color-symmetric rules - or trivially when |C| = 2
    // (one non-seed color: the identity).
    DYNAMO_REQUIRE(!options.use_symmetry || rule.color_symmetric || base.total_colors == 2,
                   std::string("rule '") + rule.name +
                       "' is not color-symmetric: the symmetry quotient needs |C| = 2 or "
                       "use_symmetry = false");
    const auto n = static_cast<std::uint32_t>(torus.size());
    DYNAMO_REQUIRE(max_size <= n, "max_size exceeds |V|");
    const unsigned shards = options.num_shards;
    DYNAMO_REQUIRE(shards >= 1, "need at least one shard");

    std::optional<SymmetryGroup> group;
    if (options.use_symmetry) group.emplace(torus);

    // Fixed per-shard budget slices (remainder to the low shards): the
    // truncation point of every shard is a pure function of the options,
    // independent of scheduling.
    std::vector<std::uint64_t> slice(shards, base.max_sims / shards);
    for (unsigned s = 0; s < base.max_sims % shards; ++s) ++slice[s];
    std::vector<std::uint64_t> shard_used(shards, 0);

    SearchOutcome outcome;
    outcome.group_order = group ? group->order() : 1;
    outcome.complete = true;

    for (std::uint32_t size = 1; size <= max_size; ++size) {
        // Canonical seed sets of this size, in combination order: the
        // deterministic unit list every decomposition width shares.
        std::vector<std::vector<grid::VertexId>> units;
        {
            std::vector<std::uint32_t> comb(size);
            std::iota(comb.begin(), comb.end(), 0u);
            std::vector<grid::VertexId> seeds;
            bool more = true;
            while (more) {
                seeds.assign(comb.begin(), comb.end());
                if (!group || group->is_canonical_seed_set(seeds)) units.push_back(seeds);
                more = search_detail::next_combination(comb, n);
            }
        }

        std::vector<ShardState> states(shards);
        std::atomic<bool> truncated{false};  // shared across shard workers
        parallel_for_shards(options.pool, shards, [&](unsigned s) {
            ShardState& st = states[s];
            std::uint64_t used = shard_used[s];
            LaneQueue lanes;
            if (sim::LaneBatch::holds(rule.bicolor(), base.total_colors)) {
                lanes.batch = rule.make_lane_batch(torus);
            }
            // Shard s owns units j with j % shards == s.
            for (std::uint64_t j = s; j < units.size(); j += shards) {
                const std::vector<std::size_t> stabilizer =
                    group ? group->set_stabilizer(units[j]) : std::vector<std::size_t>{0};
                UnitResult unit =
                    probe_unit(torus, base, rule, group ? &*group : nullptr, stabilizer,
                               units[j], lanes, slice[s] - used);
                st.sims += unit.sims;
                st.candidates += unit.candidates;
                st.covered += unit.covered;
                used += unit.sims;
                if (unit.status == 1 && st.found_unit == kNoUnit) {
                    st.found_unit = j;  // j ascends, so the first hit is the lowest
                    st.witness = std::move(unit.witness);
                }
                if (unit.status == -1) {
                    // Only this shard dies; the others still finish the
                    // size, so the processed-unit set depends on budgets
                    // and unit order alone, never on scheduling.
                    truncated.store(true, std::memory_order_relaxed);
                    break;
                }
            }
        });

        // Deterministic fold in shard order.
        std::uint64_t best_unit = kNoUnit;
        ColorField best_witness;
        for (unsigned s = 0; s < shards; ++s) {
            ShardState& st = states[s];
            outcome.sims += st.sims;
            outcome.candidates += st.candidates;
            outcome.covered += st.covered;
            shard_used[s] += st.sims;
            if (st.found_unit < best_unit) {
                best_unit = st.found_unit;
                best_witness = std::move(st.witness);
            }
        }

        // The size is fully processed (every shard ran to its unit list's
        // end or its budget); verdicts are only issued here.
        outcome.probed_max_size = size;
        if (best_unit != kNoUnit) {
            // Sizes below `size` were exhausted (else we'd have stopped),
            // so any witness here settles the minimum exactly.
            outcome.min_size = size;
            outcome.witness_seeds = units[best_unit];
            outcome.witness_field = std::move(best_witness);
            break;
        }
        if (truncated.load(std::memory_order_relaxed)) {
            outcome.complete = false;
            break;
        }
    }

    outcome.reduction_factor =
        outcome.candidates == 0
            ? 1.0
            : static_cast<double>(outcome.covered) / static_cast<double>(outcome.candidates);
    return outcome;
}

} // namespace dynamo
