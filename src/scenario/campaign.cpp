// dynamo/scenario/campaign.cpp
//
// Cache-or-compute execution of expanded manifest points (see campaign.hpp
// for the determinism, crash-safety, and sharding contracts).
#include "scenario/campaign.hpp"

#include <charconv>
#include <ostream>
#include <sstream>

#include "util/assert.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"

namespace dynamo::scenario {

namespace {

using util::Json;
using util::JsonArray;
using util::JsonObject;

/// FNV-1a over the campaign's expanded identity (see CampaignLedger):
/// any manifest edit lands in some point's canonical params and moves it,
/// as does an epoch bump or a different shard split. The coordinator
/// names its campaign by it on the wire (dist/protocol.hpp).
std::uint64_t campaign_fingerprint(const std::string& scenario_name, int epoch,
                                   unsigned shard_index, unsigned shard_count,
                                   const std::vector<PointSpec>& specs) {
    util::Fnv1a h;
    h.field(scenario_name);
    h.field(std::to_string(epoch));
    h.field(std::to_string(shard_index));
    h.field(std::to_string(shard_count));
    for (const PointSpec& spec : specs) {
        h.field(canonical_key_string(CacheKey{scenario_name, epoch, spec.params}));
    }
    return h.value();
}

/// One progress record: {"index", "status": "cached"|"computed"|"failed",
/// "exit_code", "params", "metrics"}.
void emit_progress(io::JsonlWriter& writer, const char* status, const CampaignPoint& point) {
    if (!writer.enabled()) return;
    JsonObject params;
    for (const auto& [k, v] : point.spec.params) params.emplace_back(k, Json(v));
    JsonObject metrics;
    for (const auto& [k, v] : point.result.metrics) metrics.emplace_back(k, Json(v));
    JsonObject line;
    line.emplace_back("index", Json(static_cast<std::uint64_t>(point.spec.index)));
    line.emplace_back("status", Json(std::string(status)));
    line.emplace_back("exit_code", Json(static_cast<std::int64_t>(point.result.exit_code)));
    line.emplace_back("params", Json(std::move(params)));
    line.emplace_back("metrics", Json(std::move(metrics)));
    writer.write(Json(std::move(line)));
}

} // namespace

void parse_shard_spec(const std::string& spec, unsigned& index, unsigned& count) {
    const std::string bad = "bad --shard '" + spec + "' (want K/N)";
    const auto parse = [&bad](const std::string& text) {
        unsigned value = 0;
        const char* end = text.data() + text.size();
        const auto [stop, error] = std::from_chars(text.data(), end, value);
        if (error != std::errc() || stop != end) throw std::invalid_argument(bad);
        return value;
    };
    const std::size_t slash = spec.find('/');
    if (slash == std::string::npos) throw std::invalid_argument(bad);
    index = parse(spec.substr(0, slash));
    count = parse(spec.substr(slash + 1));
    if (count == 0 || index >= count)
        throw std::invalid_argument("bad --shard '" + spec + "': index must be < count");
}

CachedResult compute_campaign_point(const Scenario& scenario, const PointSpec& point) {
    CachedResult result;
    std::ostringstream out;
    try {
        const CliArgs args(point.params);
        Context ctx{args, out, {}};
        result.exit_code = run(scenario, ctx);
        result.metrics = std::move(ctx.metrics);
    } catch (const std::exception& e) {
        out << "point failed: " << e.what() << "\n";
        result.exit_code = 2;
    }
    result.report = out.str();
    return result;
}

CampaignLedger::CampaignLedger(const Manifest& manifest, const CampaignOptions& options)
    : scenario_(find(manifest.scenario)),
      cache_(options.cache_dir),
      progress_(options.progress) {
    DYNAMO_REQUIRE(scenario_ != nullptr, "manifest scenario vanished from the registry");
    DYNAMO_REQUIRE(options.shard_count >= 1, "shard_count must be at least 1");
    DYNAMO_REQUIRE(options.shard_index < options.shard_count,
                   "shard_index " + std::to_string(options.shard_index) +
                       " is out of range for shard_count " +
                       std::to_string(options.shard_count));
    epoch_ = ResultCache::combined_epoch(scenario_->epoch);

    // Expansion is ALWAYS that of the full manifest: global indices (and
    // with them the injected RNG substreams) must not depend on the shard
    // split, or shard results would diverge from an unsharded run.
    const std::vector<PointSpec> specs = expand(manifest);
    fingerprint_ = campaign_fingerprint(scenario_->name, epoch_, options.shard_index,
                                        options.shard_count, specs);
    outcome_.total_points = specs.size();
    outcome_.shard_index = options.shard_index;
    outcome_.shard_count = options.shard_count;
    for (const PointSpec& spec : specs) {
        if (spec.index % options.shard_count != options.shard_index) continue;
        CampaignPoint point;
        point.spec = spec;
        outcome_.points.push_back(std::move(point));
    }

    // The cache pass (serial): satisfy points from the cache, collect the
    // misses.
    for (CampaignPoint& point : outcome_.points) {
        if (auto hit = cache_.lookup(CacheKey{scenario_->name, epoch_, point.spec.params})) {
            point.result = std::move(*hit);
            point.from_cache = true;
            ++outcome_.cached;
            if (point.result.exit_code != 0) ++outcome_.failed;
            emit_progress(progress_, "cached", point);
            continue;
        }
        pending_.push_back(point.spec.index);
    }
}

std::size_t CampaignLedger::slot(std::size_t index) const {
    // Owned indices are shard_index, shard_index + N, ... in slot order.
    const std::size_t slot = index / outcome_.shard_count;
    DYNAMO_REQUIRE(index % outcome_.shard_count == outcome_.shard_index &&
                       slot < outcome_.points.size(),
                   "point " + std::to_string(index) + " is not owned by this campaign");
    return slot;
}

void CampaignLedger::settle(std::size_t index, CachedResult result) {
    // Each index settles once, so its slot is this call's alone; only the
    // counts are shared. A SUCCESSFUL point is stored before this
    // returns, so a campaign killed after k settles warm-starts with
    // exactly k cache hits. Failed points are not cached — a re-run
    // retries them instead of replaying the error. The cache store is
    // concurrency-safe (unique per-writer temp names), so it runs outside
    // the lock.
    CampaignPoint& point = outcome_.points[slot(index)];
    point.result = std::move(result);
    const bool ok = point.result.exit_code == 0;
    if (ok) cache_.store(CacheKey{scenario_->name, epoch_, point.spec.params}, point.result);
    emit_progress(progress_, ok ? "computed" : "failed", point);
    const std::lock_guard<std::mutex> lock(counts_mutex_);
    ++outcome_.computed;
    if (!ok) ++outcome_.failed;
}

CampaignOutcome run_campaign(const Manifest& manifest, const CampaignOptions& options) {
    CampaignLedger ledger(manifest, options);
    const std::vector<std::size_t>& pending = ledger.pending();
    // Grain 1: points are coarse units of work.
    parallel_for_blocks(options.pool, pending.size(), 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t j = lo; j < hi; ++j) {
            ledger.settle(pending[j],
                          compute_campaign_point(ledger.scenario(), ledger.spec(pending[j])));
        }
    });
    return std::move(ledger).finish();
}

std::string CampaignOutcome::to_json(const Manifest& manifest) const {
    const bool sharded = shard_count > 1;
    JsonObject root;
    root.reserve(8);  // also sidesteps a GCC-12 -Warray-bounds false positive
    root.emplace_back("campaign", Json(manifest.name));
    root.emplace_back("scenario", Json(manifest.scenario));
    if (!manifest.description.empty())
        root.emplace_back("description", Json(manifest.description));
    root.emplace_back("repetitions", Json(static_cast<std::uint64_t>(manifest.repetitions)));
    root.emplace_back("seed", Json(static_cast<std::uint64_t>(manifest.seed)));
    if (sharded) {
        JsonObject shard;
        shard.emplace_back("index", Json(static_cast<std::uint64_t>(shard_index)));
        shard.emplace_back("count", Json(static_cast<std::uint64_t>(shard_count)));
        shard.emplace_back("total_points", Json(static_cast<std::uint64_t>(total_points)));
        root.emplace_back("shard", Json(std::move(shard)));
    }
    JsonArray point_records;
    point_records.reserve(points.size());
    for (const CampaignPoint& point : points) {
        JsonObject params;
        for (const auto& [k, v] : point.spec.params) params.emplace_back(k, Json(v));
        JsonObject metrics;
        for (const auto& [k, v] : point.result.metrics) metrics.emplace_back(k, Json(v));
        JsonObject record;
        // The global expansion index only appears in shard artifacts; the
        // unsharded artifact keeps its classic (pre-shard) shape.
        if (sharded)
            record.emplace_back("index", Json(static_cast<std::uint64_t>(point.spec.index)));
        record.emplace_back("params", Json(std::move(params)));
        record.emplace_back("metrics", Json(std::move(metrics)));
        record.emplace_back("exit_code", Json(static_cast<std::int64_t>(point.result.exit_code)));
        // Reports stay out of the campaign JSON (they live in the cache) —
        // except for failures, whose report carries the error message.
        if (point.result.exit_code != 0)
            record.emplace_back("report", Json(point.result.report));
        point_records.emplace_back(Json(std::move(record)));
    }
    root.emplace_back("points", Json(std::move(point_records)));
    return Json(std::move(root)).dump(2) + "\n";
}

std::string CampaignOutcome::summary(const Manifest& manifest) const {
    std::ostringstream os;
    os << "campaign " << manifest.name;
    if (shard_count > 1) os << " [shard " << shard_index << "/" << shard_count << "]";
    os << ": " << points.size();
    if (shard_count > 1) os << "/" << total_points;
    os << " points, " << computed << " computed, " << cached << " cached, " << failed
       << " failed";
    return os.str();
}

} // namespace dynamo::scenario
