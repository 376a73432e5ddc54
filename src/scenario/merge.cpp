// dynamo/scenario/merge.cpp
//
// Shard-artifact merge (contract in merge.hpp). The strategy is parse →
// validate the interleave → re-serialize through the campaign's own
// serializer, so the merged report is byte-identical to an unsharded run
// by construction.
#include "scenario/merge.hpp"

#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>

#include "scenario/campaign.hpp"
#include "util/json.hpp"

namespace dynamo::scenario {

namespace {

using util::Json;

[[noreturn]] void bad(const std::string& source, const std::string& what) {
    throw std::invalid_argument("shard artifact '" + source + "': " + what);
}

const Json& need(const Json& record, const char* key, const std::string& source) {
    const Json* value = record.find(key);
    if (value == nullptr) bad(source, std::string("missing '") + key + "' field");
    return *value;
}

std::string need_string(const Json& record, const char* key, const std::string& source) {
    const Json& value = need(record, key, source);
    if (!value.is_string()) bad(source, std::string("'") + key + "' is not a string");
    return value.as_string();
}

/// A non-negative integer member that fits T. Negative, fractional and
/// oversized values are rejected, never wrapped into a plausible one.
template <typename T>
T need_number(const Json& record, const char* key, const std::string& source) {
    const Json& value = need(record, key, source);
    if (!value.is_number()) bad(source, std::string("'") + key + "' is not a number");
    std::int64_t v = -1;  // stays negative (rejected) unless the number is an exact integer
    try {
        v = value.as_int();
    } catch (const std::invalid_argument&) {
    }
    constexpr auto kMax = std::numeric_limits<T>::max();
    if (v < 0 || static_cast<std::uint64_t>(v) > kMax)
        bad(source, std::string("'") + key + "' is not an integer in [0, " +
                        std::to_string(kMax) + "]: " + value.number_lexeme());
    return static_cast<T>(v);
}

/// One shard artifact decoded into the campaign driver's own structures.
struct ParsedShard {
    std::string source;
    CampaignHeader header;
    unsigned shard_index = 0;
    unsigned shard_count = 1;
    std::size_t total_points = 0;
    std::vector<CampaignPoint> points;
};

ParsedShard parse_shard(const ShardArtifact& artifact) {
    ParsedShard shard;
    shard.source = artifact.source;
    Json root;
    try {
        root = Json::parse(artifact.text, artifact.source);
    } catch (const std::exception& e) {
        bad(artifact.source, std::string("unparsable JSON: ") + e.what());
    }

    shard.header.name = need_string(root, "campaign", artifact.source);
    shard.header.scenario = need_string(root, "scenario", artifact.source);
    if (const Json* description = root.find("description")) {
        if (!description->is_string()) bad(artifact.source, "'description' is not a string");
        shard.header.description = description->as_string();
    }
    shard.header.repetitions = need_number<std::uint64_t>(root, "repetitions", artifact.source);
    shard.header.seed = need_number<std::uint64_t>(root, "seed", artifact.source);

    const Json* layout = root.find("shard");
    if (layout != nullptr) {
        if (!layout->is_object()) bad(artifact.source, "'shard' is not an object");
        shard.shard_index = need_number<unsigned>(*layout, "index", artifact.source);
        shard.shard_count = need_number<unsigned>(*layout, "count", artifact.source);
        shard.total_points = need_number<std::size_t>(*layout, "total_points", artifact.source);
        if (shard.shard_count == 0) bad(artifact.source, "shard count is zero");
        if (shard.shard_index >= shard.shard_count)
            bad(artifact.source, "shard index out of range");
    }

    const Json& points = need(root, "points", artifact.source);
    if (!points.is_array()) bad(artifact.source, "'points' is not an array");
    shard.points.reserve(points.as_array().size());
    for (std::size_t slot = 0; slot < points.as_array().size(); ++slot) {
        const Json& record = points.as_array()[slot];
        if (!record.is_object()) bad(artifact.source, "point record is not an object");
        CampaignPoint point;
        // Unsharded artifacts omit "index" (classic format); reconstruct
        // it from the slot, which IS the expansion index when N == 1.
        point.spec.index =
            layout != nullptr ? need_number<std::size_t>(record, "index", artifact.source) : slot;
        const Json& params = need(record, "params", artifact.source);
        if (!params.is_object()) bad(artifact.source, "point 'params' is not an object");
        for (const auto& [k, v] : params.as_object()) {
            if (!v.is_string()) bad(artifact.source, "point param '" + k + "' is not a string");
            point.spec.params[k] = v.as_string();
        }
        const Json& metrics = need(record, "metrics", artifact.source);
        if (!metrics.is_object()) bad(artifact.source, "point 'metrics' is not an object");
        for (const auto& [k, v] : metrics.as_object()) {
            if (!v.is_string())
                bad(artifact.source, "point metric '" + k + "' is not a string");
            point.result.metrics[k] = v.as_string();
        }
        point.result.exit_code = need_number<int>(record, "exit_code", artifact.source);
        if (const Json* report = record.find("report")) {
            if (!report->is_string()) bad(artifact.source, "point 'report' is not a string");
            point.result.report = report->as_string();
        }
        shard.points.push_back(std::move(point));
    }

    if (layout == nullptr) shard.total_points = shard.points.size();
    return shard;
}

} // namespace

std::string merge_campaign_artifacts(const std::vector<ShardArtifact>& artifacts) {
    if (artifacts.empty())
        throw std::invalid_argument("campaign merge: no shard artifacts given");

    std::vector<ParsedShard> shards;
    shards.reserve(artifacts.size());
    for (const ShardArtifact& artifact : artifacts) shards.push_back(parse_shard(artifact));

    const ParsedShard& first = shards.front();
    const unsigned count = first.shard_count;
    if (shards.size() != count) {
        throw std::invalid_argument(
            "campaign merge: shard count mismatch — artifacts declare a " +
            std::to_string(count) + "-way split but " + std::to_string(shards.size()) +
            " artifact(s) were given");
    }

    // All shards must describe the same campaign and the same split.
    std::map<unsigned, const ParsedShard*> by_index;
    for (const ParsedShard& shard : shards) {
        if (shard.header.name != first.header.name ||
            shard.header.scenario != first.header.scenario ||
            shard.header.description != first.header.description ||
            shard.header.repetitions != first.header.repetitions ||
            shard.header.seed != first.header.seed)
            bad(shard.source, "campaign header differs from '" + first.source + "'");
        if (shard.shard_count != count || shard.total_points != first.total_points)
            bad(shard.source, "shard layout differs from '" + first.source + "'");
        if (!by_index.emplace(shard.shard_index, &shard).second)
            bad(shard.source,
                "duplicate shard index " + std::to_string(shard.shard_index));
    }

    // Interleave back into expansion order: point i is shard i % N's
    // (i / N)-th point, and must say so itself.
    const std::size_t total = first.total_points;
    std::vector<CampaignPoint> merged;
    merged.reserve(total);
    for (const ParsedShard& shard : shards) {
        std::size_t expected = 0;
        for (std::size_t i = shard.shard_index; i < total; i += count) ++expected;
        if (shard.points.size() != expected)
            bad(shard.source, "shard " + std::to_string(shard.shard_index) + "/" +
                                  std::to_string(count) + " should hold " +
                                  std::to_string(expected) + " of " + std::to_string(total) +
                                  " points but holds " + std::to_string(shard.points.size()));
    }
    for (std::size_t i = 0; i < total; ++i) {
        const ParsedShard& owner = *by_index.at(static_cast<unsigned>(i % count));
        const CampaignPoint& point = owner.points[i / count];
        if (point.spec.index != i)
            bad(owner.source, "point at slot " + std::to_string(i / count) +
                                  " claims index " + std::to_string(point.spec.index) +
                                  " but the interleave expects " + std::to_string(i));
        merged.push_back(point);
    }

    return render_campaign_json(first.header, merged, 0, 1, total);
}

} // namespace dynamo::scenario
