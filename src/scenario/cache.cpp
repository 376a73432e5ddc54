// dynamo/scenario/cache.cpp
//
// Cache entry layout: one JSON file per point (see cache.hpp for the
// keying scheme). Stores are atomic (unique per-writer temp file +
// rename) so a campaign interrupted mid-write never leaves a truncated
// entry behind, and concurrent writers — pool threads of one campaign or
// the shards of a distributed one sharing the directory — can never
// interleave bytes or observe each other's partial writes.
#include "scenario/cache.hpp"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/assert.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"

namespace dynamo::scenario {

namespace fs = std::filesystem;
using util::Json;
using util::JsonObject;

std::string canonical_key_string(const CacheKey& key) {
    std::string s = key.scenario;
    s += '\n';
    s += std::to_string(key.epoch);
    for (const auto& [k, v] : key.params) {  // std::map: already sorted
        s += '\n';
        s += k;
        s += '=';
        s += v;
    }
    return s;
}

std::uint64_t cache_hash(const CacheKey& key) {
    return util::Fnv1a().bytes(canonical_key_string(key)).value();
}

void write_result(JsonObject& record, const CachedResult& result) {
    JsonObject metrics;
    for (const auto& [k, v] : result.metrics) metrics.emplace_back(k, Json(v));
    record.emplace_back("metrics", Json(std::move(metrics)));
    record.emplace_back("report", Json(result.report));
    record.emplace_back("exit_code", Json(static_cast<std::int64_t>(result.exit_code)));
}

CachedResult read_result(const Json& record, const std::string& where) {
    const auto field = [&](const char* key, bool (Json::*is)() const noexcept,
                           const char* type) -> const Json& {
        const Json* value = record.find(key);
        if (value == nullptr || !(value->*is)())
            throw std::invalid_argument(where + "." + key + " must be " + type);
        return *value;
    };
    CachedResult result;
    for (const auto& [k, v] : field("metrics", &Json::is_object, "an object").as_object()) {
        if (!v.is_string()) throw std::invalid_argument(where + ".metrics values must be strings");
        result.metrics[k] = v.as_string();
    }
    result.report = field("report", &Json::is_string, "a string").as_string();
    const Json& exit_code = field("exit_code", &Json::is_number, "a number");
    const std::optional<int> code = exit_code.to_int();
    if (!code)
        throw std::invalid_argument(where + ".exit_code does not fit an int: " +
                                    exit_code.number_lexeme());
    result.exit_code = *code;
    return result;
}

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {
    DYNAMO_REQUIRE(!dir_.empty(), "cache directory must not be empty");
}

std::string ResultCache::entry_path(const CacheKey& key) const {
    return dir_ + "/" + key.scenario + "-e" + std::to_string(key.epoch) + "-" +
           util::hex16(cache_hash(key)) + ".json";
}

std::optional<CachedResult> ResultCache::lookup(const CacheKey& key) const {
    const std::string path = entry_path(key);
    std::ifstream in(path, std::ios::binary);
    if (!in) return std::nullopt;
    std::ostringstream buf;
    buf << in.rdbuf();
    try {
        const Json record = Json::parse(buf.str(), path);
        const Json* scenario = record.find("scenario");
        const Json* epoch = record.find("epoch");
        const Json* params = record.find("params");
        if (scenario == nullptr || !scenario->is_string() ||
            scenario->as_string() != key.scenario)
            return std::nullopt;
        if (epoch == nullptr || !epoch->is_number() || epoch->as_int() != key.epoch)
            return std::nullopt;
        if (params == nullptr || !params->is_object()) return std::nullopt;
        // Exact binding match both ways: a hash collision or a stale file
        // from an edited manifest must read as a miss.
        if (params->as_object().size() != key.params.size()) return std::nullopt;
        for (const auto& [k, v] : params->as_object()) {
            const auto it = key.params.find(k);
            if (it == key.params.end() || !v.is_string() || v.as_string() != it->second)
                return std::nullopt;
        }
        return read_result(record, path);
    } catch (const std::exception&) {
        return std::nullopt;  // corrupt or edited entry: treat as a miss, recompute
    }
}

namespace {

/// Unique temp-file name for a store targeting `path`: pid distinguishes
/// processes sharing a cache directory, the counter distinguishes threads
/// within one. A fixed `path + ".tmp"` (the pre-fix scheme) let N racers
/// write the SAME temp file and interleave their bytes before the rename
/// published the mixture — the torn-cache-write bug.
std::string unique_temp_name(const std::string& path) {
    static std::atomic<unsigned long long> counter{0};
    return path + ".tmp." + std::to_string(static_cast<long long>(::getpid())) + "." +
           std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

/// Whole-file read; empty optional when the file cannot be read.
std::optional<std::string> slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return std::nullopt;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/// Stage `payload` into a unique temp file next to `path` and publish it
/// with an atomic rename. When the rename fails but a racer already
/// published byte-identical content, that counts as success (whoever won,
/// the entry is the right bytes).
void atomic_publish(const std::string& path, const std::string& payload) {
    const std::string tmp = unique_temp_name(path);
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        DYNAMO_REQUIRE(static_cast<bool>(out), "cannot write cache entry '" + tmp + "'");
        out << payload;
        out.flush();
        DYNAMO_REQUIRE(static_cast<bool>(out), "short write on cache entry '" + tmp + "'");
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);  // POSIX rename replaces atomically
    if (ec) {
        const std::optional<std::string> existing = slurp(path);
        std::error_code ignored;
        fs::remove(tmp, ignored);
        DYNAMO_REQUIRE(existing.has_value() && *existing == payload,
                       "cannot publish cache entry '" + path + "': " + ec.message());
    }
}

} // namespace

void ResultCache::store(const CacheKey& key, const CachedResult& result) const {
    fs::create_directories(dir_);
    JsonObject params;
    for (const auto& [k, v] : key.params) params.emplace_back(k, Json(v));
    JsonObject record;
    record.emplace_back("scenario", Json(key.scenario));
    record.emplace_back("epoch", Json(static_cast<std::int64_t>(key.epoch)));
    record.emplace_back("params", Json(std::move(params)));
    write_result(record, result);

    atomic_publish(entry_path(key), Json(std::move(record)).dump(2) + "\n");
}

namespace {

/// True only for names this cache writes: <scenario>-e<epoch>-<16 hex>.json.
/// stats()/clear() must never touch foreign files — `dynamo cache clear
/// --cache-dir=.` in a repo root must not eat committed BENCH_*.json.
bool is_cache_entry_name(const std::string& name) {
    const std::string suffix = ".json";
    if (name.size() < suffix.size() + 16 + 1 ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0)
        return false;
    const std::string stem = name.substr(0, name.size() - suffix.size());
    const std::size_t hash_dash = stem.rfind('-');
    if (hash_dash == std::string::npos || stem.size() - hash_dash - 1 != 16) return false;
    for (std::size_t i = hash_dash + 1; i < stem.size(); ++i) {
        const char c = stem[i];
        if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
    }
    const std::size_t epoch_dash = stem.rfind("-e", hash_dash - 1);
    if (epoch_dash == std::string::npos || epoch_dash == 0) return false;
    std::size_t digits = epoch_dash + 2;
    if (digits < hash_dash && stem[digits] == '-') ++digits;  // negative test epochs
    if (digits == hash_dash) return false;
    for (std::size_t i = digits; i < hash_dash; ++i) {
        if (stem[i] < '0' || stem[i] > '9') return false;
    }
    return true;
}

} // namespace

ResultCache::Stats ResultCache::stats() const {
    Stats s;
    if (!fs::exists(dir_)) return s;
    for (const auto& entry : fs::directory_iterator(dir_)) {
        if (!entry.is_regular_file() || !is_cache_entry_name(entry.path().filename().string()))
            continue;
        ++s.entries;
        s.bytes += static_cast<std::uint64_t>(entry.file_size());
    }
    return s;
}

std::size_t ResultCache::merge_from(const std::string& src_dir) const {
    DYNAMO_REQUIRE(!src_dir.empty(), "cache merge source directory must not be empty");
    if (!fs::exists(src_dir)) return 0;
    std::error_code eq_ec;
    DYNAMO_REQUIRE(!fs::equivalent(src_dir, dir_, eq_ec),
                   "cache merge source and destination are the same directory");
    std::size_t copied = 0;
    for (const auto& entry : fs::directory_iterator(src_dir)) {
        const std::string name = entry.path().filename().string();
        if (!entry.is_regular_file() || !is_cache_entry_name(name)) continue;
        const std::string dest = dir_ + "/" + name;
        if (fs::exists(dest)) continue;  // content-addressed: already equivalent
        const std::optional<std::string> payload = slurp(entry.path().string());
        DYNAMO_REQUIRE(payload.has_value(),
                       "cannot read cache entry '" + entry.path().string() + "'");
        fs::create_directories(dir_);
        atomic_publish(dest, *payload);
        ++copied;
    }
    return copied;
}

std::size_t ResultCache::clear() const {
    if (!fs::exists(dir_)) return 0;
    std::size_t removed = 0;
    for (const auto& entry : fs::directory_iterator(dir_)) {
        if (!entry.is_regular_file() || !is_cache_entry_name(entry.path().filename().string()))
            continue;
        fs::remove(entry.path());
        ++removed;
    }
    return removed;
}

} // namespace dynamo::scenario
