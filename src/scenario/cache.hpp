// dynamo/scenario/cache.hpp
//
// Content-addressed result cache for campaign points. A point's identity
// is (scenario name, canonical parameter binding, code epoch); its cached
// value is the metrics map + report text + exit code the scenario
// produced. Re-running a campaign computes only the points whose key is
// absent (cache miss) or whose epoch moved (invalidation). The cache is
// also a campaign's only resume record: every lookup is honored, so a
// stale entry is retired by an epoch bump (below), and a full recompute
// is a run against an empty cache directory.
//
// Key = FNV-1a 64 over a canonical serialization: scenario name, combined
// epoch, and the sorted "key=value" parameter bindings. The cache file
// name embeds scenario, epoch, and hash, and the stored record repeats
// scenario + params verbatim — lookups verify them, so a (vanishingly
// unlikely) hash collision degrades to a miss, never to a wrong result.
//
// Epochs: kCodeEpoch is the global stamp, bumped when a change invalidates
// every cached result (engine semantics, RNG streams); Scenario::epoch is
// the per-scenario stamp for local invalidations. The combined epoch is
// part of the hashed identity, so bumping either orphans the old entries
// (removable with `dynamo cache clear`).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "util/json.hpp"

namespace dynamo::scenario {

/// Global cache epoch. Bump on changes that invalidate every cached
/// result, e.g. simulation-semantics or RNG-substream changes.
/// Epoch 2: the rule-generic engines (LocalRule concept, `rule=`
/// parameters) - trajectories are unchanged for SMP, but points may now
/// carry rule identity, so pre-rule entries are orphaned wholesale.
/// Epoch 3: the first-class Backend API - points may now carry a
/// `backend=` binding, so pre-backend entries are orphaned. Campaigns
/// differing only in backend= hash to distinct keys (the binding is part
/// of the canonical serialization) while their metrics/reports stay
/// byte-identical - pinned in tests/test_scenario.cpp.
/// Epoch 4: adaptive Monte-Carlo (src/stats/) - density points may now
/// carry `ci_target=` / `delta=` bindings and emit CI-annotated metrics
/// (p_ci95_*), so stats-era campaign reports must never collide with
/// epoch-3 entries - pinned in tests/test_scenario.cpp.
inline constexpr int kCodeEpoch = 4;

struct CacheKey {
    std::string scenario;
    int epoch = 0;  ///< combined: kCodeEpoch + Scenario::epoch
    std::map<std::string, std::string> params;  ///< canonical (sorted) binding
};

/// Canonical serialization of a key (also what gets hashed). Stable across
/// runs and platforms; used by tests to pin the format.
std::string canonical_key_string(const CacheKey& key);

/// FNV-1a 64 of canonical_key_string().
std::uint64_t cache_hash(const CacheKey& key);

/// A point's result: what a cache entry stores and a worker's completion
/// carries (dist/protocol.hpp).
struct CachedResult {
    std::map<std::string, std::string> metrics;
    std::string report;
    int exit_code = 0;
};

/// The one codec for a result's fields, shared by the cache entry and the
/// completion record: appends "metrics", "report", "exit_code" in that
/// order, and reads them back from `record`. read_result throws
/// std::invalid_argument naming `where` on a missing or mistyped field,
/// or an exit code that is fractional or does not fit int (never a
/// wrapped 2^32 -> 0 "success").
void write_result(util::JsonObject& record, const CachedResult& result);
CachedResult read_result(const util::Json& record, const std::string& where);

class ResultCache {
  public:
    /// Creates `dir` lazily on first store.
    explicit ResultCache(std::string dir);

    const std::string& dir() const noexcept { return dir_; }

    /// Combined epoch for a scenario-local epoch value.
    static int combined_epoch(int scenario_epoch) noexcept {
        return kCodeEpoch + scenario_epoch;
    }

    /// Returns the cached result iff the file exists, parses, and its
    /// stored scenario/epoch/params match the key exactly.
    std::optional<CachedResult> lookup(const CacheKey& key) const;

    /// Writes the result under the key, safely under CONCURRENT writers
    /// (threads of this process or other processes sharing the directory,
    /// e.g. campaign shards): each writer stages into its own unique temp
    /// file (pid + counter suffix) and publishes with an atomic rename, so
    /// readers never observe a torn entry and two racers can never
    /// interleave bytes in one temp file. A racer winning the rename is
    /// fine — entries are content-addressed, so the survivor is the same
    /// bytes (and on platforms where rename refuses to replace, an
    /// already-present byte-identical entry counts as success).
    void store(const CacheKey& key, const CachedResult& result) const;

    /// Copies every cache entry from `src_dir` that is absent here (same
    /// atomic staging as store); present entries are kept — content
    /// addressing makes them equivalent. Returns how many were copied.
    /// This is how separate per-shard cache directories combine; shards
    /// sharing one directory need no merge at all.
    std::size_t merge_from(const std::string& src_dir) const;

    /// Path a key resolves to (diagnostics, tests).
    std::string entry_path(const CacheKey& key) const;

    struct Stats {
        std::size_t entries = 0;
        std::uint64_t bytes = 0;
    };
    Stats stats() const;

    /// Deletes every cache entry; returns how many were removed.
    std::size_t clear() const;

  private:
    std::string dir_;
};

} // namespace dynamo::scenario
