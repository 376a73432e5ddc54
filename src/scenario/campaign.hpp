// dynamo/scenario/campaign.hpp
//
// The campaign driver: expand a manifest into points, satisfy each point
// from the content-addressed result cache or compute it on the
// ThreadPool, and assemble a deterministic campaign report.
//
// Determinism contract (tested in tests/test_scenario.cpp): the campaign
// JSON is a pure function of (manifest, registry, epochs) — points carry
// deterministic RNG substreams, each computing point runs against its own
// private output buffer, results are assembled in expansion order, and
// nothing time- or thread-dependent enters the report. Hence serial ==
// pooled bit-identical, and a fully cached re-run reproduces the computed
// run's JSON byte for byte (cache provenance is reported separately).
//
// Ownership: CampaignLedger is the ONE owner of a campaign's bookkeeping
// — expansion and the shard filter, the campaign fingerprint, the serial
// cache pass, and settling a computed point into cache, progress stream
// and counts. Both execution modes are a ledger plus a scheduler over
// its pending indices: run_campaign drives them through
// parallel_for_blocks, the distributed coordinator (dist/coordinator.hpp)
// leases them to workers. Nothing else reads or writes the cache or
// progress stream on a campaign's behalf, which is why a campaign killed
// in either mode resumes under the other.
//
// Resume is the cache: every point is a pure function of (manifest,
// epochs), so its cache entry is both its memo and its record of being
// done. Re-running a killed campaign against the same cache directory
// computes only what never settled. A full recompute is a run against an
// empty cache directory (then `dynamo cache merge` folds it into a shared
// one); a stale entry is retired by bumping Scenario::epoch or
// kCodeEpoch, never by bypassing the lookup.
//
// Crash-safety contract (the two bugs this layer used to have, both
// test-enforced in tests/test_service.cpp):
//   * each successful point is persisted to the cache THE MOMENT it
//     settles, inside the compute pass — a campaign killed after m
//     successful points warm-starts with exactly m cache hits, not zero
//     (results used to be stored in a serial pass after the whole pool
//     drained, so an interrupt lost everything);
//   * cache stores are safe under concurrent writers (unique per-writer
//     temp names; see scenario/cache.hpp), so shards of one campaign may
//     share a cache directory.
//
// Distribution: `shard_index` / `shard_count` restrict a run to the
// points whose EXPANSION index i satisfies i % shard_count == shard_index
// (the deterministic decomposition the sharded search driver uses).
// Expansion — and therefore every point's parameters and injected RNG
// substream — is always that of the full manifest, so a shard computes
// exactly the same results it would in an unsharded run. Shards that
// share one cache (or whose caches are joined with `dynamo cache merge`)
// reassemble by re-running the unsharded campaign against that cache:
// every point is a hit, and warm == cold makes the artifact byte-identical.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "io/jsonl.hpp"
#include "scenario/cache.hpp"
#include "scenario/manifest.hpp"
#include "util/parallel.hpp"

namespace dynamo::scenario {

struct CampaignOptions {
    ThreadPool* pool = nullptr;    ///< nullptr computes points serially (same report)
    std::string cache_dir = ".dynamo-cache";
    /// Optional live progress stream (JSONL): one object per completed
    /// point — {"index", "status": "cached"|"computed"|"failed",
    /// "exit_code", "params", "metrics"} — flushed as each point lands, so
    /// a tail -f of the file tracks a long campaign. Lines appear in
    /// COMPLETION order (pool scheduling), not expansion order; the
    /// campaign JSON remains the deterministic artifact. The ledger's
    /// cache pass and settle() emit through one serialized, flush-on-drop
    /// writer (io/jsonl.hpp), so lines never interleave or truncate.
    std::ostream* progress = nullptr;
    /// Deterministic shard of the expanded points this run owns: index i
    /// belongs to shard i % shard_count. The default 0/1 owns everything
    /// (the unsharded campaign). shard_index must be < shard_count.
    unsigned shard_index = 0;
    unsigned shard_count = 1;
};

/// Parses a --shard=K/N value into (index, count). Throws
/// std::invalid_argument on anything but two decimal integers around one
/// slash with K < N — including numbers too large for `unsigned`, which
/// must never wrap into some other valid shard.
void parse_shard_spec(const std::string& spec, unsigned& index, unsigned& count);

struct CampaignPoint {
    PointSpec spec;  ///< spec.index is the GLOBAL expansion index
    CachedResult result;
    bool from_cache = false;
};

struct CampaignOutcome {
    std::vector<CampaignPoint> points;  ///< owned points, expansion order
    std::size_t computed = 0;
    std::size_t cached = 0;
    std::size_t failed = 0;  ///< points whose scenario threw or returned non-zero
    std::size_t total_points = 0;  ///< full expansion size (all shards)
    unsigned shard_index = 0;
    unsigned shard_count = 1;

    /// The deterministic campaign report (see header comment). A shard
    /// (shard_count > 1) also records the shard layout and each point's
    /// global index; shard_count == 1 emits the classic unsharded artifact.
    std::string to_json(const Manifest& manifest) const;
    /// One-line human summary: point/computed/cached/failed counts (plus
    /// the shard slice when sharded).
    std::string summary(const Manifest& manifest) const;
};

/// The bookkeeping half of a campaign (see "Ownership" above); the
/// caller supplies only the schedule that computes pending points.
class CampaignLedger {
  public:
    /// Expands the FULL manifest, keeps this shard's points, computes the
    /// campaign fingerprint (scenario, combined epoch, shard layout and
    /// every expanded point's canonical cache-key string), and runs the
    /// serial cache pass: every point found in the cache is served from
    /// it, counted and streamed here. `options.pool` is unused. Throws on
    /// infrastructure errors (unknown scenario, bad shard layout).
    CampaignLedger(const Manifest& manifest, const CampaignOptions& options);

    const Scenario& scenario() const noexcept { return *scenario_; }
    std::uint64_t fingerprint() const noexcept { return fingerprint_; }

    /// Global indices the cache pass left to compute, in expansion order.
    const std::vector<std::size_t>& pending() const noexcept { return pending_; }

    /// The expanded point with global index `index` (must be owned).
    const PointSpec& spec(std::size_t index) const { return outcome_.points[slot(index)].spec; }

    /// Settles one computed point, once per pending index: a successful
    /// result is stored in the cache before this returns (a failure is
    /// not, so a re-run retries it), then the progress line is written
    /// and the counts move. Thread-safe.
    void settle(std::size_t index, CachedResult result);

    /// Counts and points so far; do not read it while settle() may run.
    const CampaignOutcome& outcome() const noexcept { return outcome_; }
    /// The finished campaign, once every pending index has settled.
    CampaignOutcome finish() && { return std::move(outcome_); }

  private:
    std::size_t slot(std::size_t index) const;  ///< outcome_.points position

    const Scenario* scenario_ = nullptr;
    ResultCache cache_;
    int epoch_ = 0;
    std::uint64_t fingerprint_ = 0;
    CampaignOutcome outcome_;
    io::JsonlWriter progress_;
    std::vector<std::size_t> pending_;
    std::mutex counts_mutex_;
};

/// Run the campaign (or one shard of it): a CampaignLedger whose pending
/// points are computed across `options.pool`. Throws only on
/// infrastructure errors (an unwritable cache); per-point scenario
/// exceptions are captured into that point's report with exit_code 2 and
/// counted in `failed`.
CampaignOutcome run_campaign(const Manifest& manifest, const CampaignOptions& options = {});

/// Execute one expanded point against a private output buffer. Never
/// throws: a scenario exception becomes the point's report with exit_code
/// 2, so one bad point cannot take down a thousand-point campaign. This
/// is THE point-execution primitive — the campaign compute pass and the
/// distributed worker (dist/worker.hpp) both run points through it, which
/// is what makes a distributed campaign's results bit-identical to a
/// local run's: placement chooses who calls this, never what it returns.
CachedResult compute_campaign_point(const Scenario& scenario, const PointSpec& point);

} // namespace dynamo::scenario
