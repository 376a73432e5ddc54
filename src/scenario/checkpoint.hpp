// dynamo/scenario/checkpoint.hpp
//
// Per-shard resumable campaign checkpoints: a crash-safe, append-only
// JSONL record of which campaign points have settled successfully, so a
// killed campaign — or a `--force` re-run — warm-starts from the work it
// already banked instead of from zero.
//
// File format (one JSON object per line):
//
//   {"format": "dynamo-campaign-checkpoint", "version": 1,
//    "fingerprint": "<16 hex>", "shard_index": 0, "shard_count": 2,
//    "points": 6}                               <- header, written once
//   {"index": 0, "hash": "<16 hex>"}            <- one line per settled point
//   {"index": 2, "hash": "<16 hex>"}
//
// Crash-safety by construction: settled lines are appended and flushed as
// each point lands, never rewritten, so there is no window in which an
// interrupt can corrupt previously recorded progress; a torn final line
// (process killed mid-append) fails to parse and is simply ignored on
// load. The header fingerprint is FNV-1a over the campaign's expanded
// identity — scenario, combined epoch, shard index/count, and every
// point's canonical cache-key string — so resuming a checkpoint against a
// different manifest, epoch, or shard layout is rejected loudly instead
// of silently skipping the wrong points. Each settled line additionally
// records the point's cache hash, which must still match on resume
// (belt-and-braces against hand-edited files).
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>

namespace dynamo::scenario {

class CampaignCheckpoint {
  public:
    /// Opens (resuming) or creates (fresh) the checkpoint at `path`.
    /// Throws std::invalid_argument when the file exists but is not a
    /// campaign checkpoint, or its header names a different fingerprint
    /// — a checkpoint never silently applies to the wrong campaign. An
    /// empty or absent file starts fresh (the header is written
    /// immediately, atomically via flush).
    CampaignCheckpoint(std::string path, std::uint64_t fingerprint, unsigned shard_index,
                       unsigned shard_count, std::size_t total_points);

    const std::string& path() const noexcept { return path_; }

    /// Points recorded as settled when the checkpoint was opened (resume
    /// state; later mark_settled calls do not appear here). Lines naming
    /// another shard's point, or an index past `total_points`, are skipped.
    std::size_t resumed() const noexcept { return resumed_; }

    /// True iff `index` was recorded settled with exactly this cache hash.
    /// Not synchronized against mark_settled — query it from the serial
    /// cache pass, before pool workers start appending.
    bool is_settled(std::size_t index, std::uint64_t hash) const;

    /// Appends one settled line and flushes. Thread-safe (pool workers
    /// call this as points land); idempotent per (index, hash).
    void mark_settled(std::size_t index, std::uint64_t hash);

  private:
    std::string path_;
    std::map<std::size_t, std::uint64_t> settled_;
    std::size_t resumed_ = 0;
    std::ofstream out_;
    std::mutex mutex_;
};

} // namespace dynamo::scenario
