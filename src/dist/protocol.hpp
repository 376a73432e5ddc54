// dynamo/dist/protocol.hpp
//
// The wire protocol of the distributed campaign fabric: plain JSON
// request/reply bodies over the PR-8 HTTP layer. This header is pure
// data + codecs — no sockets, no clocks — so every message shape is
// unit-testable by round-tripping strings, and the coordinator and
// worker agree on the protocol by construction (both link this one
// codec, there is no hand-rolled JSON on either side).
//
// Endpoint table (coordinator side; all bodies JSON):
//
//   GET  /healthz    -> 200 {"status":"ok","role":"coordinator",...}
//   GET  /manifest   -> 200 {"fingerprint","points","manifest"}
//                       (manifest = the raw manifest document, verbatim,
//                        so workers expand EXACTLY the coordinator's grid)
//   GET  /status     -> 200 {"points","settled","queued","leased",...}
//   POST /lease      -> 200 LeaseGrant        | 400 malformed
//   POST /heartbeat  -> 200 {"ok":true}       | 410 lease gone
//   POST /complete   -> 200 CompleteReply     | 409 wrong campaign | 400
//                       (done: the campaign settled; the worker exits)
//
// Each body carries only what its reader uses: a lease request is the
// number of points the worker wants (its thread count), a heartbeat is
// the lease id, a completion is the campaign fingerprint plus the
// results. A grant's TTL rides on the grant itself.
//
// Identity rule: every point travels by its GLOBAL expansion index. The
// index drives the injected RNG substream (scenario/manifest.hpp), so a
// result is a pure function of (manifest, index) and placement never
// changes bytes — the invariant that makes the distributed artifact
// byte-identical to a local run.
//
// Idempotence rule: a completed point carries result_hash() of its
// payload. The coordinator accepts the FIRST result for an index;
// a later duplicate with the same hash is acknowledged as redundant
// (crashed-and-requeued workers race their replacements benignly), and
// a duplicate with a DIFFERENT hash is a protocol violation surfaced as
// a conflict — determinism means two honest computations of one index
// cannot disagree, so a mismatch fails the campaign loudly instead of
// silently picking a winner.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/cache.hpp"

namespace dynamo::dist {

/// Coordinator's answer to POST /lease. Exactly one of three shapes:
///   done   — every point has settled; the worker should exit cleanly.
///   wait   — no indices: nothing grantable right now (all remaining
///            points are out on other leases), but the campaign is not
///            finished; poll again after a short sleep.
///   grant  — lease_id + indices, valid for ttl_ms unless renewed by
///            heartbeats; work them and POST /complete.
struct LeaseGrant {
    bool done = false;
    std::uint64_t lease_id = 0;
    std::vector<std::size_t> indices;
    std::uint64_t ttl_ms = 0;
};

/// One computed point travelling back: its global index and the same
/// record the result cache stores.
struct PointResult {
    std::size_t index = 0;
    scenario::CachedResult result;
};

struct CompleteRequest {
    /// util::hex16 campaign fingerprint the worker derived from GET /manifest;
    /// the coordinator 409s a mismatch so a worker can never deposit
    /// results into the wrong campaign.
    std::string fingerprint;
    std::vector<PointResult> results;
};

struct CompleteReply {
    std::size_t accepted = 0;    ///< settled now, first valid result
    std::size_t duplicates = 0;  ///< already settled, matching hash (benign)
    std::size_t conflicts = 0;   ///< already settled, MISMATCHING hash (fatal)
    /// Every point has settled: the worker exits as on a done grant,
    /// without another /lease (the coordinator stops serving once done).
    bool done = false;
};

/// FNV-1a 64 (util/hash.hpp) over a point result's full payload (exit
/// code, sorted metrics, report) — the duplicate-vs-conflict
/// discriminator. Pure and platform-stable, like scenario::cache_hash.
std::uint64_t result_hash(const scenario::CachedResult& result);

// Codecs. Every parse_* throws std::invalid_argument with an actionable
// message on malformed input; render_* always produces a compact
// single-line JSON document parse_* accepts (round-trip pinned in
// tests/test_dist.cpp).
/// A lease request is how many points the worker computes at once (its
/// thread count, at least 1); the coordinator grants min(capacity,
/// queued) indices.
std::string render_lease_request(std::size_t capacity);
std::size_t parse_lease_request(const std::string& text);
std::string render_lease_grant(const LeaseGrant& grant);
LeaseGrant parse_lease_grant(const std::string& text);
std::string render_heartbeat_request(std::uint64_t lease_id);
std::uint64_t parse_heartbeat_request(const std::string& text);
std::string render_complete_request(const CompleteRequest& request);
CompleteRequest parse_complete_request(const std::string& text);
std::string render_complete_reply(const CompleteReply& reply);
CompleteReply parse_complete_reply(const std::string& text);

} // namespace dynamo::dist
