// dynamo/dist/lease_table.hpp
//
// The coordinator's scheduling core: a pure, clockless state machine
// over point indices. Every transition takes `now_ms` as an argument —
// the table never reads a clock, spawns a thread, or touches a socket —
// so lease expiry, worker crashes, and duplicate races are all testable
// by feeding a fake timeline (tests/test_dist.cpp does exactly that).
//
// Point lifecycle (points served from the cache are born Settled):
//
//   Queued --acquire--> Leased --complete--> Settled
//     ^                   |
//     +---- TTL expiry ---+       (requeue; the crashed worker's late
//                                  completion, if it ever arrives, is
//                                  resolved by the Settled rules below)
//
// Expiry is LAZY: there is no timer — every acquire/heartbeat/complete
// first sweeps leases whose deadline passed `now_ms` and requeues their
// unfinished indices. Lazy expiry is sound here because workers PULL:
// a stalled campaign always has some live worker polling /lease, and
// that poll is what recycles dead leases. (A campaign with zero live
// workers is stalled either way — no result could arrive.)
//
// Settled rules (first valid result wins, determinism enforced):
//   * first completion of an index settles it and records its
//     result_hash — regardless of whether the lease it arrived under is
//     still alive (a slow worker beaten by its own TTL still did valid
//     work; accepting it costs nothing and is first-wins when the
//     replacement has not finished);
//   * a later completion with the SAME hash is a Duplicate — the benign
//     crashed-worker race, acknowledged and dropped;
//   * a later completion with a DIFFERENT hash is a Conflict — results
//     are pure functions of (manifest, index), so honest duplicates
//     cannot disagree; the caller fails the campaign loudly;
//   * an index this campaign never owned is Unknown (caller 400s).
// A point settled before a coordinator restart (a cache hit) follows the
// same rules, so a worker's retried completion from the first life is a
// Duplicate or a Conflict, never Unknown.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

namespace dynamo::dist {

class LeaseTable {
  public:
    /// `pending` holds the indices still to compute, `settled` the points
    /// already done (the cache hits) by index -> result_hash. Order is
    /// preserved: grants walk the queue front to back, so expansion order
    /// is the default schedule and requeued work goes to the back of the
    /// line. A lease lives `ttl_ms` between heartbeats.
    LeaseTable(std::vector<std::size_t> pending, std::uint64_t ttl_ms,
               const std::map<std::size_t, std::uint64_t>& settled = {});

    struct Grant {
        std::uint64_t lease_id = 0;           ///< 0 when nothing granted
        std::vector<std::size_t> indices;     ///< empty => done or wait
    };

    enum class Completion { Accepted, Duplicate, Conflict, Unknown };

    /// Hand out min(capacity, queued) indices (capacity >= 1) under a
    /// fresh lease. An empty grant means: everything settled
    /// (all_settled()) or all remaining work is out on live leases
    /// (caller says "wait").
    Grant acquire(std::size_t capacity, std::uint64_t now_ms);

    /// Renew a lease's TTL. False when the lease is unknown or already
    /// expired (its work was requeued) — the worker should abandon the
    /// batch or let its completion resolve under the Settled rules.
    bool heartbeat(std::uint64_t lease_id, std::uint64_t now_ms);

    /// One completed point (see Settled rules in the header comment).
    /// `hash` is protocol.hpp's result_hash of the payload.
    Completion complete(std::size_t index, std::uint64_t hash, std::uint64_t now_ms);

    /// Sweep expired leases, requeueing their unfinished indices.
    /// Called implicitly by every transition; public for tests and for
    /// status endpoints that want fresh counters. Returns how many
    /// leases expired in this sweep.
    std::size_t expire(std::uint64_t now_ms);

    bool all_settled() const noexcept { return settled_.size() == states_.size(); }

    std::size_t total() const noexcept { return states_.size(); }
    std::size_t settled() const noexcept { return settled_.size(); }
    std::size_t queued() const noexcept { return count(State::Queued); }
    std::size_t leased() const noexcept { return count(State::Leased); }
    std::size_t leases_granted() const noexcept { return leases_granted_; }
    std::size_t leases_expired() const noexcept { return leases_expired_; }
    std::size_t duplicates() const noexcept { return duplicates_; }
    std::size_t conflicts() const noexcept { return conflicts_; }

  private:
    enum class State { Queued, Leased, Settled };

    std::size_t count(State state) const noexcept;

    struct Lease {
        std::vector<std::size_t> indices;  ///< still-unfinished slice
        std::uint64_t expires_at_ms = 0;
    };

    std::uint64_t ttl_ms_;
    std::map<std::size_t, State> states_;        ///< every owned index
    std::deque<std::size_t> queue_;              ///< Queued order (may hold stale entries)
    std::map<std::uint64_t, Lease> leases_;      ///< live leases by id
    std::map<std::size_t, std::uint64_t> settled_;  ///< index -> result_hash
    std::uint64_t next_lease_id_ = 1;
    std::size_t leases_granted_ = 0;
    std::size_t leases_expired_ = 0;
    std::size_t duplicates_ = 0;
    std::size_t conflicts_ = 0;
};

} // namespace dynamo::dist
