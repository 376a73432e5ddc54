// dynamo/dist/lease_table.cpp
//
// See lease_table.hpp for the lifecycle, lazy-expiry, and first-valid-
// result-wins contracts this implements.
#include "dist/lease_table.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace dynamo::dist {

LeaseTable::LeaseTable(std::vector<std::size_t> pending, std::uint64_t ttl_ms,
                       const std::map<std::size_t, std::uint64_t>& settled)
    : ttl_ms_(ttl_ms), settled_(settled) {
    for (const auto& [index, hash] : settled) states_.emplace(index, State::Settled);
    for (const std::size_t index : pending) {
        const bool fresh = states_.emplace(index, State::Queued).second;
        DYNAMO_REQUIRE(fresh, "duplicate pending index in lease table");
        queue_.push_back(index);
    }
}

LeaseTable::Grant LeaseTable::acquire(std::size_t capacity, std::uint64_t now_ms) {
    DYNAMO_REQUIRE(capacity >= 1, "lease capacity must be at least 1");
    expire(now_ms);
    Grant grant;
    while (grant.indices.size() < capacity && !queue_.empty()) {
        const std::size_t index = queue_.front();
        queue_.pop_front();
        // The queue may hold stale entries for indices that settled
        // while queued (a crashed worker's late completion); skip them.
        if (states_.at(index) != State::Queued) continue;
        states_.at(index) = State::Leased;
        grant.indices.push_back(index);
    }
    if (grant.indices.empty()) return grant;  // done or wait — caller decides
    grant.lease_id = next_lease_id_++;
    leases_.emplace(grant.lease_id, Lease{grant.indices, now_ms + ttl_ms_});
    ++leases_granted_;
    return grant;
}

bool LeaseTable::heartbeat(std::uint64_t lease_id, std::uint64_t now_ms) {
    expire(now_ms);
    const auto it = leases_.find(lease_id);
    if (it == leases_.end()) return false;
    it->second.expires_at_ms = now_ms + ttl_ms_;
    return true;
}

LeaseTable::Completion LeaseTable::complete(std::size_t index, std::uint64_t hash,
                                            std::uint64_t now_ms) {
    expire(now_ms);
    const auto state = states_.find(index);
    if (state == states_.end()) return Completion::Unknown;
    if (state->second == State::Settled) {
        if (settled_.at(index) == hash) {
            ++duplicates_;
            return Completion::Duplicate;
        }
        ++conflicts_;
        return Completion::Conflict;
    }
    if (state->second == State::Leased) {
        // Drop the index from whichever live lease holds it (a late
        // completion may arrive under an already-expired lease while a
        // REPLACEMENT lease holds the index — first valid result wins,
        // so the replacement's copy is released too).
        for (auto it = leases_.begin(); it != leases_.end(); ++it) {
            auto& indices = it->second.indices;
            const auto pos = std::find(indices.begin(), indices.end(), index);
            if (pos == indices.end()) continue;
            indices.erase(pos);
            if (indices.empty()) leases_.erase(it);
            break;
        }
    }
    state->second = State::Settled;
    settled_.emplace(index, hash);
    return Completion::Accepted;
}

std::size_t LeaseTable::expire(std::uint64_t now_ms) {
    std::size_t expired = 0;
    for (auto it = leases_.begin(); it != leases_.end();) {
        if (now_ms < it->second.expires_at_ms) {
            ++it;
            continue;
        }
        for (const std::size_t index : it->second.indices) {
            states_.at(index) = State::Queued;
            queue_.push_back(index);
        }
        it = leases_.erase(it);
        ++expired;
        ++leases_expired_;
    }
    return expired;
}

std::size_t LeaseTable::count(State state) const noexcept {
    std::size_t n = 0;
    for (const auto& [index, s] : states_)
        if (s == state) ++n;
    return n;
}

} // namespace dynamo::dist
