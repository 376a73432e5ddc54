// dynamo/dist/coordinator.cpp
//
// See coordinator.hpp for the placement-independence and crash-safety
// contracts this implements.
#include "dist/coordinator.hpp"

#include <stdexcept>
#include <utility>

#include "dist/protocol.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"

namespace dynamo::dist {

namespace {

using service::error_response;
using service::HttpRequest;
using service::HttpResponse;
using service::json_response;
using util::Json;
using util::JsonObject;

/// The ledger's view of a coordinated campaign: always the unsharded 0/1
/// layout, so its fingerprint is the one a local run computes.
scenario::CampaignOptions ledger_options(const CoordinatorOptions& options) {
    scenario::CampaignOptions ledger;
    ledger.cache_dir = options.cache_dir;
    ledger.progress = options.progress;
    return ledger;
}

/// The cache hits by index -> result_hash: they enter the lease table
/// settled, so a completion resent across a coordinator restart is a
/// duplicate or a conflict like any other.
std::map<std::size_t, std::uint64_t> cached_hashes(const scenario::CampaignOutcome& outcome) {
    std::map<std::size_t, std::uint64_t> hashes;
    for (const scenario::CampaignPoint& point : outcome.points)
        if (point.from_cache) hashes.emplace(point.spec.index, result_hash(point.result));
    return hashes;
}

} // namespace

CampaignCoordinator::CampaignCoordinator(scenario::Manifest manifest,
                                         std::string manifest_text,
                                         CoordinatorOptions options)
    : manifest_(std::move(manifest)),
      manifest_text_(std::move(manifest_text)),
      options_(std::move(options)),
      ledger_(manifest_, ledger_options(options_)),
      table_(ledger_.pending(), options_.lease_ttl_ms, cached_hashes(ledger_.outcome())) {}

HttpResponse CampaignCoordinator::handle(const HttpRequest& request, std::uint64_t now_ms) {
    const std::lock_guard<std::mutex> lock(mutex_);
    try {
        return handle_locked(request, now_ms);
    } catch (const std::invalid_argument& e) {
        return error_response(400, e.what());
    } catch (const std::exception& e) {
        return error_response(500, e.what());
    }
}

HttpResponse CampaignCoordinator::handle_locked(const HttpRequest& request,
                                                std::uint64_t now_ms) {
    if (request.method == "GET" && request.target == "/healthz") {
        JsonObject body;
        body.emplace_back("status", Json("ok"));
        body.emplace_back("role", Json("coordinator"));
        body.emplace_back("fingerprint", Json(fingerprint_hex()));
        return json_response(200, std::move(body));
    }
    if (request.method == "GET" && request.target == "/manifest") {
        JsonObject body;
        body.emplace_back("fingerprint", Json(fingerprint_hex()));
        body.emplace_back("points", Json(static_cast<std::uint64_t>(total_points())));
        body.emplace_back("manifest", Json(manifest_text_));
        return json_response(200, std::move(body));
    }
    if (request.method == "GET" && request.target == "/status") return status(now_ms);
    if (request.method == "POST" && request.target == "/lease")
        return lease(request.body, now_ms);
    if (request.method == "POST" && request.target == "/heartbeat")
        return heartbeat(request.body, now_ms);
    if (request.method == "POST" && request.target == "/complete")
        return completion(request.body, now_ms);
    return error_response(404, "unknown endpoint: " + request.method + " " + request.target);
}

HttpResponse CampaignCoordinator::status(std::uint64_t now_ms) {
    table_.expire(now_ms);  // fresh counters for observers
    const scenario::CampaignOutcome& outcome = ledger_.outcome();
    JsonObject body;
    body.emplace_back("fingerprint", Json(fingerprint_hex()));
    body.emplace_back("points", Json(static_cast<std::uint64_t>(total_points())));
    body.emplace_back("cached", Json(static_cast<std::uint64_t>(outcome.cached)));
    body.emplace_back("computed", Json(static_cast<std::uint64_t>(outcome.computed)));
    body.emplace_back("failed", Json(static_cast<std::uint64_t>(outcome.failed)));
    body.emplace_back("queued", Json(static_cast<std::uint64_t>(table_.queued())));
    body.emplace_back("leased", Json(static_cast<std::uint64_t>(table_.leased())));
    body.emplace_back("leases_granted",
                      Json(static_cast<std::uint64_t>(table_.leases_granted())));
    body.emplace_back("leases_expired",
                      Json(static_cast<std::uint64_t>(table_.leases_expired())));
    body.emplace_back("duplicates", Json(static_cast<std::uint64_t>(table_.duplicates())));
    body.emplace_back("conflicts", Json(static_cast<std::uint64_t>(table_.conflicts())));
    body.emplace_back("done", Json(table_.all_settled()));
    return json_response(200, std::move(body));
}

HttpResponse CampaignCoordinator::lease(const std::string& body, std::uint64_t now_ms) {
    const std::size_t capacity = parse_lease_request(body);
    LeaseGrant grant;
    if (!table_.all_settled()) {
        LeaseTable::Grant g = table_.acquire(capacity, now_ms);
        grant.lease_id = g.lease_id;
        grant.indices = std::move(g.indices);
        grant.ttl_ms = options_.lease_ttl_ms;
    }
    // Not done and no indices: all remaining work is out on live leases,
    // and the worker polls again shortly.
    grant.done = table_.all_settled();
    HttpResponse response;
    response.body = render_lease_grant(grant) + "\n";
    return response;
}

HttpResponse CampaignCoordinator::heartbeat(const std::string& body, std::uint64_t now_ms) {
    const bool alive = table_.heartbeat(parse_heartbeat_request(body), now_ms);
    JsonObject reply;
    reply.emplace_back("ok", Json(alive));
    // 410 Gone tells the worker its lease expired and was requeued; its
    // in-flight batch should still be completed (first valid wins).
    return json_response(alive ? 200 : 410, std::move(reply));
}

HttpResponse CampaignCoordinator::completion(const std::string& body, std::uint64_t now_ms) {
    const CompleteRequest request = parse_complete_request(body);
    if (request.fingerprint != fingerprint_hex()) {
        return error_response(409, "campaign fingerprint mismatch: coordinator has " +
                                       fingerprint_hex() + ", completion carries " +
                                       request.fingerprint);
    }
    CompleteReply reply;
    for (const PointResult& point : request.results) {
        if (point.index >= total_points())
            return error_response(400, "completion index " + std::to_string(point.index) +
                                           " out of range");
        switch (table_.complete(point.index, result_hash(point.result), now_ms)) {
            case LeaseTable::Completion::Accepted:
                // The ledger persists it before the worker hears back, so
                // a coordinator killed now loses nothing.
                ledger_.settle(point.index, point.result);
                ++reply.accepted;
                break;
            case LeaseTable::Completion::Duplicate:
                ++reply.duplicates;
                break;
            case LeaseTable::Completion::Conflict:
                ++reply.conflicts;
                break;
            case LeaseTable::Completion::Unknown:
                return error_response(400, "completion for index the campaign does not own: " +
                                               std::to_string(point.index));
        }
    }
    reply.done = table_.all_settled();
    HttpResponse response;
    response.body = render_complete_reply(reply) + "\n";
    return response;
}

bool CampaignCoordinator::complete() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return table_.all_settled();
}

std::size_t CampaignCoordinator::conflicts() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return table_.conflicts();
}

std::size_t CampaignCoordinator::settled_points() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return table_.settled();
}

std::string CampaignCoordinator::fingerprint_hex() const {
    return util::hex16(ledger_.fingerprint());
}

std::string CampaignCoordinator::summary() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::string line = ledger_.outcome().summary(manifest_);
    line += " | fabric: " + std::to_string(table_.leases_granted()) + " leases, " +
            std::to_string(table_.leases_expired()) + " expired, " +
            std::to_string(table_.duplicates()) + " duplicate, " +
            std::to_string(table_.conflicts()) + " conflicting completions";
    return line;
}

} // namespace dynamo::dist
