// dynamo/dist/protocol.cpp
//
// JSON codecs for the campaign-fabric wire protocol (see protocol.hpp
// for the endpoint table and the idempotence rule result_hash backs).
#include "dist/protocol.hpp"

#include <stdexcept>

#include "util/hash.hpp"
#include "util/json.hpp"

namespace dynamo::dist {

namespace {

using util::Json;
using util::JsonArray;
using util::JsonObject;

[[noreturn]] void bad(const std::string& what) {
    throw std::invalid_argument("dist protocol: " + what);
}

const Json& member(const Json& object, const char* key, const char* where) {
    const Json* value = object.find(key);
    if (value == nullptr) bad(std::string(where) + " is missing \"" + key + "\"");
    return *value;
}

std::string get_string(const Json& object, const char* key, const char* where) {
    const Json& value = member(object, key, where);
    if (!value.is_string()) bad(std::string(where) + "." + key + " must be a string");
    return value.as_string();
}

std::uint64_t get_uint(const Json& object, const char* key, const char* where) {
    const Json& value = member(object, key, where);
    if (!value.is_number()) bad(std::string(where) + "." + key + " must be a number");
    const std::int64_t i = value.as_int();
    if (i < 0) bad(std::string(where) + "." + key + " must be non-negative");
    return static_cast<std::uint64_t>(i);
}

bool get_bool_or(const Json& object, const char* key, bool fallback, const char* where) {
    const Json* value = object.find(key);
    if (value == nullptr) return fallback;
    if (!value->is_bool()) bad(std::string(where) + "." + key + " must be a boolean");
    return value->as_bool();
}

Json parse_object(const std::string& text, const char* where) {
    Json document = Json::parse(text, where);
    if (!document.is_object()) bad(std::string(where) + " must be a JSON object");
    return document;
}

} // namespace

std::uint64_t result_hash(const scenario::CachedResult& result) {
    util::Fnv1a h;
    h.field(std::to_string(result.exit_code));
    for (const auto& [key, value] : result.metrics) {  // std::map: sorted
        h.field(key);
        h.field(value);
    }
    h.field(result.report);
    return h.value();
}

std::string render_lease_request(std::size_t capacity) {
    JsonObject body;
    body.emplace_back("capacity", Json(static_cast<std::uint64_t>(capacity)));
    return Json(std::move(body)).dump(0);
}

std::size_t parse_lease_request(const std::string& text) {
    const std::uint64_t capacity =
        get_uint(parse_object(text, "lease request"), "capacity", "lease request");
    if (capacity == 0) bad("lease request.capacity must be at least 1");
    return static_cast<std::size_t>(capacity);
}

std::string render_lease_grant(const LeaseGrant& grant) {
    JsonObject body;
    body.emplace_back("done", Json(grant.done));
    body.emplace_back("lease_id", Json(grant.lease_id));
    JsonArray indices;
    indices.reserve(grant.indices.size());
    for (const std::size_t index : grant.indices)
        indices.emplace_back(Json(static_cast<std::uint64_t>(index)));
    body.emplace_back("indices", Json(std::move(indices)));
    body.emplace_back("ttl_ms", Json(grant.ttl_ms));
    return Json(std::move(body)).dump(0);
}

LeaseGrant parse_lease_grant(const std::string& text) {
    const Json body = parse_object(text, "lease grant");
    LeaseGrant grant;
    grant.done = get_bool_or(body, "done", false, "lease grant");
    grant.lease_id = get_uint(body, "lease_id", "lease grant");
    grant.ttl_ms = get_uint(body, "ttl_ms", "lease grant");
    const Json& indices = member(body, "indices", "lease grant");
    if (!indices.is_array()) bad("lease grant.indices must be an array");
    grant.indices.reserve(indices.as_array().size());
    for (const Json& index : indices.as_array()) {
        if (!index.is_number() || index.as_int() < 0)
            bad("lease grant.indices entries must be non-negative numbers");
        grant.indices.push_back(static_cast<std::size_t>(index.as_int()));
    }
    return grant;
}

std::string render_heartbeat_request(std::uint64_t lease_id) {
    JsonObject body;
    body.emplace_back("lease_id", Json(lease_id));
    return Json(std::move(body)).dump(0);
}

std::uint64_t parse_heartbeat_request(const std::string& text) {
    return get_uint(parse_object(text, "heartbeat"), "lease_id", "heartbeat");
}

std::string render_complete_request(const CompleteRequest& request) {
    JsonObject body;
    body.emplace_back("fingerprint", Json(request.fingerprint));
    JsonArray results;
    results.reserve(request.results.size());
    for (const PointResult& point : request.results) {
        JsonObject record;
        record.emplace_back("index", Json(static_cast<std::uint64_t>(point.index)));
        scenario::write_result(record, point.result);
        results.emplace_back(Json(std::move(record)));
    }
    body.emplace_back("results", Json(std::move(results)));
    return Json(std::move(body)).dump(0);
}

CompleteRequest parse_complete_request(const std::string& text) {
    const Json body = parse_object(text, "completion");
    CompleteRequest request;
    request.fingerprint = get_string(body, "fingerprint", "completion");
    const Json& results = member(body, "results", "completion");
    if (!results.is_array()) bad("completion.results must be an array");
    request.results.reserve(results.as_array().size());
    for (const Json& record : results.as_array()) {
        if (!record.is_object()) bad("completion.results entries must be objects");
        request.results.push_back({static_cast<std::size_t>(get_uint(record, "index", "result")),
                                   scenario::read_result(record, "dist protocol: result")});
    }
    return request;
}

std::string render_complete_reply(const CompleteReply& reply) {
    JsonObject body;
    body.emplace_back("accepted", Json(static_cast<std::uint64_t>(reply.accepted)));
    body.emplace_back("duplicates", Json(static_cast<std::uint64_t>(reply.duplicates)));
    body.emplace_back("conflicts", Json(static_cast<std::uint64_t>(reply.conflicts)));
    return Json(std::move(body)).dump(0);
}

CompleteReply parse_complete_reply(const std::string& text) {
    const Json body = parse_object(text, "completion reply");
    CompleteReply reply;
    reply.accepted = static_cast<std::size_t>(get_uint(body, "accepted", "completion reply"));
    reply.duplicates =
        static_cast<std::size_t>(get_uint(body, "duplicates", "completion reply"));
    reply.conflicts =
        static_cast<std::size_t>(get_uint(body, "conflicts", "completion reply"));
    return reply;
}

} // namespace dynamo::dist
