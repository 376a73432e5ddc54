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

std::uint64_t result_hash(const PointResult& result) {
    util::Fnv1a h;
    h.field(std::to_string(result.exit_code));
    for (const auto& [key, value] : result.metrics) {  // std::map: sorted
        h.field(key);
        h.field(value);
    }
    h.field(result.report);
    return h.value();
}

std::string render_lease_request(const LeaseRequest& request) {
    JsonObject body;
    body.emplace_back("worker", Json(request.worker));
    body.emplace_back("capacity", Json(static_cast<std::uint64_t>(request.capacity)));
    return Json(std::move(body)).dump(0);
}

LeaseRequest parse_lease_request(const std::string& text) {
    const Json body = parse_object(text, "lease request");
    LeaseRequest request;
    request.worker = get_string(body, "worker", "lease request");
    request.capacity =
        static_cast<std::size_t>(get_uint(body, "capacity", "lease request"));
    if (request.capacity == 0) bad("lease request.capacity must be at least 1");
    return request;
}

std::string render_lease_grant(const LeaseGrant& grant) {
    JsonObject body;
    body.emplace_back("done", Json(grant.done));
    body.emplace_back("wait", Json(grant.wait));
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
    grant.wait = get_bool_or(body, "wait", false, "lease grant");
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

std::string render_heartbeat_request(const HeartbeatRequest& request) {
    JsonObject body;
    body.emplace_back("worker", Json(request.worker));
    body.emplace_back("lease_id", Json(request.lease_id));
    return Json(std::move(body)).dump(0);
}

HeartbeatRequest parse_heartbeat_request(const std::string& text) {
    const Json body = parse_object(text, "heartbeat");
    HeartbeatRequest request;
    request.worker = get_string(body, "worker", "heartbeat");
    request.lease_id = get_uint(body, "lease_id", "heartbeat");
    return request;
}

std::string render_complete_request(const CompleteRequest& request) {
    JsonObject body;
    body.emplace_back("worker", Json(request.worker));
    body.emplace_back("lease_id", Json(request.lease_id));
    body.emplace_back("fingerprint", Json(request.fingerprint));
    JsonArray results;
    results.reserve(request.results.size());
    for (const PointResult& result : request.results) {
        JsonObject record;
        record.emplace_back("index", Json(static_cast<std::uint64_t>(result.index)));
        record.emplace_back("exit_code", Json(static_cast<std::int64_t>(result.exit_code)));
        JsonObject metrics;
        metrics.reserve(result.metrics.size());
        for (const auto& [key, value] : result.metrics) metrics.emplace_back(key, Json(value));
        record.emplace_back("metrics", Json(std::move(metrics)));
        record.emplace_back("report", Json(result.report));
        results.emplace_back(Json(std::move(record)));
    }
    body.emplace_back("results", Json(std::move(results)));
    return Json(std::move(body)).dump(0);
}

CompleteRequest parse_complete_request(const std::string& text) {
    const Json body = parse_object(text, "completion");
    CompleteRequest request;
    request.worker = get_string(body, "worker", "completion");
    request.lease_id = get_uint(body, "lease_id", "completion");
    request.fingerprint = get_string(body, "fingerprint", "completion");
    const Json& results = member(body, "results", "completion");
    if (!results.is_array()) bad("completion.results must be an array");
    request.results.reserve(results.as_array().size());
    for (const Json& record : results.as_array()) {
        if (!record.is_object()) bad("completion.results entries must be objects");
        PointResult result;
        result.index = static_cast<std::size_t>(get_uint(record, "index", "result"));
        const Json& exit_code = member(record, "exit_code", "result");
        if (!exit_code.is_number()) bad("result.exit_code must be a number");
        const std::optional<int> code = exit_code.to_int();
        if (!code) bad("result.exit_code does not fit an int: " + exit_code.number_lexeme());
        result.exit_code = *code;
        const Json& metrics = member(record, "metrics", "result");
        if (!metrics.is_object()) bad("result.metrics must be an object");
        for (const auto& [key, value] : metrics.as_object()) {
            if (!value.is_string()) bad("result.metrics values must be strings");
            result.metrics[key] = value.as_string();
        }
        result.report = get_string(record, "report", "result");
        request.results.push_back(std::move(result));
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
