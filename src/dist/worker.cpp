// dynamo/dist/worker.cpp
//
// See worker.hpp for the fault model this implements.
#include "dist/worker.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "dist/protocol.hpp"
#include "scenario/campaign.hpp"
#include "scenario/manifest.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace dynamo::dist {

namespace {

using util::Json;

constexpr std::uint64_t kPollMs = 200;         ///< sleep between "wait" polls
constexpr std::uint64_t kBackoffBaseMs = 50;   ///< retry 0's nominal delay
constexpr std::uint64_t kBackoffCapMs = 2000;  ///< nominal delays saturate here
constexpr unsigned kMaxRetries = 8;            ///< retries before a request gives up

void default_sleep(std::uint64_t ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

} // namespace

std::uint64_t backoff_delay_ms(std::uint64_t seed, unsigned attempt) {
    std::uint64_t raw = kBackoffBaseMs;
    for (unsigned k = 0; k < attempt && raw < kBackoffCapMs; ++k) raw *= 2;
    raw = std::min(raw, kBackoffCapMs);
    SplitMix64 rng(seed ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(attempt) + 1)));
    const std::uint64_t half = raw / 2;
    return half + rng.next() % (raw - half + 1);  // uniform in [raw/2, raw]
}

std::uint64_t backoff_seed(const std::string& name) {
    std::uint64_t seed = 0;
    for (const unsigned char c : name) seed = seed * 0x100000001b3ULL ^ c;
    return seed;
}

const char* to_string(WorkerExit exit) noexcept {
    switch (exit) {
        case WorkerExit::CampaignComplete: return "campaign complete";
        case WorkerExit::CoordinatorShutdown: return "coordinator shut down";
        case WorkerExit::Unreachable: return "coordinator unreachable";
        case WorkerExit::CampaignMismatch: return "campaign fingerprint mismatch";
        case WorkerExit::ProtocolError: return "protocol error";
    }
    return "unknown";
}

WorkerLoop::WorkerLoop(Transport transport, WorkerOptions options, Sleeper sleeper)
    : transport_(std::move(transport)),
      options_(std::move(options)),
      sleeper_(sleeper ? std::move(sleeper) : Sleeper(default_sleep)) {}

std::optional<HttpClientResponse> WorkerLoop::request(const std::string& method,
                                                      const std::string& target,
                                                      const std::string& body) {
    for (unsigned attempt = 0;; ++attempt) {
        std::optional<HttpClientResponse> response = transport_(method, target, body);
        if (response.has_value()) {
            had_contact_ = true;
            return response;
        }
        if (attempt >= kMaxRetries) return std::nullopt;
        ++retries_;
        sleeper_(backoff_delay_ms(backoff_seed(options_.name), attempt));
    }
}

WorkerExit WorkerLoop::run() {
    const auto log = [this](const std::string& line) {
        if (options_.log != nullptr)
            *options_.log << "[" << options_.name << "] " << line << "\n" << std::flush;
    };
    const auto lost = [this]() {
        // Retries exhausted: a coordinator we once talked to has shut
        // down (normal end of campaign — exit cleanly); one we never
        // reached is a configuration error.
        return had_contact_ ? WorkerExit::CoordinatorShutdown : WorkerExit::Unreachable;
    };

    // Fetch + expand the campaign once. The coordinator serves its
    // manifest VERBATIM, so this expansion is bit-for-bit the
    // coordinator's: same parameters, same injected substream seeds.
    std::string fingerprint;
    const scenario::Scenario* scenario = nullptr;
    std::vector<scenario::PointSpec> specs;
    {
        const std::optional<HttpClientResponse> response = request("GET", "/manifest", "");
        if (!response.has_value()) return lost();
        if (response->status != 200) {
            log("GET /manifest answered " + std::to_string(response->status));
            return WorkerExit::ProtocolError;
        }
        try {
            const Json envelope = Json::parse(response->body, "manifest envelope");
            const Json* fp = envelope.find("fingerprint");
            const Json* text = envelope.find("manifest");
            if (fp == nullptr || !fp->is_string() || text == nullptr || !text->is_string())
                throw std::invalid_argument("manifest envelope is missing fields");
            fingerprint = fp->as_string();
            const scenario::Manifest manifest =
                scenario::parse_manifest(text->as_string(), "coordinator manifest");
            scenario = scenario::find(manifest.scenario);
            if (scenario == nullptr)
                throw std::invalid_argument("scenario not registered in this worker: " +
                                            manifest.scenario);
            specs = scenario::expand(manifest);
        } catch (const std::exception& e) {
            log(std::string("bad manifest envelope: ") + e.what());
            return WorkerExit::ProtocolError;
        }
        log("joined campaign " + fingerprint + " (" + std::to_string(specs.size()) +
            " points)");
    }

    const std::string lease_body =
        render_lease_request(options_.pool != nullptr ? options_.pool->size() : 1);
    for (;;) {
        const std::optional<HttpClientResponse> response =
            request("POST", "/lease", lease_body);
        if (!response.has_value()) return lost();
        if (response->status != 200) {
            log("POST /lease answered " + std::to_string(response->status));
            return WorkerExit::ProtocolError;
        }
        LeaseGrant grant;
        try {
            grant = parse_lease_grant(response->body);
        } catch (const std::exception& e) {
            log(std::string("bad lease grant: ") + e.what());
            return WorkerExit::ProtocolError;
        }
        if (grant.done) {
            log("campaign complete after " + std::to_string(points_computed_) + " points");
            return WorkerExit::CampaignComplete;
        }
        if (grant.indices.empty()) {
            sleeper_(kPollMs);
            continue;
        }
        for (const std::size_t index : grant.indices) {
            if (index >= specs.size()) {
                log("lease grants index " + std::to_string(index) + " beyond expansion");
                return WorkerExit::ProtocolError;
            }
        }

        // Renew the lease from a background thread while the batch
        // computes; failures are ignored by design (see worker.hpp).
        std::mutex hb_mutex;
        std::condition_variable hb_cv;
        bool hb_stop = false;
        std::thread hb_thread;
        if (grant.ttl_ms > 0) {
            const std::string hb_body = render_heartbeat_request(grant.lease_id);
            const std::uint64_t interval = std::max<std::uint64_t>(1, grant.ttl_ms / 3);
            hb_thread = std::thread([this, &hb_mutex, &hb_cv, &hb_stop, hb_body, interval] {
                std::unique_lock<std::mutex> lock(hb_mutex);
                for (;;) {
                    if (hb_cv.wait_for(lock, std::chrono::milliseconds(interval),
                                       [&hb_stop] { return hb_stop; }))
                        return;
                    lock.unlock();
                    transport_("POST", "/heartbeat", hb_body);
                    lock.lock();
                }
            });
        }

        CompleteRequest completion;
        completion.fingerprint = fingerprint;
        completion.results.resize(grant.indices.size());
        parallel_for_blocks(options_.pool, grant.indices.size(), 1,
                            [&](std::size_t lo, std::size_t hi) {
                                for (std::size_t j = lo; j < hi; ++j) {
                                    const std::size_t index = grant.indices[j];
                                    completion.results[j] = {
                                        index, scenario::compute_campaign_point(
                                                   *scenario, specs[index])};
                                }
                            });

        if (hb_thread.joinable()) {
            {
                const std::lock_guard<std::mutex> lock(hb_mutex);
                hb_stop = true;
            }
            hb_cv.notify_all();
            hb_thread.join();
        }

        const std::optional<HttpClientResponse> reply =
            request("POST", "/complete", render_complete_request(completion));
        if (!reply.has_value()) return lost();
        if (reply->status == 409) {
            log("coordinator is running a different campaign; giving up");
            return WorkerExit::CampaignMismatch;
        }
        if (reply->status != 200) {
            log("POST /complete answered " + std::to_string(reply->status));
            return WorkerExit::ProtocolError;
        }
        try {
            const CompleteReply counts = parse_complete_reply(reply->body);
            points_computed_ += grant.indices.size();
            ++leases_completed_;
            log("lease " + std::to_string(grant.lease_id) + ": " +
                std::to_string(counts.accepted) + " accepted, " +
                std::to_string(counts.duplicates) + " duplicate, " +
                std::to_string(counts.conflicts) + " conflicting");
        } catch (const std::exception& e) {
            log(std::string("bad completion reply: ") + e.what());
            return WorkerExit::ProtocolError;
        }
    }
}

} // namespace dynamo::dist
