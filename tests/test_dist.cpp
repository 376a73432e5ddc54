// Tests for the fault-tolerant distributed campaign fabric (src/dist/):
//   * backoff — the worker's fixed retry schedule: exponential growth,
//     cap saturation, jitter bounds, and per-name determinism, all
//     without sleeping;
//   * protocol — codec round-trips for every message, loud rejection of
//     malformed bodies, and result_hash as the duplicate-vs-conflict
//     discriminator;
//   * lease table — the clockless scheduling core under fake timelines:
//     TTL expiry + requeue, heartbeat renewal, the crashed-worker races
//     (first valid result wins; matching duplicates are benign;
//     mismatching duplicates are conflicts);
//   * coordinator — socketless handle() routing of the whole endpoint
//     surface with an injected clock, the placement-independence
//     invariant (distributed artifact byte-identical to run_campaign),
//     and kill-and-resume through the shared cache alone, in both
//     directions between `dynamo coordinate` and `dynamo campaign`;
//   * worker — every terminal state of the loop via scripted transports
//     and recorded sleepers (retry counting, shutdown-vs-unreachable,
//     fingerprint mismatch, immediate done);
//   * one real loopback end-to-end: HttpServer + coordinator + two
//     WorkerLoop threads, artifact still byte-identical.
//
// The probe scenario registered here exists only in this binary (the
// registry is process-local and register_scenario is public), so the
// committed catalog in docs/scenarios.md is unaffected.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "dist/coordinator.hpp"
#include "dist/http_client.hpp"
#include "dist/lease_table.hpp"
#include "dist/protocol.hpp"
#include "dist/worker.hpp"
#include "scenario/campaign.hpp"
#include "scenario/manifest.hpp"
#include "scenario/scenario.hpp"
#include "service/http.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"

namespace dynamo {
namespace {

namespace fs = std::filesystem;
using namespace dist;
using scenario::CampaignOptions;
using scenario::Manifest;
using scenario::parse_manifest;
using scenario::PointSpec;
using scenario::run_campaign;
using service::HttpRequest;
using service::HttpResponse;
using service::HttpServer;

/// Fresh per-test scratch directory under the system temp dir.
class ScratchDir {
  public:
    explicit ScratchDir(const std::string& tag)
        : path_((fs::temp_directory_path() /
                 ("dynamo_dist_" + tag + "_" +
                  std::to_string(::testing::UnitTest::GetInstance()->random_seed())))
                    .string()) {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~ScratchDir() { fs::remove_all(path_); }
    const std::string& path() const noexcept { return path_; }

  private:
    std::string path_;
};

/// Test-only probe point: echoes --value and the injected --seed into
/// its metrics, fails (exit 1) when --fail_value matches — cheap,
/// deterministic material for lease/completion plumbing.
int dist_probe_fn(scenario::Context& ctx) {
    const std::int64_t value = ctx.args.get_int("value", 1);
    ctx.metrics["value"] = std::to_string(value);
    ctx.metrics["seed"] = std::to_string(ctx.args.get_uint64("seed", 0));
    if (value == ctx.args.get_int("fail_value", -1)) {
        ctx.out << "probe: induced failure for value " << value << "\n";
        return 1;
    }
    ctx.out << "probe: value " << value << "\n";
    return 0;
}

[[maybe_unused]] const bool kProbeRegistered = scenario::register_scenario(
    {"dist_probe",
     "point",
     "test-only probe point for distributed-fabric tests",
     0,
     {{"value", scenario::ParamType::Int, "1", "", "echoed into metrics"},
      {"seed", scenario::ParamType::Uint, "0", "", "RNG substream slot (echoed)"},
      {"fail_value", scenario::ParamType::Int, "-1", "", "fail iff value matches"}},
     dist_probe_fn});

constexpr const char* kManifestText =
    R"({"name": "dist-probe", "scenario": "dist_probe",)"
    R"( "grid": {"value": [1, 2, 3, 4, 5, 6]}, "seed": 17})";

Manifest probe_manifest() { return parse_manifest(kManifestText, "test-manifest"); }

/// The worker-side computation for one granted index, via the same
/// primitive the real worker uses.
PointResult compute_result(const std::vector<PointSpec>& specs, std::size_t index) {
    const scenario::Scenario* s = scenario::find("dist_probe");
    return {index, scenario::compute_campaign_point(*s, specs[index])};
}

HttpRequest make_request(const std::string& method, const std::string& target,
                         const std::string& body = "") {
    HttpRequest request;
    request.method = method;
    request.target = target;
    request.body = body;
    return request;
}

/// `body` with a top-level "ttl_ms" set to 0.
std::string without_ttl(const std::string& body) {
    util::JsonObject fields = util::Json::parse(body, "coordinator reply").as_object();
    for (auto& [key, value] : fields) {
        if (key == "ttl_ms") value = util::Json(std::uint64_t{0});
    }
    return util::Json(std::move(fields)).dump();
}

/// A worker transport straight into `coordinator.handle` at the injected
/// clock. The grants it passes on carry ttl_ms 0, so a worker on it sends
/// no heartbeats and the coordinator is called from the worker's thread
/// only.
WorkerLoop::Transport coordinator_transport(CampaignCoordinator& coordinator,
                                            std::uint64_t* now_ms) {
    return [&coordinator, now_ms](const std::string& method, const std::string& target,
                                  const std::string& body)
               -> std::optional<HttpClientResponse> {
        const HttpResponse response =
            coordinator.handle(make_request(method, target, body), *now_ms);
        if (response.status == 200 && target == "/lease") {
            return HttpClientResponse{response.status, without_ttl(response.body)};
        }
        return HttpClientResponse{response.status, response.body};
    };
}

std::uint64_t steady_now_ms() {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                          std::chrono::steady_clock::now().time_since_epoch())
                                          .count());
}

// ---------------------------------------------------------------------------
// Backoff (the worker's fixed retry schedule: 50 ms doubling to 2000 ms)

TEST(Backoff, ScheduleGrowsWithinJitterBoundsAndSaturates) {
    const std::uint64_t seed = backoff_seed("w1");
    std::uint64_t raw = 50;
    for (unsigned attempt = 0; attempt < 12; ++attempt) {
        const std::uint64_t delay = backoff_delay_ms(seed, attempt);
        EXPECT_GE(delay, raw / 2) << "attempt " << attempt;
        EXPECT_LE(delay, raw) << "attempt " << attempt;
        raw = std::min<std::uint64_t>(raw * 2, 2000);
    }
    // Far past the doubling range the raw delay sits AT the cap (never
    // beyond, never overflowed back down).
    const std::uint64_t late = backoff_delay_ms(seed, 63);
    EXPECT_GE(late, 1000u);
    EXPECT_LE(late, 2000u);
}

TEST(Backoff, DeterministicPerSeedAndDecorrelatedAcrossWorkerNames) {
    const std::uint64_t a = backoff_seed("w1");
    const std::uint64_t b = backoff_seed("w2");
    EXPECT_EQ(a, backoff_seed("w1"));
    EXPECT_NE(a, b);
    bool any_differ = false;
    for (unsigned attempt = 0; attempt < 10; ++attempt) {
        // Pure function of (seed, attempt): re-evaluation is identical.
        EXPECT_EQ(backoff_delay_ms(a, attempt), backoff_delay_ms(a, attempt));
        any_differ = any_differ || backoff_delay_ms(a, attempt) != backoff_delay_ms(b, attempt);
    }
    EXPECT_TRUE(any_differ) << "two worker names produced identical schedules";
}

// ---------------------------------------------------------------------------
// Protocol

TEST(Protocol, EveryMessageRoundTrips) {
    EXPECT_EQ(render_lease_request(8), R"({"capacity":8})");
    EXPECT_EQ(parse_lease_request(render_lease_request(8)), 8u);

    LeaseGrant grant;
    grant.lease_id = 42;
    grant.indices = {3, 1, 4};
    grant.ttl_ms = 1500;
    const LeaseGrant g = parse_lease_grant(render_lease_grant(grant));
    EXPECT_FALSE(g.done);
    EXPECT_EQ(g.lease_id, 42u);
    EXPECT_EQ(g.indices, (std::vector<std::size_t>{3, 1, 4}));
    EXPECT_EQ(g.ttl_ms, 1500u);

    LeaseGrant done;
    done.done = true;
    EXPECT_TRUE(parse_lease_grant(render_lease_grant(done)).done);

    EXPECT_EQ(render_heartbeat_request(9), R"({"lease_id":9})");
    EXPECT_EQ(parse_heartbeat_request(render_heartbeat_request(9)), 9u);

    CompleteRequest completion;
    completion.fingerprint = util::hex16(0xdeadbeefULL);
    PointResult point;
    point.index = 11;
    point.result.exit_code = 2;
    point.result.metrics = {{"rounds", "7"}, {"note", "line\nwith \"quotes\""}};
    point.result.report = "multi\nline report\twith tabs";
    completion.results.push_back(point);
    const std::string body = render_complete_request(completion);
    EXPECT_EQ(body.find("worker"), std::string::npos) << body;
    EXPECT_EQ(body.find("lease_id"), std::string::npos) << body;
    const CompleteRequest c = parse_complete_request(body);
    EXPECT_EQ(c.fingerprint, "00000000deadbeef");
    ASSERT_EQ(c.results.size(), 1u);
    EXPECT_EQ(c.results[0].index, 11u);
    EXPECT_EQ(c.results[0].result.exit_code, 2);
    EXPECT_EQ(c.results[0].result.metrics, point.result.metrics);
    EXPECT_EQ(c.results[0].result.report, point.result.report);

    const CompleteReply reply = parse_complete_reply(render_complete_reply({4, 2, 1}));
    EXPECT_EQ(reply.accepted, 4u);
    EXPECT_EQ(reply.duplicates, 2u);
    EXPECT_EQ(reply.conflicts, 1u);
}

TEST(Protocol, MalformedBodiesThrowActionably) {
    EXPECT_THROW(parse_lease_request("{"), std::invalid_argument);
    // A lease request is its capacity: without one, or with 0, it is refused.
    EXPECT_THROW(parse_lease_request(R"({"worker": "w"})"), std::invalid_argument);
    EXPECT_THROW(parse_lease_request(R"({"capacity": 0})"), std::invalid_argument);
    EXPECT_THROW(parse_lease_request(R"({"capacity": -1})"), std::invalid_argument);
    EXPECT_THROW(parse_lease_grant(R"([1, 2])"), std::invalid_argument);
    EXPECT_THROW(parse_lease_grant(R"({"lease_id": 1, "ttl_ms": 5, "indices": [-1]})"),
                 std::invalid_argument);
    EXPECT_THROW(parse_lease_grant(R"({"done": false, "lease_id": 1, "indices": []})"),
                 std::invalid_argument);
    EXPECT_THROW(parse_heartbeat_request(R"({"worker": "w"})"), std::invalid_argument);
    EXPECT_THROW(parse_heartbeat_request("9"), std::invalid_argument);
    EXPECT_THROW(parse_complete_request(R"({"results": []})"), std::invalid_argument);
    EXPECT_THROW(parse_complete_request(R"({"fingerprint": "f"})"), std::invalid_argument);
    EXPECT_THROW(parse_complete_request(R"({"fingerprint": "f", "results": [)"
                                        R"({"index": 0, "metrics": {}, "report": ""}]})"),
                 std::invalid_argument);
    EXPECT_THROW(parse_complete_request(R"({"fingerprint": "f", "results": [)"
                                        R"({"index": 0, "exit_code": 0, "metrics": {"k": 1},)"
                                        R"( "report": ""}]})"),
                 std::invalid_argument);
    EXPECT_THROW(parse_complete_reply(R"({"accepted": 1})"), std::invalid_argument);
}

TEST(Protocol, ExitCodesThatDoNotFitIntAreRejected) {
    // 2^32 used to decode as exit code 0, settling a failed point as a
    // success; fractional codes are not codes at all.
    const auto completion = [](const std::string& exit_code) {
        return R"({"fingerprint": "f", "results": [)"
               R"({"index": 0, "exit_code": )" +
               exit_code + R"(, "metrics": {}, "report": ""}]})";
    };
    EXPECT_EQ(parse_complete_request(completion("-2147483648")).results[0].result.exit_code,
              std::numeric_limits<int>::min());
    for (const char* bad : {"4294967296", "2147483648", "-2147483649", "0.5"}) {
        EXPECT_THROW(parse_complete_request(completion(bad)), std::invalid_argument) << bad;
    }
}

TEST(Protocol, ResultHashDiscriminatesPayloads) {
    scenario::CachedResult a;
    a.exit_code = 0;
    a.metrics = {{"k", "1"}};
    a.report = "report";
    scenario::CachedResult same = a;
    EXPECT_EQ(result_hash(a), result_hash(same));

    scenario::CachedResult exit_differs = a;
    exit_differs.exit_code = 1;
    scenario::CachedResult metric_differs = a;
    metric_differs.metrics["k"] = "2";
    scenario::CachedResult report_differs = a;
    report_differs.report = "other";
    EXPECT_NE(result_hash(a), result_hash(exit_differs));
    EXPECT_NE(result_hash(a), result_hash(metric_differs));
    EXPECT_NE(result_hash(a), result_hash(report_differs));

    // The separator keeps (key, value) boundaries unambiguous.
    scenario::CachedResult ab;
    ab.metrics = {{"ab", "c"}};
    scenario::CachedResult a_bc;
    a_bc.metrics = {{"a", "bc"}};
    EXPECT_NE(result_hash(ab), result_hash(a_bc));
}

// ---------------------------------------------------------------------------
// Lease table

TEST(LeaseTable, AGrantIsMinOfCapacityAndQueued) {
    LeaseTable table({0, 1, 2, 3, 4, 5}, 10000);

    // Capacity below the queue: capacity indices, in queue order.
    const LeaseTable::Grant first = table.acquire(3, 0);
    EXPECT_EQ(first.indices, (std::vector<std::size_t>{0, 1, 2}));
    EXPECT_NE(first.lease_id, 0u);
    EXPECT_EQ(table.acquire(1, 0).indices, (std::vector<std::size_t>{3}));

    // Capacity above the queue: whatever is queued.
    EXPECT_EQ(table.acquire(10, 0).indices, (std::vector<std::size_t>{4, 5}));

    // Everything is out on live leases: empty grant, not settled.
    EXPECT_TRUE(table.acquire(4, 0).indices.empty());
    EXPECT_FALSE(table.all_settled());
    EXPECT_EQ(table.queued(), 0u);
    EXPECT_EQ(table.leased(), 6u);
    EXPECT_EQ(table.leases_granted(), 3u);
}

TEST(LeaseTable, CachedPointsAreBornSettled) {
    LeaseTable table({1}, 10000, {{0, 0xaULL}, {2, 0xcULL}});
    EXPECT_EQ(table.total(), 3u);
    EXPECT_EQ(table.settled(), 2u);
    EXPECT_EQ(table.acquire(4, 0).indices, (std::vector<std::size_t>{1}));
    EXPECT_EQ(table.complete(0, 0xaULL, 0), LeaseTable::Completion::Duplicate);
    EXPECT_EQ(table.complete(2, 0xbULL, 0), LeaseTable::Completion::Conflict);
    EXPECT_EQ(table.complete(1, 0xbULL, 0), LeaseTable::Completion::Accepted);
    EXPECT_TRUE(table.all_settled());
    EXPECT_TRUE(LeaseTable({}, 10000, {{0, 0xaULL}}).all_settled());
}

TEST(LeaseTable, ExpiryRequeuesUnfinishedWork) {
    LeaseTable table({0, 1}, 100);

    const LeaseTable::Grant first = table.acquire(2, 1000);
    ASSERT_EQ(first.indices.size(), 2u);

    // Before the deadline the lease holds its work hostage...
    EXPECT_TRUE(table.acquire(2, 1099).indices.empty());
    EXPECT_TRUE(table.heartbeat(first.lease_id, 1099));

    // The heartbeat moved the deadline to 1099 + 100; past it, the next
    // acquire sweeps the lease and re-grants the same indices.
    const LeaseTable::Grant second = table.acquire(2, 1199);
    EXPECT_EQ(second.indices, first.indices);
    EXPECT_NE(second.lease_id, first.lease_id);
    EXPECT_EQ(table.leases_expired(), 1u);

    // The dead lease no longer heartbeats.
    EXPECT_FALSE(table.heartbeat(first.lease_id, 1200));
    EXPECT_FALSE(table.heartbeat(999999, 1200));  // never-issued id
}

TEST(LeaseTable, CrashedWorkerRaceIsFirstValidWins) {
    LeaseTable table({7}, 50);

    // w1 takes index 7, stalls past its TTL; the index is re-granted.
    const LeaseTable::Grant w1 = table.acquire(1, 0);
    const LeaseTable::Grant w2 = table.acquire(1, 100);
    ASSERT_EQ(w1.indices, w2.indices);

    // The replacement finishes first: accepted. w1's late completion of
    // the same (deterministic) payload is a benign duplicate.
    EXPECT_EQ(table.complete(7, 0xabcULL, 110), LeaseTable::Completion::Accepted);
    EXPECT_TRUE(table.all_settled());
    EXPECT_EQ(table.complete(7, 0xabcULL, 120), LeaseTable::Completion::Duplicate);
    EXPECT_EQ(table.duplicates(), 1u);

    // A DIFFERENT payload for a settled index is a determinism breach.
    EXPECT_EQ(table.complete(7, 0xdefULL, 130), LeaseTable::Completion::Conflict);
    EXPECT_EQ(table.conflicts(), 1u);

    // An index the campaign never owned.
    EXPECT_EQ(table.complete(99, 0x1ULL, 140), LeaseTable::Completion::Unknown);
}

TEST(LeaseTable, SlowWorkerBeatenByTtlStillLandsFirst) {
    LeaseTable table({3}, 50);

    const LeaseTable::Grant w1 = table.acquire(1, 0);
    ASSERT_EQ(w1.indices, (std::vector<std::size_t>{3}));
    // TTL passes, the index is re-granted to w2 — but w1 finishes before
    // w2 does. Its work is valid (pure function of the index): accepted.
    const LeaseTable::Grant w2 = table.acquire(1, 60);
    ASSERT_EQ(w2.indices, (std::vector<std::size_t>{3}));
    EXPECT_EQ(table.complete(3, 0x11ULL, 70), LeaseTable::Completion::Accepted);
    // w2's eventual identical result: duplicate, not conflict.
    EXPECT_EQ(table.complete(3, 0x11ULL, 80), LeaseTable::Completion::Duplicate);
    EXPECT_TRUE(table.all_settled());
}

TEST(LeaseTable, DrainsToAllSettled) {
    LeaseTable table({0, 1, 2}, 10000);

    for (;;) {
        const LeaseTable::Grant grant = table.acquire(2, 0);
        if (grant.indices.empty()) break;
        for (const std::size_t index : grant.indices)
            EXPECT_EQ(table.complete(index, 0x5eedULL + index, 0),
                      LeaseTable::Completion::Accepted);
    }
    EXPECT_TRUE(table.all_settled());
    EXPECT_EQ(table.settled(), 3u);
    EXPECT_EQ(table.queued(), 0u);
    EXPECT_EQ(table.leased(), 0u);
    // An empty table (everything cached up front) is born settled.
    EXPECT_TRUE(LeaseTable({}, 10000).all_settled());
}

// ---------------------------------------------------------------------------
// Coordinator (socketless, injected clock)

CoordinatorOptions coordinator_options(const ScratchDir& scratch) {
    CoordinatorOptions options;
    options.cache_dir = scratch.path() + "/cache";
    options.lease_ttl_ms = 1000;
    return options;
}

/// Drive one worker through lease -> compute -> complete (4 points a
/// lease) until the coordinator reports done.
void drain(CampaignCoordinator& coordinator, const std::vector<PointSpec>& specs,
           std::uint64_t now_ms) {
    for (;;) {
        const HttpResponse response = coordinator.handle(
            make_request("POST", "/lease", render_lease_request(4)), now_ms);
        EXPECT_EQ(response.status, 200);
        const LeaseGrant grant = parse_lease_grant(response.body);
        if (grant.done) return;
        ASSERT_FALSE(grant.indices.empty()) << "wait with a single worker means a stall";
        CompleteRequest completion;
        completion.fingerprint = coordinator.fingerprint_hex();
        for (const std::size_t index : grant.indices)
            completion.results.push_back(compute_result(specs, index));
        const HttpResponse reply = coordinator.handle(
            make_request("POST", "/complete", render_complete_request(completion)), now_ms);
        EXPECT_EQ(reply.status, 200);
        EXPECT_EQ(parse_complete_reply(reply.body).accepted, grant.indices.size());
    }
}

TEST(Coordinator, ServesManifestVerbatimAndStatus) {
    const ScratchDir scratch("manifest");
    CampaignCoordinator coordinator(probe_manifest(), kManifestText,
                                    coordinator_options(scratch));

    const HttpResponse health = coordinator.handle(make_request("GET", "/healthz"), 0);
    EXPECT_EQ(health.status, 200);
    EXPECT_NE(health.body.find("coordinator"), std::string::npos);

    const HttpResponse manifest = coordinator.handle(make_request("GET", "/manifest"), 0);
    EXPECT_EQ(manifest.status, 200);
    const util::Json envelope = util::Json::parse(manifest.body, "envelope");
    EXPECT_EQ(envelope.find("fingerprint")->as_string(), coordinator.fingerprint_hex());
    EXPECT_EQ(envelope.find("points")->as_int(), 6);
    // VERBATIM text — workers re-expand the coordinator's exact grid.
    EXPECT_EQ(envelope.find("manifest")->as_string(), kManifestText);

    const HttpResponse status = coordinator.handle(make_request("GET", "/status"), 0);
    EXPECT_EQ(status.status, 200);
    const util::Json counters = util::Json::parse(status.body, "status");
    EXPECT_EQ(counters.find("points")->as_int(), 6);
    EXPECT_EQ(counters.find("queued")->as_int(), 6);
    EXPECT_FALSE(counters.find("done")->as_bool());

    EXPECT_EQ(coordinator.handle(make_request("GET", "/nope"), 0).status, 404);
    EXPECT_EQ(coordinator.handle(make_request("POST", "/lease", "{"), 0).status, 400);
}

TEST(Coordinator, DistributedArtifactIsByteIdenticalToLocalRun) {
    const ScratchDir scratch("identical");
    const Manifest manifest = probe_manifest();

    // Reference: a plain local campaign in its own cache.
    CampaignOptions local;
    local.cache_dir = scratch.path() + "/cache-local";
    const std::string local_json = run_campaign(manifest, local).to_json(manifest);

    CampaignCoordinator coordinator(manifest, kManifestText, coordinator_options(scratch));
    const std::vector<PointSpec> specs = scenario::expand(manifest);
    drain(coordinator, specs, 0);

    EXPECT_TRUE(coordinator.complete());
    EXPECT_EQ(coordinator.conflicts(), 0u);
    EXPECT_EQ(coordinator.artifact(), local_json);
    EXPECT_NE(coordinator.summary().find("fabric:"), std::string::npos);
}

TEST(Coordinator, LeaseExpiryRecyclesAndHeartbeatKeepsAlive) {
    const ScratchDir scratch("expiry");
    const CoordinatorOptions options = coordinator_options(scratch);
    CampaignCoordinator coordinator(probe_manifest(), kManifestText, options);

    const HttpResponse granted =
        coordinator.handle(make_request("POST", "/lease", render_lease_request(6)), 0);
    const LeaseGrant first = parse_lease_grant(granted.body);
    ASSERT_EQ(first.indices.size(), 6u);
    EXPECT_EQ(first.ttl_ms, options.lease_ttl_ms);

    // Inside the TTL: nothing to grant, the worker is told to wait; a
    // heartbeat renews the lease.
    const LeaseGrant wait = parse_lease_grant(
        coordinator.handle(make_request("POST", "/lease", render_lease_request(2)), 500).body);
    EXPECT_FALSE(wait.done);
    EXPECT_TRUE(wait.indices.empty());
    EXPECT_EQ(coordinator
                  .handle(make_request("POST", "/heartbeat",
                                       render_heartbeat_request(first.lease_id)),
                          900)
                  .status,
              200);

    // 900 + ttl passes without another heartbeat: the work is recycled.
    const LeaseGrant second = parse_lease_grant(
        coordinator.handle(make_request("POST", "/lease", render_lease_request(6)), 2000).body);
    EXPECT_EQ(second.indices, first.indices);

    // The dead lease's heartbeat is 410 Gone.
    EXPECT_EQ(coordinator
                  .handle(make_request("POST", "/heartbeat",
                                       render_heartbeat_request(first.lease_id)),
                          2001)
                  .status,
              410);
}

TEST(Coordinator, DuplicateAndConflictingCompletions) {
    const ScratchDir scratch("dup");
    CampaignCoordinator coordinator(probe_manifest(), kManifestText,
                                    coordinator_options(scratch));
    const std::vector<PointSpec> specs = scenario::expand(probe_manifest());

    const LeaseGrant grant = parse_lease_grant(
        coordinator.handle(make_request("POST", "/lease", render_lease_request(2)), 0)
            .body);
    ASSERT_EQ(grant.indices.size(), 2u);

    CompleteRequest completion;
    completion.fingerprint = coordinator.fingerprint_hex();
    for (const std::size_t index : grant.indices)
        completion.results.push_back(compute_result(specs, index));

    // Wrong fingerprint first: 409, nothing settles.
    CompleteRequest wrong = completion;
    wrong.fingerprint = util::hex16(0x1234ULL);
    EXPECT_EQ(coordinator
                  .handle(make_request("POST", "/complete", render_complete_request(wrong)), 0)
                  .status,
              409);
    EXPECT_EQ(coordinator.settled_points(), 0u);

    // First valid completion: accepted.
    const CompleteReply accepted = parse_complete_reply(
        coordinator
            .handle(make_request("POST", "/complete", render_complete_request(completion)), 0)
            .body);
    EXPECT_EQ(accepted.accepted, 2u);

    // The crashed-worker replay: same payload, benign duplicates.
    const CompleteReply replay = parse_complete_reply(
        coordinator
            .handle(make_request("POST", "/complete", render_complete_request(completion)), 0)
            .body);
    EXPECT_EQ(replay.accepted, 0u);
    EXPECT_EQ(replay.duplicates, 2u);

    // A tampered payload for a settled index: conflict, tracked for the
    // CLI's loud exit-4.
    CompleteRequest tampered = completion;
    tampered.results.resize(1);
    tampered.results[0].result.metrics["value"] = "corrupted";
    const CompleteReply conflicted = parse_complete_reply(
        coordinator
            .handle(make_request("POST", "/complete", render_complete_request(tampered)), 0)
            .body);
    EXPECT_EQ(conflicted.conflicts, 1u);
    EXPECT_EQ(coordinator.conflicts(), 1u);

    // An index outside the expansion: 400.
    CompleteRequest foreign = completion;
    foreign.results.resize(1);
    foreign.results[0].index = 999;
    EXPECT_EQ(coordinator
                  .handle(make_request("POST", "/complete", render_complete_request(foreign)), 0)
                  .status,
              400);
}

TEST(Coordinator, KilledCoordinatorResumesExactly) {
    const ScratchDir scratch("resume");
    const Manifest manifest = probe_manifest();
    const std::vector<PointSpec> specs = scenario::expand(manifest);

    CampaignOptions local;
    local.cache_dir = scratch.path() + "/cache-local";
    const std::string local_json = run_campaign(manifest, local).to_json(manifest);

    std::string fingerprint;
    {
        // First life: settle exactly one 2-point lease, then "crash"
        // (destruction without rendering).
        CampaignCoordinator coordinator(manifest, kManifestText, coordinator_options(scratch));
        fingerprint = coordinator.fingerprint_hex();
        const LeaseGrant grant = parse_lease_grant(
            coordinator
                .handle(make_request("POST", "/lease", render_lease_request(2)), 0)
                .body);
        ASSERT_EQ(grant.indices.size(), 2u);
        CompleteRequest completion;
        completion.fingerprint = fingerprint;
        for (const std::size_t index : grant.indices)
            completion.results.push_back(compute_result(specs, index));
        coordinator.handle(make_request("POST", "/complete", render_complete_request(completion)),
                           0);
        EXPECT_EQ(coordinator.settled_points(), 2u);
        EXPECT_FALSE(coordinator.complete());
    }
    {
        // Second life: the cache carries the settled points in; only the
        // remaining four are queued; the final artifact is still
        // byte-identical to the local run.
        CampaignCoordinator coordinator(manifest, kManifestText, coordinator_options(scratch));
        EXPECT_EQ(coordinator.fingerprint_hex(), fingerprint);
        EXPECT_EQ(coordinator.settled_points(), 2u);
        drain(coordinator, specs, 0);
        EXPECT_TRUE(coordinator.complete());
        EXPECT_EQ(coordinator.artifact(), local_json);
        EXPECT_EQ(coordinator.outcome().computed, 4u);
        EXPECT_EQ(coordinator.outcome().cached, 2u);
    }
    {
        // Third life: fully warm — born complete, workers are told done
        // immediately, artifact still byte-identical.
        CampaignCoordinator coordinator(manifest, kManifestText, coordinator_options(scratch));
        EXPECT_TRUE(coordinator.complete());
        const LeaseGrant grant = parse_lease_grant(
            coordinator
                .handle(make_request("POST", "/lease", render_lease_request(4)), 0)
                .body);
        EXPECT_TRUE(grant.done);
        EXPECT_EQ(coordinator.artifact(), local_json);
        EXPECT_EQ(coordinator.outcome().computed, 0u);
    }
}

TEST(Coordinator, CompletionResentAfterRestartIsDuplicateOrConflict) {
    // A worker whose /complete reply died with its coordinator resends the
    // completion to the restarted one. Its points are cache hits there,
    // and they settle by the same rules as points settled in this life.
    const ScratchDir scratch("resent");
    const Manifest manifest = probe_manifest();
    const std::vector<PointSpec> specs = scenario::expand(manifest);

    CompleteRequest completion;
    {
        CampaignCoordinator coordinator(manifest, kManifestText, coordinator_options(scratch));
        const LeaseGrant grant = parse_lease_grant(
            coordinator.handle(make_request("POST", "/lease", render_lease_request(5)), 0).body);
        ASSERT_EQ(grant.indices, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
        completion.fingerprint = coordinator.fingerprint_hex();
        for (const std::size_t index : grant.indices)
            completion.results.push_back(compute_result(specs, index));
        EXPECT_EQ(coordinator
                      .handle(make_request("POST", "/complete",
                                           render_complete_request(completion)),
                              0)
                      .status,
                  200);
    }

    CampaignCoordinator coordinator(manifest, kManifestText, coordinator_options(scratch));
    EXPECT_EQ(coordinator.settled_points(), 5u);  // each cache hit counted once
    EXPECT_FALSE(coordinator.complete());
    CompleteRequest resent = completion;
    resent.results.resize(2);
    resent.results[1].result.report = "tampered\n";
    const HttpResponse reply = coordinator.handle(
        make_request("POST", "/complete", render_complete_request(resent)), 0);
    ASSERT_EQ(reply.status, 200) << reply.body;
    const CompleteReply counts = parse_complete_reply(reply.body);
    EXPECT_EQ(counts.accepted, 0u);
    EXPECT_EQ(counts.duplicates, 1u);
    EXPECT_EQ(counts.conflicts, 1u);
    EXPECT_EQ(coordinator.conflicts(), 1u);
    EXPECT_EQ(coordinator.settled_points(), 5u);

    drain(coordinator, specs, 0);
    EXPECT_EQ(coordinator.outcome().computed, 1u);
    EXPECT_EQ(coordinator.outcome().cached, 5u);
    EXPECT_EQ(coordinator.settled_points(), 6u);
}

TEST(Coordinator, FailingPointsAreRetriedOnResume) {
    const ScratchDir scratch("fail");
    const char* text =
        R"({"name": "dist-fail", "scenario": "dist_probe",)"
        R"( "fixed": {"fail_value": 3}, "grid": {"value": [1, 3]}, "seed": 17})";
    const Manifest manifest = parse_manifest(text, "test-manifest");
    const std::vector<PointSpec> specs = scenario::expand(manifest);

    {
        CampaignCoordinator coordinator(manifest, text, coordinator_options(scratch));
        drain(coordinator, specs, 0);
        EXPECT_TRUE(coordinator.complete());
        EXPECT_EQ(coordinator.outcome().failed, 1u);
    }
    {
        // Failures are not cached: the re-run queues exactly the failed
        // point again.
        CampaignCoordinator coordinator(manifest, text, coordinator_options(scratch));
        EXPECT_FALSE(coordinator.complete());
        EXPECT_EQ(coordinator.settled_points(), 1u);
        drain(coordinator, specs, 0);
        EXPECT_EQ(coordinator.outcome().computed, 1u);
    }
}

// ---------------------------------------------------------------------------
// Cross-mode resume: a campaign killed in one execution mode finishes
// under the other from its cache alone, because both are the same
// CampaignLedger. Each first life ends in a real SIGKILL (a forked
// death-test child), so only what was flushed to the cache survives.

/// A progress sink that SIGKILLs the process at its `kill_at`-th line.
/// The ledger writes a point's progress line only after caching it, so
/// the kill lands right after that many settles.
class KillAtLine : public std::streambuf {
  public:
    explicit KillAtLine(int kill_at) : left_(kill_at) {}

  protected:
    int_type overflow(int_type ch) override {
        if (ch == '\n' && --left_ == 0) std::raise(SIGKILL);
        return ch;
    }

  private:
    int left_;
};

std::string clean_local_artifact(const ScratchDir& scratch, const Manifest& manifest) {
    CampaignOptions local;
    local.cache_dir = scratch.path() + "/cache-clean";
    return run_campaign(manifest, local).to_json(manifest);
}

TEST(CrossModeResume, KilledCoordinatorFinishesUnderRunCampaign) {
    const ScratchDir scratch("cross_coord");
    const Manifest manifest = probe_manifest();
    const std::vector<PointSpec> specs = scenario::expand(manifest);
    const std::string expected = clean_local_artifact(scratch, manifest);

    EXPECT_EXIT(
        {
            CampaignCoordinator coordinator(manifest, kManifestText, coordinator_options(scratch));
            const LeaseGrant grant = parse_lease_grant(
                coordinator
                    .handle(make_request("POST", "/lease", render_lease_request(2)), 0)
                    .body);
            CompleteRequest completion;
            completion.fingerprint = coordinator.fingerprint_hex();
            for (const std::size_t index : grant.indices)
                completion.results.push_back(compute_result(specs, index));
            coordinator.handle(
                make_request("POST", "/complete", render_complete_request(completion)), 0);
            std::raise(SIGKILL);
        },
        ::testing::KilledBySignal(SIGKILL), "");

    // The coordinator's two settles are in the shared cache; the rest is
    // computed locally.
    CampaignOptions options;
    options.cache_dir = scratch.path() + "/cache";
    const scenario::CampaignOutcome finished = run_campaign(manifest, options);
    EXPECT_EQ(finished.cached, 2u);
    EXPECT_EQ(finished.computed, 4u);
    EXPECT_EQ(finished.to_json(manifest), expected);
}

TEST(CrossModeResume, KilledRunCampaignFinishesUnderCoordinator) {
    const ScratchDir scratch("cross_local");
    const Manifest manifest = probe_manifest();
    const std::vector<PointSpec> specs = scenario::expand(manifest);
    const std::string expected = clean_local_artifact(scratch, manifest);

    EXPECT_EXIT(
        {
            KillAtLine killer(3);
            std::ostream progress(&killer);
            CampaignOptions options;
            options.cache_dir = scratch.path() + "/cache";
            options.progress = &progress;
            run_campaign(manifest, options);
        },
        ::testing::KilledBySignal(SIGKILL), "");

    CampaignCoordinator coordinator(manifest, kManifestText, coordinator_options(scratch));
    EXPECT_EQ(coordinator.settled_points(), 3u);
    drain(coordinator, specs, 0);
    EXPECT_TRUE(coordinator.complete());
    EXPECT_EQ(coordinator.outcome().computed, 3u);
    EXPECT_EQ(coordinator.artifact(), expected);
}

// ---------------------------------------------------------------------------
// Worker loop (scripted transports, recorded sleepers)

WorkerOptions worker_options(const std::string& name) {
    WorkerOptions options;
    options.name = name;
    return options;
}

TEST(Worker, DrivesCampaignToCompletion) {
    const ScratchDir scratch("worker");
    CampaignCoordinator coordinator(probe_manifest(), kManifestText,
                                    coordinator_options(scratch));
    std::uint64_t now = 0;

    WorkerLoop worker(coordinator_transport(coordinator, &now), worker_options("w1"),
                      [](std::uint64_t) {});
    EXPECT_EQ(worker.run(), WorkerExit::CampaignComplete);
    EXPECT_EQ(worker.points_computed(), 6u);
    EXPECT_EQ(worker.leases_completed(), 6u);  // no pool: one point a lease
    EXPECT_EQ(worker.retries(), 0u);
    EXPECT_TRUE(coordinator.complete());

    const ScratchDir local("worker_local");
    CampaignOptions options;
    options.cache_dir = local.path();
    EXPECT_EQ(coordinator.artifact(),
              run_campaign(probe_manifest(), options).to_json(probe_manifest()));
}

/// The capacity of every lease request a worker with `pool` sends while
/// it drives the probe campaign to completion.
std::vector<std::size_t> lease_capacities(ThreadPool* pool) {
    const ScratchDir scratch("lease_size");
    CampaignCoordinator coordinator(probe_manifest(), kManifestText,
                                    coordinator_options(scratch));
    std::uint64_t now = 0;
    const WorkerLoop::Transport real = coordinator_transport(coordinator, &now);
    std::vector<std::size_t> capacities;
    WorkerOptions options = worker_options("w1");
    options.pool = pool;
    WorkerLoop worker(
        [&](const std::string& method, const std::string& target, const std::string& body) {
            if (target == "/lease") capacities.push_back(parse_lease_request(body));
            return real(method, target, body);
        },
        options, [](std::uint64_t) {});
    EXPECT_EQ(worker.run(), WorkerExit::CampaignComplete);
    EXPECT_EQ(worker.points_computed(), 6u);
    return capacities;
}

TEST(Worker, ALeaseAsksForOnePointPerPoolThread) {
    ThreadPool pool(3);
    // Two grants of 3 points, then the request answered "done".
    EXPECT_EQ(lease_capacities(&pool), (std::vector<std::size_t>{3, 3, 3}));
    EXPECT_EQ(lease_capacities(nullptr), std::vector<std::size_t>(7, 1));
}

TEST(Worker, RetriesTransientFailuresWithTheBackoffSchedule) {
    const ScratchDir scratch("retry");
    CampaignCoordinator coordinator(probe_manifest(), kManifestText,
                                    coordinator_options(scratch));
    std::uint64_t now = 0;
    const WorkerLoop::Transport real = coordinator_transport(coordinator, &now);

    // The first three calls fail at the transport level, then recover.
    std::size_t calls = 0;
    const WorkerLoop::Transport flaky = [&](const std::string& method,
                                            const std::string& target,
                                            const std::string& body)
        -> std::optional<HttpClientResponse> {
        if (calls++ < 3) return std::nullopt;
        return real(method, target, body);
    };

    std::vector<std::uint64_t> slept;
    const WorkerOptions options = worker_options("w1");
    WorkerLoop worker(flaky, options, [&slept](std::uint64_t ms) { slept.push_back(ms); });
    EXPECT_EQ(worker.run(), WorkerExit::CampaignComplete);
    EXPECT_EQ(worker.retries(), 3u);
    // The recorded sleeps ARE the deterministic backoff schedule.
    ASSERT_GE(slept.size(), 3u);
    for (unsigned attempt = 0; attempt < 3; ++attempt)
        EXPECT_EQ(slept[attempt], backoff_delay_ms(backoff_seed("w1"), attempt));
}

TEST(Worker, NeverReachedCoordinatorIsAnError) {
    std::size_t calls = 0;
    WorkerLoop worker(
        [&calls](const std::string&, const std::string&, const std::string&)
            -> std::optional<HttpClientResponse> {
            ++calls;
            return std::nullopt;
        },
        worker_options("w1"), [](std::uint64_t) {});
    EXPECT_EQ(worker.run(), WorkerExit::Unreachable);
    EXPECT_FALSE(worker_exit_clean(WorkerExit::Unreachable));
    EXPECT_EQ(calls, 9u);  // initial try + 8 retries
    EXPECT_EQ(worker.retries(), 8u);
}

TEST(Worker, LostAfterContactExitsCleanly) {
    const ScratchDir scratch("shutdown");
    CampaignCoordinator coordinator(probe_manifest(), kManifestText,
                                    coordinator_options(scratch));
    std::uint64_t now = 0;
    const WorkerLoop::Transport real = coordinator_transport(coordinator, &now);

    // The manifest fetch succeeds; every later call fails — the shape of
    // a coordinator that finished and stopped serving.
    bool first = true;
    WorkerLoop worker(
        [&](const std::string& method, const std::string& target, const std::string& body)
            -> std::optional<HttpClientResponse> {
            if (!first) return std::nullopt;
            first = false;
            return real(method, target, body);
        },
        worker_options("w1"), [](std::uint64_t) {});
    EXPECT_EQ(worker.run(), WorkerExit::CoordinatorShutdown);
    EXPECT_TRUE(worker_exit_clean(WorkerExit::CoordinatorShutdown));
}

TEST(Worker, FingerprintMismatchIsFatal) {
    const ScratchDir scratch("mismatch");
    CampaignCoordinator coordinator(probe_manifest(), kManifestText,
                                    coordinator_options(scratch));
    std::uint64_t now = 0;
    const WorkerLoop::Transport real = coordinator_transport(coordinator, &now);

    // A coordinator restarted with a DIFFERENT campaign answers every
    // completion 409 — simulated by intercepting /complete.
    WorkerLoop worker(
        [&](const std::string& method, const std::string& target, const std::string& body)
            -> std::optional<HttpClientResponse> {
            if (target == "/complete")
                return HttpClientResponse{409, R"({"error": "fingerprint mismatch"})"};
            return real(method, target, body);
        },
        worker_options("w1"), [](std::uint64_t) {});
    EXPECT_EQ(worker.run(), WorkerExit::CampaignMismatch);
    EXPECT_FALSE(worker_exit_clean(WorkerExit::CampaignMismatch));
}

TEST(Worker, UnparseableRepliesAreProtocolErrors) {
    WorkerLoop worker(
        [](const std::string&, const std::string&, const std::string&)
            -> std::optional<HttpClientResponse> {
            return HttpClientResponse{200, "this is not json"};
        },
        worker_options("w1"), [](std::uint64_t) {});
    EXPECT_EQ(worker.run(), WorkerExit::ProtocolError);
}

TEST(Worker, AlreadyCompleteCampaignMeansImmediateDone) {
    const ScratchDir scratch("done");
    const Manifest manifest = probe_manifest();
    // Warm the shared cache with a local run, then coordinate over it:
    // the coordinator is born complete and workers compute nothing.
    CampaignOptions local;
    local.cache_dir = scratch.path() + "/cache";
    run_campaign(manifest, local);

    CampaignCoordinator coordinator(manifest, kManifestText, coordinator_options(scratch));
    EXPECT_TRUE(coordinator.complete());
    std::uint64_t now = 0;
    WorkerLoop worker(coordinator_transport(coordinator, &now), worker_options("w1"),
                      [](std::uint64_t) {});
    EXPECT_EQ(worker.run(), WorkerExit::CampaignComplete);
    EXPECT_EQ(worker.points_computed(), 0u);
}

// ---------------------------------------------------------------------------
// Port file + loopback end-to-end

TEST(PortFile, AtomicWriteThenReadBack) {
    const ScratchDir scratch("portfile");
    const std::string path = scratch.path() + "/port.txt";
    service::write_port_file(path, 43210);
    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "43210");
    // The staging file never survives the publish.
    EXPECT_FALSE(fs::exists(path + ".tmp"));
    // An unwritable location fails loudly, not silently.
    EXPECT_THROW(service::write_port_file(scratch.path() + "/no/such/dir/p.txt", 1),
                 std::runtime_error);
}

/// A fake server on an ephemeral loopback port. It answers the requests
/// it reads, over any number of connections, with `replies` in order.
/// After a reply it closes the connection unless the reply says
/// `Connection: keep-alive`; an empty reply closes it unanswered.
class CannedReplyServer {
  public:
    explicit CannedReplyServer(std::vector<std::string> replies)
        : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = 0;
        EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
        EXPECT_EQ(::listen(fd_, 4), 0);
        socklen_t len = sizeof(addr);
        ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
        port_ = ntohs(addr.sin_port);
        thread_ = std::thread([this, replies = std::move(replies)] {
            std::size_t next = 0;
            for (;;) {
                const int conn = ::accept(fd_, nullptr, nullptr);
                if (conn < 0) return;
                {
                    const std::lock_guard<std::mutex> lock(mutex_);
                    if (stopping_) {
                        ::close(conn);
                        return;
                    }
                    conn_ = conn;
                }
                ++connections_;
                std::string in;
                while (next < replies.size() && read_request(conn, in)) {
                    ++requests_;
                    const std::string& reply = replies[next++];
                    ::send(conn, reply.data(), reply.size(), MSG_NOSIGNAL);
                    if (reply.find("Connection: keep-alive") == std::string::npos) break;
                }
                const std::lock_guard<std::mutex> lock(mutex_);
                ::close(conn);
                conn_ = -1;
            }
        });
    }
    ~CannedReplyServer() {
        {
            // Wakes a read on a connection the client keeps open.
            const std::lock_guard<std::mutex> lock(mutex_);
            stopping_ = true;
            if (conn_ >= 0) ::shutdown(conn_, SHUT_RDWR);
        }
        ::shutdown(fd_, SHUT_RDWR);  // unblocks accept() if no client came
        thread_.join();
        ::close(fd_);
    }
    CannedReplyServer(const CannedReplyServer&) = delete;
    CannedReplyServer& operator=(const CannedReplyServer&) = delete;
    Endpoint endpoint() const { return {"127.0.0.1", port_}; }
    int requests() const { return requests_.load(); }
    int connections() const { return connections_.load(); }

  private:
    /// Consumes one request (head and Content-Length body) off `in`,
    /// reading more as needed; false at EOF.
    static bool read_request(int conn, std::string& in) {
        char buf[1024];
        for (;;) {
            const std::size_t blank = in.find("\r\n\r\n");
            if (blank != std::string::npos) {
                const auto head = service::parse_http_head(in.substr(0, blank));
                std::size_t length = 0;
                if (head && head->headers.count("content-length") != 0)
                    length = std::stoul(head->headers.at("content-length"));
                if (in.size() >= blank + 4 + length) {
                    in.erase(0, blank + 4 + length);
                    return true;
                }
            }
            const ssize_t n = ::read(conn, buf, sizeof(buf));
            if (n <= 0) return false;
            in.append(buf, static_cast<std::size_t>(n));
        }
    }

    int fd_;
    std::uint16_t port_ = 0;
    std::mutex mutex_;
    bool stopping_ = false;
    int conn_ = -1;
    std::atomic<int> requests_{0};
    std::atomic<int> connections_{0};
    std::thread thread_;
};

TEST(HttpClient, ContentLengthMustBeAllDigits) {
    // strtoull used to read "5x" and "+5" as 5 and an empty value as 0,
    // which dropped the body. Each is now a transport failure.
    for (const std::string value : {"5x", "+5", "", "-1", "5 5"}) {
        CannedReplyServer server({"HTTP/1.1 200 OK\r\nContent-Length: " + value +
                                  "\r\nConnection: close\r\n\r\nhello"});
        EXPECT_FALSE(http_request(server.endpoint(), "GET", "/healthz", "", 5000))
            << "Content-Length: '" << value << "' was accepted";
    }
    CannedReplyServer server({"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello"});
    const auto reply = http_request(server.endpoint(), "GET", "/healthz", "", 5000);
    ASSERT_TRUE(reply);
    EXPECT_EQ(reply->status, 200);
    EXPECT_EQ(reply->body, "hello");
}

TEST(HttpClient, ChunkedOrConflictingLengthRepliesAreTransportFailures) {
    // A chunked reply used to be returned raw, and of two lengths the
    // last one silently cut the body.
    for (const std::string reply :
         {"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
          "HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 3\r\n\r\nhello"}) {
        CannedReplyServer server({reply});
        EXPECT_FALSE(http_request(server.endpoint(), "GET", "/healthz", "", 5000)) << reply;
    }
}

const std::string kKeptAliveOk = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
                                 "Connection: keep-alive\r\n\r\nok";

TEST(HttpClient, ReusesOneConnectionAndReplacesAStaleOneUnnoticed) {
    // The second reply lacks keep-alive, so the server closes that
    // connection while the client still holds it idle: the next request
    // must go out on a fresh connection, unnoticed by the caller.
    CannedReplyServer server({kKeptAliveOk, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
                              "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nfresh"});
    ASSERT_TRUE(http_request(server.endpoint(), "GET", "/a", "", 5000));
    ASSERT_TRUE(http_request(server.endpoint(), "GET", "/b", "", 5000));
    EXPECT_EQ(server.connections(), 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));  // the close lands
    const auto reply = http_request(server.endpoint(), "GET", "/c", "", 5000);
    ASSERT_TRUE(reply);
    EXPECT_EQ(reply->body, "fresh");
    EXPECT_EQ(server.requests(), 3);
    EXPECT_EQ(server.connections(), 2);
}

TEST(HttpClient, ReusedConnectionClosedBeforeAnyReplyByteIsRetriedOnce) {
    // The server reads the second request and closes unanswered, as it
    // does when a kept-alive connection times out as a request goes out.
    CannedReplyServer server(
        {kKeptAliveOk, "", "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nfresh"});
    ASSERT_TRUE(http_request(server.endpoint(), "GET", "/a", "", 5000));
    const auto reply = http_request(server.endpoint(), "POST", "/complete", "{}", 5000);
    ASSERT_TRUE(reply);
    EXPECT_EQ(reply->body, "fresh");
    EXPECT_EQ(server.requests(), 3);
}

TEST(HttpClient, TornReplyOnAReusedConnectionIsNotSentAgain) {
    // Part of a reply arrived, so the server may have acted on the POST:
    // sending it again could apply it twice. It is a transport failure.
    CannedReplyServer server({kKeptAliveOk, "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\ntorn",
                              "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nfresh"});
    ASSERT_TRUE(http_request(server.endpoint(), "GET", "/a", "", 5000));
    EXPECT_FALSE(http_request(server.endpoint(), "POST", "/complete", "{}", 5000));
    EXPECT_EQ(server.requests(), 2);
}

/// HttpServer + coordinator + two WorkerLoop threads over loopback. With
/// `hold_idle`, a raw connection that never sends a byte is opened as the
/// first lease is granted and stays open for the rest of the run.
void run_two_real_workers(bool hold_idle) {
    const ScratchDir scratch(hold_idle ? "e2e_idle" : "e2e");
    const Manifest manifest = probe_manifest();

    CampaignOptions local;
    local.cache_dir = scratch.path() + "/cache-local";
    const std::string local_json = run_campaign(manifest, local).to_json(manifest);

    CampaignCoordinator coordinator(manifest, kManifestText, coordinator_options(scratch));

    HttpServer server(0);
    const Endpoint endpoint{"127.0.0.1", server.port()};
    int idle = -1;
    std::atomic<int> leased{0};  // workers that have sent their first /lease
    std::thread serve([&] {
        server.serve_forever([&](const HttpRequest& request) {
            if (hold_idle && idle < 0 && request.target == "/lease") {
                // Queued behind this reply, ahead of the workers' next
                // requests: a serial loop would stall them past the TTL.
                idle = ::socket(AF_INET, SOCK_STREAM, 0);
                sockaddr_in addr{};
                addr.sin_family = AF_INET;
                addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
                addr.sin_port = htons(server.port());
                EXPECT_EQ(::connect(idle, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
            }
            const HttpResponse response = coordinator.handle(request, steady_now_ms());
            // The server stops AFTER this reply is written — the completing
            // worker still hears back — and only once both workers have
            // asked for a lease: a worker that first reaches a stopped
            // server never had contact, which is not a clean exit.
            if (coordinator.complete() && leased.load() == 2) server.stop();
            return response;
        });
    });

    const auto spawn = [&](const std::string& name) {
        return std::thread([&, name] {
            WorkerOptions wopts;
            wopts.name = name;
            // Real sleeps, a tenth of the fixed schedule's: a worker that
            // finds the server gone retries 8 times in under a second.
            // Its first /lease goes out after its /manifest was answered,
            // so once both have counted themselves, both had contact.
            WorkerLoop worker(
                [&leased, endpoint, asked = false](const std::string& method,
                                                   const std::string& target,
                                                   const std::string& body) mutable {
                    if (target == "/lease" && !asked) {
                        asked = true;
                        ++leased;
                    }
                    return http_request(endpoint, method, target, body, 5000);
                },
                wopts,
                [](std::uint64_t ms) {
                    std::this_thread::sleep_for(std::chrono::milliseconds(ms / 10));
                });
            // The worker that finishes the campaign sees "done"; the
            // other may find the server gone after its first lease — both
            // are clean.
            EXPECT_TRUE(worker_exit_clean(worker.run())) << name;
        });
    };
    std::thread w1 = spawn("e2e-w1");
    std::thread w2 = spawn("e2e-w2");
    w1.join();
    w2.join();
    server.stop();
    serve.join();
    if (idle >= 0) ::close(idle);

    EXPECT_TRUE(coordinator.complete());
    EXPECT_EQ(coordinator.conflicts(), 0u);
    EXPECT_EQ(coordinator.artifact(), local_json);
    // Heartbeats were answered in time: no lease expired.
    EXPECT_NE(coordinator.summary().find(" 0 expired,"), std::string::npos)
        << coordinator.summary();
}

TEST(LoopbackEndToEnd, TwoRealWorkersMatchTheLocalArtifact) { run_two_real_workers(false); }

TEST(LoopbackEndToEnd, AnIdleConnectionHeldOpenExpiresNoLease) { run_two_real_workers(true); }

TEST(Hashes, CacheKeyFingerprintAndResultHashArePinned) {
    // Cache entry names, campaign fingerprints and completion hashes are
    // stored on disk and on the wire: a cache directory written by an
    // earlier build must still be hit, so these values never move.
    const scenario::CacheKey key{"dist_probe", 4, {{"seed", "17"}, {"value", "3"}}};
    EXPECT_EQ(util::hex16(scenario::cache_hash(key)), "d8d2a31c2da5d243");

    ScratchDir dir("pinned_hashes");
    CampaignOptions options;
    options.cache_dir = dir.path() + "/cache";
    const scenario::CampaignLedger ledger(probe_manifest(), options);
    EXPECT_EQ(util::hex16(ledger.fingerprint()), "81f20798338bf1df");

    scenario::CachedResult result;
    result.exit_code = 0;
    result.metrics = {{"seed", "17"}, {"value", "3"}};
    result.report = "probe: value 3\n";
    EXPECT_EQ(util::hex16(result_hash(result)), "c6c3657c579a4b9c");
    EXPECT_EQ(util::hex16(0xdeadbeefULL), "00000000deadbeef");
}

} // namespace
} // namespace dynamo
