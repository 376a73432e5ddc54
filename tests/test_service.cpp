// Tests for the crash-safe distributed-campaign layer and the campaign
// service:
//   * torn-cache-write fix — concurrent ResultCache::store calls (same
//     and distinct keys) never corrupt an entry or leak temp files;
//   * lost-work fix — each successful point is in the cache BEFORE later
//     points run (probed from inside a running campaign), and a campaign
//     interrupted by a failing point warm-starts with exactly the
//     previously-successful points as cache hits;
//   * sharding — shard counts {1, 2, 7} all reassemble through their
//     shared cache into the byte-identical unsharded artifact;
//   * the HTTP/JSON service — request parsing, socketless routing of the
//     whole endpoint surface, and real loopback-socket round trips
//     (including a reset client and idle/trickling clients).
//   * content-addressed, capped jobs — a resubmission reuses its job
//     unless that job failed anywhere, evicted ids answer 410, and a cap
//     of unfinished jobs answers 503.
//
// The probe scenarios registered here exist only in this binary (the
// registry is process-local and register_scenario is public), so the
// committed catalog in docs/scenarios.md is unaffected.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "analysis/montecarlo.hpp"
#include "grid/torus.hpp"
#include "scenario/campaign.hpp"
#include "scenario/manifest.hpp"
#include "scenario/scenario.hpp"
#include "service/http.hpp"
#include "service/service.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"

namespace dynamo {
namespace {

namespace fs = std::filesystem;
using namespace scenario;
using service::CampaignService;
using service::HttpRequest;
using service::HttpResponse;
using service::HttpServer;
using service::ServiceOptions;

/// Fresh per-test scratch directory under the system temp dir.
class ScratchDir {
  public:
    explicit ScratchDir(const std::string& tag)
        : path_((fs::temp_directory_path() /
                 ("dynamo_svc_" + tag + "_" +
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

/// Test-only probe scenario. Knobs:
///   --value        echoed into the metrics (grid axis material);
///   --seed         RNG substream slot (echoed; enables repetitions);
///   --require_file metric "file_present" records whether that file
///                  exists at RUN time — lets a later campaign point
///                  observe whether an earlier point's cache entry was
///                  already published (the lost-work probe);
///   --fail_if_file fail (exit 1) iff `<fail_if_file>-<value>` exists —
///                  per-point failure injection WITHOUT changing the
///                  point's parameters, so cache keys stay stable across
///                  the failing and the succeeding run (the kill-and-
///                  resume probe).
int svc_probe_fn(Context& ctx) {
    const std::int64_t value = ctx.args.get_int("value", 1);
    ctx.metrics["value"] = std::to_string(value);
    ctx.metrics["seed"] = std::to_string(ctx.args.get_uint64("seed", 0));
    if (const std::string probe = ctx.args.get_string("require_file", ""); !probe.empty())
        ctx.metrics["file_present"] = fs::exists(probe) ? "true" : "false";
    if (const std::string marker = ctx.args.get_string("fail_if_file", ""); !marker.empty()) {
        if (fs::exists(marker + "-" + std::to_string(value))) {
            ctx.out << "probe: induced failure for value " << value << "\n";
            return 1;
        }
    }
    ctx.out << "probe: value " << value << "\n";
    return 0;
}

[[maybe_unused]] const bool kProbeRegistered = register_scenario(
    {"svc_probe",
     "point",
     "test-only probe point for campaign crash-safety tests",
     0,
     {{"value", ParamType::Int, "1", "", "echoed into metrics"},
      {"seed", ParamType::Uint, "0", "", "RNG substream slot (echoed)"},
      {"require_file", ParamType::String, "", "", "record whether this file exists"},
      {"fail_if_file", ParamType::String, "", "", "fail iff <file>-<value> exists"}},
     svc_probe_fn});

/// svc_adaptive_probe: one adaptive density point on the 6x6 mesh with
/// the manifest's trial cap - the estimator path of mc_density_point,
/// whose scenario this binary does not link.
int svc_adaptive_probe_fn(Context& ctx) {
    analysis::AdaptiveOptions options;
    options.stopping.ci_target = 0.05;
    options.max_trials = ctx.args.get_int_as<std::size_t>("max_trials", 100);
    const grid::Torus torus(grid::Topology::ToroidalMesh, 6, 6);
    const analysis::AdaptiveDensityPoint point = analysis::run_density_point_adaptive(
        torus, 1, 0.5, 4, ctx.args.get_uint64("seed", 0), options);
    ctx.metrics["trials"] = std::to_string(point.point.trials);
    return 0;
}

[[maybe_unused]] const bool kAdaptiveProbeRegistered = register_scenario(
    {"svc_adaptive_probe",
     "point",
     "test-only adaptive density point with a settable trial cap",
     0,
     {{"max_trials", ParamType::Int, "100", "", "the estimator's trial cap"},
      {"seed", ParamType::Uint, "0", "", "RNG substream slot"}},
     svc_adaptive_probe_fn});

/// svc_latch: a point that blocks until the latch opens. It holds the
/// service's one runner, so a test can fill the job cap with unfinished
/// jobs without relying on timing.
std::mutex latch_mutex;
std::condition_variable latch_opened;
bool latch_open = true;

int svc_latch_fn(Context& ctx) {
    std::unique_lock<std::mutex> lock(latch_mutex);
    latch_opened.wait(lock, [] { return latch_open; });
    ctx.out << "latch: opened\n";
    return 0;
}

[[maybe_unused]] const bool kLatchRegistered = register_scenario(
    {"svc_latch", "point", "test-only point that waits for the latch to open", 0, {},
     svc_latch_fn});

/// Closes the latch for its lifetime; open() (or the destructor) lets
/// every waiting svc_latch point finish.
class ClosedLatch {
  public:
    ClosedLatch() { set(false); }
    ~ClosedLatch() { open(); }
    ClosedLatch(const ClosedLatch&) = delete;
    ClosedLatch& operator=(const ClosedLatch&) = delete;
    void open() { set(true); }

  private:
    static void set(bool opened) {
        {
            const std::lock_guard<std::mutex> lock(latch_mutex);
            latch_open = opened;
        }
        latch_opened.notify_all();
    }
};

Manifest probe_manifest(const std::string& extra_fixed = "") {
    return parse_manifest(
        R"({"name": "svc-probe", "scenario": "svc_probe",)" + extra_fixed +
            R"( "grid": {"value": [1, 2, 3, 4, 5, 6]}, "seed": 99})",
        "test-manifest");
}

/// The cache entry file a given point spec will publish to.
std::string entry_file(const std::string& cache_dir, const Manifest& manifest,
                       const PointSpec& spec) {
    const Scenario* s = find(manifest.scenario);
    const int epoch = ResultCache(cache_dir).combined_epoch(s->epoch);
    const CacheKey key{manifest.scenario, epoch, spec.params};
    return cache_dir + "/" + manifest.scenario + "-e" + std::to_string(epoch) + "-" +
           util::hex16(cache_hash(key)) + ".json";
}

// ---------------------------------------------------------------------------
// Torn-cache-write fix: concurrent stores
// ---------------------------------------------------------------------------

TEST(CacheConcurrency, ParallelStoresNeverTearEntriesOrLeakTemps) {
    const ScratchDir dir("cache_race");
    const ResultCache cache(dir.path());

    // One hot key every thread hammers with the identical payload (the
    // content-addressed contract: same key => same bytes), plus per-thread
    // private keys, interleaved.
    const CacheKey hot{"svc_probe", 4, {{"value", "42"}}};
    CachedResult hot_result;
    hot_result.metrics["value"] = "42";
    hot_result.report = "hot\n";

    constexpr int kThreads = 8;
    constexpr int kIterations = 25;
    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        writers.emplace_back([&, t] {
            for (int i = 0; i < kIterations; ++i) {
                cache.store(hot, hot_result);
                const CacheKey private_key{
                    "svc_probe", 4, {{"value", std::to_string(1000 + t * kIterations + i)}}};
                CachedResult private_result;
                private_result.metrics["value"] = std::to_string(1000 + t * kIterations + i);
                private_result.report = "private\n";
                cache.store(private_key, private_result);
            }
        });
    }
    for (std::thread& w : writers) w.join();

    // Every entry parses back exactly; nothing torn, nothing half-renamed.
    const auto hot_hit = cache.lookup(hot);
    ASSERT_TRUE(hot_hit.has_value());
    EXPECT_EQ(hot_hit->metrics.at("value"), "42");
    for (int k = 0; k < kThreads * kIterations; ++k) {
        const CacheKey key{"svc_probe", 4, {{"value", std::to_string(1000 + k)}}};
        const auto hit = cache.lookup(key);
        ASSERT_TRUE(hit.has_value()) << "entry " << k << " lost in the race";
        EXPECT_EQ(hit->metrics.at("value"), std::to_string(1000 + k));
    }
    for (const auto& entry : fs::directory_iterator(dir.path())) {
        EXPECT_EQ(entry.path().filename().string().find(".tmp."), std::string::npos)
            << "leaked temp file " << entry.path();
    }
    EXPECT_EQ(cache.stats().entries, 1u + kThreads * kIterations);
}

// ---------------------------------------------------------------------------
// Lost-work fix: persistence happens as points settle
// ---------------------------------------------------------------------------

TEST(CampaignCrashSafety, PointsArePersistedTheMomentTheySettle) {
    const ScratchDir dir("persist_now");
    // Point 0 runs with require_file unset; point 1 checks — from INSIDE
    // the (serial) campaign — that point 0's cache entry is already on
    // disk. Under the old store-after-the-pool-drained scheme this
    // observed "false".
    Manifest manifest = parse_manifest(
        R"({"name": "svc-order", "scenario": "svc_probe",
            "grid": {"require_file": ["", "PLACEHOLDER"]}, "seed": 3})",
        "test-manifest");
    const std::vector<PointSpec> specs = expand(manifest);
    ASSERT_EQ(specs.size(), 2u);
    manifest.grid[0].values[1] = entry_file(dir.path(), manifest, specs[0]);

    CampaignOptions options;
    options.cache_dir = dir.path();
    const CampaignOutcome outcome = run_campaign(manifest, options);
    ASSERT_EQ(outcome.failed, 0u);
    ASSERT_EQ(outcome.points.size(), 2u);
    EXPECT_EQ(outcome.points[1].result.metrics.at("file_present"), "true")
        << "point 0's result was not in the cache while point 1 was running";
}

TEST(CampaignCrashSafety, InterruptedCampaignResumesWithExactlyTheBankedHits) {
    const ScratchDir dir("resume");
    const std::string marker = dir.path() + "/fail";
    const Manifest manifest = probe_manifest(
        R"( "fixed": {"fail_if_file": ")" + marker + R"("},)");

    // First run: value 5 is induced to fail; the five other points
    // succeed and must be banked despite the in-flight failure.
    { std::ofstream(marker + "-5") << "x"; }
    CampaignOptions options;
    options.cache_dir = dir.path() + "/cache";
    ThreadPool pool(3);
    options.pool = &pool;
    const CampaignOutcome crashed = run_campaign(manifest, options);
    EXPECT_EQ(crashed.computed, 6u);
    EXPECT_EQ(crashed.failed, 1u);

    // Re-run after the fault clears: exactly the m = 5 previously
    // successful points are cache hits, only the failed one recomputes.
    fs::remove(marker + "-5");
    const CampaignOutcome resumed = run_campaign(manifest, options);
    EXPECT_EQ(resumed.cached, 5u);
    EXPECT_EQ(resumed.computed, 1u);
    EXPECT_EQ(resumed.failed, 0u);
}

// ---------------------------------------------------------------------------
// Sharding + reassembly
// ---------------------------------------------------------------------------

TEST(ShardMerge, EveryShardCountMergesByteIdenticallyToUnsharded) {
    const ScratchDir dir("shard_merge");
    const Manifest manifest = probe_manifest();
    CampaignOptions base;
    base.cache_dir = dir.path() + "/unsharded";
    const std::string expected = run_campaign(manifest, base).to_json(manifest);

    for (const unsigned count : {1u, 2u, 7u}) {
        // All shards of one split share a cache directory — the
        // concurrent-store fix is what makes that safe.
        CampaignOptions options;
        options.cache_dir = dir.path() + "/shared-" + std::to_string(count);
        std::size_t owned_total = 0;
        for (unsigned k = 0; k < count; ++k) {
            options.shard_index = k;
            options.shard_count = count;
            owned_total += run_campaign(manifest, options).points.size();
        }
        EXPECT_EQ(owned_total, 6u) << "shards must partition the expansion";
        // Reassembly is the unsharded campaign over the shards' cache.
        CampaignOptions reassemble;
        reassemble.cache_dir = options.cache_dir;
        const CampaignOutcome merged = run_campaign(manifest, reassemble);
        EXPECT_EQ(merged.computed, 0u) << count << " shards left points uncached";
        EXPECT_EQ(merged.to_json(manifest), expected)
            << "reassembly of " << count << " shards is not byte-identical";
    }
}

TEST(ShardMerge, ShardSpecParsesKOverNAndRejectsEverythingElse) {
    unsigned index = 9;
    unsigned count = 9;
    parse_shard_spec("1/2", index, count);
    EXPECT_EQ(index, 1u);
    EXPECT_EQ(count, 2u);
    parse_shard_spec("4294967294/4294967295", index, count);
    EXPECT_EQ(index, 4294967294u);
    EXPECT_EQ(count, 4294967295u);
    // 4294967297 used to wrap to 1 and silently run shard 1/2.
    for (const char* bad : {"", "1", "/2", "1/", "2/2", "1/0", "a/2", "1/2/3", "-1/2", "+1/2",
                            " 1/2", "4294967297/2", "1/4294967296", "99999999999999999999/2"}) {
        EXPECT_THROW(parse_shard_spec(bad, index, count), std::invalid_argument) << bad;
    }
}

TEST(ShardMerge, ShardRunsPopulateASharedCacheUnshardedRunsCanReuse) {
    const ScratchDir dir("shard_cache");
    const Manifest manifest = probe_manifest();
    CampaignOptions options;
    options.cache_dir = dir.path() + "/shared";
    for (unsigned k = 0; k < 3; ++k) {
        options.shard_index = k;
        options.shard_count = 3;
        run_campaign(manifest, options);
    }
    options.shard_index = 0;
    options.shard_count = 1;
    const CampaignOutcome warm = run_campaign(manifest, options);
    EXPECT_EQ(warm.cached, 6u) << "an unsharded run must reuse what the shards computed";
    EXPECT_EQ(warm.computed, 0u);
}

TEST(CacheMerge, CopiesOnlyAbsentEntriesAndRejectsSelfMerge) {
    const ScratchDir dir("cache_merge");
    const Manifest manifest = probe_manifest();
    CampaignOptions options;
    options.cache_dir = dir.path() + "/a";
    options.shard_index = 0;
    options.shard_count = 2;
    run_campaign(manifest, options);
    options.cache_dir = dir.path() + "/b";
    options.shard_index = 1;
    run_campaign(manifest, options);

    const ResultCache destination(dir.path() + "/a");
    EXPECT_EQ(destination.merge_from(dir.path() + "/b"), 3u);
    EXPECT_EQ(destination.merge_from(dir.path() + "/b"), 0u) << "re-merge must be a no-op";
    EXPECT_EQ(destination.merge_from(dir.path() + "/missing"), 0u);
    EXPECT_THROW(destination.merge_from(dir.path() + "/a"), std::exception);
    EXPECT_EQ(destination.stats().entries, 6u);

    CampaignOptions warm;
    warm.cache_dir = dir.path() + "/a";
    const CampaignOutcome outcome = run_campaign(manifest, warm);
    EXPECT_EQ(outcome.cached, 6u);
}

// ---------------------------------------------------------------------------
// HTTP plumbing
// ---------------------------------------------------------------------------

TEST(Http, ParsesRequestsAndNormalizesHeaderNames) {
    const auto request = service::parse_http_request(
        "POST /campaigns?x=1 HTTP/1.1\r\nHost: localhost\r\nContent-Length: 4\r\n"
        "X-MiXeD-Case: Value\r\n\r\nbody");
    ASSERT_TRUE(request.has_value());
    EXPECT_EQ(request->method, "POST");
    EXPECT_EQ(request->target, "/campaigns?x=1");
    EXPECT_EQ(request->headers.at("content-length"), "4");
    EXPECT_EQ(request->headers.at("x-mixed-case"), "Value");
    EXPECT_EQ(request->body, "body");

    EXPECT_FALSE(service::parse_http_request("garbage\r\n\r\n").has_value());
    EXPECT_FALSE(service::parse_http_request("GET /x SPDY/3\r\n\r\n").has_value());
    EXPECT_FALSE(service::parse_http_request("no head terminator").has_value());
}

TEST(Http, ContentLengthParsesDigitsOnly) {
    EXPECT_EQ(service::parse_content_length("0"), 0u);
    EXPECT_EQ(service::parse_content_length("1234"), 1234u);
    // Too large is not malformed: it saturates, and the caller refuses it.
    EXPECT_EQ(service::parse_content_length("99999999999999999999999"),
              std::numeric_limits<std::size_t>::max());
    for (const char* bad : {"", "5x", "+5", "-1", " 5", "5 ", "0x5", "5.0"}) {
        EXPECT_FALSE(service::parse_content_length(bad)) << "'" << bad << "'";
    }
}

TEST(Http, RendersResponsesWithLengthAndClose) {
    const std::string wire =
        service::render_http_response({409, "application/json", "{\"a\": 1}\n"});
    EXPECT_NE(wire.find("HTTP/1.1 409 Conflict\r\n"), std::string::npos);
    EXPECT_NE(wire.find("Content-Length: 9\r\n"), std::string::npos);
    EXPECT_NE(wire.find("Connection: close\r\n"), std::string::npos);
    EXPECT_EQ(wire.substr(wire.size() - 9), "{\"a\": 1}\n");
}

TEST(Http, ConflictingContentLengthsMakeAHeadMalformed) {
    // The last duplicate used to win silently: on a kept-alive connection
    // the rest of the body would be parsed as the next request.
    EXPECT_FALSE(service::parse_http_head("POST / HTTP/1.1\r\nContent-Length: 5\r\n"
                                          "content-length: 3"));
    const auto same =
        service::parse_http_head("HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 5");
    ASSERT_TRUE(same);
    EXPECT_EQ(same->headers.at("content-length"), "5");
    EXPECT_STREQ(service::http_status_text(501), "Not Implemented");
    const std::string wire = service::render_http_response({200, "text/plain", "ok"}, true);
    EXPECT_NE(wire.find("Connection: keep-alive\r\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The campaign service (socketless routing)
// ---------------------------------------------------------------------------

HttpResponse call(CampaignService& service, const std::string& method,
                  const std::string& target, const std::string& body = "") {
    HttpRequest request;
    request.method = method;
    request.target = target;
    request.body = body;
    return service.handle(request);
}

void wait_until_idle(CampaignService& service) {
    for (int i = 0; i < 600 && !service.idle(); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_TRUE(service.idle()) << "service did not drain its queue in time";
}

std::string manifest_text() {
    return R"({"name": "svc-probe", "scenario": "svc_probe",
               "grid": {"value": [1, 2, 3, 4, 5, 6]}, "seed": 99})";
}

TEST(Service, RoutesTheWholeEndpointSurface) {
    const ScratchDir dir("service_routes");
    ServiceOptions options;
    options.cache_dir = dir.path() + "/cache";
    CampaignService service(options);

    EXPECT_EQ(call(service, "GET", "/healthz").status, 200);
    EXPECT_EQ(call(service, "POST", "/healthz").status, 405);
    EXPECT_EQ(call(service, "GET", "/nowhere").status, 404);
    EXPECT_EQ(call(service, "GET", "/campaigns/1").status, 404);
    EXPECT_EQ(call(service, "DELETE", "/campaigns").status, 405);
    EXPECT_EQ(call(service, "POST", "/campaigns", "{\"name\": 3}").status, 400)
        << "an invalid manifest must be rejected at submission";

    const HttpResponse accepted = call(service, "POST", "/campaigns", manifest_text());
    ASSERT_EQ(accepted.status, 202);
    const util::Json ticket = util::Json::parse(accepted.body, "ticket");
    EXPECT_EQ(ticket.find("id")->as_int(), 1);
    EXPECT_EQ(ticket.find("points")->as_int(), 6);

    wait_until_idle(service);

    const HttpResponse status = call(service, "GET", "/campaigns/1");
    ASSERT_EQ(status.status, 200);
    const util::Json parsed = util::Json::parse(status.body, "status");
    EXPECT_EQ(parsed.find("status")->as_string(), "done");
    EXPECT_EQ(parsed.find("settled")->as_int(), 6);
    EXPECT_EQ(parsed.find("computed")->as_int(), 6);
    // 2^64 + 1 used to wrap onto job 1.
    EXPECT_EQ(call(service, "GET", "/campaigns/18446744073709551617").status, 404);
    EXPECT_EQ(call(service, "GET", "/campaigns/18446744073709551617/report").status, 404);

    const HttpResponse listing = call(service, "GET", "/campaigns");
    ASSERT_EQ(listing.status, 200);
    EXPECT_EQ(util::Json::parse(listing.body, "list").find("campaigns")->as_array().size(),
              1u);

    const HttpResponse progress = call(service, "GET", "/campaigns/1/progress");
    ASSERT_EQ(progress.status, 200);
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(progress.body.begin(), progress.body.end(), '\n')),
              6u)
        << "one JSONL line per settled point";

    const HttpResponse report = call(service, "GET", "/campaigns/1/report");
    ASSERT_EQ(report.status, 200);

    // The service's report is byte-identical to what the CLI path
    // produces for the same manifest against the same (now warm) cache.
    const Manifest manifest = parse_manifest(manifest_text(), "test-manifest");
    CampaignOptions campaign_options;
    campaign_options.cache_dir = dir.path() + "/cache";
    EXPECT_EQ(report.body, run_campaign(manifest, campaign_options).to_json(manifest));
}

TEST(Service, PrewarmedCacheAnswersWithoutComputing) {
    const ScratchDir dir("service_warm");
    const Manifest manifest = parse_manifest(manifest_text(), "test-manifest");
    CampaignOptions warmup;
    warmup.cache_dir = dir.path() + "/cache";
    run_campaign(manifest, warmup);

    ServiceOptions options;
    options.cache_dir = dir.path() + "/cache";
    CampaignService service(options);
    ASSERT_EQ(call(service, "POST", "/campaigns", manifest_text()).status, 202);
    wait_until_idle(service);
    const util::Json status =
        util::Json::parse(call(service, "GET", "/campaigns/1").body, "status");
    EXPECT_EQ(status.find("status")->as_string(), "done");
    EXPECT_EQ(status.find("cached")->as_int(), 6);
    EXPECT_EQ(status.find("computed")->as_int(), 0);
}

TEST(Service, ReportsConflictUntilDoneAndSurfacesJobFailure) {
    const ScratchDir dir("service_fail");
    // Point the service's cache at a path whose parent is a regular file:
    // the campaign's cache store cannot create it, so the job fails — the
    // deterministic way to observe a non-done report request.
    { std::ofstream(dir.path() + "/blocker") << "x"; }
    ServiceOptions options;
    options.cache_dir = dir.path() + "/blocker/cache";
    CampaignService service(options);
    ASSERT_EQ(call(service, "POST", "/campaigns", manifest_text()).status, 202);
    wait_until_idle(service);
    const util::Json status =
        util::Json::parse(call(service, "GET", "/campaigns/1").body, "status");
    EXPECT_EQ(status.find("status")->as_string(), "failed");
    EXPECT_EQ(call(service, "GET", "/campaigns/1/report").status, 409);
}

TEST(Service, AZeroTrialCapPointFailsAndTheServiceKeepsAnswering) {
    // A point the adaptive estimator refuses (max_trials = 0) fails like
    // any other: the job ends done with one failed point, and the service
    // still answers.
    const ScratchDir dir("service_zero_cap");
    ServiceOptions options;
    options.cache_dir = dir.path() + "/cache";
    CampaignService service(options);
    const std::string manifest =
        R"({"name": "zero-cap", "scenario": "svc_adaptive_probe",
            "fixed": {"max_trials": 0}, "seed": 5})";
    ASSERT_EQ(call(service, "POST", "/campaigns", manifest).status, 202);
    wait_until_idle(service);
    const util::Json status =
        util::Json::parse(call(service, "GET", "/campaigns/1").body, "status");
    EXPECT_EQ(status.find("status")->as_string(), "done");
    EXPECT_EQ(status.find("failed")->as_int(), 1);
    EXPECT_EQ(call(service, "GET", "/healthz").status, 200);
}

// ---------------------------------------------------------------------------
// Content-addressed, capped jobs
// ---------------------------------------------------------------------------

util::Json ticket_of(const HttpResponse& response) {
    EXPECT_EQ(response.status, 202) << response.body;
    return util::Json::parse(response.body, "ticket");
}

std::int64_t submitted_id(CampaignService& service, const std::string& manifest) {
    return ticket_of(call(service, "POST", "/campaigns", manifest)).find("id")->as_int();
}

util::Json job_status(CampaignService& service, std::int64_t id) {
    const HttpResponse status = call(service, "GET", "/campaigns/" + std::to_string(id));
    EXPECT_EQ(status.status, 200) << status.body;
    return util::Json::parse(status.body, "status");
}

TEST(Service, AResubmittedManifestReusesItsJob) {
    const ScratchDir dir("service_reuse");
    ServiceOptions options;
    options.cache_dir = dir.path() + "/cache";
    CampaignService service(options);
    ASSERT_EQ(submitted_id(service, manifest_text()), 1);
    wait_until_idle(service);

    const util::Json again = ticket_of(call(service, "POST", "/campaigns", manifest_text()));
    EXPECT_EQ(again.find("id")->as_int(), 1);
    EXPECT_EQ(again.find("status")->as_string(), "done");
    EXPECT_EQ(again.find("points")->as_int(), 6);
    EXPECT_TRUE(service.idle()) << "a reused job queues nothing";

    // Key order and whitespace are not part of the manifest.
    const std::string reordered =
        "{\"seed\":99,\"grid\":{\"value\":[1,2,3,4,5,6]},\n\t\"scenario\":\"svc_probe\","
        "  \"name\":\"svc-probe\"}";
    EXPECT_EQ(submitted_id(service, reordered), 1);

    // The counts describe the first run, which computed every point.
    const util::Json status = job_status(service, 1);
    EXPECT_EQ(status.find("computed")->as_int(), 6);
    EXPECT_EQ(status.find("cached")->as_int(), 0);

    const HttpResponse report = call(service, "GET", "/campaigns/1/report");
    ASSERT_EQ(report.status, 200);
    const Manifest manifest = parse_manifest(manifest_text(), "test-manifest");
    CampaignOptions campaign_options;
    campaign_options.cache_dir = dir.path() + "/cache";
    EXPECT_EQ(report.body, run_campaign(manifest, campaign_options).to_json(manifest));

    // Every field is in the key: another seed or name is another job.
    std::string other_seed = manifest_text();
    other_seed.replace(other_seed.find("99"), 2, "100");
    EXPECT_EQ(submitted_id(service, other_seed), 2);
    std::string other_name = manifest_text();
    other_name.replace(other_name.find("svc-probe"), 9, "svc-probe-2");
    EXPECT_EQ(submitted_id(service, other_name), 3);
    wait_until_idle(service);
    EXPECT_EQ(submitted_id(service, other_seed), 2);
}

TEST(Service, AFailedJobIsNeverReused) {
    const ScratchDir dir("service_no_reuse_failed");
    // A cache path under a regular file: every job fails.
    { std::ofstream(dir.path() + "/blocker") << "x"; }
    ServiceOptions options;
    options.cache_dir = dir.path() + "/blocker/cache";
    CampaignService service(options);
    ASSERT_EQ(submitted_id(service, manifest_text()), 1);
    wait_until_idle(service);
    ASSERT_EQ(job_status(service, 1).find("status")->as_string(), "failed");
    EXPECT_EQ(submitted_id(service, manifest_text()), 2);
}

TEST(Service, ADoneJobWithFailedPointsIsRetriedNotReused) {
    const ScratchDir dir("service_no_reuse_partial");
    const std::string marker = dir.path() + "/fail";
    { std::ofstream(marker + "-3") << "x"; }
    ServiceOptions options;
    options.cache_dir = dir.path() + "/cache";
    CampaignService service(options);
    const std::string manifest =
        R"({"name": "svc-probe", "scenario": "svc_probe", "fixed": {"fail_if_file": ")" +
        marker + R"("}, "grid": {"value": [1, 2, 3, 4, 5, 6]}, "seed": 99})";
    ASSERT_EQ(submitted_id(service, manifest), 1);
    wait_until_idle(service);
    const util::Json first = job_status(service, 1);
    ASSERT_EQ(first.find("status")->as_string(), "done");
    ASSERT_EQ(first.find("failed")->as_int(), 1);

    fs::remove(marker + "-3");
    ASSERT_EQ(submitted_id(service, manifest), 2) << "failed points must be retried";
    wait_until_idle(service);
    const util::Json retried = job_status(service, 2);
    EXPECT_EQ(retried.find("status")->as_string(), "done");
    EXPECT_EQ(retried.find("failed")->as_int(), 0);
    EXPECT_EQ(retried.find("computed")->as_int(), 1);
    EXPECT_EQ(retried.find("cached")->as_int(), 5);
    EXPECT_EQ(submitted_id(service, manifest), 2) << "a clean job is reused";
}

std::string distinct_manifest(int value) {
    return R"({"name": "cap", "scenario": "svc_probe", "fixed": {"value": )" +
           std::to_string(value) + "}}";
}

TEST(Service, EvictedJobsAnswerGoneAndTheKeptSetStaysCapped) {
    const ScratchDir dir("service_cap");
    ServiceOptions options;
    options.cache_dir = dir.path() + "/cache";
    CampaignService service(options);
    const int kept = static_cast<int>(CampaignService::kKeptJobs);
    const int extra = 8;
    for (int v = 1; v <= kept; ++v) ASSERT_EQ(submitted_id(service, distinct_manifest(v)), v);
    wait_until_idle(service);
    // Each new job evicts the oldest finished one: ids 1..extra.
    for (int v = kept + 1; v <= kept + extra; ++v)
        ASSERT_EQ(submitted_id(service, distinct_manifest(v)), v);
    wait_until_idle(service);

    for (int id = 1; id <= extra; ++id) {
        const std::string job = "/campaigns/" + std::to_string(id);
        EXPECT_EQ(call(service, "GET", job).status, 410) << id;
        EXPECT_EQ(call(service, "GET", job + "/progress").status, 410) << id;
        EXPECT_EQ(call(service, "GET", job + "/report").status, 410) << id;
    }
    EXPECT_EQ(call(service, "GET", "/campaigns/" + std::to_string(extra + 1)).status, 200);
    EXPECT_EQ(call(service, "GET", "/campaigns/0").status, 404);
    const std::string unissued = "/campaigns/" + std::to_string(kept + extra + 1);
    EXPECT_EQ(call(service, "GET", unissued).status, 404);
    EXPECT_EQ(call(service, "GET", unissued + "/progress").status, 404);
    EXPECT_EQ(call(service, "GET", unissued + "/report").status, 404);

    const HttpResponse listing = call(service, "GET", "/campaigns");
    EXPECT_EQ(util::Json::parse(listing.body, "list").find("campaigns")->as_array().size(),
              CampaignService::kKeptJobs);
    // An evicted job's manifest is a new job, not a dangling reuse.
    EXPECT_EQ(submitted_id(service, distinct_manifest(1)), kept + extra + 1);
}

TEST(Service, AFullCapOfUnfinishedJobsAnswers503) {
    const ScratchDir dir("service_full");
    ServiceOptions options;
    options.cache_dir = dir.path() + "/cache";
    CampaignService service(options);
    ClosedLatch latch;
    const std::string blocker = R"({"name": "latch", "scenario": "svc_latch"})";
    ASSERT_EQ(submitted_id(service, blocker), 1);
    const int kept = static_cast<int>(CampaignService::kKeptJobs);
    for (int v = 2; v <= kept; ++v) ASSERT_EQ(submitted_id(service, distinct_manifest(v)), v);

    const HttpResponse refused = call(service, "POST", "/campaigns", distinct_manifest(0));
    EXPECT_EQ(refused.status, 503) << refused.body;
    // A queued or running job still answers its resubmission.
    EXPECT_EQ(submitted_id(service, blocker), 1);
    EXPECT_EQ(submitted_id(service, distinct_manifest(2)), 2);
    EXPECT_EQ(job_status(service, 2).find("status")->as_string(), "queued");

    latch.open();
    wait_until_idle(service);
    EXPECT_EQ(submitted_id(service, distinct_manifest(0)), kept + 1);
    EXPECT_EQ(call(service, "GET", "/campaigns/1").status, 410);
}

// ---------------------------------------------------------------------------
// One real socket round trip
// ---------------------------------------------------------------------------

/// A client socket connected to the loopback server.
int connect_loopback(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    return fd;
}

/// Minimal blocking HTTP client for the loopback tests. A nonzero
/// `timeout_s` bounds each read, so a wedged server yields an empty reply
/// instead of a hung test.
std::string http_exchange(std::uint16_t port, const std::string& wire, long timeout_s = 0) {
    const int fd = connect_loopback(port);
    const timeval timeout{timeout_s, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    std::size_t sent = 0;
    while (sent < wire.size()) {
        const ssize_t n = ::write(fd, wire.data() + sent, wire.size() - sent);
        if (n <= 0) break;
        sent += static_cast<std::size_t>(n);
    }
    std::string response;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n <= 0) break;
        response.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return response;
}

TEST(Service, LoopbackSocketEndToEnd) {
    const ScratchDir dir("service_socket");
    ServiceOptions options;
    options.cache_dir = dir.path() + "/cache";
    CampaignService service(options);
    HttpServer server(0);  // ephemeral port
    ASSERT_GT(server.port(), 0);
    std::thread loop([&] {
        server.serve_forever(
            [&](const HttpRequest& request) { return service.handle(request); });
    });

    const std::string health = http_exchange(
        server.port(), "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n");
    EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos);

    const std::string manifest = manifest_text();
    const std::string submit = http_exchange(
        server.port(), "POST /campaigns HTTP/1.1\r\nHost: localhost\r\nContent-Length: " +
                           std::to_string(manifest.size()) + "\r\n\r\n" + manifest);
    EXPECT_NE(submit.find("HTTP/1.1 202 Accepted"), std::string::npos);

    const std::string garbage = http_exchange(server.port(), "complete nonsense\r\n\r\n");
    EXPECT_NE(garbage.find("HTTP/1.1 400 Bad Request"), std::string::npos);

    server.stop();
    loop.join();
    wait_until_idle(service);
}

TEST(Service, ClientResetBeforeTheReplyLeavesTheServerUp) {
    // A client that sends half a request head and then resets the
    // connection (SO_LINGER {1, 0} turns close() into an RST) makes the
    // server's reply hit a dead socket. That must cost the server one
    // failed send, not the SIGPIPE that kills the whole process.
    HttpServer server(0);
    ASSERT_GT(server.port(), 0);
    std::thread loop([&] {
        server.serve_forever([](const HttpRequest&) {
            return HttpResponse{200, "application/json", "{\"status\":\"ok\"}\n"};
        });
    });

    for (int attempt = 0; attempt < 3; ++attempt) {
        const int fd = connect_loopback(server.port());
        const std::string partial = "GET /healthz HTTP/1.1\r\nHost: loc";
        ASSERT_EQ(::write(fd, partial.data(), partial.size()),
                  static_cast<ssize_t>(partial.size()));
        const linger reset{1, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof(reset));
        ::close(fd);
    }

    const std::string health = http_exchange(
        server.port(), "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n");
    EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);

    server.stop();
    loop.join();
}

TEST(Service, OversizedRequestHeadGets431) {
    // The head used to be bounded only by the 8 MiB body cap plus 16 KiB.
    // It has its own 16 KiB cap now. The client sends exactly one byte
    // past it, so the server reads the whole head before it answers and
    // closes with nothing unread.
    HttpServer server(0);
    ASSERT_GT(server.port(), 0);
    std::thread loop([&] {
        server.serve_forever([](const HttpRequest&) {
            return HttpResponse{200, "application/json", "{\"status\":\"ok\"}\n"};
        });
    });

    const std::string start = "GET /healthz HTTP/1.1\r\nX-Pad: ";
    const std::string end = "\r\n\r\n";
    const std::string head = start + std::string(16385 - start.size() - end.size(), 'a') + end;
    ASSERT_EQ(head.size(), 16385u);
    const std::string reply = http_exchange(server.port(), head, 5);
    EXPECT_NE(reply.find("HTTP/1.1 431 Request Header Fields Too Large"), std::string::npos)
        << reply;

    server.stop();
    loop.join();
}

TEST(Service, ContentLengthMustBeAllDigits) {
    // std::stoul used to read "5x" as 5 and "-1" as ULONG_MAX. Each bad
    // value is sent with no body, so the server answers from the head.
    HttpServer server(0);
    ASSERT_GT(server.port(), 0);
    std::thread loop([&] {
        server.serve_forever([](const HttpRequest&) {
            return HttpResponse{200, "application/json", "{\"status\":\"ok\"}\n"};
        });
    });

    for (const std::string value : {"5x", "-1", "+5", "0x5", "5 5", ""}) {
        const std::string reply = http_exchange(
            server.port(), "POST /campaigns HTTP/1.1\r\nContent-Length: " + value + "\r\n\r\n", 5);
        EXPECT_NE(reply.find("HTTP/1.1 400 Bad Request"), std::string::npos)
            << "Content-Length: '" << value << "' -> " << reply;
    }
    const std::string ok = http_exchange(
        server.port(), "POST /campaigns HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello", 5);
    EXPECT_NE(ok.find("HTTP/1.1 200 OK"), std::string::npos) << ok;

    server.stop();
    loop.join();
}

TEST(Service, IdleAndTricklingClientsCannotWedgeTheServer) {
    // The serial loop used to read with no deadline: one client that
    // connected and sent nothing held /healthz off until it closed. Each
    // connection now has 2 s from accept, so the idle client and one that
    // trickles a byte every 500 ms cost at most 2 s each.
    HttpServer server(0);
    ASSERT_GT(server.port(), 0);
    std::thread loop([&] {
        server.serve_forever([](const HttpRequest&) {
            return HttpResponse{200, "application/json", "{\"status\":\"ok\"}\n"};
        });
    });

    const int idle = connect_loopback(server.port());
    const int trickler = connect_loopback(server.port());
    std::atomic<bool> done{false};
    std::thread trickle([&] {
        const std::string head = "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n";
        for (std::size_t i = 0; i < head.size() && !done.load(); ++i) {
            if (::send(trickler, &head[i], 1, MSG_NOSIGNAL) != 1) break;
            std::this_thread::sleep_for(std::chrono::milliseconds(500));
        }
    });

    const long bound_s = 2 * 2 + 1;  // 2 x deadline + 1 s
    const auto start = std::chrono::steady_clock::now();
    const std::string health = http_exchange(
        server.port(), "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n", bound_s);
    const double elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos) << "no reply in " << bound_s
                                                                << " s";
    EXPECT_LT(elapsed_s, static_cast<double>(bound_s));

    done.store(true);
    trickle.join();
    ::close(trickler);
    ::close(idle);
    server.stop();
    loop.join();
}

/// One end of a kept-alive connection: sends raw bytes and reads replies
/// one at a time by their Content-Length, keeping what follows.
class KeepAliveClient {
  public:
    explicit KeepAliveClient(std::uint16_t port) : fd_(connect_loopback(port)) {
        const timeval timeout{5, 0};
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    }
    ~KeepAliveClient() { ::close(fd_); }
    KeepAliveClient(const KeepAliveClient&) = delete;
    KeepAliveClient& operator=(const KeepAliveClient&) = delete;

    void send(const std::string& wire) {
        ASSERT_EQ(::send(fd_, wire.data(), wire.size(), MSG_NOSIGNAL),
                  static_cast<ssize_t>(wire.size()));
    }

    /// The next whole reply (head and body), or "" at EOF or timeout.
    std::string reply() {
        for (;;) {
            const std::size_t blank = buffer_.find("\r\n\r\n");
            if (blank != std::string::npos) {
                const auto head = service::parse_http_head(buffer_.substr(0, blank));
                if (!head) return "";
                const std::size_t total =
                    blank + 4 + std::stoul(head->headers.at("content-length"));
                if (buffer_.size() >= total) {
                    std::string whole = buffer_.substr(0, total);
                    buffer_.erase(0, total);
                    return whole;
                }
            }
            if (!read_more()) return "";
        }
    }

    /// True when the server has closed the connection with nothing unread.
    bool closed_by_server() { return buffer_.empty() && !read_more(); }

  private:
    bool read_more() {
        char buf[65536];
        const ssize_t n = ::read(fd_, buf, sizeof(buf));
        if (n <= 0) return false;
        buffer_.append(buf, static_cast<std::size_t>(n));
        return true;
    }

    int fd_;
    std::string buffer_;
};

/// A server whose handler echoes the request target as the body.
class EchoServer {
  public:
    EchoServer()
        : loop_([this] {
              server_.serve_forever([](const HttpRequest& request) {
                  return HttpResponse{200, "text/plain", request.target};
              });
          }) {}
    ~EchoServer() {
        server_.stop();
        loop_.join();
    }
    EchoServer(const EchoServer&) = delete;
    EchoServer& operator=(const EchoServer&) = delete;
    std::uint16_t port() const { return server_.port(); }

  private:
    HttpServer server_{0};
    std::thread loop_;
};

TEST(Http, TransferEncodingGets501AndClosesTheConnection) {
    // A chunked body used to be read as empty and its chunks left on the
    // wire: on a kept-alive connection they would be the next request.
    const EchoServer server;
    const auto start = std::chrono::steady_clock::now();
    const std::string reply = http_exchange(
        server.port(),
        "POST /campaigns HTTP/1.1\r\nConnection: keep-alive\r\nTransfer-Encoding: chunked\r\n"
        "\r\n5\r\nhello\r\n0\r\n\r\n",
        5);
    EXPECT_EQ(reply.rfind("HTTP/1.1 501 Not Implemented\r\n", 0), 0u) << reply;
    EXPECT_NE(reply.find("Connection: close\r\n"), std::string::npos) << reply;
    // Closed at once, not at the 2 s deadline.
    EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count(),
              1.0);
}

TEST(Http, GoneAndServiceUnavailableHaveTheirReasonPhrases) {
    EXPECT_STREQ(service::http_status_text(410), "Gone");
    EXPECT_STREQ(service::http_status_text(503), "Service Unavailable");
    const std::string wire = service::render_http_response({410, "application/json", "{}\n"});
    EXPECT_EQ(wire.rfind("HTTP/1.1 410 Gone\r\n", 0), 0u) << wire;
}

TEST(Http, ConflictingContentLengthsGet400AndCloseTheConnection) {
    const EchoServer server;
    const auto start = std::chrono::steady_clock::now();
    const std::string reply = http_exchange(
        server.port(),
        "POST /campaigns HTTP/1.1\r\nConnection: keep-alive\r\nContent-Length: 3\r\n"
        "Content-Length: 5\r\n\r\nhello",
        5);
    EXPECT_EQ(reply.rfind("HTTP/1.1 400 Bad Request\r\n", 0), 0u) << reply;
    EXPECT_NE(reply.find("Connection: close\r\n"), std::string::npos) << reply;
    EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count(),
              1.0);
}

TEST(Service, IdleTricklingAndResettingClientsCostHealthzNothing) {
    // Eight idle connections, a trickler and a client that resets before
    // it reads its reply are all open at once; a fresh /healthz must still
    // be answered well inside one 2 s deadline.
    HttpServer server(0);
    std::thread loop([&] {
        server.serve_forever([](const HttpRequest&) {
            return HttpResponse{200, "application/json", "{\"status\":\"ok\"}\n"};
        });
    });

    std::vector<int> idle;
    for (int k = 0; k < 8; ++k) idle.push_back(connect_loopback(server.port()));
    const int trickler = connect_loopback(server.port());
    std::atomic<bool> done{false};
    std::thread trickle([&] {
        const std::string head = "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n";
        for (std::size_t i = 0; i < head.size() && !done.load(); ++i) {
            if (::send(trickler, &head[i], 1, MSG_NOSIGNAL) != 1) break;
            std::this_thread::sleep_for(std::chrono::milliseconds(500));
        }
    });
    {
        const int reset = connect_loopback(server.port());
        const std::string request =
            "GET /healthz HTTP/1.1\r\nConnection: keep-alive\r\n\r\n";
        ASSERT_EQ(::write(reset, request.data(), request.size()),
                  static_cast<ssize_t>(request.size()));
        const linger abort{1, 0};
        ::setsockopt(reset, SOL_SOCKET, SO_LINGER, &abort, sizeof(abort));
        ::close(reset);
    }

    const auto start = std::chrono::steady_clock::now();
    const std::string health = http_exchange(
        server.port(), "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n", 2);
    const double elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos) << "no reply within 2 s";
    EXPECT_LT(elapsed_s, 2.0);

    done.store(true);
    trickle.join();
    ::close(trickler);
    for (const int fd : idle) ::close(fd);
    server.stop();
    loop.join();
}

TEST(Service, KeepAliveAnswersSequentialAndPipelinedRequestsInOrder) {
    const EchoServer server;
    KeepAliveClient client(server.port());
    for (int k = 0; k < 100; ++k) {
        const std::string target = "/r" + std::to_string(k);
        client.send("GET " + target + " HTTP/1.1\r\nConnection: keep-alive\r\n\r\n");
        const std::string reply = client.reply();
        ASSERT_NE(reply.find("Connection: keep-alive\r\n"), std::string::npos) << k << reply;
        ASSERT_EQ(reply.substr(reply.size() - target.size()), target) << reply;
    }
    // Two requests in one write, the second without keep-alive: both are
    // answered in order, then the connection closes.
    client.send("POST /first HTTP/1.1\r\nConnection: keep-alive\r\nContent-Length: 4\r\n\r\nbody"
                "GET /second HTTP/1.1\r\n\r\n");
    const std::string first = client.reply();
    const std::string second = client.reply();
    EXPECT_EQ(first.substr(first.size() - 6), "/first") << first;
    EXPECT_EQ(second.substr(second.size() - 7), "/second") << second;
    EXPECT_NE(second.find("Connection: close\r\n"), std::string::npos) << second;
    EXPECT_TRUE(client.closed_by_server());
}

TEST(Service, StopFlushesTheReplyInFlightAndClosesKeptAliveConnections) {
    // The handler stops the server and returns a reply far larger than a
    // socket buffer, which its client reads only after a pause: the loop
    // must see the stop with the reply half sent, finish sending it, close
    // the idle kept-alive connections and return.
    const std::string big(4u << 20, 'x');
    HttpServer server(0);
    std::thread loop([&] {
        server.serve_forever([&](const HttpRequest& request) {
            if (request.target == "/stop") {
                server.stop();
                return HttpResponse{200, "text/plain", big};
            }
            return HttpResponse{200, "text/plain", "ok"};
        });
    });

    std::vector<std::unique_ptr<KeepAliveClient>> idle;
    for (int k = 0; k < 3; ++k) {
        idle.push_back(std::make_unique<KeepAliveClient>(server.port()));
        idle.back()->send("GET /healthz HTTP/1.1\r\nConnection: keep-alive\r\n\r\n");
        ASSERT_NE(idle.back()->reply().find("Connection: keep-alive\r\n"), std::string::npos);
    }
    KeepAliveClient stopper(server.port());
    stopper.send("POST /stop HTTP/1.1\r\nConnection: keep-alive\r\n\r\n");
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const std::string reply = stopper.reply();
    ASSERT_GT(reply.size(), big.size());
    EXPECT_EQ(reply.substr(reply.size() - big.size()), big);
    loop.join();
    EXPECT_TRUE(stopper.closed_by_server());
    for (const auto& client : idle) EXPECT_TRUE(client->closed_by_server());
}

} // namespace
} // namespace dynamo
