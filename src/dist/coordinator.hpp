// dynamo/dist/coordinator.hpp
//
// The campaign coordinator behind `dynamo coordinate`: a CampaignLedger
// (scenario/campaign.hpp) plus a LeaseTable (dist/lease_table.hpp) seeded
// from the ledger: its pending indices queued, its cache hits settled
// under their result_hash. A lease holds as many points as the asking
// worker has threads. The ledger — the same one a local
// `dynamo campaign` run is built on — owns the expansion, the cache pass
// and settling; this class only routes the lease protocol
// and hands each accepted completion to CampaignLedger::settle. That
// shared owner is what makes the two execution modes interchangeable:
//
//   * placement independence — expansion is always the FULL manifest,
//     so index i's parameters and injected RNG substream are identical
//     no matter which worker computes it; the final artifact is
//     rendered through CampaignOutcome::to_json with the unsharded 0/1
//     layout and is byte-identical to `dynamo campaign` on the same
//     manifest (acceptance-gated in CI with `cmp`);
//   * crash safety — the ledger caches a result the moment it is
//     accepted, under the same cache key a local run computes, so a
//     killed coordinator resumes from its cache under `dynamo
//     coordinate` OR `dynamo campaign`, and vice versa;
//   * cache warmth — a coordinated run warms the same content-addressed
//     cache CLI runs read, so re-running distributes zero points.
//
// Like CampaignService, handle() is pure request -> response routing
// with an INJECTED clock (now_ms) and no socket anywhere — the whole
// protocol, including lease expiry and kill-and-resume, is testable in
// process (tests/test_dist.cpp); `dynamo coordinate` is HttpServer +
// this class + a steady_clock.
#pragma once

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>

#include "dist/lease_table.hpp"
#include "scenario/campaign.hpp"
#include "service/http.hpp"

namespace dynamo::dist {

struct CoordinatorOptions {
    std::string cache_dir = ".dynamo-cache";  ///< the resume record: re-run against it
    std::uint64_t lease_ttl_ms = 10000;  ///< carried by every grant
    std::ostream* progress = nullptr;  ///< campaign-progress JSONL (same records as local)
};

class CampaignCoordinator {
  public:
    /// Builds the campaign's ledger (expansion + cache pass, unsharded)
    /// and queues its pending indices for leasing. `manifest_text` is
    /// the raw document served verbatim at GET /manifest so workers
    /// expand the coordinator's exact grid. Throws on infrastructure
    /// errors (unknown scenario, empty cache directory) — never because of
    /// point-level failures.
    CampaignCoordinator(scenario::Manifest manifest, std::string manifest_text,
                        CoordinatorOptions options);

    /// Route one request at injected time `now_ms` (monotonic,
    /// millisecond). Never throws: malformed bodies 400, wrong-campaign
    /// completions 409, dead leases 410. Thread-safe.
    service::HttpResponse handle(const service::HttpRequest& request, std::uint64_t now_ms);

    /// True once every point has settled (workers are told "done").
    bool complete() const;

    /// Mismatching duplicate completions observed (complete() campaigns
    /// with conflicts must fail loudly — `dynamo coordinate` exits 4).
    std::size_t conflicts() const;

    /// The campaign outcome so far (counts + points). Only meaningful
    /// for rendering once complete(); safe to call any time for status.
    const scenario::CampaignOutcome& outcome() const noexcept { return ledger_.outcome(); }

    /// The final campaign JSON — CampaignOutcome::to_json, i.e. the
    /// byte-identical unsharded artifact. Call once complete().
    std::string artifact() const { return ledger_.outcome().to_json(manifest_); }

    std::string fingerprint_hex() const;
    std::size_t total_points() const noexcept { return ledger_.outcome().total_points; }
    /// Points settled so far, cache hits included (each counted once).
    std::size_t settled_points() const;

    /// One-line human summary (the standard campaign summary plus
    /// fabric counters), for the CLI's final print.
    std::string summary() const;

  private:
    service::HttpResponse handle_locked(const service::HttpRequest& request,
                                        std::uint64_t now_ms);
    service::HttpResponse lease(const std::string& body, std::uint64_t now_ms);
    service::HttpResponse heartbeat(const std::string& body, std::uint64_t now_ms);
    service::HttpResponse completion(const std::string& body, std::uint64_t now_ms);
    service::HttpResponse status(std::uint64_t now_ms);

    scenario::Manifest manifest_;
    std::string manifest_text_;
    CoordinatorOptions options_;
    scenario::CampaignLedger ledger_;
    LeaseTable table_;
    mutable std::mutex mutex_;
};

} // namespace dynamo::dist
