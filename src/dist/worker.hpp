// dynamo/dist/worker.hpp
//
// The pulling worker behind `dynamo work`: fetch the manifest once,
// expand it locally (global indices => identical parameters and RNG
// substreams everywhere — the placement-independence invariant), then
// loop lease -> compute -> complete until the coordinator says done (on
// a lease grant, or on the completion reply that settled the campaign).
// Each lease asks for as many points as the worker's pool has threads
// (1 without a pool), so every thread has a point to compute.
//
// Fault model (the schedule is fixed, in dist/worker.cpp):
//   * transient transport failures retry up to 8 times with capped
//     exponential backoff + jitter (backoff_delay_ms: 50 ms doubling to
//     a 2000 ms cap); once retries are exhausted AFTER the coordinator
//     was ever reachable, the worker concludes the coordinator shut down
//     and exits CLEANLY — a finished coordinator stops serving, and that
//     must not fail worker jobs;
//   * a coordinator that was NEVER reachable is an error (bad URL,
//     nothing listening) — the worker exits nonzero;
//   * a grant with no indices ("wait") is polled again after 200 ms;
//   * while computing a batch, a background heartbeat renews the lease
//     every ttl/3 ms (none when the grant carries ttl_ms 0);
//     heartbeat failures are deliberately IGNORED (the lease expiring
//     merely requeues the work — the eventual completion resolves as
//     first-valid-wins or a benign duplicate);
//   * a 409 on /complete means the coordinator is running a DIFFERENT
//     campaign than the manifest this worker fetched (restarted with a
//     new manifest mid-run) — the worker exits nonzero rather than
//     keep computing points nobody wants.
//
// Socketless by construction: the loop talks through an injected
// Transport function and sleeps through an injected Sleeper, so every
// branch above is unit-testable with a scripted fake (test_dist.cpp; a
// fake that grants ttl_ms 0 keeps the loop on one thread); `dynamo work`
// injects dist/http_client.hpp and a real sleep.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>

#include "dist/http_client.hpp"
#include "util/parallel.hpp"

namespace dynamo::dist {

enum class WorkerExit {
    CampaignComplete = 0,    ///< coordinator said done — clean exit
    CoordinatorShutdown,     ///< lost after successful contact — clean exit
    Unreachable,             ///< never reached the coordinator — error
    CampaignMismatch,        ///< fingerprint 409 — error
    ProtocolError,           ///< unparseable reply / unknown scenario — error
};

/// True for the exits `dynamo work` maps to status 0.
inline bool worker_exit_clean(WorkerExit exit) noexcept {
    return exit == WorkerExit::CampaignComplete || exit == WorkerExit::CoordinatorShutdown;
}

const char* to_string(WorkerExit exit) noexcept;

/// The retry delay before retry `attempt` (0-based) of a worker whose
/// jitter seed is `seed`: uniform in [raw/2, raw], raw = min(2000,
/// 50 * 2^attempt) ms. The top-half jitter keeps the expected delay
/// growing while decorrelating workers that fail in lockstep (all hitting
/// a restarting coordinator at once). A pure function: SplitMix64 keyed on
/// (seed, attempt), no global RNG state.
std::uint64_t backoff_delay_ms(std::uint64_t seed, unsigned attempt);

/// A worker's jitter seed, a pure function of its name, so workers with
/// different names retry on different schedules, reproducibly.
std::uint64_t backoff_seed(const std::string& name);

struct WorkerOptions {
    std::string name = "worker";   ///< log prefix and backoff seed
    ThreadPool* pool = nullptr;    ///< computes a lease's points; its size is the lease size
    std::ostream* log = nullptr;   ///< optional human-readable progress lines
};

class WorkerLoop {
  public:
    /// One round trip to the coordinator; empty optional on transport
    /// failure (exactly http_request's contract).
    using Transport = std::function<std::optional<HttpClientResponse>(
        const std::string& method, const std::string& target, const std::string& body)>;
    using Sleeper = std::function<void(std::uint64_t ms)>;

    /// `transport` MUST be callable from a second thread while the main
    /// loop computes (the heartbeat), unless it grants ttl_ms 0.
    WorkerLoop(Transport transport, WorkerOptions options, Sleeper sleeper = {});

    /// Run to one of the terminal states. Call once.
    WorkerExit run();

    std::size_t points_computed() const noexcept { return points_computed_; }
    std::size_t leases_completed() const noexcept { return leases_completed_; }
    std::size_t retries() const noexcept { return retries_; }

  private:
    /// Transport with the retry/backoff schedule applied; empty optional
    /// after 8 retries that all failed.
    std::optional<HttpClientResponse> request(const std::string& method,
                                              const std::string& target,
                                              const std::string& body);

    Transport transport_;
    WorkerOptions options_;
    Sleeper sleeper_;
    bool had_contact_ = false;
    std::size_t points_computed_ = 0;
    std::size_t leases_completed_ = 0;
    std::size_t retries_ = 0;
};

} // namespace dynamo::dist
