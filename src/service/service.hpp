// dynamo/service/service.hpp
//
// The campaign service behind `dynamo serve`: POST a manifest, get a job
// id back immediately (202), watch per-point progress as JSONL, fetch the
// finished campaign report. The service wraps the same run_campaign the
// CLI uses, against the same shared result cache — so a manifest whose
// points are already cached answers essentially instantly (the campaign's
// cache pass satisfies them without touching the pool), and whatever the
// service computes warms the cache for later CLI runs and vice versa.
//
// Concurrency model: HTTP routing is synchronous and cheap; actual
// campaigns run on ONE background runner thread, FIFO in submission
// order, sharing a caller-provided ThreadPool for intra-campaign
// parallelism. One campaign at a time keeps the pool's worker budget
// honest (two concurrent campaigns would oversubscribe it) and makes job
// ordering trivial to reason about; the queue provides the elasticity.
//
// Jobs are content-addressed: a POST whose manifest has the same
// canonical key (every manifest field, grid axes in manifest order) as a
// queued, running, or cleanly done job answers with that job instead of
// queueing another. Warm == cold makes its report the one a new job
// would render; its status counts are those of its first run. A failed
// job, or a done one with failed points, is never reused: failures are
// not cached, so a resubmission retries them.
//
// Jobs are capped: at most kKeptJobs are kept. A new job evicts the
// oldest finished one; when none has finished, the POST answers 503.
// Ids stay dense and monotonic; an evicted id answers 410, an id never
// issued 404. Handlers and the runner hold jobs by shared_ptr, so an
// eviction never frees a job someone is still reading.
//
// Endpoints (all JSON unless noted):
//   GET  /healthz                 -> 200 {"status": "ok", ...}
//   POST /campaigns   (manifest)  -> 202 {"id", "status", "points"}
//                                    (a new job, or the reused one)
//                                    | 400 | 503 every kept job unfinished
//   GET  /campaigns               -> 200 {"campaigns": [kept summaries]}
//   GET  /campaigns/<id>          -> 200 {"id", "status", "points",
//                                         "settled", ...} | 404 | 410
//   GET  /campaigns/<id>/progress -> 200 JSONL snapshot (may be partial)
//                                    | 404 | 410
//   GET  /campaigns/<id>/report   -> 200 campaign JSON | 409 until done
//                                    | 404 | 410
//
// CampaignService::handle() is pure request -> response routing with no
// socket anywhere in sight, so the whole surface is unit-testable in
// process; `dynamo serve` is just HttpServer + this class.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "scenario/campaign.hpp"
#include "service/http.hpp"
#include "util/parallel.hpp"

namespace dynamo::service {

struct ServiceOptions {
    std::string cache_dir = ".dynamo-cache";
    ThreadPool* pool = nullptr;  ///< intra-campaign parallelism; may be null
};

class CampaignService {
  public:
    /// The most jobs kept at once (finished and unfinished together).
    static constexpr std::size_t kKeptJobs = 256;

    explicit CampaignService(ServiceOptions options);
    /// Drains the queue flag-first: jobs still queued at destruction are
    /// abandoned (their points are not lost — anything computed is in the
    /// cache); the in-flight campaign is joined to completion.
    ~CampaignService();
    CampaignService(const CampaignService&) = delete;
    CampaignService& operator=(const CampaignService&) = delete;

    /// Route one request. Never throws: routing errors become 4xx, job
    /// failures are reported in the job's status.
    HttpResponse handle(const HttpRequest& request);

    /// True once every submitted job has left the queue and finished
    /// (test/polling convenience; the HTTP surface exposes the same via
    /// per-job status).
    bool idle() const;

  private:
    enum class JobStatus { kQueued, kRunning, kDone, kFailed };

    /// A thread-safe accumulating streambuf: the runner's campaign writes
    /// progress JSONL into it (through its ledger, line-at-a-time),
    /// HTTP threads snapshot it live.
    class ProgressBuffer : public std::streambuf {
      public:
        std::string snapshot() const;

      protected:
        int_type overflow(int_type ch) override;
        std::streamsize xsputn(const char* s, std::streamsize n) override;

      private:
        mutable std::mutex mutex_;
        std::string data_;
    };

    struct Job {
        std::uint64_t id = 0;
        std::string key;  ///< canonical manifest, the reuse index's key
        scenario::Manifest manifest;
        std::size_t points = 0;  ///< expansion size
        JobStatus status = JobStatus::kQueued;
        ProgressBuffer progress;
        std::string report;   ///< campaign JSON once done
        std::string summary;  ///< one-line summary once done
        std::string error;    ///< infrastructure error when failed
        scenario::CampaignOutcome outcome;  ///< counts (no points), valid once done
    };

    HttpResponse submit(const std::string& body);
    HttpResponse list_jobs() const;
    HttpResponse job_status(std::uint64_t id) const;
    HttpResponse job_progress(std::uint64_t id) const;
    HttpResponse job_report(std::uint64_t id) const;

    /// Job lookup under mutex_. Null when the id was never issued or its
    /// job was evicted; `missing` then holds the 404 or 410 answer.
    /// `status`, when given, receives the job's status read under the
    /// same lock. Fields read after the lock drops are themselves
    /// synchronized (progress) or written once before the job finishes.
    std::shared_ptr<const Job> find_job(std::uint64_t id, HttpResponse& missing,
                                        JobStatus* status = nullptr) const;

    /// The kept job with this key if it may answer a resubmission
    /// (queued, running, or done without failed points); else null.
    /// Caller holds mutex_.
    std::shared_ptr<Job> reusable_job(const std::string& key) const;

    /// Drops the oldest finished job to make room; false when every kept
    /// job is unfinished. Caller holds mutex_.
    bool evict_oldest_finished();

    void runner_loop();

    ServiceOptions options_;
    mutable std::mutex mutex_;
    std::condition_variable wake_;
    std::map<std::uint64_t, std::shared_ptr<Job>> jobs_;  ///< kept jobs, id order
    std::unordered_map<std::string, std::uint64_t> by_key_;  ///< key -> newest job's id
    std::uint64_t next_id_ = 1;                ///< ids are 1-based and dense
    std::deque<std::shared_ptr<Job>> queue_;   ///< not-yet-run jobs, FIFO
    bool stopping_ = false;
    std::thread runner_;
};

} // namespace dynamo::service
