// dynamo/service/service.cpp
//
// Campaign service implementation (model and endpoint table in
// service.hpp).
#include "service/service.hpp"

#include <algorithm>
#include <charconv>
#include <ostream>
#include <sstream>

#include "util/json.hpp"

namespace dynamo::service {

namespace {

using scenario::CampaignOptions;
using scenario::Manifest;
using util::Json;
using util::JsonArray;
using util::JsonObject;

const char* status_name(int job_status) {
    switch (job_status) {
        case 0: return "queued";
        case 1: return "running";
        case 2: return "done";
        default: return "failed";
    }
}

/// Every manifest field, grid axes in manifest order, as one compact JSON
/// array: equal keys mean equal campaigns, and so byte-equal reports.
std::string manifest_key(const Manifest& manifest) {
    JsonObject fixed;
    for (const auto& [key, value] : manifest.fixed) fixed.emplace_back(key, Json(value));
    JsonArray grid;
    for (const auto& axis : manifest.grid) {
        JsonArray values(axis.values.begin(), axis.values.end());
        grid.emplace_back(Json(JsonArray{Json(axis.key), Json(std::move(values))}));
    }
    return Json(JsonArray{Json(manifest.name), Json(manifest.scenario),
                          Json(manifest.description), Json(std::move(fixed)),
                          Json(std::move(grid)), Json(manifest.repetitions),
                          Json(manifest.seed)})
        .dump();
}

HttpResponse ticket(std::uint64_t id, int job_status, std::size_t points) {
    JsonObject response;
    response.emplace_back("id", Json(id));
    response.emplace_back("status", Json(status_name(job_status)));
    response.emplace_back("points", Json(static_cast<std::uint64_t>(points)));
    return json_response(202, std::move(response));
}

/// Splits "/campaigns/<id>[/<tail>]" -> (id, tail). False when the
/// target is not of that shape or the id is not a decimal number that
/// fits in 64 bits (an overflowing id must not wrap onto a real job).
bool parse_job_target(const std::string& target, std::uint64_t& id, std::string& tail) {
    const std::string prefix = "/campaigns/";
    if (target.rfind(prefix, 0) != 0) return false;
    const std::string rest = target.substr(prefix.size());
    const std::size_t slash = std::min(rest.find('/'), rest.size());
    const char* end = rest.data() + slash;
    const auto [stop, error] = std::from_chars(rest.data(), end, id);
    if (error != std::errc() || stop != end) return false;
    tail = rest.substr(slash);
    return true;
}

} // namespace

std::string CampaignService::ProgressBuffer::snapshot() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return data_;
}

CampaignService::ProgressBuffer::int_type
CampaignService::ProgressBuffer::overflow(int_type ch) {
    if (ch == traits_type::eof()) return traits_type::not_eof(ch);
    const std::lock_guard<std::mutex> lock(mutex_);
    data_.push_back(static_cast<char>(ch));
    return ch;
}

std::streamsize CampaignService::ProgressBuffer::xsputn(const char* s, std::streamsize n) {
    const std::lock_guard<std::mutex> lock(mutex_);
    data_.append(s, static_cast<std::size_t>(n));
    return n;
}

CampaignService::CampaignService(ServiceOptions options) : options_(std::move(options)) {
    runner_ = std::thread([this] { runner_loop(); });
}

CampaignService::~CampaignService() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    runner_.join();
}

bool CampaignService::idle() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!queue_.empty()) return false;
    for (const auto& [id, job] : jobs_) {
        if (job->status == JobStatus::kQueued || job->status == JobStatus::kRunning)
            return false;
    }
    return true;
}

HttpResponse CampaignService::handle(const HttpRequest& request) {
    // Routing ignores any query string: the API is purely path-shaped.
    const std::size_t query = request.target.find('?');
    const std::string target =
        query == std::string::npos ? request.target : request.target.substr(0, query);

    if (target == "/healthz") {
        if (request.method != "GET") return error_response(405, "use GET");
        JsonObject body;
        body.emplace_back("status", Json("ok"));
        body.emplace_back("cache_dir", Json(options_.cache_dir));
        return json_response(200, std::move(body));
    }

    if (target == "/campaigns") {
        if (request.method == "POST") return submit(request.body);
        if (request.method == "GET") return list_jobs();
        return error_response(405, "use GET or POST");
    }

    std::uint64_t id = 0;
    std::string tail;
    if (parse_job_target(target, id, tail)) {
        if (request.method != "GET") return error_response(405, "use GET");
        if (tail.empty()) return job_status(id);
        if (tail == "/progress") return job_progress(id);
        if (tail == "/report") return job_report(id);
        return error_response(404, "unknown campaign endpoint '" + tail + "'");
    }

    return error_response(404, "no such endpoint '" + target + "'");
}

HttpResponse CampaignService::submit(const std::string& body) {
    Manifest manifest;
    try {
        manifest = scenario::parse_manifest(body, "request body");
    } catch (const std::exception& e) {
        return error_response(400, e.what());
    }
    std::string key = manifest_key(manifest);

    std::shared_ptr<Job> job;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (const auto kept = reusable_job(key))
            return ticket(kept->id, static_cast<int>(kept->status), kept->points);
        std::size_t points = 0;
        try {
            points = scenario::expand(manifest).size();
        } catch (const std::exception& e) {
            return error_response(400, e.what());
        }
        if (jobs_.size() >= kKeptJobs && !evict_oldest_finished())
            return error_response(503, "all " + std::to_string(kKeptJobs) +
                                           " kept campaigns are unfinished; retry later");
        job = std::make_shared<Job>();
        job->id = next_id_++;
        job->manifest = std::move(manifest);
        job->points = points;
        by_key_[key] = job->id;
        job->key = std::move(key);
        jobs_.emplace(job->id, job);
        queue_.push_back(job);
    }
    wake_.notify_all();
    return ticket(job->id, static_cast<int>(JobStatus::kQueued), job->points);
}

std::shared_ptr<CampaignService::Job> CampaignService::reusable_job(const std::string& key) const {
    const auto indexed = by_key_.find(key);
    if (indexed == by_key_.end()) return nullptr;
    const std::shared_ptr<Job>& job = jobs_.at(indexed->second);
    const bool failures = job->status == JobStatus::kFailed ||
                          (job->status == JobStatus::kDone && job->outcome.failed != 0);
    return failures ? nullptr : job;
}

bool CampaignService::evict_oldest_finished() {
    const auto oldest = std::find_if(jobs_.begin(), jobs_.end(), [](const auto& entry) {
        return entry.second->status == JobStatus::kDone ||
               entry.second->status == JobStatus::kFailed;
    });
    if (oldest == jobs_.end()) return false;
    const auto indexed = by_key_.find(oldest->second->key);
    if (indexed != by_key_.end() && indexed->second == oldest->first) by_key_.erase(indexed);
    jobs_.erase(oldest);
    return true;
}

HttpResponse CampaignService::list_jobs() const {
    JsonArray entries;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        entries.reserve(jobs_.size());
        for (const auto& [id, job] : jobs_) {
            JsonObject entry;
            entry.emplace_back("id", Json(job->id));
            entry.emplace_back("campaign", Json(job->manifest.name));
            entry.emplace_back("scenario", Json(job->manifest.scenario));
            entry.emplace_back("status", Json(status_name(static_cast<int>(job->status))));
            entry.emplace_back("points", Json(static_cast<std::uint64_t>(job->points)));
            entries.emplace_back(Json(std::move(entry)));
        }
    }
    JsonObject body;
    body.emplace_back("campaigns", Json(std::move(entries)));
    return json_response(200, std::move(body));
}

std::shared_ptr<const CampaignService::Job> CampaignService::find_job(std::uint64_t id,
                                                                     HttpResponse& missing,
                                                                     JobStatus* status) const {
    bool issued = false;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (const auto kept = jobs_.find(id); kept != jobs_.end()) {
            if (status != nullptr) *status = kept->second->status;
            return kept->second;
        }
        issued = id != 0 && id < next_id_;
    }
    missing = issued ? error_response(410, "campaign " + std::to_string(id) +
                                               " was evicted; resubmit its manifest")
                     : error_response(404, "no campaign " + std::to_string(id));
    return nullptr;
}

HttpResponse CampaignService::job_status(std::uint64_t id) const {
    JobStatus status = JobStatus::kQueued;
    HttpResponse missing;
    const auto job = find_job(id, missing, &status);
    if (job == nullptr) return missing;
    // A progress line lands per settled point, so the line count IS the
    // live settled count — no extra bookkeeping channel needed.
    const std::string progress = job->progress.snapshot();
    const std::size_t settled =
        static_cast<std::size_t>(std::count(progress.begin(), progress.end(), '\n'));

    JsonObject body;
    body.emplace_back("id", Json(job->id));
    body.emplace_back("campaign", Json(job->manifest.name));
    body.emplace_back("scenario", Json(job->manifest.scenario));
    body.emplace_back("status", Json(status_name(static_cast<int>(status))));
    body.emplace_back("points", Json(static_cast<std::uint64_t>(job->points)));
    body.emplace_back("settled", Json(static_cast<std::uint64_t>(settled)));
    if (status == JobStatus::kDone) {
        body.emplace_back("summary", Json(job->summary));
        body.emplace_back("computed",
                          Json(static_cast<std::uint64_t>(job->outcome.computed)));
        body.emplace_back("cached", Json(static_cast<std::uint64_t>(job->outcome.cached)));
        body.emplace_back("failed", Json(static_cast<std::uint64_t>(job->outcome.failed)));
    }
    if (status == JobStatus::kFailed) body.emplace_back("error", Json(job->error));
    return json_response(200, std::move(body));
}

HttpResponse CampaignService::job_progress(std::uint64_t id) const {
    HttpResponse missing;
    const auto job = find_job(id, missing);
    if (job == nullptr) return missing;
    return {200, "application/x-ndjson", job->progress.snapshot()};
}

HttpResponse CampaignService::job_report(std::uint64_t id) const {
    JobStatus status = JobStatus::kQueued;
    HttpResponse missing;
    const auto job = find_job(id, missing, &status);
    if (job == nullptr) return missing;
    if (status == JobStatus::kFailed) return error_response(409, job->error);
    if (status != JobStatus::kDone)
        return error_response(409, "campaign " + std::to_string(id) + " is " +
                                       status_name(static_cast<int>(status)) +
                                       "; poll /campaigns/" + std::to_string(id) +
                                       " until done");
    return {200, "application/json", job->report};
}

void CampaignService::runner_loop() {
    for (;;) {
        std::shared_ptr<Job> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
            if (stopping_) return;  // queued-but-unrun jobs are abandoned
            job = queue_.front();
            queue_.pop_front();
            job->status = JobStatus::kRunning;
        }

        std::ostream progress_stream(&job->progress);
        CampaignOptions options;
        options.cache_dir = options_.cache_dir;
        options.pool = options_.pool;
        options.progress = &progress_stream;
        try {
            scenario::CampaignOutcome outcome = scenario::run_campaign(job->manifest, options);
            const std::string report = outcome.to_json(job->manifest);
            const std::string summary = outcome.summary(job->manifest);
            // The report holds every point; status reads only the counts.
            outcome.points = {};
            const std::lock_guard<std::mutex> lock(mutex_);
            job->outcome = std::move(outcome);
            job->report = report;
            job->summary = summary;
            job->status = JobStatus::kDone;
        } catch (const std::exception& e) {
            const std::lock_guard<std::mutex> lock(mutex_);
            job->error = e.what();
            job->status = JobStatus::kFailed;
        }
    }
}

} // namespace dynamo::service
