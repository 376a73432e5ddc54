// The campaign workloads (atlas, serve) and the analysis/stats/batch,
// scenario, cache, service and http rungs of the ladder.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <fcntl.h>
#include <filesystem>
#include <memory>
#include <optional>
#include <regex>
#include <stdexcept>
#include <ostream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "analysis/montecarlo.hpp"
#include "common.hpp"
#include "core/run/batch.hpp"
#include "dist/http_client.hpp"
#include "scenario/campaign.hpp"
#include "scenario/manifest.hpp"
#include "service/service.hpp"
#include "util/json.hpp"

extern char** environ;

namespace ladder {

using namespace dynamo;
using util::Json;

namespace {

/// The atlas workload's default seed, at which its artifact must match
/// kAtlasDigest.
constexpr std::uint64_t kAtlasDefaultSeed = 20110516;
const char* const kAtlasDigest = "696a5e8a6a66fac2";

/// Manifest text with the base seed replaced by `seed` and each
/// (from, to) edit applied; every pattern must occur exactly once.
std::string seeded_manifest(const Args& args, const std::string& rel,
                            const std::vector<std::pair<std::string, std::string>>& edits) {
    std::string text = read_file(args.root + "/" + rel);
    const std::regex seed_re("\"seed\"\\s*:\\s*[0-9]+");
    if (std::distance(std::sregex_iterator(text.begin(), text.end(), seed_re),
                      std::sregex_iterator()) != 1)
        throw std::runtime_error(rel + ": expected exactly one seed binding");
    text = std::regex_replace(text, seed_re, "\"seed\": " + std::to_string(args.seed));
    for (const auto& [from, to] : edits) {
        const auto at = text.find(from);
        if (at == std::string::npos || text.find(from, at + 1) != std::string::npos)
            throw std::runtime_error(rel + ": edit target not found once: " + from);
        text.replace(at, from.size(), to);
    }
    return text;
}

/// The CI atlas campaign (3 rules x 2 tori, 8x8): one cold run takes a
/// few hundred milliseconds, short enough to sample many times a run.
std::string smoke_manifest(const Args& args) {
    return seeded_manifest(args, "manifests/atlas_smoke.json", {});
}

/// The full phase-transition atlas (12 rules x 3 tori, 12x12), whose
/// campaign rungs the traced atlas run times.
std::string full_atlas_manifest(const Args& args) {
    if (args.smoke) return smoke_manifest(args);
    return seeded_manifest(args, "manifests/atlas_phase_transition.json", {});
}

std::string fresh_dir(const Args& args, const std::string& name) {
    const std::string dir = args.work + "/" + name;
    remove_tree(dir);
    return dir;
}

scenario::CampaignOutcome campaign(const scenario::Manifest& manifest, const std::string& dir,
                                   ThreadPool* pool, std::ostream* progress = nullptr) {
    scenario::CampaignOptions o;
    o.cache_dir = dir;
    o.pool = pool;
    o.progress = progress;
    return scenario::run_campaign(manifest, o);
}

double trials_total(const scenario::CampaignOutcome& c) {
    double total = 0;
    for (const auto& p : c.points) {
        const auto it = p.result.metrics.find("trials_total");
        if (it != p.result.metrics.end()) total += std::stod(it->second);
    }
    return total;
}

// --- HTTP client side --------------------------------------------------------

/// The closed-loop request mix of one client: mostly hot report reads,
/// some /healthz and status calls, and every tenth request a resubmission
/// (served from the cache) polled until done.
class Client {
  public:
    Client(dist::Endpoint endpoint, std::string manifest, std::uint64_t id, std::string expected)
        : endpoint_(std::move(endpoint)), manifest_(std::move(manifest)),
          status_path_("/campaigns/" + std::to_string(id)), expected_(std::move(expected)) {}

    /// Runs `count` requests of the mix; latencies (ms) go to `lat` when
    /// given. Returns {attempted, failed}.
    std::pair<std::uint64_t, std::uint64_t> run(std::uint64_t count, std::vector<double>* lat) {
        std::uint64_t done = 0, failed = 0;
        while (done < count) {
            const std::uint64_t i = next_++;
            if (i % 10 == 9) {
                const auto r = request("POST", "/campaigns", manifest_, lat, done, failed);
                const auto id = r ? job_id(r->body) : std::nullopt;
                if (!id) continue;
                for (int polls = 0; done < count; ++polls) {
                    const auto s = request("GET", "/campaigns/" + std::to_string(*id), "", lat,
                                           done, failed);
                    if (!s || s->body.find("\"done\"") != std::string::npos) break;
                    if (polls > 2000) {
                        ++failed;
                        break;
                    }
                }
            } else if (i % 10 == 4) {
                request("GET", "/healthz", "", lat, done, failed);
            } else if (i % 10 == 7) {
                request("GET", status_path_, "", lat, done, failed);
            } else {
                const auto r = request("GET", status_path_ + "/report", "", lat, done, failed);
                if (r && r->body != expected_) ++failed;
            }
        }
        return {done, failed};
    }

    static std::optional<std::uint64_t> job_id(const std::string& body) {
        try {
            const Json doc = Json::parse(body);
            if (const Json* id = doc.find("id")) return static_cast<std::uint64_t>(id->as_int());
        } catch (const std::exception&) {
        }
        return std::nullopt;
    }

  private:
    std::optional<dist::HttpClientResponse> request(const std::string& method,
                                                    const std::string& target,
                                                    const std::string& body,
                                                    std::vector<double>* lat, std::uint64_t& done,
                                                    std::uint64_t& failed) {
        const auto t0 = lat ? Clock::now() : Clock::time_point{};
        auto r = dist::http_request(endpoint_, method, target, body);
        if (lat) lat->push_back(seconds_since(t0) * 1e3);
        ++done;
        if (!r || r->status < 200 || r->status >= 300) {
            ++failed;
            return std::nullopt;
        }
        return r;
    }

    dist::Endpoint endpoint_;
    std::string manifest_;
    std::string status_path_;
    std::string expected_;
    std::uint64_t next_ = 0;
};

/// `clients` concurrent clients, `per_client` requests each. Returns the
/// batch wall time; counts and latencies accumulate into the arguments.
double client_batch(const dist::Endpoint& ep, const std::string& manifest, std::uint64_t id,
                    const std::string& expected, unsigned clients, std::uint64_t per_client,
                    std::vector<double>* lat, Outcome& out) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> counts(clients);
    std::vector<std::vector<double>> lats(clients);
    const double wall = time_s([&] {
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < clients; ++c) {
            threads.emplace_back([&, c] {
                Client client(ep, manifest, id, expected);
                counts[c] = client.run(per_client, lat ? &lats[c] : nullptr);
            });
        }
        for (auto& t : threads) t.join();
    });
    for (unsigned c = 0; c < clients; ++c) {
        out.attempted += counts[c].first;
        out.failed += counts[c].second;
        if (counts[c].second != 0) out.correct = false;
        if (lat) lat->insert(lat->end(), lats[c].begin(), lats[c].end());
    }
    return wall;
}

/// Submit `manifest` and poll until the job is done; returns its id.
std::uint64_t submit_and_wait(const dist::Endpoint& ep, const std::string& manifest) {
    const auto r = dist::http_request(ep, "POST", "/campaigns", manifest);
    if (!r || r->status != 202) throw std::runtime_error("campaign submission refused");
    const auto id = Client::job_id(r->body);
    if (!id) throw std::runtime_error("submission answer has no id: " + r->body);
    const auto t0 = Clock::now();
    for (;;) {
        const auto s = dist::http_request(ep, "GET", "/campaigns/" + std::to_string(*id), "");
        if (s && s->body.find("\"done\"") != std::string::npos) return *id;
        if (s && s->body.find("\"failed\"") != std::string::npos)
            throw std::runtime_error("campaign job failed: " + s->body);
        if (seconds_since(t0) > 120) throw std::runtime_error("campaign job never finished");
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
}

/// `dynamo serve --workers=1` as a child process, shut down and reaped on
/// destruction.
class ServeProcess {
  public:
    /// `cache_dir` empty = a fresh cache of its own.
    ServeProcess(const Args& args, const std::string& name, const std::string& cache_dir = "") {
        const std::string dir = fresh_dir(args, name);
        make_dirs(dir);
        const std::string port_file = dir + "/port";
        const std::string log = dir + "/serve.log";
        std::vector<std::string> argv_s = {args.dynamo,          "serve",
                                           "--workers=1",        "--port=0",
                                           "--port-file=" + port_file,
                                           "--cache-dir=" +
                                               (cache_dir.empty() ? dir + "/cache" : cache_dir)};
        std::vector<char*> argv;
        for (auto& s : argv_s) argv.push_back(s.data());
        argv.push_back(nullptr);
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_addopen(&fa, 1, log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        posix_spawn_file_actions_addopen(&fa, 2, log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
        const int rc = posix_spawn(&pid_, args.dynamo.c_str(), &fa, nullptr, argv.data(), environ);
        posix_spawn_file_actions_destroy(&fa);
        if (rc != 0) throw std::runtime_error("cannot start " + args.dynamo);
        const auto t0 = Clock::now();
        while (!std::filesystem::exists(port_file)) {
            int status = 0;
            if (waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("dynamo serve exited early: " + read_file(log));
            }
            if (seconds_since(t0) > 60) {
                stop();
                throw std::runtime_error("dynamo serve never bound");
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        endpoint_ = {"127.0.0.1", static_cast<std::uint16_t>(std::stoi(read_file(port_file)))};
    }
    ServeProcess(const ServeProcess&) = delete;
    ServeProcess& operator=(const ServeProcess&) = delete;
    ~ServeProcess() {
        if (endpoint_.port != 0) dist::http_request(endpoint_, "POST", "/shutdown", "", 2000);
        stop();
    }

    const dist::Endpoint& endpoint() const { return endpoint_; }
    int pid() const { return pid_; }

  private:
    /// Reap the server, killing it if it has not exited within 5 s.
    void stop() {
        if (pid_ <= 0) return;
        int status = 0;
        for (int k = 0; k < 500; ++k) {
            if (waitpid(pid_, &status, WNOHANG) == pid_) return;
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
    }

    pid_t pid_ = -1;
    dist::Endpoint endpoint_;
};

/// /healthz probes from a second client while an idle client holds a
/// connection open; returns how many timed out.
double idle_healthz_timeouts(const dist::Endpoint& ep) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(ep.port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        if (fd >= 0) ::close(fd);
        throw std::runtime_error("idle probe cannot connect");
    }
    double timeouts = 0;
    for (int k = 0; k < 3; ++k) {
        const auto r = dist::http_request(ep, "GET", "/healthz", "", 300);
        if (!r || r->status != 200) timeouts += 1;
    }
    ::close(fd);
    // Let the server drain the abandoned probes before the next rung.
    const auto r = dist::http_request(ep, "GET", "/healthz", "", 10000);
    if (!r || r->status != 200) throw std::runtime_error("server did not recover after idle probe");
    return timeouts;
}

/// A streambuf that timestamps every progress line (one per settled
/// point): the traced campaign's only hook.
class StampBuf : public std::streambuf {
  public:
    std::vector<Clock::time_point> stamps;

  protected:
    int_type overflow(int_type ch) override {
        if (ch == '\n') stamps.push_back(Clock::now());
        return ch;
    }
};

void batch_layers(const Args& args, Outcome& out) {
    // One 12x12 atlas-sized density point through the BatchRunner.
    grid::Torus torus(grid::Topology::ToroidalMesh, 12, 12);
    const std::size_t trials = args.smoke ? 200 : 20000;
    const std::uint64_t seed = args.seed;
    ThreadPool pool(args.nproc);
    analysis::DensityPoint serial, pooled;
    const double t1 = median_time_s(3, [&] {
        serial = analysis::run_density_point(torus, 1, 0.5, 4, trials, seed, nullptr);
    });
    const double tn = median_time_s(3, [&] {
        pooled = analysis::run_density_point(torus, 1, 0.5, 4, trials, seed, &pool);
    });
    out.op(serial.k_mono == pooled.k_mono && serial.cycles == pooled.cycles,
           "density point serial != pooled");
    out.metrics["batch.trial_us"] = t1 / static_cast<double>(trials) * 1e6;
    out.metrics["batch.pooled_speedup"] = t1 / tn;

    analysis::AdaptiveOptions a;
    a.stopping.decision_threshold = 0.5;
    a.stopping.ci_target = 0.02;
    const auto adaptive = analysis::run_density_point_adaptive(torus, 1, 0.55, 4, seed, a, &pool);
    out.metrics["stats.trials_used_frac"] =
        static_cast<double>(adaptive.point.trials) / static_cast<double>(adaptive.computed);
}

/// The scenario, cache, service and http rungs on one manifest. `live`
/// is a running `dynamo serve` primed with `text` as job `live_id`; when
/// null, one is started on the warm cache of the cold-campaign rung.
void campaign_layers(const Args& args, const std::string& text, Outcome& out,
                     const dist::Endpoint* live = nullptr, std::uint64_t live_id = 0) {
    scenario::Manifest manifest;
    std::vector<scenario::PointSpec> specs;
    out.metrics["manifest.expand_ms"] = 1e3 * median_time_s(args.smoke ? 3 : 20, [&] {
        manifest = scenario::parse_manifest(text, "manifest");
        specs = scenario::expand(manifest);
    });
    const scenario::Scenario* scen = scenario::find(manifest.scenario);
    if (scen == nullptr) throw std::runtime_error("unknown scenario " + manifest.scenario);

    // Serial compute_campaign_point calls: per-point cost and skew.
    std::vector<double> point_s;
    std::vector<scenario::CachedResult> results;
    for (const auto& spec : specs) {
        point_s.push_back(
            time_s([&] { results.push_back(scenario::compute_campaign_point(*scen, spec)); }));
        out.op(results.back().exit_code == 0, "campaign point failed");
    }
    double point_sum = 0;
    for (double s : point_s) point_sum += s;
    out.metrics["campaign.point_ms_p50"] = median(point_s) * 1e3;
    out.metrics["campaign.point_ms_max"] = *std::max_element(point_s.begin(), point_s.end()) * 1e3;
    out.metrics["campaign.point_skew"] = *std::max_element(point_s.begin(), point_s.end()) /
                                         *std::min_element(point_s.begin(), point_s.end());

    // Cold campaigns at 1/2/4 workers (and nproc), each on a fresh cache.
    std::string reference, warm_dir;
    double cold_nw = 0;
    std::vector<unsigned> workers = {1, 2, 4};
    if (std::find(workers.begin(), workers.end(), args.nproc) == workers.end())
        workers.push_back(args.nproc);
    for (const unsigned w : workers) {
        const std::string dir = fresh_dir(args, "cold-w" + std::to_string(w));
        auto pool = w > 1 ? std::make_unique<ThreadPool>(w) : nullptr;
        scenario::CampaignOutcome c;
        const double s = time_s([&] { c = campaign(manifest, dir, pool.get()); });
        if (w == 1 || w == 2 || w == 4) out.metrics["campaign.cold_s.w" + std::to_string(w)] = s;
        const std::string json = c.to_json(manifest);
        if (reference.empty()) reference = json;
        out.op(c.failed == 0 && json == reference, "cold campaign at " + std::to_string(w) +
                                                       " workers differs from 1 worker");
        if (w == args.nproc) {
            cold_nw = s;
            warm_dir = dir;
        }
    }
    out.metrics["campaign.pool_idle_frac"] = 1.0 - point_sum / (args.nproc * cold_nw);

    // Cache rung: store and look up every point's result.
    {
        scenario::ResultCache cache(fresh_dir(args, "cache-rung"));
        const int epoch = cache.combined_epoch(scen->epoch);
        std::vector<double> store_us, lookup_us;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const scenario::CacheKey key{manifest.scenario, epoch, specs[i].params};
            store_us.push_back(time_s([&] { cache.store(key, results[i]); }) * 1e6);
            std::optional<scenario::CachedResult> hit;
            lookup_us.push_back(time_s([&] { hit = cache.lookup(key); }) * 1e6);
            out.op(hit && hit->report == results[i].report && hit->metrics == results[i].metrics,
                   "cache lookup differs from the stored result");
        }
        out.metrics["cache.store_us"] = median(store_us);
        out.metrics["cache.lookup_us"] = median(lookup_us);
    }

    ThreadPool pool(args.nproc);
    scenario::CampaignOutcome warm;
    out.metrics["campaign.warm_s"] =
        median_time_s(5, [&] { warm = campaign(manifest, warm_dir, &pool); });
    out.op(warm.computed == 0 && warm.to_json(manifest) == reference, "warm campaign recomputed");

    // Service rung: CampaignService::handle in process, no socket.
    service::ServiceOptions so;
    so.cache_dir = warm_dir;
    so.pool = &pool;
    service::CampaignService svc(so);
    const auto submit = svc.handle({"POST", "/campaigns", {}, text});
    const auto id = Client::job_id(submit.body);
    if (!id) throw std::runtime_error("in-process submission failed: " + submit.body);
    while (!svc.idle()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    struct Route {
        const char* name;
        const char* method;
        std::string target;
        std::string body;
    };
    const auto routes = [&](std::uint64_t job_id) {
        const std::string job = "/campaigns/" + std::to_string(job_id);
        return std::vector<Route>{{"healthz", "GET", "/healthz", ""},
                                  {"status", "GET", job, ""},
                                  {"report", "GET", job + "/report", ""},
                                  {"submit", "POST", "/campaigns", text}};
    };
    const int reps = args.smoke ? 5 : 200;
    for (const Route& r : routes(*id)) {
        std::vector<double> us;
        for (int k = 0; k < reps; ++k) {
            service::HttpResponse resp;
            us.push_back(time_s([&] { resp = svc.handle({r.method, r.target, {}, r.body}); }) * 1e6);
            out.op(resp.status / 100 == 2, std::string("in-process ") + r.name + " failed");
            if (std::string(r.name) == "report") out.op(resp.body == reference, "report differs");
            if (std::string(r.name) == "submit") {
                while (!svc.idle()) std::this_thread::sleep_for(std::chrono::microseconds(100));
            }
        }
        out.metrics[std::string("service.handle_us.") + r.name] = median(us);
    }

    // HTTP rung: the same requests over loopback to `dynamo serve` - the
    // serve workload's own server, or one started here on the warm cache.
    std::unique_ptr<ServeProcess> spawned;
    dist::Endpoint ep;
    if (live != nullptr) {
        ep = *live;
    } else {
        spawned = std::make_unique<ServeProcess>(args, "serve-rung", warm_dir);
        ep = spawned->endpoint();
        live_id = submit_and_wait(ep, text);
    }
    for (const Route& r : routes(live_id)) {
        std::vector<double> us;
        for (int k = 0; k < reps; ++k) {
            std::optional<dist::HttpClientResponse> resp;
            us.push_back(
                time_s([&] { resp = dist::http_request(ep, r.method, r.target, r.body); }) * 1e6);
            out.op(resp && resp->status / 100 == 2, std::string("http ") + r.name + " failed");
        }
        out.metrics[std::string("http.roundtrip_us.") + r.name] = median(us);
    }
    out.metrics["http.idle_healthz_timeouts"] = idle_healthz_timeouts(ep);

    // Closed-loop latency: 2 clients of the serve mix for a short spell.
    std::vector<double> lat;
    std::uint64_t requests = 0;
    double wall = 0;
    while (wall < (args.smoke ? 0.05 : 1.0)) {
        const std::uint64_t before = out.attempted;
        wall += client_batch(ep, text, live_id, reference, 2, 50, &lat, out);
        requests += out.attempted - before;
    }
    out.metrics["serve.latency_ms_p50"] = quantile(lat, 0.5);
    const auto [p, pct] = tail(lat);
    out.metrics["serve.latency_ms_p99"] = p;
    out.metrics["serve.latency_samples"] = static_cast<double>(lat.size());
    out.metrics["serve.req_per_s"] = static_cast<double>(requests) / wall;
    out.info["serve.latency_ms_p99"] = "p" + std::to_string(pct);

    batch_layers(args, out);
}

} // namespace

void smoke_campaign_layers(const Args& args, Outcome& out) {
    campaign_layers(args, smoke_manifest(args), out);
}

void run_atlas(const Args& args, Outcome& out) {
    // One run campaigns under four seeds derived from --seed (the first is
    // --seed itself): a seed moves the trial count by about 10 %, and four
    // of them average that out of the run-to-run spread.
    const std::size_t seeds = args.smoke ? 1 : 4;
    std::vector<std::string> texts;
    std::vector<scenario::Manifest> manifests;
    SetupClock setup(args, [&] {
        texts.clear();
        manifests.clear();
        for (std::size_t k = 0; k < seeds; ++k) {
            Args derived = args;
            if (k != 0) derived.seed = substream_seed(args.seed, k);
            texts.push_back(smoke_manifest(derived));
            manifests.push_back(scenario::parse_manifest(texts.back(), "atlas manifest"));
            scenario::expand(manifests.back());
        }
    });
    out.info["working_set"] = "8x8 tori: two 64 B byte fields per trial";
    ThreadPool pool(args.nproc);
    std::vector<std::string> reference(seeds);
    double trials = 0;
    const auto cold = [&](std::size_t k, ThreadPool* p, std::ostream* progress) {
        scenario::CampaignOutcome c;
        const std::string dir = fresh_dir(args, "atlas-cold");
        const double s = time_s([&] { c = campaign(manifests[k], dir, p, progress); });
        const std::string json = c.to_json(manifests[k]);
        if (reference[k].empty()) {
            reference[k] = json;
            trials += trials_total(c);
            if (k == 0 && args.seed == kAtlasDefaultSeed)
                out.op(fnv1a_hex(json) == kAtlasDigest, "atlas digest " + fnv1a_hex(json));
            if (k == 0) out.info["artifact_fnv1a"] = fnv1a_hex(json);
        }
        out.op(c.failed == 0 && json == reference[k],
               "atlas artifact differs between worker counts");
        return s;
    };
    if (!args.trace) {
        Walls walls(seeds);
        const auto t0 = Clock::now();
        while (walls.w1[0].size() < 2 || (!args.smoke && seconds_since(t0) < args.seconds)) {
            for (std::size_t k = 0; k < seeds; ++k) {
                walls.w1[k].push_back(cold(k, nullptr, nullptr));
                walls.wn[k].push_back(cold(k, &pool, nullptr));
            }
            walls.reference();
            setup.again();
        }
        setup.report(out);
        walls.report(out);
        out.metrics["throughput_per_s"] = trials / out.metrics["wall_s_1w"];
        out.info["trials_total"] = std::to_string(trials);
        out.metrics["peak_rss_mb"] = self_peak_rss_mb();
        return;
    }
    setup.report(out);
    // Tracing overhead: the same cold campaigns with every settled point
    // timestamped through the progress stream.
    const std::size_t points = scenario::expand(manifests[0]).size();
    for (const bool pooled : {false, true}) {
        ThreadPool* p = pooled ? &pool : nullptr;
        const double plain = cold(0, p, nullptr);
        StampBuf buf;
        std::ostream progress(&buf);
        const double traced = cold(0, p, &progress);
        out.op(buf.stamps.size() == points, "progress stream missed a point");
        out.metrics[pooled ? "trace.overhead_s_nw" : "trace.overhead_s_1w"] = traced - plain;
    }
    campaign_layers(args, full_atlas_manifest(args), out);
    trial_sim_layers(args, out);
}

void run_serve(const Args& args, Outcome& out) {
    const std::string text = smoke_manifest(args);
    const scenario::Manifest manifest = scenario::parse_manifest(text, "atlas_smoke");
    // The local artifact every served report must equal, byte for byte.
    std::string expected;
    {
        ThreadPool pool(args.nproc);
        expected = campaign(manifest, fresh_dir(args, "serve-local"), &pool).to_json(manifest);
    }
    // Each set-up starts its own server; all but the last are shut down
    // after the timed repeats.
    std::vector<std::unique_ptr<ServeProcess>> servers;
    std::uint64_t id = 0;
    SetupClock setup(args, [&] {
        servers.push_back(
            std::make_unique<ServeProcess>(args, "serve-" + std::to_string(servers.size())));
        id = submit_and_wait(servers.back()->endpoint(), text);
    });
    setup.report(out);
    servers.erase(servers.begin(), servers.end() - 1);
    const ServeProcess* server = servers.back().get();
    const auto report = dist::http_request(server->endpoint(), "GET",
                                           "/campaigns/" + std::to_string(id) + "/report", "");
    out.op(report && report->status == 200 && report->body == expected,
           "served report differs from the local run_campaign artifact");
    out.info["working_set"] = "atlas_smoke report of " + std::to_string(expected.size()) +
                              " B per hot read";

    const std::uint64_t batch = args.smoke ? 20 : 1000;
    if (!args.trace) {
        Walls walls(1);
        const auto t0 = Clock::now();
        std::uint64_t total = 0;
        // The server keeps every resubmitted job (about one request in
        // ten) for the life of the process; the cap bounds its memory.
        while ((walls.w1[0].size() < 3 || seconds_since(t0) < args.seconds) && total < 40000) {
            walls.w1[0].push_back(client_batch(server->endpoint(), text, id, expected, 1, batch,
                                               nullptr, out));
            walls.wn[0].push_back(client_batch(server->endpoint(), text, id, expected, 2,
                                               batch / 2, nullptr, out));
            walls.reference();
            total += 2 * batch;
            if (args.smoke) break;
        }
        walls.report(out);
        out.metrics["throughput_per_s"] = static_cast<double>(batch) / out.metrics["wall_s_1w"];
        out.metrics["peak_rss_mb"] = pid_peak_rss_mb(server->pid());
        out.info["batch"] = std::to_string(batch) + " requests";
        return;
    }
    // Tracing overhead: the same batches with every request timed.
    for (const unsigned clients : {1u, 2u}) {
        std::vector<double> lat;
        const double plain = client_batch(server->endpoint(), text, id, expected, clients,
                                          batch / clients, nullptr, out);
        const double traced = client_batch(server->endpoint(), text, id, expected, clients,
                                           batch / clients, &lat, out);
        out.metrics[clients == 1 ? "trace.overhead_s_1w" : "trace.overhead_s_nw"] =
            traced - plain;
    }
    const dist::Endpoint ep = server->endpoint();
    campaign_layers(args, text, out, &ep, id);
    trial_sim_layers(args, out);
}

} // namespace ladder
