// ladder: one workload of the layer-ladder benchmark per invocation.
//
//   ladder <churn|wave|atlas|serve> --seed=N --seconds=S --trace=0|1
//          --root=REPO --work=DIR --nproc=P [--smoke]
//
// Prints one JSON object: {"correct", "attempted", "failed", "metrics",
// "info"}. ladder/run.py builds this binary, adds units and the machine
// block, and prints the benchmark's result line.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "common.hpp"
#include "util/json.hpp"

namespace ladder {

void Outcome::op(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    correct = false;
    std::cerr << "ladder: check failed: " << what << "\n";
}

double time_s(const std::function<void()>& fn) {
    const auto t0 = Clock::now();
    fn();
    return seconds_since(t0);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
    if (v.empty()) throw std::runtime_error("quantile of no samples");
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::pair<double, double> tail(std::vector<double> v) {
    // Largest p <= 99 with at least 10 samples above the p-th percentile.
    const double n = static_cast<double>(v.size());
    double p = std::min(99.0, std::floor(100.0 * (n - 10.0) / n));
    if (n < 20 || p < 50) p = 50;
    return {quantile(std::move(v), p / 100.0), p};
}

void Walls::reference() {
    // A small run loop of its own: majority with ties kept over a fixed
    // 128x128 bit pattern on a wrap-around grid, 40 rounds, each round's
    // changes collected into a vector and its state hashed into a map -
    // ~1 ms of the byte-stencil, allocation and hashing work the
    // workloads do.
    constexpr int n = 128;
    std::uint64_t changed = 0;
    for (int rep = 0; rep < 5; ++rep) ref.push_back(time_s([&] {
        std::vector<std::uint8_t> cur(n * n), next(n * n);
        for (int v = 0; v < n * n; ++v)
            cur[v] = (static_cast<std::uint32_t>(v) * 2654435761u >> 7) & 1;
        std::vector<std::uint32_t> changes;
        std::unordered_map<std::uint64_t, int> seen;
        std::uint64_t hash = 0;
        for (int r = 0; r < 40; ++r) {
            changes.clear();
            for (int i = 0; i < n; ++i) {
                const int up = (i + n - 1) % n, down = (i + 1) % n;
                for (int j = 0; j < n; ++j) {
                    const int left = (j + n - 1) % n, right = (j + 1) % n;
                    const int sum = cur[up * n + j] + cur[down * n + j] + cur[i * n + left] +
                                    cur[i * n + right];
                    const std::uint8_t was = cur[i * n + j];
                    const std::uint8_t now = sum > 2 ? 1 : sum < 2 ? 0 : was;
                    if (now != was) changes.push_back(static_cast<std::uint32_t>(i * n + j));
                    next[i * n + j] = now;
                }
            }
            for (const std::uint32_t v : changes) hash = (hash ^ v) * 0x100000001b3ULL;
            seen.emplace(hash, r);
            changed += changes.size();
            cur.swap(next);
        }
    }));
    // Keep the work observable so it cannot be optimised away.
    static std::atomic<std::uint64_t> sink{0};
    sink.fetch_add(changed, std::memory_order_relaxed);
}

void Walls::report(Outcome& out) const {
    for (const auto& [name, parts] : {std::pair{"wall_s_1w", &w1}, std::pair{"wall_s_nw", &wn}}) {
        double fastest = 0, typical = 0;
        std::size_t samples = 0;
        for (const auto& v : *parts) {
            fastest += *std::min_element(v.begin(), v.end());
            typical += median(v);
            samples += v.size();
        }
        out.metrics[name] = fastest;
        out.info[std::string(name) + " median"] = std::to_string(typical);
        out.info[std::string(name) + " samples"] = std::to_string(samples);
    }
    const double ref_s = *std::min_element(ref.begin(), ref.end());
    out.metrics["wall_ref_1w"] = out.metrics["wall_s_1w"] / ref_s;
    out.info["reference_s"] = std::to_string(ref_s);
}

SetupClock::SetupClock(const Args& args, std::function<void()> setup)
    : setup_(std::move(setup)) {
    for (int k = 0; k < (args.smoke ? 1 : 3); ++k) again();
}

void SetupClock::again() { samples_.push_back(time_s(setup_)); }

void SetupClock::report(Outcome& out) const {
    out.metrics["setup_s"] = median(samples_);
    out.info["setup_s samples"] = std::to_string(samples_.size());
}

double median_time_s(int reps, const std::function<void()>& fn) {
    std::vector<double> s;
    for (int k = 0; k < reps; ++k) s.push_back(time_s(fn));
    return median(s);
}

double self_peak_rss_mb() {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_maxrss) / 1024.0;
}

double pid_peak_rss_mb(int pid) {
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    }
    throw std::runtime_error("no VmHWM for process " + std::to_string(pid));
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot read " + path);
    std::ostringstream s;
    s << in.rdbuf();
    return s.str();
}

void remove_tree(const std::string& path) { std::filesystem::remove_all(path); }
void make_dirs(const std::string& path) { std::filesystem::create_directories(path); }

std::string fnv1a_hex(const std::string& bytes) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
    return buf;
}

namespace {

Args parse(int argc, char** argv) {
    if (argc < 2) throw std::invalid_argument("usage: ladder <workload> --key=value ...");
    Args a;
    a.workload = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        const std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
        if (key == "--seed") a.seed = std::stoull(val);
        else if (key == "--seconds") a.seconds = std::stod(val);
        else if (key == "--trace") a.trace = val == "1";
        else if (key == "--smoke") a.smoke = true;
        else if (key == "--root") a.root = val;
        else if (key == "--work") a.work = val;
        else if (key == "--nproc") a.nproc = static_cast<unsigned>(std::stoul(val));
        else throw std::invalid_argument("unknown argument " + arg);
    }
    if (a.root.empty() || a.work.empty() || a.nproc == 0)
        throw std::invalid_argument("--root, --work and --nproc are required");
    a.dynamo = LADDER_DYNAMO_CLI;
    return a;
}

std::string render(const Outcome& o) {
    using dynamo::util::Json;
    dynamo::util::JsonObject metrics, info;
    for (const auto& [k, v] : o.metrics) {
        if (!std::isfinite(v)) throw std::runtime_error("metric " + k + " is not finite");
        metrics.emplace_back(k, Json(v));
    }
    for (const auto& [k, v] : o.info) info.emplace_back(k, Json(v));
    info.emplace_back("build_type", Json(LADDER_BUILD_TYPE));
    info.emplace_back("cxx_flags", Json(LADDER_CXX_FLAGS));
    info.emplace_back("compiler", Json(LADDER_COMPILER));
    dynamo::util::JsonObject doc;
    doc.emplace_back("correct", Json(o.correct));
    doc.emplace_back("attempted", Json(o.attempted));
    doc.emplace_back("failed", Json(o.failed));
    doc.emplace_back("metrics", Json(std::move(metrics)));
    doc.emplace_back("info", Json(std::move(info)));
    return Json(std::move(doc)).dump();
}

} // namespace
} // namespace ladder

int main(int argc, char** argv) {
    try {
        const ladder::Args args = ladder::parse(argc, argv);
        ladder::make_dirs(args.work);
        ladder::Outcome out;
        if (args.workload == "churn") ladder::run_churn(args, out);
        else if (args.workload == "wave") ladder::run_wave(args, out);
        else if (args.workload == "atlas") ladder::run_atlas(args, out);
        else if (args.workload == "serve") ladder::run_serve(args, out);
        else throw std::invalid_argument("unknown workload " + args.workload);
        ladder::remove_tree(args.work);
        std::cout << ladder::render(out) << std::endl;
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "ladder: " << e.what() << "\n";
        return 1;
    }
}
