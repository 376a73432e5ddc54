// Shared plumbing of the layer-ladder benchmark: arguments, the result
// record every workload fills, sample statistics, and small process and
// filesystem helpers. Every timing here is taken from the benchmark's own
// code around calls into the library's public API; nothing inside the
// library is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace ladder {

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;  ///< measuring budget of one run
    bool trace = false;     ///< per-layer run instead of the end-to-end run
    bool smoke = false;     ///< toy sizes: schema check only, not a measurement
    std::string root;       ///< repository checkout (manifests/ live here)
    std::string work;       ///< private scratch directory of this run
    std::string dynamo;     ///< the `dynamo` CLI binary (serve workload)
    unsigned nproc = 1;     ///< workers of every pooled measurement
};

/// What one run reports: correctness, the op counts behind
/// ops_failed_frac, the metrics, and free-form facts for the machine
/// block (working-set sizes, sample counts).
struct Outcome {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, double> metrics;
    std::map<std::string, std::string> info;

    /// Count one op; a failed check also marks the run incorrect.
    void op(bool ok, const std::string& what);
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Wall time of one call of `fn`, in seconds.
double time_s(const std::function<void()>& fn);

double median(std::vector<double> v);

/// The highest percentile <= 99 that still has at least ten samples
/// beyond it (the p99 needs 1000 samples); the median when there are too
/// few samples for any tail. Returns {value, percentile used}.
std::pair<double, double> tail(std::vector<double> v);

/// Quantile q in [0, 1] by the nearest-rank rule.
double quantile(std::vector<double> v, double q);

/// Serial and pooled wall-time samples of a workload's operations (one
/// list per operation; a workload of several operations reports the sum),
/// plus the reference kernel timed alongside them.
///
/// Each operation counts with its fastest sample: contention only ever
/// adds time. That is not enough on a shared host, which also drifts
/// between a fast and a slow state for minutes at a time (1.6x apart here,
/// in every kind of code alike). So the bounded metric, wall_ref_1w, reads
/// the serial wall time against reference(): a fixed byte-stencil sweep
/// compiled into the benchmark, which no change to the repository moves,
/// and which slows with the host. Raw seconds stay in the detail line.
struct Walls {
    explicit Walls(std::size_t ops) : w1(ops), wn(ops) {}
    std::vector<std::vector<double>> w1, wn;
    std::vector<double> ref;

    /// Time the reference kernel (five samples).
    void reference();
    /// wall_s_1w, wall_s_nw and wall_ref_1w, with sample counts and
    /// medians in the info block.
    void report(Outcome& out) const;
};

/// setup_s: the median of repeated set-ups. Three run up front (one in
/// smoke mode); the measuring loops add more through again(), so the
/// median samples the same stretch of host load as the timings do.
class SetupClock {
  public:
    SetupClock(const Args& args, std::function<void()> setup);
    /// One more timed set-up.
    void again();
    void report(Outcome& out) const;

  private:
    std::function<void()> setup_;
    std::vector<double> samples_;
};

/// Median wall time of `reps` calls of `fn`.
double median_time_s(int reps, const std::function<void()>& fn);

/// Peak resident set of this process in MiB.
double self_peak_rss_mb();

/// Peak resident set of another process (VmHWM) in MiB.
double pid_peak_rss_mb(int pid);

std::string read_file(const std::string& path);
void remove_tree(const std::string& path);
void make_dirs(const std::string& path);

/// FNV-1a 64 as 16 hex digits (artifact digests).
std::string fnv1a_hex(const std::string& bytes);

// Workload entry points (sim_layers.cpp, campaign_layers.cpp).
void run_churn(const Args& args, Outcome& out);
void run_wave(const Args& args, Outcome& out);
void run_atlas(const Args& args, Outcome& out);
void run_serve(const Args& args, Outcome& out);

/// The layers a workload does not cross are still reported on a traced
/// run, measured on the small fixed inputs these probes build: the sim
/// and run layers on a 12x12 atlas-sized trial, the campaign, cache and
/// service layers on manifests/atlas_smoke.json.
void trial_sim_layers(const Args& args, Outcome& out);
void smoke_campaign_layers(const Args& args, Outcome& out);
void pool_layer(const Args& args, Outcome& out);

} // namespace ladder
