// Tests for the scenario/app layer: registry round-trip (every registered
// scenario describes, validates, and runs at a smoke-size point),
// actionable manifest parse errors, cache hit/miss/invalidation (epoch
// bump), and campaign determinism (serial == pooled bit-identical, warm
// re-run reproduces the cold report from pure cache hits).
//
// This binary links the scenario OBJECT library, so the full registry -
// every bench, every example, the campaign-grade points - is under test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "scenario/campaign.hpp"
#include "scenario/manifest.hpp"
#include "scenario/report.hpp"
#include "scenario/scenario.hpp"
#include "core/run/backend.hpp"
#include "core/run/batch.hpp"
#include "rules/registry.hpp"
#include "util/json.hpp"

namespace dynamo::scenario {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory under the system temp dir.
class ScratchDir {
  public:
    explicit ScratchDir(const std::string& tag)
        : path_((fs::temp_directory_path() /
                 ("dynamo_test_" + tag + "_" +
                  std::to_string(::testing::UnitTest::GetInstance()->random_seed())))
                    .string()) {
        fs::remove_all(path_);
    }
    ~ScratchDir() { fs::remove_all(path_); }
    const std::string& path() const noexcept { return path_; }

  private:
    std::string path_;
};

std::map<std::string, std::string> smoke_params(const Scenario& s) {
    std::map<std::string, std::string> params;
    for (const ParamSpec& p : s.params) {
        if (p.type == ParamType::Flag || p.type == ParamType::OptValue) continue;
        params[p.name] = p.smoke_or_default();
    }
    return params;
}

TEST(Registry, HasTheFullCatalog) {
    const auto scenarios = all();
    EXPECT_GE(scenarios.size(), 20u) << "the unified CLI promises >= 20 scenarios";
    for (const Scenario* s : scenarios) {
        EXPECT_EQ(find(s->name), s);
        EXPECT_FALSE(s->title.empty()) << s->name;
        EXPECT_TRUE(s->kind == "table" || s->kind == "figure" || s->kind == "search" ||
                    s->kind == "perf" || s->kind == "example" || s->kind == "point")
            << s->name << " has unknown kind " << s->kind;
    }
    // Former binaries must all be reachable by their scenario names.
    for (const char* name :
         {"tab_thm1_mesh_bounds", "tab_thm34_cordalis", "tab_thm56_serpentinus",
          "tab_thm7_rounds_mesh", "tab_thm8_rounds_spiral", "tab_prop12_reduction",
          "tab_prop3_colors", "tab_baseline_majority", "tab_montecarlo_density",
          "tab_ext_incremental", "tab_ext_scalefree", "tab_ext_temporal",
          "fig1_fig2_mesh_dynamo", "fig3_fig4_non_dynamos", "fig5_fig6_wave_matrices",
          "search_scaling", "quickstart", "fault_containment", "viral_marketing",
          "wavefront_frames", "opinion_scalefree", "mc_density_point",
          "search_scaling_point", "perf_smp_sweep", "mc_critical_density",
          "adaptive_mc", "perf_engine"}) {
        EXPECT_NE(find(name), nullptr) << name;
    }
}

TEST(Registry, EveryScenarioDescribesAndValidates) {
    for (const Scenario* s : all()) {
        std::ostringstream describe;
        print_describe(describe, *s);
        EXPECT_NE(describe.str().find(s->name), std::string::npos);

        // The declared defaults must pass the scenario's own validation.
        const CliArgs defaults(smoke_params(*s));
        EXPECT_EQ(validate_args(*s, defaults), "") << s->name;

        // Unknown keys are rejected with an actionable message.
        const std::map<std::string, std::string> bogus{{"no_such_param", "1"}};
        const CliArgs unknown(bogus);
        const std::string err = validate_args(*s, unknown);
        EXPECT_NE(err.find("no_such_param"), std::string::npos) << s->name;
    }

    // A negative value for a uint parameter is a validation error, not an
    // internal precondition failure deep inside the scenario.
    const Scenario* mc = find("mc_density_point");
    ASSERT_NE(mc, nullptr);
    const std::map<std::string, std::string> negative_seed{{"seed", "-1"}};
    const CliArgs negative(negative_seed);
    EXPECT_NE(validate_args(*mc, negative).find("expects uint"), std::string::npos);
}

TEST(Registry, EveryScenarioRunsAtItsSmokePoint) {
    for (const Scenario* s : all()) {
        const CliArgs args(smoke_params(*s));
        std::ostringstream out;
        Context ctx{args, out, {}};
        int rc = -1;
        ASSERT_NO_THROW(rc = run(*s, ctx)) << s->name;
        // Two scenarios encode perf gates in their exit codes that a
        // smoke-size workload need not clear: search_scaling (machine-
        // relative speedup; progress also goes to stderr) and adaptive_mc
        // (trial-savings gates that only hold at the committed epsilon).
        if (s->name != "search_scaling" && s->name != "adaptive_mc") {
            EXPECT_EQ(rc, 0) << s->name;
            EXPECT_FALSE(out.str().empty()) << s->name << " produced no report";
        }
    }
}

TEST(Registry, GraphEngineRunsItsDeclaredDefaultSeed) {
    // `describe` and the catalog quote the schema default, so a run that
    // omits --seed must be the same run as one that passes that default:
    // the first report line carries |E|, the round count and the seed.
    const Scenario* s = find("graph_engine");
    ASSERT_NE(s, nullptr);
    std::map<std::string, std::string> params = smoke_params(*s);
    const std::string declared = params.at("seed");
    const auto first_line = [s](const std::map<std::string, std::string>& p) {
        const CliArgs args(p);
        std::ostringstream out;
        Context ctx{args, out, {}};
        run(*s, ctx);
        const std::string report = out.str();
        return report.substr(0, report.find('\n'));
    };
    const std::string with_seed = first_line(params);
    params.erase("seed");
    EXPECT_EQ(first_line(params), with_seed);
    EXPECT_NE(with_seed.find("seed " + declared), std::string::npos) << with_seed;
}

TEST(Registry, PerfEngineReportCarriesTheFieldsCiGatesOn) {
    // CI's bench-smoke scripts read these fields of the perf_engine record
    // and gate on them; every identity flag must hold at any size.
    const Scenario* s = find("perf_engine");
    ASSERT_NE(s, nullptr);
    ScratchDir dir("perf_engine");
    fs::create_directories(dir.path());
    const std::string path = (fs::path(dir.path()) / "perf.json").string();
    const CliArgs args(std::map<std::string, std::string>{{"json-report", path},
                                                          {"side", "64"},
                                                          {"rounds", "2"},
                                                          {"warmup", "1"},
                                                          {"workers", "2"},
                                                          {"mc-trials", "4"}});
    std::ostringstream out;
    Context ctx{args, out, {}};
    ASSERT_EQ(run(*s, ctx), 0);
    EXPECT_TRUE(ctx.metrics.empty());
    std::ifstream in(path);
    ASSERT_TRUE(in) << path;
    const util::Json report = util::Json::parse(
        std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()),
        path);

    const auto number = [&report](const std::string& key) {
        const util::Json* v = report.find(key);
        return v != nullptr && v->is_number();
    };
    const auto identical = [](const util::Json& entry) {
        const util::Json* v = entry.find("bit_identical");
        return v != nullptr && v->as_bool();
    };
    EXPECT_TRUE(number("rules_target_speedup"));
    EXPECT_TRUE(number("bitplane_target_speedup"));
    EXPECT_TRUE(number("mesh_speedup"));
    ASSERT_NE(report.find("results"), nullptr);
    EXPECT_EQ(report.find("results")->as_array().size(), 3u);
    for (const util::Json& topo : report.find("results")->as_array()) {
        EXPECT_TRUE(identical(topo)) << topo.dump();
    }
    for (const char* section : {"rules", "bitplane"}) {
        const util::Json* entries = report.find(section);
        ASSERT_NE(entries, nullptr) << section;
        EXPECT_EQ(entries->as_object().size(), rules::all_rules().size()) << section;
        for (const auto& [name, entry] : entries->as_object()) {
            EXPECT_TRUE(identical(entry)) << section << "/" << name;
        }
        const util::Json* majority = entries->find("majority-prefer-black");
        ASSERT_NE(majority, nullptr) << section;
        const util::Json* speedup = majority->find("speedup");
        EXPECT_TRUE(speedup != nullptr && speedup->is_number()) << section;
    }
    const util::Json* all_identical = report.find("bitplane_all_bit_identical");
    ASSERT_NE(all_identical, nullptr);
    EXPECT_TRUE(all_identical->as_bool());
}

TEST(Registry, ListOutputsAreStable) {
    std::ostringstream console, markdown;
    print_list(console, false);
    print_list(markdown, true);
    EXPECT_NE(console.str().find("tab_thm1_mesh_bounds"), std::string::npos);
    EXPECT_NE(markdown.str().find("# Scenario catalog"), std::string::npos);
    // Markdown must mention every scenario (it is the committed catalog).
    for (const Scenario* s : all()) {
        EXPECT_NE(markdown.str().find("`" + s->name + "`"), std::string::npos) << s->name;
    }
    // Pure function of the registry: repeated renders are byte-identical.
    std::ostringstream again;
    print_list(again, true);
    EXPECT_EQ(markdown.str(), again.str());
}

TEST(Manifest, ParseErrorsAreActionable) {
    const auto expect_error = [](const std::string& text, const std::string& needle) {
        try {
            parse_manifest(text, "test-manifest");
            FAIL() << "expected parse failure for: " << text;
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
                << "message '" << e.what() << "' lacks '" << needle << "'";
        }
    };
    expect_error("{", "expected");                       // truncated JSON
    expect_error(R"({"name": "x"})", "\"scenario\"");    // missing scenario
    expect_error(R"({"name": "x", "scenario": "nope"})", "unknown scenario");
    expect_error(R"({"name": "x", "scenario": "mc_density_point", "typo": 1})",
                 "unknown manifest key");
    expect_error(R"({"name": "x", "scenario": "mc_density_point",
                     "fixed": {"no_such": 1}})",
                 "not a parameter");
    expect_error(R"({"name": "x", "scenario": "mc_density_point",
                     "fixed": {"m": "not-a-number"}})",
                 "expects int");
    // Strict scalar validation: a lexeme that only PARTIALLY parses as an
    // int ("1e3" -> 1) must be rejected, not silently truncated.
    expect_error(R"({"name": "x", "scenario": "mc_density_point",
                     "fixed": {"trials": 1e3}})",
                 "expects int");
    // Flag/OptValue parameters are not sweepable values.
    expect_error(R"({"name": "x", "scenario": "search_scaling",
                     "fixed": {"help": false}})",
                 "flag parameter");
    expect_error(R"({"name": "x", "scenario": "search_scaling",
                     "grid": {"json-report": ["a.json", "b.json"]}})",
                 "flag parameter");
    expect_error(R"({"name": "x", "scenario": "mc_density_point", "seed": -5})",
                 "non-negative integer");
    expect_error(R"({"name": "x", "scenario": "mc_density_point",
                     "grid": {"density": 0.5}})",
                 "non-empty array");
    expect_error(R"({"name": "x", "scenario": "mc_density_point",
                     "fixed": {"m": 5}, "grid": {"m": [5, 6]}})",
                 "both \"fixed\" and \"grid\"");
    expect_error(R"({"name": "x", "scenario": "mc_density_point", "repetitions": 0})",
                 ">= 1");
    // repetitions > 1 needs an injectable seed parameter...
    expect_error(R"({"name": "x", "scenario": "perf_smp_sweep", "repetitions": 2})",
                 "`seed` parameter");
    // ...and must not fight an explicit seed binding.
    expect_error(R"({"name": "x", "scenario": "mc_density_point", "repetitions": 2,
                     "fixed": {"seed": 1}})",
                 "explicit");
}

TEST(Manifest, ExpansionOrderAndSeedInjection) {
    const Manifest m = parse_manifest(
        R"({"name": "exp", "scenario": "mc_density_point",
            "fixed": {"m": 6, "n": 6, "trials": 4},
            "grid": {"density": [0.1, 0.2], "colors": [3, 4]},
            "repetitions": 2, "seed": 99})",
        "test-manifest");
    const auto points = expand(m);
    ASSERT_EQ(points.size(), 8u);  // 2 densities x 2 palettes x 2 reps
    // Later axes vary fastest; repetitions are the outermost loop.
    EXPECT_EQ(points[0].params.at("density"), "0.1");
    EXPECT_EQ(points[0].params.at("colors"), "3");
    EXPECT_EQ(points[1].params.at("colors"), "4");
    EXPECT_EQ(points[2].params.at("density"), "0.2");
    EXPECT_EQ(points[4].params.at("density"), "0.1");  // second repetition restarts
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(points[i].index, i);
        EXPECT_EQ(points[i].params.at("seed"), std::to_string(substream_seed(99, i)));
        EXPECT_EQ(points[i].params.at("m"), "6");
    }
    // Number lexemes survive verbatim (no double re-formatting).
    EXPECT_EQ(points[0].params.at("density"), "0.1");

    // An explicit seed binding is respected, not overwritten.
    const Manifest pinned = parse_manifest(
        R"({"name": "pin", "scenario": "mc_density_point", "fixed": {"seed": 42}})",
        "test-manifest");
    const auto pinned_points = expand(pinned);
    ASSERT_EQ(pinned_points.size(), 1u);
    EXPECT_EQ(pinned_points[0].params.at("seed"), "42");

    // Full-64-bit base seeds survive (as_int would reject >= 2^53).
    const Manifest big = parse_manifest(
        R"({"name": "big", "scenario": "mc_density_point", "seed": 14023699124914558617})",
        "test-manifest");
    EXPECT_EQ(big.seed, 14023699124914558617ull);
}

TEST(Manifest, UnionBudgetIsInjectedForAdaptiveCampaigns) {
    // An adaptive campaign (binds ci_target) without an explicit union
    // budget gets union = the expansion size: every point is one member
    // of the simultaneous confidence-sequence family, so the injected
    // budget makes the whole campaign valid at 1 - delta by the union
    // bound (docs/statistics.md).
    const Manifest adaptive = parse_manifest(
        R"({"name": "adaptive", "scenario": "mc_density_point",
            "fixed": {"ci_target": 0.05, "m": 6, "n": 6},
            "grid": {"density": [0.1, 0.2]}, "repetitions": 3, "seed": 5})",
        "test-manifest");
    const auto points = expand(adaptive);
    ASSERT_EQ(points.size(), 6u);
    for (const auto& point : points) EXPECT_EQ(point.params.at("union"), "6");

    // ci_target on a grid axis also counts as adaptive.
    const Manifest axis = parse_manifest(
        R"({"name": "axis", "scenario": "mc_density_point",
            "grid": {"ci_target": [0.05, 0.02]}, "seed": 5})",
        "test-manifest");
    for (const auto& point : expand(axis)) EXPECT_EQ(point.params.at("union"), "2");

    // An explicit union binding always wins (atlas authors may combine
    // several manifests into one error budget).
    const Manifest pinned = parse_manifest(
        R"({"name": "pinned", "scenario": "mc_density_point",
            "fixed": {"ci_target": 0.05, "union": 40},
            "grid": {"density": [0.1, 0.2]}, "seed": 5})",
        "test-manifest");
    for (const auto& point : expand(pinned)) EXPECT_EQ(point.params.at("union"), "40");

    // Fixed-trial campaigns are untouched — their cache identity must
    // not move under the injection feature.
    const Manifest fixed_trials = parse_manifest(
        R"({"name": "fixed", "scenario": "mc_density_point",
            "grid": {"density": [0.1, 0.2]}, "seed": 5})",
        "test-manifest");
    for (const auto& point : expand(fixed_trials))
        EXPECT_EQ(point.params.count("union"), 0u);
}

TEST(Registry, WarmStartedBracketsAreDeterministicAndDistinctFromCold) {
    // The warm-start (scenarios/adaptive.cpp) reuses a neighboring
    // probe's decision time to skip provably uninformative checkpoints.
    // Its contract: the bracket stays a PURE function of (params, seed)
    // — warm scheduling depends only on earlier probes in the fixed
    // issue order, never on wall-clock or the probe's own stream. NOTE:
    // warm is not pinned as "fewer trials" — skipping checkpoints can
    // also convert an undecided probe into a decision, which buys a
    // tighter bracket for MORE trials; determinism is the invariant.
    const Scenario* s = find("mc_critical_density");
    ASSERT_NE(s, nullptr);
    const std::map<std::string, std::string> base{
        {"m", "8"}, {"n", "8"}, {"max_trials", "1500"}, {"seed", "20110516"}};

    const auto run_once = [&](std::map<std::string, std::string> params) {
        const CliArgs args(params);
        std::ostringstream out;
        Context ctx{args, out, {}};
        EXPECT_EQ(run(*s, ctx), 0);
        return ctx.metrics;
    };

    const auto warm_a = run_once(base);
    const auto warm_b = run_once(base);
    EXPECT_EQ(warm_a, warm_b) << "warm-started bracket is not reproducible";

    // The schedule actually engaged, and it changed the trial ledger
    // relative to the cold schedule (same seed, same probes issued).
    EXPECT_GT(std::stoull(warm_a.at("warm_probes")), 0u);
    auto cold_params = base;
    cold_params["warm"] = "0";
    const auto cold = run_once(cold_params);
    EXPECT_EQ(std::stoull(cold.at("warm_probes")), 0u);
    EXPECT_NE(warm_a.at("trials_total"), cold.at("trials_total"));
}

TEST(Cache, HitMissAndEpochInvalidation) {
    const ScratchDir dir("cache");
    const ResultCache cache(dir.path(), /*code_epoch=*/1);
    const CacheKey key{"mc_density_point", cache.combined_epoch(0), {{"m", "6"}, {"n", "6"}}};

    EXPECT_FALSE(cache.lookup(key).has_value());  // cold miss

    CachedResult result;
    result.metrics = {{"p_k_mono", "0.5"}, {"trials", "6"}};
    result.report = "line one\nline \"two\"\n";
    cache.store(key, result);

    const auto hit = cache.lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->metrics, result.metrics);
    EXPECT_EQ(hit->report, result.report);  // newline/quote round-trip
    EXPECT_EQ(hit->exit_code, 0);

    // Different parameter binding: different identity.
    CacheKey other = key;
    other.params["m"] = "7";
    EXPECT_FALSE(cache.lookup(other).has_value());
    EXPECT_NE(cache_hash(key), cache_hash(other));

    // Epoch bump (code or scenario) orphans the old entry.
    const ResultCache bumped(dir.path(), /*code_epoch=*/2);
    CacheKey bumped_key = key;
    bumped_key.epoch = bumped.combined_epoch(0);
    EXPECT_FALSE(bumped.lookup(bumped_key).has_value());
    EXPECT_NE(cache.entry_path(key), bumped.entry_path(bumped_key));

    // A corrupt entry reads as a miss, never as a wrong result.
    {
        std::ofstream out(cache.entry_path(key), std::ios::trunc);
        out << "{ truncated";
    }
    EXPECT_FALSE(cache.lookup(key).has_value());

    EXPECT_EQ(cache.stats().entries, 1u);  // only key's (now corrupted) entry was stored
}

TEST(Cache, ExitCodesThatDoNotFitIntReadAsMisses) {
    // An edited entry whose exit code is 2^32 used to hit with exit code
    // 0: a failed point served from the cache as a success.
    const ScratchDir dir("cache_exit");
    const ResultCache cache(dir.path());
    const CacheKey key{"s", 1, {{"a", "1"}}};
    cache.store(key, {{}, "boom", 2});
    std::string entry;
    {
        std::ifstream in(cache.entry_path(key));
        entry.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }
    ASSERT_EQ(cache.lookup(key)->exit_code, 2);
    const std::size_t at = entry.find("\"exit_code\": 2");
    ASSERT_NE(at, std::string::npos) << entry;
    for (const char* bad : {"4294967296", "2147483648", "0.5"}) {
        std::string edited = entry;
        edited.replace(at, std::strlen("\"exit_code\": 2"), std::string("\"exit_code\": ") + bad);
        std::ofstream(cache.entry_path(key), std::ios::trunc) << edited;
        EXPECT_FALSE(cache.lookup(key).has_value()) << bad;
    }
}

TEST(Cache, StatsAndClear) {
    const ScratchDir dir("cache_stats");
    const ResultCache cache(dir.path());
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.clear(), 0u);
    cache.store({"s", 1, {{"a", "1"}}}, {{}, "r", 0});
    cache.store({"s", 1, {{"a", "2"}}}, {{}, "r", 0});
    EXPECT_EQ(cache.stats().entries, 2u);
    EXPECT_EQ(cache.clear(), 2u);
    EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(Cache, ClearNeverTouchesForeignJsonFiles) {
    // `dynamo cache clear --cache-dir=.` pointed at a directory with other
    // JSON in it (say, committed BENCH_*.json baselines) must only remove
    // files matching the cache's own <scenario>-e<epoch>-<hash>.json form.
    const ScratchDir dir("cache_foreign");
    const ResultCache cache(dir.path());
    cache.store({"s", 1, {{"a", "1"}}}, {{}, "r", 0});
    const std::string foreign = dir.path() + "/BENCH_search_scaling.json";
    {
        std::ofstream out(foreign);
        out << "{}\n";
    }
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_EQ(cache.clear(), 1u);
    EXPECT_TRUE(fs::exists(foreign));
}

Manifest small_campaign_manifest() {
    return parse_manifest(
        R"({"name": "camp", "scenario": "mc_density_point",
            "fixed": {"m": 6, "n": 6, "trials": 4, "colors": 3},
            "grid": {"density": [0.2, 0.6]},
            "repetitions": 2, "seed": 7})",
        "test-manifest");
}

TEST(Campaign, SerialEqualsPooledBitIdentical) {
    const Manifest manifest = small_campaign_manifest();

    const ScratchDir serial_dir("camp_serial");
    CampaignOptions serial;
    serial.cache_dir = serial_dir.path();
    const CampaignOutcome serial_outcome = run_campaign(manifest, serial);

    const ScratchDir pooled_dir("camp_pooled");
    ThreadPool pool(3);
    CampaignOptions pooled;
    pooled.cache_dir = pooled_dir.path();
    pooled.pool = &pool;
    const CampaignOutcome pooled_outcome = run_campaign(manifest, pooled);

    EXPECT_EQ(serial_outcome.computed, 4u);
    EXPECT_EQ(pooled_outcome.computed, 4u);
    EXPECT_EQ(serial_outcome.to_json(manifest), pooled_outcome.to_json(manifest));
}

TEST(Campaign, WarmRunIsAllCacheHitsAndByteIdentical) {
    const Manifest manifest = small_campaign_manifest();
    const ScratchDir dir("camp_warm");
    CampaignOptions options;
    options.cache_dir = dir.path();

    const CampaignOutcome cold = run_campaign(manifest, options);
    EXPECT_EQ(cold.computed, 4u);
    EXPECT_EQ(cold.cached, 0u);
    EXPECT_EQ(cold.failed, 0u);

    const CampaignOutcome warm = run_campaign(manifest, options);
    EXPECT_EQ(warm.computed, 0u) << "warm run must perform zero computations";
    EXPECT_EQ(warm.cached, 4u);
    EXPECT_EQ(warm.to_json(manifest), cold.to_json(manifest));

    // --force recomputes everything and still lands on the same report.
    CampaignOptions force = options;
    force.force = true;
    const CampaignOutcome forced = run_campaign(manifest, force);
    EXPECT_EQ(forced.computed, 4u);
    EXPECT_EQ(forced.to_json(manifest), cold.to_json(manifest));

    // An epoch bump invalidates the whole campaign.
    CampaignOptions bumped = options;
    bumped.code_epoch = kCodeEpoch + 1;
    const CampaignOutcome invalidated = run_campaign(manifest, bumped);
    EXPECT_EQ(invalidated.computed, 4u);
    EXPECT_EQ(invalidated.to_json(manifest), cold.to_json(manifest));
}

TEST(Campaign, FailedPointsAreReportedAndNeverCached) {
    const Manifest manifest = parse_manifest(
        R"({"name": "bad", "scenario": "mc_density_point",
            "fixed": {"topology": "no-such-topology", "m": 6, "n": 6, "trials": 2}})",
        "test-manifest");
    const ScratchDir dir("camp_fail");
    CampaignOptions options;
    options.cache_dir = dir.path();

    const CampaignOutcome first = run_campaign(manifest, options);
    EXPECT_EQ(first.failed, 1u);
    EXPECT_EQ(first.points[0].result.exit_code, 2);
    EXPECT_NE(first.points[0].result.report.find("point failed"), std::string::npos);
    EXPECT_NE(first.to_json(manifest).find("point failed"), std::string::npos);

    // The failure was not cached: a re-run retries the computation.
    const CampaignOutcome retry = run_campaign(manifest, options);
    EXPECT_EQ(retry.computed, 1u);
    EXPECT_EQ(retry.cached, 0u);
}

TEST(Cache, RuleIdentityKeysNeverCollide) {
    // Satellite of the rule-generic PR: two campaigns differing ONLY in
    // `rule=` must occupy disjoint cache entries - a majority result must
    // never satisfy an SMP lookup.
    const ScratchDir dir("cache_rule");
    const auto manifest_for = [](const std::string& rule) {
        return parse_manifest(
            R"({"name": "rules", "scenario": "mc_density_point",
                "fixed": {"m": 6, "n": 6, "colors": 2, "trials": 4, "rule": ")" +
                rule + R"("}})",
            "test-manifest");
    };
    CampaignOptions options;
    options.cache_dir = dir.path();

    const CampaignOutcome smp = run_campaign(manifest_for("smp"), options);
    EXPECT_EQ(smp.computed, 1u);
    // Same grid, different rule: a fresh computation, never a cache hit.
    const CampaignOutcome majority =
        run_campaign(manifest_for("irreversible-majority"), options);
    EXPECT_EQ(majority.computed, 1u);
    EXPECT_EQ(majority.cached, 0u);
    EXPECT_NE(smp.points[0].result.metrics.at("p_k_mono"),
              majority.points[0].result.metrics.at("p_k_mono"))
        << "the two rules genuinely diverge on this workload";
    // Both entries coexist; re-running either is now a pure hit.
    EXPECT_EQ(run_campaign(manifest_for("smp"), options).cached, 1u);
    EXPECT_EQ(run_campaign(manifest_for("irreversible-majority"), options).cached, 1u);

    // Key-level: the binding difference lands in the hash.
    const CacheKey a{"mc_density_point", 2, {{"m", "6"}, {"rule", "smp"}}};
    CacheKey b = a;
    b.params["rule"] = "threshold-2";
    EXPECT_NE(cache_hash(a), cache_hash(b));
    EXPECT_NE(canonical_key_string(a), canonical_key_string(b));
}

TEST(Cache, BackendBindingsKeySeparatelyButReportIdentically) {
    // Satellite of the Backend-API PR: campaigns differing only in
    // `backend=` occupy disjoint cache entries (the binding is part of the
    // hashed identity - results are shared between backends only by being
    // recomputed), while the produced metrics AND report text must be
    // byte-identical - the engines promise the same trajectories, and the
    // scenario keeps wall-clock out of both.
    const ScratchDir dir("cache_backend");
    const auto manifest_for = [](const std::string& backend) {
        return parse_manifest(
            R"({"name": "backends", "scenario": "mc_density_point",
                "fixed": {"m": 6, "n": 6, "trials": 4, "backend": ")" +
                backend + R"("}})",
            "test-manifest");
    };
    CampaignOptions options;
    options.cache_dir = dir.path();

    const CampaignOutcome active = run_campaign(manifest_for("active"), options);
    EXPECT_EQ(active.computed, 1u);
    const CampaignOutcome bitplane = run_campaign(manifest_for("bitplane"), options);
    EXPECT_EQ(bitplane.computed, 1u);
    EXPECT_EQ(bitplane.cached, 0u) << "backend= must be part of the cache identity";
    ASSERT_EQ(active.points.size(), 1u);
    ASSERT_EQ(bitplane.points.size(), 1u);
    EXPECT_EQ(active.points[0].result.metrics, bitplane.points[0].result.metrics)
        << "backends must produce byte-identical metrics";
    EXPECT_EQ(active.points[0].result.report, bitplane.points[0].result.report)
        << "backends must produce byte-identical reports";
    // Warm re-runs hit their own entries.
    EXPECT_EQ(run_campaign(manifest_for("active"), options).cached, 1u);
    EXPECT_EQ(run_campaign(manifest_for("bitplane"), options).cached, 1u);

    // Key-level: the binding difference lands in the hash.
    const CacheKey a{"mc_density_point", kCodeEpoch, {{"m", "6"}, {"backend", "active"}}};
    CacheKey b = a;
    b.params["backend"] = "bitplane";
    EXPECT_NE(cache_hash(a), cache_hash(b));
    EXPECT_NE(canonical_key_string(a), canonical_key_string(b));
}

TEST(Registry, BackendParamsValidateAgainstTheBackendNames) {
    // ParamType::Backend resolves values against core/run/backend.hpp at
    // parse time, on both surfaces: `dynamo run` arg validation and
    // manifest binding checks, with errors listing the valid names.
    const Scenario* s = find("mc_density_point");
    ASSERT_NE(s, nullptr);
    const auto spec = std::find_if(s->params.begin(), s->params.end(),
                                   [](const ParamSpec& p) { return p.name == "backend"; });
    ASSERT_NE(spec, s->params.end());
    EXPECT_EQ(spec->type, ParamType::Backend);
    EXPECT_STREQ(to_string(ParamType::Backend), "backend");

    for (const char* name : {"auto", "packed", "active", "generic", "bitplane"}) {
        EXPECT_TRUE(value_parses_as(ParamType::Backend, name)) << name;
        EXPECT_TRUE(backend_from_name(name).has_value()) << name;
        EXPECT_STREQ(backend_name(*backend_from_name(name)), name);
    }
    EXPECT_FALSE(value_parses_as(ParamType::Backend, "no-such-backend"));
    EXPECT_EQ(known_backend_names(), "active, auto, bitplane, generic, packed");

    const CliArgs bad(std::map<std::string, std::string>{{"backend", "no-such-backend"}});
    const std::string err = validate_args(*s, bad);
    EXPECT_NE(err.find("unknown backend"), std::string::npos) << err;
    EXPECT_NE(err.find("bitplane"), std::string::npos)
        << "the error must list the known backends: " << err;

    EXPECT_THROW(parse_manifest(R"({"name": "x", "scenario": "mc_density_point",
                                    "fixed": {"backend": "no-such-backend"}})",
                                "test-manifest"),
                 std::invalid_argument);
}

TEST(Registry, SizeAndPaletteParametersThatDoNotFitAreRejected) {
    // A parameter narrowed to its type must not silently become another
    // run: --colors=258 would run |C| = 2 and --m=4294967302 a 6-row torus,
    // under a cache key that records the value as given.
    const auto expect_rejected = [](const char* scenario,
                                    const std::map<std::string, std::string>& params,
                                    const std::string& flag) {
        const Scenario* s = find(scenario);
        ASSERT_NE(s, nullptr);
        const CliArgs args(params);
        std::ostringstream out;
        Context ctx{args, out, {}};
        try {
            run(*s, ctx);
            ADD_FAILURE() << scenario << " ran with --" << flag << "=" << params.at(flag)
                          << ":\n" << out.str();
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("--" + flag), std::string::npos) << e.what();
        }
    };
    const std::map<std::string, std::string> small_bracket{
        {"m", "4"}, {"n", "4"}, {"max_trials", "60"}, {"max_probes", "2"}, {"ladder", "2"}};
    auto palette = small_bracket;
    palette["rule"] = "smp";
    palette["colors"] = "258";
    expect_rejected("mc_critical_density", palette, "colors");
    auto rows = small_bracket;
    rows["m"] = "4294967302";
    rows["n"] = "6";
    expect_rejected("mc_critical_density", rows, "m");

    expect_rejected("mc_density_point", {{"rule", "smp"}, {"colors", "258"}, {"trials", "4"}},
                    "colors");
    expect_rejected("mc_density_point", {{"m", "4294967302"}, {"n", "6"}, {"trials", "4"}}, "m");
    expect_rejected("mc_density_point", {{"n", "-4294967290"}, {"trials", "4"}}, "n");
    expect_rejected("search_scaling_point",
                    {{"rows", "4294967298"}, {"cols", "2"}, {"max-size", "2"}}, "rows");
    expect_rejected("search_scaling_point",
                    {{"rows", "2"}, {"cols", "2"}, {"colors", "258"}, {"max-size", "2"}},
                    "colors");
}

TEST(Registry, RuleParamsValidateAgainstTheRuleRegistry) {
    // ParamType::Rule resolves values against rules/registry.hpp at parse
    // time, on both surfaces: `dynamo run` arg validation and manifest
    // binding checks.
    const Scenario* s = find("mc_density_point");
    ASSERT_NE(s, nullptr);
    const auto rule_spec = std::find_if(s->params.begin(), s->params.end(),
                                        [](const ParamSpec& p) { return p.name == "rule"; });
    ASSERT_NE(rule_spec, s->params.end());
    EXPECT_EQ(rule_spec->type, ParamType::Rule);

    for (const rules::RuleInfo* rule : rules::all_rules()) {
        EXPECT_TRUE(value_parses_as(ParamType::Rule, rule->name)) << rule->name;
    }
    EXPECT_FALSE(value_parses_as(ParamType::Rule, "no-such-rule"));

    const CliArgs bad(std::map<std::string, std::string>{{"rule", "no-such-rule"}});
    const std::string err = validate_args(*s, bad);
    EXPECT_NE(err.find("unknown rule"), std::string::npos) << err;
    EXPECT_NE(err.find("majority-prefer-black"), std::string::npos)
        << "the error must list the known rules: " << err;

    EXPECT_THROW(parse_manifest(R"({"name": "x", "scenario": "mc_density_point",
                                    "fixed": {"rule": "no-such-rule"}})",
                                "test-manifest"),
                 std::invalid_argument);
}

TEST(Cache, EpochFourEntriesNeverCollideWithEpochThree) {
    // Satellite of the adaptive-MC PR: kCodeEpoch moved 3 -> 4 because the
    // mc_density_point metrics block changed shape (p_ci95_* always, the
    // adaptive ci_* block when ci_target > 0). A stale epoch-3 entry must
    // never satisfy an epoch-4 lookup — same scenario, same bindings,
    // disjoint on-disk identity.
    EXPECT_EQ(kCodeEpoch, 4u);
    const ScratchDir dir("cache_epoch4");
    const ResultCache previous(dir.path(), /*code_epoch=*/3);
    const ResultCache current(dir.path(), /*code_epoch=*/4);
    const std::map<std::string, std::string> params{{"m", "6"}, {"density", "0.3"}};
    const CacheKey old_key{"mc_density_point", previous.combined_epoch(0), params};
    CachedResult stale;
    stale.metrics = {{"p_k_mono", "0.25"}};
    stale.report = "pre-adaptive shape\n";
    previous.store(old_key, stale);

    CacheKey new_key = old_key;
    new_key.epoch = current.combined_epoch(0);
    EXPECT_NE(new_key.epoch, old_key.epoch);
    EXPECT_FALSE(current.lookup(new_key).has_value())
        << "epoch-3 entries must read as misses under epoch 4";
    EXPECT_NE(current.entry_path(new_key), previous.entry_path(old_key));
}

TEST(Cache, AdaptiveStoppingBindingsArePartOfThePointIdentity) {
    // ci_target= and delta= change what mc_density_point computes (the
    // stopping rule decides the trial count), so campaigns differing only
    // in those bindings must occupy disjoint cache entries.
    const ScratchDir dir("cache_adaptive");
    const auto manifest_for = [](const std::string& ci_target, const std::string& delta) {
        return parse_manifest(
            R"({"name": "adaptive", "scenario": "mc_density_point",
                "fixed": {"m": 6, "n": 6, "density": 0.3, "max_trials": 200,
                          "ci_target": )" +
                ci_target + R"(, "delta": )" + delta + R"(}})",
            "test-manifest");
    };
    CampaignOptions options;
    options.cache_dir = dir.path();

    const CampaignOutcome tight = run_campaign(manifest_for("0.1", "0.05"), options);
    EXPECT_EQ(tight.computed, 1u);
    EXPECT_EQ(tight.failed, 0u);
    const CampaignOutcome loose = run_campaign(manifest_for("0.2", "0.05"), options);
    EXPECT_EQ(loose.computed, 1u);
    EXPECT_EQ(loose.cached, 0u) << "ci_target= must be part of the cache identity";
    const CampaignOutcome lax = run_campaign(manifest_for("0.1", "0.2"), options);
    EXPECT_EQ(lax.computed, 1u);
    EXPECT_EQ(lax.cached, 0u) << "delta= must be part of the cache identity";
    // All three coexist; warm re-runs are pure hits with identical bytes.
    const CampaignOutcome warm = run_campaign(manifest_for("0.1", "0.05"), options);
    EXPECT_EQ(warm.cached, 1u);
    EXPECT_EQ(warm.computed, 0u);
    EXPECT_EQ(warm.to_json(manifest_for("0.1", "0.05")),
              tight.to_json(manifest_for("0.1", "0.05")))
        << "adaptive points must be cache-safe (warm == cold byte for byte)";

    // Key-level: the bindings land in the hash.
    const CacheKey a{"mc_density_point", kCodeEpoch,
                     {{"m", "6"}, {"ci_target", "0.1"}, {"delta", "0.05"}}};
    CacheKey b = a;
    b.params["ci_target"] = "0.2";
    EXPECT_NE(cache_hash(a), cache_hash(b));
    CacheKey c = a;
    c.params["delta"] = "0.2";
    EXPECT_NE(cache_hash(a), cache_hash(c));
}

TEST(Campaign, ProgressStreamEmitsOneJsonLinePerPoint) {
    const Manifest manifest = small_campaign_manifest();
    const ScratchDir dir("camp_progress");
    CampaignOptions options;
    options.cache_dir = dir.path();

    std::ostringstream cold_progress;
    options.progress = &cold_progress;
    const CampaignOutcome cold = run_campaign(manifest, options);
    EXPECT_EQ(cold.computed, 4u);

    const auto parse_lines = [](const std::string& text) {
        std::vector<util::Json> records;
        std::istringstream is(text);
        std::string line;
        while (std::getline(is, line)) {
            if (!line.empty()) records.push_back(util::Json::parse(line));
        }
        return records;
    };

    std::vector<util::Json> cold_lines = parse_lines(cold_progress.str());
    ASSERT_EQ(cold_lines.size(), 4u) << "one JSONL record per point";
    std::vector<bool> seen(4, false);
    for (const util::Json& record : cold_lines) {
        ASSERT_TRUE(record.is_object());
        const util::Json* index = record.find("index");
        ASSERT_NE(index, nullptr);
        const auto i = static_cast<std::size_t>(index->as_int());
        ASSERT_LT(i, 4u);
        EXPECT_FALSE(seen[i]) << "point " << i << " reported twice";
        seen[i] = true;
        EXPECT_EQ(record.find("status")->as_string(), "computed");
        EXPECT_EQ(record.find("exit_code")->as_int(), 0);
        EXPECT_TRUE(record.find("params")->is_object());
        EXPECT_TRUE(record.find("metrics")->is_object());
    }

    // The warm run streams every point as a cache hit instead.
    std::ostringstream warm_progress;
    options.progress = &warm_progress;
    const CampaignOutcome warm = run_campaign(manifest, options);
    EXPECT_EQ(warm.computed, 0u);
    const std::vector<util::Json> warm_lines = parse_lines(warm_progress.str());
    ASSERT_EQ(warm_lines.size(), 4u);
    for (const util::Json& record : warm_lines) {
        EXPECT_EQ(record.find("status")->as_string(), "cached");
    }
}

TEST(Campaign, ShardedRunsMergeByteIdenticallyThroughARealScenario) {
    // The crash-safe distributed path against a real registry scenario
    // (mc_density_point): split the campaign two ways into a SHARED cache
    // directory, re-run unsharded against it, and require the exact bytes
    // a cold unsharded run produces. tests/test_service.cpp exercises the
    // mechanism exhaustively with probe scenarios; this guards the real
    // registry end of it.
    const Manifest manifest = small_campaign_manifest();
    const ScratchDir dir("camp_shard");

    CampaignOptions unsharded;
    unsharded.cache_dir = dir.path() + "/solo";
    const std::string expected = run_campaign(manifest, unsharded).to_json(manifest);

    CampaignOptions options;
    options.cache_dir = dir.path() + "/shared";
    for (unsigned k = 0; k < 2; ++k) {
        options.shard_index = k;
        options.shard_count = 2;
        const CampaignOutcome outcome = run_campaign(manifest, options);
        EXPECT_EQ(outcome.points.size(), 2u);
        EXPECT_EQ(outcome.total_points, 4u);
    }

    // The shards fully warmed the shared cache for the unsharded shape.
    CampaignOptions warm;
    warm.cache_dir = dir.path() + "/shared";
    const CampaignOutcome rerun = run_campaign(manifest, warm);
    EXPECT_EQ(rerun.cached, 4u);
    EXPECT_EQ(rerun.computed, 0u);
    EXPECT_EQ(rerun.to_json(manifest), expected);
}

TEST(Report, RendersTheCriticalDensityAtlas) {
    // Rendering is a pure function of the campaign JSON, so the atlas path
    // is testable from a hand-written artifact: two rules x two topologies
    // with a clean bracket, an unconverged one, a no-crossing curve, and a
    // failed point.
    const std::string artifact = R"({
      "campaign": "atlas-test", "scenario": "mc_critical_density",
      "description": "hand-written artifact",
      "points": [
        {"params": {"rule": "smp", "topology": "mesh"}, "exit_code": 0,
         "metrics": {"found": true, "converged": true, "critical_lo": "0.55",
                     "critical_hi": "0.6", "critical_mid": "0.575",
                     "bracket_width": "0.05", "trials_total": "1200"}},
        {"params": {"rule": "smp", "topology": "cordalis"}, "exit_code": 0,
         "metrics": {"found": true, "converged": false, "critical_lo": "0.4",
                     "critical_hi": "0.7", "critical_mid": "0.55",
                     "bracket_width": "0.3", "trials_total": "800"}},
        {"params": {"rule": "threshold-1", "topology": "mesh"}, "exit_code": 0,
         "metrics": {"found": false, "converged": false, "trials_total": "300"}},
        {"params": {"rule": "threshold-1", "topology": "cordalis"}, "exit_code": 2,
         "metrics": {}}
      ]})";

    const std::string markdown =
        render_report(artifact, "atlas-test", ReportFormat::Markdown);
    EXPECT_NE(markdown.find("critical-density atlas"), std::string::npos);
    EXPECT_NE(markdown.find("| rule | mesh | cordalis |"), std::string::npos);
    EXPECT_NE(markdown.find("0.575 [0.55, 0.6]"), std::string::npos);
    EXPECT_NE(markdown.find("0.55 [0.4, 0.7] (unconverged)"), std::string::npos);
    EXPECT_NE(markdown.find("no crossing"), std::string::npos);
    EXPECT_NE(markdown.find("failed"), std::string::npos);

    const std::string json = render_report(artifact, "atlas-test", ReportFormat::Json);
    const util::Json doc = util::Json::parse(json);
    EXPECT_EQ(doc.find("kind")->as_string(), "critical_density_atlas");
    EXPECT_EQ(doc.find("failed")->as_int(), 1);
    const auto& rules = doc.find("rules")->as_array();
    ASSERT_EQ(rules.size(), 2u);
    EXPECT_EQ(rules[0].find("rule")->as_string(), "smp");
    EXPECT_TRUE(rules[0].find("cells")->as_array()[0].find("found")->as_bool());
    // Deterministic renderer: repeated renders are byte-identical.
    EXPECT_EQ(render_report(artifact, "atlas-test", ReportFormat::Markdown), markdown);
}

TEST(Report, RejectsExitCodesThatDoNotFitAnInt) {
    // 2^32 used to wrap to 0 and render as a success; it names its point.
    for (const char* code : {"4294967296", "-2147483649", "1.5"}) {
        const std::string artifact =
            std::string(R"({"campaign": "c", "scenario": "mc_density_point", "points": [
              {"params": {"density": "0.1"}, "exit_code": 0, "metrics": {}},
              {"params": {"density": "0.2"}, "exit_code": )") +
            code + R"(, "metrics": {}}]})";
        try {
            render_report(artifact, "edited", ReportFormat::Markdown);
            FAIL() << "exit_code " << code << " was accepted";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("point 1: exit_code " + std::string(code)),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(Report, GenericCampaignsGetVaryingParamColumns) {
    // End to end: run a real campaign, render its artifact. Only `density`
    // varies across points, so it is the sole parameter column.
    const Manifest manifest = small_campaign_manifest();
    const ScratchDir dir("report_generic");
    CampaignOptions options;
    options.cache_dir = dir.path();
    const CampaignOutcome outcome = run_campaign(manifest, options);
    const std::string artifact = outcome.to_json(manifest);

    const std::string markdown = render_report(artifact, "camp", ReportFormat::Markdown);
    EXPECT_NE(markdown.find("camp — mc_density_point campaign"), std::string::npos);
    // density varies by the grid, seed by per-point injection; the fixed
    // bindings (m, n, trials, colors) must not become table columns.
    EXPECT_NE(markdown.find("| density | seed |"), std::string::npos);
    EXPECT_EQ(markdown.find("| m |"), std::string::npos)
        << "constant bindings must not become table columns";
    EXPECT_NE(markdown.find("p_k_mono"), std::string::npos);

    const std::string json = render_report(artifact, "camp", ReportFormat::Json);
    const util::Json doc = util::Json::parse(json);
    EXPECT_EQ(doc.find("kind")->as_string(), "generic");
    const auto& varying = doc.find("varying_params")->as_array();
    ASSERT_EQ(varying.size(), 2u);
    EXPECT_EQ(varying[0].as_string(), "density");
    EXPECT_EQ(varying[1].as_string(), "seed");
    EXPECT_EQ(doc.find("rows")->as_array().size(), 4u);

    // Not-a-campaign inputs fail with an actionable message.
    EXPECT_THROW(render_report("{", "broken", ReportFormat::Markdown),
                 std::invalid_argument);
    try {
        render_report(R"({"some": "json"})", "broken", ReportFormat::Markdown);
        FAIL() << "expected render_report to reject a non-campaign document";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("dynamo campaign"), std::string::npos);
    }
}

TEST(Json, RoundTripAndDeterministicDump) {
    const std::string text =
        R"({"name": "x", "vals": [1, 0.1, -3, true, null], "nested": {"s": "a\nb"}})";
    const util::Json doc = util::Json::parse(text);
    EXPECT_EQ(doc.find("name")->as_string(), "x");
    EXPECT_EQ(doc.find("vals")->as_array()[0].as_int(), 1);
    EXPECT_EQ(doc.find("vals")->as_array()[1].number_lexeme(), "0.1");  // lexeme preserved
    EXPECT_EQ(doc.find("vals")->as_array()[2].as_int(), -3);
    EXPECT_TRUE(doc.find("vals")->as_array()[3].as_bool());
    EXPECT_TRUE(doc.find("vals")->as_array()[4].is_null());
    EXPECT_EQ(doc.find("nested")->find("s")->as_string(), "a\nb");
    // dump -> parse -> dump is a fixed point (deterministic writer).
    const std::string once = doc.dump(2);
    EXPECT_EQ(util::Json::parse(once).dump(2), once);
    // Duplicate keys are an error, not a silent overwrite.
    EXPECT_THROW(util::Json::parse(R"({"a": 1, "a": 2})"), std::invalid_argument);
}

} // namespace
} // namespace dynamo::scenario
