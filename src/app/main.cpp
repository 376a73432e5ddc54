// dynamo/app/main.cpp
//
// The unified `dynamo` CLI: one binary over the scenario registry. The
// command table (kCommands, at the bottom) is the one statement of each
// command's operands and options: `dynamo help`, a command's usage error
// and the option grammar it parses under are all built from it. Every
// command but `run` (which checks its scenario's parameters) refuses an
// option its synopsis does not list.
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "dist/coordinator.hpp"
#include "dist/http_client.hpp"
#include "dist/worker.hpp"
#include "scenario/campaign.hpp"
#include "scenario/report.hpp"
#include "scenario/scenario.hpp"
#include "service/http.hpp"
#include "service/service.hpp"
#include "util/parallel.hpp"

namespace {

using namespace dynamo;

struct Command {
    const char* name;
    /// Operands and options, one usage form a line. Each `--key=VALUE` is a
    /// value option of the command's grammar, each bare `--key` a flag.
    const char* synopsis;
    const char* about;  ///< what `dynamo help` says the command does
    int (*run)(const Command& self, int argc, char** argv);

    CliGrammar grammar() const {
        CliGrammar grammar;
        const std::string text = synopsis;
        for (std::size_t at = text.find("--"); at != std::string::npos;
             at = text.find("--", at)) {
            at += 2;
            const std::size_t end = text.find_first_not_of("abcdefghijklmnopqrstuvwxyz-", at);
            const bool value = end != std::string::npos && text[end] == '=';
            (value ? grammar.value_keys : grammar.flag_keys).insert(text.substr(at, end - at));
            at = end;
        }
        return grammar;
    }

    /// The arguments after `dynamo <name>`: any --key the synopsis does
    /// not list is refused.
    CliArgs args(int argc, char** argv) const {
        const CliGrammar declared = grammar();
        CliArgs args(argc - 1, argv + 1, declared);
        args.require_declared(declared);
        return args;
    }

    int usage_error() const {
        std::istringstream forms(synopsis);
        const char* lead = "usage: ";
        for (std::string form; std::getline(forms, form); lead = "       ")
            std::cerr << lead << "dynamo " << name << " " << form << "\n";
        return 2;
    }
};

/// Appends the words of `text` to `line`, breaking before column 78;
/// continuation lines are indented `indent` columns.
void wrap(std::ostream& out, std::string line, const std::string& text, std::size_t indent) {
    std::istringstream words(text);
    for (std::string word; words >> word;) {
        const bool has_words = line.find_first_not_of(' ') != std::string::npos;
        if (has_words && line.size() + 1 + word.size() > 78) {
            out << line << "\n";
            line.assign(indent - 1, ' ');
        }
        line += ' ' + word;
    }
    out << line << "\n";
}

int cmd_list(const Command& self, int argc, char** argv) {
    const CliArgs args = self.args(argc, argv);
    scenario::print_list(std::cout, args.get_flag("markdown"));
    return 0;
}

/// The registered scenario `name`; nullptr, said on stderr, when unknown.
const scenario::Scenario* find_scenario(const std::string& name) {
    const scenario::Scenario* s = scenario::find(name);
    if (s == nullptr)
        std::cerr << "unknown scenario '" << name
                  << "' — `dynamo list` shows the registered names\n";
    return s;
}

int cmd_describe(const Command& self, int argc, char** argv) {
    const CliArgs args = self.args(argc, argv);
    if (args.positional().size() != 1) return self.usage_error();
    const scenario::Scenario* s = find_scenario(args.positional()[0]);
    if (s == nullptr) return 2;
    scenario::print_describe(std::cout, *s);
    return 0;
}

int cmd_run(const Command& self, int argc, char** argv) {
    if (argc < 3) return self.usage_error();
    const scenario::Scenario* s = find_scenario(argv[2]);
    if (s == nullptr) return 2;
    // argv[2] (the scenario name) becomes the sub-parse's program name, so
    // strict validation sees only the scenario's own arguments.
    const CliArgs args(argc - 2, argv + 2, scenario::grammar(*s));
    if (const std::string err = scenario::validate_args(*s, args); !err.empty()) {
        std::cerr << "dynamo run: " << err << "\n";
        return 2;
    }
    scenario::Context ctx{args, std::cout, {}};
    return scenario::run(*s, ctx);
}

/// --key as an integer no smaller than `min` (`fallback` when absent).
std::int64_t int_at_least(const CliArgs& args, const std::string& key, std::int64_t fallback,
                          std::int64_t min) {
    const std::int64_t value = args.get_int(key, fallback);
    DYNAMO_REQUIRE(value >= min, "--" + key + " must be at least " + std::to_string(min));
    return value;
}

/// --workers=N (0 = hardware) as an optional pool held in `pool`. No
/// pool below 2 workers — don't spawn threads a serial (or fully cached)
/// run will never use.
ThreadPool* workers_pool(const CliArgs& args, std::optional<ThreadPool>& pool) {
    const std::int64_t workers_arg = int_at_least(args, "workers", 0, 0);
    const unsigned workers =
        workers_arg > 0 ? static_cast<unsigned>(workers_arg) : ThreadPool::default_threads();
    if (workers <= 1) return nullptr;
    pool.emplace(workers);
    return &*pool;
}

/// Writes `text` to --out, or to stdout when --out is absent.
void write_out(const CliArgs& args, const std::string& text, const std::string& what) {
    const std::string path = args.get_string("out", "");
    if (path.empty()) {
        std::cout << text;
        return;
    }
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    DYNAMO_REQUIRE(static_cast<bool>(out), "cannot write " + what + " '" + path + "'");
    out << text;
}

/// Opens --progress into `file`; nullptr (no stream) when absent.
std::ostream* open_progress(const CliArgs& args, std::ofstream& file) {
    const std::string path = args.get_string("progress", "");
    if (path.empty()) return nullptr;
    file.open(path, std::ios::binary | std::ios::trunc);
    DYNAMO_REQUIRE(static_cast<bool>(file), "cannot write campaign progress '" + path + "'");
    return &file;
}

std::string read_file(const std::string& path, const std::string& what) {
    std::ifstream in(path, std::ios::binary);
    DYNAMO_REQUIRE(static_cast<bool>(in), "cannot open " + what + " '" + path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/// Binds --port (0 = ephemeral) on loopback. --port-file is the robust
/// way for scripts to learn an ephemeral port: an atomic write, so the
/// file appears only after the bind, fully formed.
std::unique_ptr<service::HttpServer> bind_server(const CliArgs& args) {
    const std::int64_t port = args.get_int("port", 0);
    DYNAMO_REQUIRE(port >= 0 && port <= 65535, "--port must be in [0, 65535]");
    auto server = std::make_unique<service::HttpServer>(static_cast<std::uint16_t>(port));
    if (const std::string path = args.get_string("port-file", ""); !path.empty())
        service::write_port_file(path, server->port());
    return server;
}

int cmd_campaign(const Command& self, int argc, char** argv) {
    const CliArgs args = self.args(argc, argv);
    if (args.positional().size() != 1) return self.usage_error();
    const scenario::Manifest manifest = scenario::load_manifest(args.positional()[0]);

    scenario::CampaignOptions options;
    options.cache_dir = args.get_string("cache-dir", options.cache_dir);
    if (const std::string shard = args.get_string("shard", ""); !shard.empty())
        scenario::parse_shard_spec(shard, options.shard_index, options.shard_count);
    std::ofstream progress;
    options.progress = open_progress(args, progress);
    std::optional<ThreadPool> pool;
    options.pool = workers_pool(args, pool);

    const scenario::CampaignOutcome outcome = scenario::run_campaign(manifest, options);
    write_out(args, outcome.to_json(manifest), "campaign report");
    // The one-line summary always lands on stdout: CI greps it to assert a
    // warm cache computes zero points.
    std::cout << outcome.summary(manifest) << "\n";
    return outcome.failed == 0 ? 0 : 1;
}

int cmd_serve(const Command& self, int argc, char** argv) {
    const CliArgs args = self.args(argc, argv);
    if (!args.positional().empty()) return self.usage_error();
    std::optional<ThreadPool> pool;
    service::ServiceOptions service_options;
    service_options.cache_dir = args.get_string("cache-dir", service_options.cache_dir);
    service_options.pool = workers_pool(args, pool);

    const std::unique_ptr<service::HttpServer> server = bind_server(args);
    service::CampaignService service(std::move(service_options));
    // The log line stays for humans and old scripts; --port-file is the
    // robust channel.
    std::cout << "dynamo serve: listening on http://127.0.0.1:" << server->port() << "\n"
              << std::flush;
    server->serve_forever([&](const service::HttpRequest& request) -> service::HttpResponse {
        if (request.target == "/shutdown") {
            if (request.method != "POST")
                return {405, "application/json", "{\"error\": \"use POST\"}\n"};
            server->stop();
            return {200, "application/json", "{\"status\": \"stopping\"}\n"};
        }
        return service.handle(request);
    });
    std::cout << "dynamo serve: shut down\n";
    return 0;
}

/// Monotonic milliseconds for the coordinator's injected clock (lease
/// TTLs are durations, so the epoch is irrelevant — only steadiness).
std::uint64_t steady_now_ms() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

int cmd_coordinate(const Command& self, int argc, char** argv) {
    const CliArgs args = self.args(argc, argv);
    if (args.positional().size() != 1) return self.usage_error();
    // Keep the raw document: GET /manifest serves it VERBATIM so workers
    // expand exactly the coordinator's grid.
    const std::string manifest_path = args.positional()[0];
    const std::string manifest_text = read_file(manifest_path, "manifest");
    const scenario::Manifest manifest =
        scenario::parse_manifest(manifest_text, manifest_path);

    dist::CoordinatorOptions options;
    options.cache_dir = args.get_string("cache-dir", options.cache_dir);
    options.lease_ttl_ms = static_cast<std::uint64_t>(int_at_least(args, "lease-ttl-ms", 10000, 1));
    std::ofstream progress;
    options.progress = open_progress(args, progress);

    dist::CampaignCoordinator coordinator(manifest, manifest_text, std::move(options));

    bool interrupted = false;
    if (coordinator.complete()) {
        // Warm resume: the cache already covers every point — no reason
        // to open a socket just to tell workers "done".
        std::cout << "dynamo coordinate: campaign already complete (cache), not serving\n";
    } else {
        const std::unique_ptr<service::HttpServer> server = bind_server(args);
        std::cout << "dynamo coordinate: listening on http://127.0.0.1:" << server->port()
                  << " (" << coordinator.total_points() << " points, "
                  << coordinator.settled_points() << " already settled)\n"
                  << std::flush;
        server->serve_forever(
            [&](const service::HttpRequest& request) -> service::HttpResponse {
                service::HttpResponse response =
                    coordinator.handle(request, steady_now_ms());
                // Stop AFTER routing, so the completing worker still gets
                // its reply; remaining workers see the shutdown and exit
                // cleanly through their had-contact rule.
                if (coordinator.complete()) server->stop();
                return response;
            });
        interrupted = !coordinator.complete();
    }

    write_out(args, coordinator.artifact(), "campaign report");
    std::cout << coordinator.summary() << "\n";
    if (coordinator.conflicts() > 0) {
        std::cerr << "dynamo coordinate: " << coordinator.conflicts()
                  << " conflicting duplicate completion(s) — results are supposed to be "
                     "pure functions of (manifest, index); failing loudly\n";
        return 4;
    }
    if (interrupted) {
        std::cerr << "dynamo coordinate: interrupted before completion\n";
        return 3;
    }
    return coordinator.outcome().failed == 0 ? 0 : 1;
}

int cmd_work(const Command& self, int argc, char** argv) {
    const CliArgs args = self.args(argc, argv);
    const std::string url = args.get_string("coordinator", "");
    if (!args.positional().empty() || url.empty()) return self.usage_error();
    const std::optional<dist::Endpoint> endpoint = dist::parse_endpoint(url);
    if (!endpoint.has_value()) {
        std::cerr << "dynamo work: bad --coordinator '" << url
                  << "' (want http://host:port)\n";
        return 2;
    }

    dist::WorkerOptions options;
    options.name = args.get_string("name", "worker-" + std::to_string(::getpid()));
    options.log = &std::cout;
    std::optional<ThreadPool> pool;
    options.pool = workers_pool(args, pool);

    dist::WorkerLoop loop(
        [endpoint](const std::string& method, const std::string& target,
                   const std::string& body) {
            return dist::http_request(*endpoint, method, target, body);
        },
        std::move(options));
    const dist::WorkerExit exit = loop.run();
    std::cout << "dynamo work: " << dist::to_string(exit) << " ("
              << loop.points_computed() << " points over " << loop.leases_completed()
              << " leases)\n";
    return dist::worker_exit_clean(exit) ? 0 : 1;
}

int cmd_report(const Command& self, int argc, char** argv) {
    const CliArgs args = self.args(argc, argv);
    if (args.positional().size() != 1) return self.usage_error();
    const std::string format_name = args.get_string("format", "markdown");
    scenario::ReportFormat format;
    if (format_name == "markdown") {
        format = scenario::ReportFormat::Markdown;
    } else if (format_name == "json") {
        format = scenario::ReportFormat::Json;
    } else {
        std::cerr << "dynamo report: unknown format '" << format_name
                  << "' (known: markdown, json)\n";
        return 2;
    }

    const std::string path = args.positional()[0];
    write_out(args,
              scenario::render_report(read_file(path, "campaign artifact"), path, format),
              "report");
    return 0;
}

int cmd_cache(const Command& self, int argc, char** argv) {
    const CliArgs args = self.args(argc, argv);
    const std::string dir = args.get_string("cache-dir", ".dynamo-cache");
    const auto& positional = args.positional();
    const std::string verb = positional.empty() ? "" : positional[0];
    const bool arity_ok = verb == "merge" ? positional.size() >= 2 : positional.size() == 1;
    if (!arity_ok || (verb != "stats" && verb != "clear" && verb != "merge"))
        return self.usage_error();
    const scenario::ResultCache cache(dir);
    if (verb == "stats") {
        const auto stats = cache.stats();
        std::cout << "cache " << dir << ": " << stats.entries << " entries, " << stats.bytes
                  << " bytes (code epoch " << scenario::kCodeEpoch << ")\n";
        return 0;
    }
    if (verb == "merge") {
        std::size_t copied = 0;
        for (std::size_t i = 1; i < positional.size(); ++i)
            copied += cache.merge_from(positional[i]);
        std::cout << "cache " << dir << ": merged " << copied << " entries from "
                  << positional.size() - 1 << " source(s)\n";
        return 0;
    }
    std::cout << "cache " << dir << ": removed " << cache.clear() << " entries\n";
    return 0;
}

const Command kCommands[] = {
    {"list", "[--markdown]",
     "list registered scenarios (--markdown: the catalog committed as docs/scenarios.md)",
     cmd_list},
    {"describe", "<scenario>", "show parameters, defaults and an example command", cmd_describe},
    {"run", "<scenario> [--param=value ...]", "run one scenario", cmd_run},
    {"campaign",
     "<manifest.json> [--workers=N] [--cache-dir=DIR] [--out=FILE] [--progress=FILE] "
     "[--shard=K/N]",
     "run an experiment manifest through the content-addressed result cache (--workers: 0 = "
     "hardware; --progress: live JSONL, one line per completed point; --shard: own only "
     "points with index % N == K); re-running against the same cache resumes, an empty one "
     "recomputes",
     cmd_campaign},
    {"serve", "[--port=P] [--workers=N] [--cache-dir=DIR] [--port-file=PATH]",
     "HTTP/JSON campaign service on 127.0.0.1 (docs/serving.md; --port: 0 = ephemeral; "
     "--port-file: write the bound port atomically for scripts)",
     cmd_serve},
    {"coordinate",
     "<manifest.json> [--port=P] [--port-file=PATH] [--out=FILE] [--cache-dir=DIR] "
     "[--lease-ttl-ms=MS] [--progress=FILE]",
     "hand out point leases to pulling `dynamo work` processes; the artifact is "
     "byte-identical to a local run",
     cmd_coordinate},
    {"work", "--coordinator=URL [--name=ID] [--workers=N]",
     "pull leases of one point per worker thread, compute them, push results; exits 0 when "
     "the campaign completes or the coordinator shuts down after contact",
     cmd_work},
    {"report", "<campaign.json> [--format=markdown|json] [--out=FILE]",
     "render a campaign artifact as a comparison table (atlas-aware)", cmd_report},
    {"cache", "stats|clear [--cache-dir=DIR]\nmerge <src-dir>... [--cache-dir=DST]",
     "inspect or empty a cache, or copy entries from shard caches; a campaign re-run against "
     "the merged cache reassembles the unsharded artifact with 0 computed",
     cmd_cache},
};

int usage(std::ostream& out, int code) {
    out << "dynamo - unified scenario runner for the colored-tori reproduction\n\n";
    for (const Command& command : kCommands) {
        std::istringstream forms(command.synopsis);
        for (std::string form; std::getline(forms, form);)
            wrap(out, std::string("  dynamo ") + command.name, form, 8);
        wrap(out, "     ", command.about, 6);
    }
    out << "\ndocs: docs/scenarios.md (catalog), docs/manifest-format.md (campaigns),\n"
           "      docs/serving.md (shard/reassemble/resume + HTTP service),\n"
           "      docs/reproducing-the-paper.md (paper artifact -> command)\n";
    return code;
}

} // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage(std::cerr, 2);
    const std::string cmd = argv[1];
    if (cmd == "help" || cmd == "--help" || cmd == "-h") return usage(std::cout, 0);
    for (const Command& command : kCommands) {
        if (cmd != command.name) continue;
        try {
            return command.run(command, argc, argv);
        } catch (const std::exception& e) {
            std::cerr << "dynamo " << cmd << ": " << e.what() << "\n";
            return 2;
        }
    }
    std::cerr << "dynamo: unknown command '" << cmd << "'\n\n";
    return usage(std::cerr, 2);
}
