// dynamo/scenario/scenario.cpp
//
// Registry storage, schema validation, and the list/describe renderers.
#include "scenario/scenario.hpp"

#include <algorithm>
#include <sstream>

#include "core/run/backend.hpp"
#include "rules/registry.hpp"
#include "util/assert.hpp"
#include "util/table.hpp"

namespace dynamo::scenario {

namespace {

/// Meyers singleton so registration works during static initialization of
/// the scenario TUs regardless of link order.
std::vector<Scenario>& registry() {
    static std::vector<Scenario> scenarios;
    return scenarios;
}

bool valid_name(const std::string& name, bool allow_hyphen = false) {
    if (name.empty()) return false;
    for (const char c : name) {
        if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_' ||
              (allow_hyphen && c == '-')))
            return false;
    }
    return true;
}


std::string example_command(const Scenario& s) {
    std::string cmd = "dynamo run " + s.name;
    for (const ParamSpec& p : s.params) {
        if (p.type == ParamType::Flag || p.type == ParamType::OptValue) continue;
        cmd += " --" + p.name + "=" + p.default_value;
    }
    return cmd;
}

} // namespace

bool value_parses_as(ParamType type, const std::string& value) {
    std::istringstream is(value);
    if (type == ParamType::Int) {
        std::int64_t v = 0;
        return static_cast<bool>(is >> v) && is.eof();
    }
    if (type == ParamType::Uint) {
        std::uint64_t v = 0;
        return value.find('-') == std::string::npos && static_cast<bool>(is >> v) && is.eof();
    }
    if (type == ParamType::Double) {
        double v = 0;
        return static_cast<bool>(is >> v) && is.eof();
    }
    if (type == ParamType::Rule) return rules::find_rule(value) != nullptr;
    if (type == ParamType::Backend) return backend_from_name(value).has_value();
    return true;  // String accepts anything; Flag values are ignored
}

const char* to_string(ParamType t) noexcept {
    switch (t) {
        case ParamType::Int: return "int";
        case ParamType::Uint: return "uint";
        case ParamType::Double: return "double";
        case ParamType::String: return "string";
        case ParamType::Flag: return "flag";
        case ParamType::OptValue: return "flag[=value]";
        case ParamType::Rule: return "rule";
        case ParamType::Backend: return "backend";
    }
    return "?";
}

bool register_scenario(Scenario s) {
    DYNAMO_REQUIRE(valid_name(s.name), "scenario name '" + s.name + "' must be [a-z0-9_]+");
    DYNAMO_REQUIRE(s.fn != nullptr, "scenario '" + s.name + "' has no entry function");
    DYNAMO_REQUIRE(find(s.name) == nullptr, "duplicate scenario name '" + s.name + "'");
    for (const ParamSpec& p : s.params) {
        DYNAMO_REQUIRE(valid_name(p.name, /*allow_hyphen=*/true),
                       "scenario '" + s.name + "': bad parameter name '" + p.name + "'");
        DYNAMO_REQUIRE(p.type == ParamType::Flag || value_parses_as(p.type, p.default_value),
                       "scenario '" + s.name + "': default for --" + p.name +
                           " does not parse as " + to_string(p.type));
        DYNAMO_REQUIRE(p.smoke_value.empty() || value_parses_as(p.type, p.smoke_value),
                       "scenario '" + s.name + "': smoke value for --" + p.name +
                           " does not parse as " + to_string(p.type));
    }
    registry().push_back(std::move(s));
    return true;
}

const Scenario* find(const std::string& name) {
    for (const Scenario& s : registry()) {
        if (s.name == name) return &s;
    }
    return nullptr;
}

std::vector<const Scenario*> all() {
    std::vector<const Scenario*> out;
    out.reserve(registry().size());
    for (const Scenario& s : registry()) out.push_back(&s);
    std::sort(out.begin(), out.end(),
              [](const Scenario* a, const Scenario* b) { return a->name < b->name; });
    return out;
}

CliGrammar grammar(const Scenario& s) {
    CliGrammar g;
    for (const ParamSpec& p : s.params) {
        if (p.type == ParamType::Flag) {
            g.flag_keys.insert(p.name);
        } else if (p.type != ParamType::OptValue) {  // OptValue: greedy fallback
            g.value_keys.insert(p.name);
        }
    }
    return g;
}

std::string validate_args(const Scenario& s, const CliArgs& args) {
    for (const auto& [key, value] : args.values()) {
        const ParamSpec* spec = nullptr;
        for (const ParamSpec& p : s.params) {
            if (p.name == key) {
                spec = &p;
                break;
            }
        }
        if (spec == nullptr) {
            std::string msg = "unknown parameter --" + key + " for scenario '" + s.name +
                              "'; declared:";
            for (const ParamSpec& p : s.params) msg += " --" + p.name;
            if (s.params.empty()) msg += " (none)";
            return msg;
        }
        if (spec->type != ParamType::Flag && !value_parses_as(spec->type, value)) {
            if (spec->type == ParamType::Rule) {
                return "--" + key + ": unknown rule '" + value +
                       "'; known: " + rules::known_rule_names();
            }
            if (spec->type == ParamType::Backend) {
                return "--" + key + ": unknown backend '" + value +
                       "'; known: " + known_backend_names();
            }
            return "--" + key + " expects " + std::string(to_string(spec->type)) + ", got '" +
                   value + "'";
        }
    }
    if (!args.positional().empty()) {
        return "scenario '" + s.name + "' takes no positional arguments (got '" +
               args.positional().front() + "')";
    }
    return "";
}

int run(const Scenario& s, Context& ctx) { return s.fn(ctx); }

void print_list(std::ostream& out, bool markdown) {
    const auto scenarios = all();
    if (!markdown) {
        ConsoleTable table({"scenario", "kind", "parameters", "summary"});
        for (const Scenario* s : scenarios) {
            std::string params;
            for (const ParamSpec& p : s->params) {
                if (!params.empty()) params += ",";
                params += p.name;
            }
            table.add_row(s->name, s->kind, params.empty() ? "-" : params, s->title);
        }
        table.print(out);
        out << scenarios.size() << " scenarios. `dynamo describe <name>` for parameters, "
            << "`dynamo run <name> [--param=value ...]` to execute.\n";
        return;
    }
    out << "# Scenario catalog\n\n"
        << "Generated by `dynamo list --markdown`. Do not edit by hand: CI fails when this\n"
        << "file drifts from the registry — regenerate with\n"
        << "`./build/dynamo list --markdown > docs/scenarios.md`.\n\n"
        << "Run any scenario with `dynamo run <name> [--param=value ...]`. See\n"
        << "[manifest-format.md](manifest-format.md) for sweeping a scenario over a\n"
        << "parameter grid with `dynamo campaign`.\n\n"
        << "| scenario | kind | parameters | summary |\n"
        << "|---|---|---|---|\n";
    for (const Scenario* s : scenarios) {
        std::string params;
        for (const ParamSpec& p : s->params) {
            if (!params.empty()) params += ", ";
            params += "`" + p.name + "`";
        }
        out << "| [`" << s->name << "`](#" << s->name << ") | " << s->kind << " | "
            << (params.empty() ? "—" : params) << " | " << s->title << " |\n";
    }
    for (const Scenario* s : scenarios) {
        out << "\n## `" << s->name << "`\n\n" << s->title << "\n";
        if (!s->params.empty()) {
            out << "\n| parameter | type | default | description |\n|---|---|---|---|\n";
            for (const ParamSpec& p : s->params) {
                out << "| `--" << p.name << "` | " << to_string(p.type) << " | "
                    << (p.type == ParamType::Flag ? "—"
                                                  : "`" + p.default_value + "`")
                    << " | " << p.help << " |\n";
            }
        }
        out << "\n```sh\n" << example_command(*s) << "\n```\n";
    }
}

void print_describe(std::ostream& out, const Scenario& s) {
    out << s.name << " (" << s.kind << ", epoch " << s.epoch << ")\n  " << s.title << "\n\n";
    if (s.params.empty()) {
        out << "no parameters\n";
    } else {
        ConsoleTable table({"parameter", "type", "default", "smoke", "description"});
        for (const ParamSpec& p : s.params) {
            table.add_row("--" + p.name, to_string(p.type),
                          p.type == ParamType::Flag ? "-" : p.default_value,
                          p.smoke_or_default(), p.help);
        }
        table.print(out);
    }
    out << "\nexample: " << example_command(s) << "\n";
}

} // namespace dynamo::scenario
