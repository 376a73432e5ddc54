// dynamo/scenario/report.cpp
//
// Campaign-JSON -> table rendering (see report.hpp for the contract).
#include "scenario/report.hpp"

#include <algorithm>
#include <cstddef>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/json.hpp"

namespace dynamo::scenario {

namespace {

using util::Json;
using util::JsonArray;
using util::JsonObject;

[[noreturn]] void fail(const std::string& where, const std::string& what) {
    throw std::invalid_argument(where + ": " + what);
}

/// One campaign point, flattened back out of the JSON artifact.
struct Point {
    std::map<std::string, std::string> params;
    std::vector<std::pair<std::string, std::string>> metrics;  ///< insertion order
    int exit_code = 0;

    std::string param(const std::string& key, const std::string& fallback) const {
        const auto it = params.find(key);
        return it == params.end() ? fallback : it->second;
    }
    std::string metric(const std::string& key, const std::string& fallback) const {
        for (const auto& [k, v] : metrics) {
            if (k == key) return v;
        }
        return fallback;
    }
};

struct Campaign {
    std::string name;
    std::string scenario;
    std::string description;
    std::vector<Point> points;
    std::size_t failed = 0;
};

Campaign parse_campaign(const std::string& json_text, const std::string& where) {
    Json doc;
    try {
        doc = Json::parse(json_text, where);
    } catch (const std::exception& e) {
        throw std::invalid_argument(std::string(e.what()) +
                                    " (expected a `dynamo campaign` JSON artifact)");
    }
    if (!doc.is_object()) fail(where, "campaign artifact must be a JSON object");
    const Json* name = doc.find("campaign");
    const Json* scenario = doc.find("scenario");
    const Json* points = doc.find("points");
    if (name == nullptr || !name->is_string() || scenario == nullptr ||
        !scenario->is_string() || points == nullptr || !points->is_array()) {
        fail(where, "not a campaign artifact (needs \"campaign\", \"scenario\", and "
                    "\"points\" — the output of `dynamo campaign`)");
    }

    Campaign c;
    c.name = name->as_string();
    c.scenario = scenario->as_string();
    if (const Json* desc = doc.find("description")) {
        if (desc->is_string()) c.description = desc->as_string();
    }
    c.points.reserve(points->as_array().size());
    for (const Json& record : points->as_array()) {
        if (!record.is_object()) fail(where, "\"points\" entries must be objects");
        Point p;
        if (const Json* params = record.find("params"); params != nullptr && params->is_object()) {
            for (const auto& [k, v] : params->as_object()) {
                p.params[k] = v.is_scalar() ? v.scalar_to_param_string() : v.dump(0);
            }
        }
        if (const Json* metrics = record.find("metrics");
            metrics != nullptr && metrics->is_object()) {
            for (const auto& [k, v] : metrics->as_object()) {
                p.metrics.emplace_back(k, v.is_scalar() ? v.scalar_to_param_string()
                                                        : v.dump(0));
            }
        }
        if (const Json* code = record.find("exit_code"); code != nullptr && code->is_number()) {
            const std::optional<int> value = code->to_int();
            if (!value)
                fail(where, "point " + std::to_string(c.points.size()) + ": exit_code " +
                                code->number_lexeme() + " does not fit an int");
            p.exit_code = *value;
        }
        if (p.exit_code != 0) ++c.failed;
        c.points.push_back(std::move(p));
    }
    return c;
}

void append_unique(std::vector<std::string>& keys, const std::string& key) {
    if (std::find(keys.begin(), keys.end(), key) == keys.end()) keys.push_back(key);
}

std::string markdown_row(const std::vector<std::string>& cells) {
    std::string row = "|";
    for (const std::string& cell : cells) row += " " + cell + " |";
    return row + "\n";
}

std::string markdown_rule(std::size_t columns) {
    std::string row = "|";
    for (std::size_t i = 0; i < columns; ++i) row += "---|";
    return row + "\n";
}

// ---------------------------------------------------------------- atlas ---

/// The atlas cell: one rule x topology critical-density bracket.
std::string atlas_cell(const Point& p) {
    if (p.exit_code != 0) return "failed";
    if (p.metric("found", "false") != "true") return "no crossing";
    std::string cell = p.metric("critical_mid", "?") + " [" + p.metric("critical_lo", "?") +
                       ", " + p.metric("critical_hi", "?") + "]";
    if (p.metric("converged", "false") != "true") cell += " (unconverged)";
    return cell;
}

std::string render_atlas_markdown(const Campaign& c) {
    std::vector<std::string> rules;
    std::vector<std::string> topologies;
    // (rule, topology) -> first point; expansion order fixes row/column order.
    std::map<std::pair<std::string, std::string>, const Point*> cells;
    for (const Point& p : c.points) {
        const std::string rule = p.param("rule", "smp");
        const std::string topo = p.param("topology", "mesh");
        append_unique(rules, rule);
        append_unique(topologies, topo);
        cells.emplace(std::make_pair(rule, topo), &p);
    }

    std::ostringstream os;
    os << "# " << c.name << " — critical-density atlas\n\n";
    if (!c.description.empty()) os << c.description << "\n\n";
    os << c.points.size() << " points (" << c.failed
       << " failed); cell = bracket midpoint [lo, hi] of the density where "
          "P(flood) crosses 1/2\n\n";
    std::vector<std::string> header{"rule"};
    header.insert(header.end(), topologies.begin(), topologies.end());
    os << markdown_row(header) << markdown_rule(header.size());
    for (const std::string& rule : rules) {
        std::vector<std::string> row{rule};
        for (const std::string& topo : topologies) {
            const auto it = cells.find({rule, topo});
            row.push_back(it == cells.end() ? "—" : atlas_cell(*it->second));
        }
        os << markdown_row(row);
    }
    return os.str();
}

std::string render_atlas_json(const Campaign& c) {
    std::vector<std::string> rules;
    std::vector<std::string> topologies;
    std::map<std::pair<std::string, std::string>, const Point*> cells;
    for (const Point& p : c.points) {
        const std::string rule = p.param("rule", "smp");
        const std::string topo = p.param("topology", "mesh");
        append_unique(rules, rule);
        append_unique(topologies, topo);
        cells.emplace(std::make_pair(rule, topo), &p);
    }

    JsonArray rule_records;
    for (const std::string& rule : rules) {
        JsonArray cell_records;
        for (const std::string& topo : topologies) {
            const auto it = cells.find({rule, topo});
            if (it == cells.end()) continue;
            const Point& p = *it->second;
            JsonObject cell;
            cell.emplace_back("topology", Json(topo));
            cell.emplace_back("exit_code", Json(static_cast<std::int64_t>(p.exit_code)));
            cell.emplace_back("found", Json(p.metric("found", "false") == "true"));
            cell.emplace_back("converged", Json(p.metric("converged", "false") == "true"));
            cell.emplace_back("critical_lo", Json(p.metric("critical_lo", "")));
            cell.emplace_back("critical_hi", Json(p.metric("critical_hi", "")));
            cell.emplace_back("critical_mid", Json(p.metric("critical_mid", "")));
            cell.emplace_back("bracket_width", Json(p.metric("bracket_width", "")));
            cell.emplace_back("trials_total", Json(p.metric("trials_total", "")));
            cell_records.emplace_back(Json(std::move(cell)));
        }
        JsonObject record;
        record.emplace_back("rule", Json(rule));
        record.emplace_back("cells", Json(std::move(cell_records)));
        rule_records.emplace_back(Json(std::move(record)));
    }

    JsonObject root;
    root.emplace_back("campaign", Json(c.name));
    root.emplace_back("scenario", Json(c.scenario));
    root.emplace_back("kind", Json("critical_density_atlas"));
    root.emplace_back("points", Json(static_cast<std::uint64_t>(c.points.size())));
    root.emplace_back("failed", Json(static_cast<std::uint64_t>(c.failed)));
    root.emplace_back("rules", Json(std::move(rule_records)));
    return Json(std::move(root)).dump(2) + "\n";
}

// -------------------------------------------------------------- generic ---

/// Leading columns of the generic table: parameters whose value differs
/// across points (constant bindings are noise in a comparison table).
std::vector<std::string> varying_params(const Campaign& c) {
    std::vector<std::string> keys;
    for (const Point& p : c.points) {
        for (const auto& [k, v] : p.params) append_unique(keys, k);
    }
    std::vector<std::string> varying;
    for (const std::string& key : keys) {
        const std::string first = c.points.front().param(key, "");
        for (const Point& p : c.points) {
            if (p.param(key, "") != first) {
                varying.push_back(key);
                break;
            }
        }
    }
    return varying;
}

std::vector<std::string> metric_keys(const Campaign& c) {
    std::vector<std::string> keys;
    for (const Point& p : c.points) {
        for (const auto& [k, v] : p.metrics) append_unique(keys, k);
    }
    return keys;
}

std::string render_generic_markdown(const Campaign& c) {
    std::ostringstream os;
    os << "# " << c.name << " — " << c.scenario << " campaign\n\n";
    if (!c.description.empty()) os << c.description << "\n\n";
    os << c.points.size() << " points (" << c.failed << " failed)\n\n";
    if (c.points.empty()) return os.str();

    const std::vector<std::string> params = varying_params(c);
    const std::vector<std::string> metrics = metric_keys(c);
    std::vector<std::string> header;
    for (const std::string& key : params) header.push_back(key);
    for (const std::string& key : metrics) header.push_back(key);
    if (header.empty()) header.push_back("point");
    os << markdown_row(header) << markdown_rule(header.size());
    for (std::size_t i = 0; i < c.points.size(); ++i) {
        const Point& p = c.points[i];
        std::vector<std::string> row;
        for (const std::string& key : params) row.push_back(p.param(key, "—"));
        for (const std::string& key : metrics) {
            row.push_back(p.exit_code != 0 ? "failed" : p.metric(key, "—"));
        }
        if (row.empty()) row.push_back(std::to_string(i));
        os << markdown_row(row);
    }
    return os.str();
}

std::string render_generic_json(const Campaign& c) {
    const std::vector<std::string> params =
        c.points.empty() ? std::vector<std::string>{} : varying_params(c);
    const std::vector<std::string> metrics =
        c.points.empty() ? std::vector<std::string>{} : metric_keys(c);

    JsonArray rows;
    for (const Point& p : c.points) {
        JsonObject param_cells;
        for (const std::string& key : params) param_cells.emplace_back(key, Json(p.param(key, "")));
        JsonObject metric_cells;
        for (const std::string& key : metrics)
            metric_cells.emplace_back(key, Json(p.metric(key, "")));
        JsonObject row;
        row.emplace_back("params", Json(std::move(param_cells)));
        row.emplace_back("metrics", Json(std::move(metric_cells)));
        row.emplace_back("exit_code", Json(static_cast<std::int64_t>(p.exit_code)));
        rows.emplace_back(Json(std::move(row)));
    }

    JsonObject root;
    root.emplace_back("campaign", Json(c.name));
    root.emplace_back("scenario", Json(c.scenario));
    root.emplace_back("kind", Json("generic"));
    root.emplace_back("points", Json(static_cast<std::uint64_t>(c.points.size())));
    root.emplace_back("failed", Json(static_cast<std::uint64_t>(c.failed)));
    JsonArray param_keys;
    for (const std::string& key : params) param_keys.emplace_back(Json(key));
    root.emplace_back("varying_params", Json(std::move(param_keys)));
    root.emplace_back("rows", Json(std::move(rows)));
    return Json(std::move(root)).dump(2) + "\n";
}

} // namespace

std::string render_report(const std::string& campaign_json, const std::string& where,
                          ReportFormat format) {
    const Campaign c = parse_campaign(campaign_json, where);
    const bool atlas = c.scenario == "mc_critical_density" && !c.points.empty();
    if (format == ReportFormat::Markdown) {
        return atlas ? render_atlas_markdown(c) : render_generic_markdown(c);
    }
    return atlas ? render_atlas_json(c) : render_generic_json(c);
}

} // namespace dynamo::scenario
