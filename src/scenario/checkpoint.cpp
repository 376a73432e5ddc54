// dynamo/scenario/checkpoint.cpp
//
// Append-only campaign checkpoint (format and crash-safety contract in
// checkpoint.hpp).
#include "scenario/checkpoint.hpp"

#include <sstream>
#include <stdexcept>

#include "util/assert.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"

namespace dynamo::scenario {

namespace {

using util::Json;
using util::JsonObject;

constexpr const char* kFormat = "dynamo-campaign-checkpoint";
constexpr int kVersion = 1;

using util::hex16;

/// Parses a 16-hex lexeme (util::hex16's output); false on anything else.
bool parse_hex16(const std::string& s, std::uint64_t& out) {
    if (s.size() != 16) return false;
    out = 0;
    for (const char c : s) {
        out <<= 4;
        if (c >= '0' && c <= '9') {
            out |= static_cast<std::uint64_t>(c - '0');
        } else if (c >= 'a' && c <= 'f') {
            out |= static_cast<std::uint64_t>(c - 'a' + 10);
        } else {
            return false;
        }
    }
    return true;
}

[[noreturn]] void reject(const std::string& path, const std::string& what) {
    throw std::invalid_argument("checkpoint '" + path + "': " + what);
}

} // namespace

CampaignCheckpoint::CampaignCheckpoint(std::string path, std::uint64_t fingerprint,
                                       unsigned shard_index, unsigned shard_count,
                                       std::size_t total_points)
    : path_(std::move(path)) {
    DYNAMO_REQUIRE(!path_.empty(), "checkpoint path must not be empty");

    bool have_header = false;
    {
        std::ifstream in(path_, std::ios::binary);
        std::string line;
        bool first = true;
        while (in && std::getline(in, line)) {
            if (line.empty()) continue;
            Json record;
            try {
                record = Json::parse(line, path_);
            } catch (const std::exception&) {
                if (first) reject(path_, "not a campaign checkpoint (unparsable header)");
                break;  // torn final line from an interrupted append: ignore
            }
            if (first) {
                first = false;
                const Json* format = record.find("format");
                if (format == nullptr || !format->is_string() || format->as_string() != kFormat)
                    reject(path_, "not a campaign checkpoint (missing format marker)");
                const Json* fp = record.find("fingerprint");
                std::uint64_t stored = 0;
                if (fp == nullptr || !fp->is_string() || !parse_hex16(fp->as_string(), stored))
                    reject(path_, "header carries no usable fingerprint");
                if (stored != fingerprint) {
                    reject(path_, "fingerprint mismatch — this checkpoint belongs to a "
                                  "different manifest, epoch, or shard layout (expected " +
                                      hex16(fingerprint) + ", file has " + hex16(stored) +
                                      "); delete it to start over");
                }
                have_header = true;
                continue;
            }
            const Json* index = record.find("index");
            const Json* hash = record.find("hash");
            std::uint64_t parsed_hash = 0;
            if (index == nullptr || !index->is_number() || hash == nullptr ||
                !hash->is_string() || !parse_hex16(hash->as_string(), parsed_hash))
                continue;  // foreign or damaged line: skip, never trust
            std::int64_t parsed_index = -1;  // stays negative unless an exact integer
            try {
                parsed_index = index->as_int();
            } catch (const std::invalid_argument&) {
            }
            if (parsed_index < 0) continue;  // damaged index: skip like any damaged line
            settled_[static_cast<std::size_t>(parsed_index)] = parsed_hash;
        }
    }
    resumed_ = settled_.size();

    out_.open(path_, std::ios::binary | std::ios::app);
    DYNAMO_REQUIRE(static_cast<bool>(out_), "cannot write checkpoint '" + path_ + "'");
    if (!have_header) {
        JsonObject header;
        header.emplace_back("format", Json(kFormat));
        header.emplace_back("version", Json(static_cast<std::int64_t>(kVersion)));
        header.emplace_back("fingerprint", Json(hex16(fingerprint)));
        header.emplace_back("shard_index", Json(static_cast<std::uint64_t>(shard_index)));
        header.emplace_back("shard_count", Json(static_cast<std::uint64_t>(shard_count)));
        header.emplace_back("points", Json(static_cast<std::uint64_t>(total_points)));
        out_ << Json(std::move(header)).dump(0) << "\n" << std::flush;
        DYNAMO_REQUIRE(static_cast<bool>(out_), "cannot write checkpoint '" + path_ + "'");
    }
}

bool CampaignCheckpoint::is_settled(std::size_t index, std::uint64_t hash) const {
    const auto it = settled_.find(index);
    return it != settled_.end() && it->second == hash;
}

void CampaignCheckpoint::mark_settled(std::size_t index, std::uint64_t hash) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = settled_.find(index);
    if (it != settled_.end() && it->second == hash) return;  // already recorded
    settled_[index] = hash;
    JsonObject line;
    line.emplace_back("index", Json(static_cast<std::uint64_t>(index)));
    line.emplace_back("hash", Json(hex16(hash)));
    out_ << Json(std::move(line)).dump(0) << "\n" << std::flush;
}

} // namespace dynamo::scenario
