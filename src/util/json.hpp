// dynamo/util/json.hpp
//
// Minimal JSON value type, recursive-descent parser, and writer — the
// substrate of the experiment-manifest format (scenario/manifest.hpp) and
// the content-addressed result cache (scenario/cache.hpp). No external
// dependency: the container ships no JSON library, and the subset needed
// here (objects, arrays, strings, numbers, booleans, null) is small.
//
// Design points that matter to the scenario layer:
//   * objects preserve insertion order (a manifest's grid axes expand in
//     the order the author wrote them);
//   * numbers keep their source lexeme, so "0.1" round-trips to the CLI
//     parameter string "0.1" instead of a re-formatted double;
//   * parse errors carry a byte offset and a human-readable expectation,
//     so a broken manifest points at its own mistake.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace dynamo::util {

class Json;

/// Insertion-ordered key/value sequence. Lookup is linear — manifests and
/// cache records hold a handful of keys.
using JsonObject = std::vector<std::pair<std::string, Json>>;
using JsonArray = std::vector<Json>;

class Json {
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    Json() = default;
    Json(bool b) : type_(Type::Bool), bool_(b) {}
    Json(double d);
    Json(std::int64_t i);
    Json(int i) : Json(static_cast<std::int64_t>(i)) {}
    Json(std::uint64_t u);
    Json(std::string s) : type_(Type::String), str_(std::move(s)) {}
    Json(const char* s) : Json(std::string(s)) {}
    Json(JsonArray a) : type_(Type::Array), arr_(std::move(a)) {}
    Json(JsonObject o) : type_(Type::Object), obj_(std::move(o)) {}

    Type type() const noexcept { return type_; }
    bool is_null() const noexcept { return type_ == Type::Null; }
    bool is_bool() const noexcept { return type_ == Type::Bool; }
    bool is_number() const noexcept { return type_ == Type::Number; }
    bool is_string() const noexcept { return type_ == Type::String; }
    bool is_array() const noexcept { return type_ == Type::Array; }
    bool is_object() const noexcept { return type_ == Type::Object; }
    bool is_scalar() const noexcept {
        return type_ != Type::Array && type_ != Type::Object && type_ != Type::Null;
    }

    bool as_bool() const {
        DYNAMO_REQUIRE(is_bool(), "JSON value is not a boolean");
        return bool_;
    }
    std::int64_t as_int() const;
    /// An exact integer that fits int, else nullopt: never a wrapped value
    /// (an exit code of 2^32 must not read as 0, "success").
    std::optional<int> to_int() const noexcept;
    const std::string& as_string() const {
        DYNAMO_REQUIRE(is_string(), "JSON value is not a string");
        return str_;
    }
    const JsonArray& as_array() const {
        DYNAMO_REQUIRE(is_array(), "JSON value is not an array");
        return arr_;
    }
    const JsonObject& as_object() const {
        DYNAMO_REQUIRE(is_object(), "JSON value is not an object");
        return obj_;
    }

    /// The source lexeme of a number (e.g. "0.1"), or a canonical
    /// formatting when the value was built programmatically.
    const std::string& number_lexeme() const {
        DYNAMO_REQUIRE(is_number(), "JSON value is not a number");
        return str_;
    }

    /// Scalar rendered as the string the CLI layer would accept:
    /// numbers keep their lexeme, booleans become "true"/"false".
    std::string scalar_to_param_string() const;

    /// Object member lookup; nullptr when absent (or not an object).
    const Json* find(const std::string& key) const;

    /// Serialize. `indent` > 0 pretty-prints with that many spaces per
    /// level and stable member order (insertion order); 0 emits compact
    /// single-line JSON. Output is deterministic for a given value.
    std::string dump(int indent = 0) const;

    /// Parse a complete JSON document; throws std::invalid_argument with
    /// offset + expectation context on malformed input. `where` names the
    /// input in error messages (file name, "manifest", ...).
    static Json parse(const std::string& text, const std::string& where = "json");

    /// Number from a validated JSON number lexeme, preserving the lexeme.
    static Json from_lexeme(const std::string& lexeme);

  private:
    void dump_to(std::string& out, int indent, int depth) const;
    static void append_escaped(std::string& out, const std::string& s);

    Type type_ = Type::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;  // string payload, or number lexeme
    JsonArray arr_;
    JsonObject obj_;
};

} // namespace dynamo::util
