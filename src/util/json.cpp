// dynamo/util/json.cpp
//
// Recursive-descent JSON parser + deterministic writer (see json.hpp).
#include "util/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace dynamo::util {

namespace {

/// Canonical lexeme for programmatically-built numbers: integers print
/// without a fraction, everything else via %.17g (shortest round-trip is
/// overkill here; determinism is what matters).
std::string canonical_number_lexeme(double d) {
    if (std::isfinite(d) && d == std::floor(d) && std::abs(d) < 9.007199254740992e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", d);
        return buf;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    return buf;
}

class Parser {
  public:
    Parser(const std::string& text, const std::string& where) : text_(text), where_(where) {}

    Json parse_document() {
        skip_ws();
        Json v = parse_value(0);
        skip_ws();
        if (pos_ != text_.size()) fail("end of input");
        return v;
    }

  private:
    [[noreturn]] void fail(const std::string& expected) const {
        std::string got = "end of input";
        if (pos_ < text_.size()) {
            got = "'";
            got += text_[pos_];
            got += "'";
        }
        throw std::invalid_argument(where_ + ": expected " + expected + " at byte " +
                                    std::to_string(pos_) + ", got " + got);
    }

    void skip_ws() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
                text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    bool consume(char c) {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    void expect(char c, const char* what) {
        if (!consume(c)) fail(what);
    }

    bool consume_word(const char* w) {
        const std::size_t len = std::string(w).size();
        if (text_.compare(pos_, len, w) == 0) {
            pos_ += len;
            return true;
        }
        return false;
    }

    Json parse_value(int depth) {
        DYNAMO_REQUIRE(depth < 64, where_ + ": nesting deeper than 64 levels");
        skip_ws();
        if (pos_ >= text_.size()) fail("a JSON value");
        const char c = text_[pos_];
        if (c == '{') return parse_object(depth);
        if (c == '[') return parse_array(depth);
        if (c == '"') return Json(parse_string());
        if (c == 't' || c == 'f') {
            if (consume_word("true")) return Json(true);
            if (consume_word("false")) return Json(false);
            fail("'true' or 'false'");
        }
        if (c == 'n') {
            if (consume_word("null")) return Json();
            fail("'null'");
        }
        if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
        fail("a JSON value");
    }

    Json parse_object(int depth) {
        expect('{', "'{'");
        JsonObject obj;
        skip_ws();
        if (consume('}')) return Json(std::move(obj));
        for (;;) {
            skip_ws();
            if (pos_ >= text_.size() || text_[pos_] != '"') fail("a quoted member name");
            std::string key = parse_string();
            for (const auto& [k, v] : obj) {
                if (k == key) {
                    throw std::invalid_argument(where_ + ": duplicate member \"" + key +
                                                "\" at byte " + std::to_string(pos_));
                }
            }
            skip_ws();
            expect(':', "':' after member name");
            obj.emplace_back(std::move(key), parse_value(depth + 1));
            skip_ws();
            if (consume(',')) continue;
            expect('}', "',' or '}' in object");
            return Json(std::move(obj));
        }
    }

    Json parse_array(int depth) {
        expect('[', "'['");
        JsonArray arr;
        skip_ws();
        if (consume(']')) return Json(std::move(arr));
        for (;;) {
            arr.push_back(parse_value(depth + 1));
            skip_ws();
            if (consume(',')) continue;
            expect(']', "',' or ']' in array");
            return Json(std::move(arr));
        }
    }

    std::string parse_string() {
        expect('"', "'\"'");
        std::string out;
        for (;;) {
            if (pos_ >= text_.size()) fail("closing '\"'");
            const char c = text_[pos_++];
            if (c == '"') return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size()) fail("an escape character");
            const char e = text_[pos_++];
            switch (e) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': {
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        if (pos_ >= text_.size() || !std::isxdigit(
                                static_cast<unsigned char>(text_[pos_]))) {
                            fail("four hex digits after \\u");
                        }
                        const char h = text_[pos_++];
                        code = code * 16 +
                               static_cast<unsigned>(h <= '9'   ? h - '0'
                                                     : h <= 'F' ? h - 'A' + 10
                                                                : h - 'a' + 10);
                    }
                    // UTF-8 encode the BMP code point (no surrogate pairs;
                    // manifests are ASCII in practice).
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xC0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | (code >> 12));
                        out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    }
                    break;
                }
                default: --pos_; fail("a valid escape (\\\" \\\\ \\/ \\b \\f \\n \\r \\t \\u)");
            }
        }
    }

    Json parse_number() {
        const std::size_t start = pos_;
        if (consume('-')) {}
        if (!consume('0')) {
            if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_])))
                fail("a digit");
            while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        if (consume('.')) {
            if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_])))
                fail("a digit after '.'");
            while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
            if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_])))
                fail("a digit in exponent");
            while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        const std::string lexeme = text_.substr(start, pos_ - start);
        return Json::from_lexeme(lexeme);
    }

    const std::string& text_;
    const std::string where_;
    std::size_t pos_ = 0;
};

} // namespace

Json::Json(double d) : type_(Type::Number), num_(d), str_(canonical_number_lexeme(d)) {}

Json::Json(std::int64_t i)
    : type_(Type::Number), num_(static_cast<double>(i)), str_(std::to_string(i)) {}

Json::Json(std::uint64_t u)
    : type_(Type::Number), num_(static_cast<double>(u)), str_(std::to_string(u)) {}

Json Json::from_lexeme(const std::string& lexeme) {
    Json j(std::strtod(lexeme.c_str(), nullptr));
    j.str_ = lexeme;
    return j;
}

std::int64_t Json::as_int() const {
    DYNAMO_REQUIRE(is_number(), "JSON value is not a number");
    const double rounded = std::nearbyint(num_);
    DYNAMO_REQUIRE(rounded == num_ && std::abs(num_) < 9.007199254740992e15,
                   "JSON number '" + str_ + "' is not an exact integer");
    return static_cast<std::int64_t>(rounded);
}

std::optional<int> Json::to_int() const noexcept {
    if (!is_number() || std::nearbyint(num_) != num_ || num_ < std::numeric_limits<int>::min() ||
        num_ > std::numeric_limits<int>::max())
        return std::nullopt;
    return static_cast<int>(num_);
}

std::string Json::scalar_to_param_string() const {
    switch (type_) {
        case Type::Bool: return bool_ ? "true" : "false";
        case Type::Number: return str_;
        case Type::String: return str_;
        default: break;
    }
    throw std::invalid_argument("JSON value is not a scalar");
}

const Json* Json::find(const std::string& key) const {
    if (!is_object()) return nullptr;
    for (const auto& [k, v] : obj_) {
        if (k == key) return &v;
    }
    return nullptr;
}

void Json::append_escaped(std::string& out, const std::string& s) {
    out += '"';
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\b': out += "\\b"; break;
            case '\f': out += "\\f"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    out += '"';
}

void Json::dump_to(std::string& out, int indent, int depth) const {
    const auto newline = [&](int d) {
        if (indent > 0) {
            out += '\n';
            out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(d), ' ');
        }
    };
    switch (type_) {
        case Type::Null: out += "null"; return;
        case Type::Bool: out += bool_ ? "true" : "false"; return;
        case Type::Number: out += str_; return;
        case Type::String: append_escaped(out, str_); return;
        case Type::Array: {
            if (arr_.empty()) {
                out += "[]";
                return;
            }
            out += '[';
            for (std::size_t i = 0; i < arr_.size(); ++i) {
                if (i) out += ',';
                newline(depth + 1);
                arr_[i].dump_to(out, indent, depth + 1);
            }
            newline(depth);
            out += ']';
            return;
        }
        case Type::Object: {
            if (obj_.empty()) {
                out += "{}";
                return;
            }
            out += '{';
            for (std::size_t i = 0; i < obj_.size(); ++i) {
                if (i) out += ',';
                newline(depth + 1);
                append_escaped(out, obj_[i].first);
                out += indent > 0 ? ": " : ":";
                obj_[i].second.dump_to(out, indent, depth + 1);
            }
            newline(depth);
            out += '}';
            return;
        }
    }
}

std::string Json::dump(int indent) const {
    std::string out;
    dump_to(out, indent, 0);
    return out;
}

Json Json::parse(const std::string& text, const std::string& where) {
    Parser p(text, where);
    return p.parse_document();
}

} // namespace dynamo::util
