// dynamo/util/hash.hpp
//
// FNV-1a 64 and its 16-hex-digit rendering: the one hash behind result
// cache keys (scenario/cache.hpp), campaign fingerprints (scenario/
// campaign.hpp) and point-result hashes (dist/protocol.hpp), and the one
// way those values are written into file names and wire messages. Cache
// directories on disk are keyed by these exact values, so neither
// function may change.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace dynamo::util {

/// Incremental FNV-1a 64.
class Fnv1a {
  public:
    /// Mix the bytes of `s`.
    Fnv1a& bytes(std::string_view s) noexcept {
        for (const unsigned char c : s) mix(c);
        return *this;
    }
    /// Mix `s`, then a 0xff separator byte, so that "ab" + "c" never
    /// collides with "a" + "bc".
    Fnv1a& field(std::string_view s) noexcept {
        bytes(s);
        mix(0xff);
        return *this;
    }
    std::uint64_t value() const noexcept { return h_; }

  private:
    void mix(unsigned char c) noexcept {
        h_ ^= c;
        h_ *= 0x100000001b3ULL;
    }
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// `value` as 16 lowercase hex digits, zero-padded.
inline std::string hex16(std::uint64_t value) {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
    return buf;
}

} // namespace dynamo::util
