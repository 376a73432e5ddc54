// dynamo/util/assert.hpp
//
// Contract-checking macros used throughout the library.
//
// DYNAMO_REQUIRE   - precondition check, always on, throws std::invalid_argument.
// DYNAMO_ENSURE    - internal invariant check, always on, throws std::logic_error.
// DYNAMO_ASSERT    - debug-only invariant check (compiled out in NDEBUG builds).
//
// Throwing (rather than aborting) keeps the library testable: failure-injection
// tests assert that malformed inputs are rejected with a useful message.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace dynamo::detail {

// The message names the failed expression, not the source file and line:
// a failed campaign point stores it in the artifact, which must not
// depend on where the code was built.
[[noreturn]] inline void throw_require(const char* expr, const std::string& msg) {
    std::ostringstream os;
    os << "dynamo: precondition failed: (" << expr << ")";
    if (!msg.empty()) os << " - " << msg;
    throw std::invalid_argument(os.str());
}

[[noreturn]] inline void throw_ensure(const char* expr, const std::string& msg) {
    std::ostringstream os;
    os << "dynamo: invariant violated: (" << expr << ")";
    if (!msg.empty()) os << " - " << msg;
    throw std::logic_error(os.str());
}

} // namespace dynamo::detail

#define DYNAMO_REQUIRE(expr, msg)                                   \
    do {                                                            \
        if (!(expr)) ::dynamo::detail::throw_require(#expr, (msg)); \
    } while (false)

#define DYNAMO_ENSURE(expr, msg)                                   \
    do {                                                           \
        if (!(expr)) ::dynamo::detail::throw_ensure(#expr, (msg)); \
    } while (false)

#ifdef NDEBUG
#define DYNAMO_ASSERT(expr, msg) ((void)0)
#else
#define DYNAMO_ASSERT(expr, msg) DYNAMO_ENSURE(expr, msg)
#endif
