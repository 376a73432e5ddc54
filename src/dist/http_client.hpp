// dynamo/dist/http_client.hpp
//
// The client half of the HTTP layer: blocking requests against the
// serve/coordinate loopback servers in the deliberately narrow HTTP/1.1
// subset service/http.hpp speaks (JSON bodies framed by Content-Length),
// over raw POSIX sockets, no third-party dependency.
//
// Connection reuse: every request sends `Connection: keep-alive`, and
// each thread keeps at most one idle connection (thread_local, keyed by
// host:port, closed when the thread exits). A connection goes back to
// the cache only after a reply framed by Content-Length that did not say
// `Connection: close`; it is reused only after a non-blocking check
// shows the peer has not closed it. When a reused connection is closed
// or reset before any reply byte arrives (the server timed it out as the
// request went out), the request is sent once more on a fresh
// connection; never after a reply byte, so no request is answered twice.
//
// Failure model: any transport-level problem (resolve, connect, send,
// timeout, torn response, a reply framed by Transfer-Encoding or by two
// different Content-Lengths) is an EMPTY optional — the caller (the
// worker loop's retry policy) decides whether to back off and retry, so
// this layer never sleeps and never throws for network reasons. An HTTP
// error status (4xx/5xx) is NOT a transport failure: the response is
// returned and the caller interprets the status.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace dynamo::dist {

struct Endpoint {
    std::string host;
    std::uint16_t port = 0;
};

/// Parse "http://host:port", "host:port", with an optional trailing
/// path (ignored — the fabric's targets are per-request). Empty
/// optional when no valid host:port can be extracted.
std::optional<Endpoint> parse_endpoint(const std::string& url);

struct HttpClientResponse {
    int status = 0;
    std::string body;
};

/// One blocking round trip on this thread's idle connection to
/// `endpoint` or a fresh one: send `method target` with `body`
/// (Content-Length set, Connection: keep-alive), read one response by
/// its Content-Length (to EOF without one), parse status + body.
/// `timeout_ms` bounds connect/send/receive individually
/// (SO_SNDTIMEO/SO_RCVTIMEO), on a reused connection too. Empty optional
/// on any transport failure.
std::optional<HttpClientResponse> http_request(const Endpoint& endpoint,
                                               const std::string& method,
                                               const std::string& target,
                                               const std::string& body,
                                               int timeout_ms = 10000);

} // namespace dynamo::dist
