// dynamo/service/http.hpp
//
// The smallest HTTP/1.1 surface `dynamo serve` needs, over raw POSIX
// sockets — no third-party dependency, mirroring how util/json carries
// the JSON side. Scope is deliberately narrow: loopback only (the server
// binds 127.0.0.1 — fronting it with TLS/auth is a reverse proxy's job),
// Content-Length bodies only (no chunked transfer), one connection at a
// time (campaign jobs run on the worker pool; the HTTP loop only routes),
// and every response closes its connection. Each connection has a fixed
// 2 s deadline to deliver its request, and each reply send blocks at most
// 2 s, so a slow client delays the loop by a bounded time, never wedges it.
//
// The parsing/serialization half (HttpRequest/HttpResponse and the
// functions below) is pure string work, unit-tested without sockets;
// HttpServer is the thin socket loop around it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "util/json.hpp"

namespace dynamo::service {

struct HttpRequest {
    std::string method;  ///< e.g. "GET", "POST" (verbatim, case-sensitive)
    std::string target;  ///< request path incl. query, e.g. "/campaigns/3"
    /// Header names lowercased (HTTP headers are case-insensitive).
    std::map<std::string, std::string> headers;
    std::string body;
};

struct HttpResponse {
    int status = 200;
    std::string content_type = "application/json";
    std::string body;
};

/// A JSON reply: `body` serialized compactly, newline-terminated.
HttpResponse json_response(int status, util::JsonObject body);

/// {"error": "<message>"} with proper JSON escaping.
HttpResponse error_response(int status, const std::string& message);

/// Parses head + body of one HTTP/1.1 request. `text` must contain the
/// complete request (the server reads until Content-Length is satisfied).
/// Empty optional on malformed input.
std::optional<HttpRequest> parse_http_request(const std::string& text);

/// Serializes a response with Content-Length and Connection: close.
std::string render_http_response(const HttpResponse& response);

/// The canonical reason phrase for the status codes the service uses;
/// "Unknown" otherwise.
const char* http_status_text(int status);

/// Write the bound port to `path` ATOMICALLY: stage into a temp file,
/// flush, rename over the target. Scripts watching for the file (the
/// `--port-file=` flag of `dynamo serve` / `dynamo coordinate`) can
/// therefore never read a partially written port — the file either does
/// not exist yet or holds the complete "PORT\n" line. Throws
/// std::runtime_error when the path is unwritable.
void write_port_file(const std::string& path, std::uint16_t port);

/// A serial loopback HTTP server. Lifecycle: construct (binds + listens,
/// throws std::runtime_error on failure), serve_forever(handler) from the
/// thread that owns the loop, stop() from any other thread to make
/// serve_forever return after the in-flight request (if any) completes.
class HttpServer {
  public:
    /// Binds 127.0.0.1:port; port 0 picks an ephemeral port (read the
    /// actual one back via port()).
    explicit HttpServer(std::uint16_t port);
    ~HttpServer();
    HttpServer(const HttpServer&) = delete;
    HttpServer& operator=(const HttpServer&) = delete;

    std::uint16_t port() const noexcept { return port_; }

    /// Accepts and answers connections until stop(). A connection that
    /// sends garbage or a non-numeric Content-Length gets 400, a head over
    /// 16 KiB 431, a body over 8 MiB 413; one that has not delivered
    /// its request 2 s after accept is closed unanswered; handler
    /// exceptions become 500 — the serve loop itself never throws once
    /// entered.
    void serve_forever(const std::function<HttpResponse(const HttpRequest&)>& handler);

    /// Thread-safe; idempotent. Unblocks the accept loop.
    void stop();

  private:
    int listen_fd_ = -1;
    std::uint16_t port_ = 0;
};

} // namespace dynamo::service
