// dynamo/dist/http_client.cpp
//
// POSIX-socket implementation of the one-shot HTTP client
// (http_client.hpp). Mirrors service/http.cpp's server-side subset.
#include "dist/http_client.hpp"

#include <netdb.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <string>

#include "service/http.hpp"

namespace dynamo::dist {

namespace {

/// Parse the decimal port in [1, 65535]; 0 on failure.
std::uint16_t parse_port(const std::string& text) {
    if (text.empty() || text.size() > 5) return 0;
    unsigned long value = 0;
    for (const char c : text) {
        if (c < '0' || c > '9') return 0;
        value = value * 10 + static_cast<unsigned long>(c - '0');
    }
    if (value == 0 || value > 65535) return 0;
    return static_cast<std::uint16_t>(value);
}

struct FdGuard {
    int fd = -1;
    ~FdGuard() {
        if (fd >= 0) ::close(fd);
    }
};

bool send_all(int fd, const std::string& data) {
    std::size_t sent = 0;
    while (sent < data.size()) {
        const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR) continue;
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

std::optional<Endpoint> parse_endpoint(const std::string& url) {
    std::string rest = url;
    const std::string scheme = "http://";
    if (rest.rfind(scheme, 0) == 0) rest = rest.substr(scheme.size());
    const std::size_t slash = rest.find('/');
    if (slash != std::string::npos) rest = rest.substr(0, slash);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0) return std::nullopt;
    Endpoint endpoint;
    endpoint.host = rest.substr(0, colon);
    endpoint.port = parse_port(rest.substr(colon + 1));
    if (endpoint.port == 0) return std::nullopt;
    return endpoint;
}

std::optional<HttpClientResponse> http_request(const Endpoint& endpoint,
                                               const std::string& method,
                                               const std::string& target,
                                               const std::string& body, int timeout_ms) {
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* results = nullptr;
    const std::string port_str = std::to_string(endpoint.port);
    if (::getaddrinfo(endpoint.host.c_str(), port_str.c_str(), &hints, &results) != 0 ||
        results == nullptr)
        return std::nullopt;

    FdGuard sock;
    for (const addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
        const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0) continue;
        timeval tv{};
        tv.tv_sec = timeout_ms / 1000;
        tv.tv_usec = (timeout_ms % 1000) * 1000;
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
            sock.fd = fd;
            break;
        }
        ::close(fd);
    }
    ::freeaddrinfo(results);
    if (sock.fd < 0) return std::nullopt;

    std::string request = method + " " + target + " HTTP/1.1\r\n";
    request += "Host: " + endpoint.host + ":" + port_str + "\r\n";
    request += "Content-Type: application/json\r\n";
    request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    request += "Connection: close\r\n\r\n";
    request += body;
    if (!send_all(sock.fd, request)) return std::nullopt;

    // The server always closes after one response (Connection: close),
    // so read to EOF and parse afterwards — no chunked decoding needed.
    std::string raw;
    char buf[8192];
    for (;;) {
        const ssize_t n = ::recv(sock.fd, buf, sizeof(buf), 0);
        if (n < 0) {
            if (errno == EINTR) continue;
            return std::nullopt;  // includes receive timeout
        }
        if (n == 0) break;
        raw.append(buf, static_cast<std::size_t>(n));
        if (raw.size() > (std::size_t{8} << 20) + 65536) return std::nullopt;  // runaway
    }

    const std::size_t blank = raw.find("\r\n\r\n");
    if (blank == std::string::npos) return std::nullopt;
    const auto head = service::parse_http_head(raw.substr(0, blank));
    if (!head) return std::nullopt;

    // Status line: "HTTP/1.1 <code> <reason>".
    const std::string& status_line = head->start_line;
    const std::size_t sp1 = status_line.find(' ');
    if (sp1 == std::string::npos || status_line.rfind("HTTP/", 0) != 0) return std::nullopt;
    const std::size_t sp2 = status_line.find(' ', sp1 + 1);
    const std::string code =
        status_line.substr(sp1 + 1, sp2 == std::string::npos ? std::string::npos
                                                             : sp2 - sp1 - 1);
    if (code.size() != 3) return std::nullopt;
    int status = 0;
    for (const char c : code) {
        if (c < '0' || c > '9') return std::nullopt;
        status = status * 10 + (c - '0');
    }

    // Honor Content-Length when present (defensive against trailing
    // bytes); the read-to-EOF model means a SHORT body is a torn
    // response and therefore a transport failure. So is a malformed
    // length ("5x", "+5", empty): never a silently cut or dropped body.
    std::string payload = raw.substr(blank + 4);
    if (const auto it = head->headers.find("content-length"); it != head->headers.end()) {
        const auto length = service::parse_content_length(it->second);
        if (!length || payload.size() < *length) return std::nullopt;
        payload.resize(*length);
    }

    HttpClientResponse response;
    response.status = status;
    response.body = std::move(payload);
    return response;
}

} // namespace dynamo::dist
