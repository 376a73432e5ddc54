// dynamo/dist/http_client.cpp
//
// POSIX-socket implementation of the keep-alive HTTP client
// (http_client.hpp). Mirrors service/http.cpp's server-side subset.
#include "dist/http_client.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/types.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <string>
#include <utility>

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

/// SO_RCVTIMEO / SO_SNDTIMEO: bounds connect, each send and each receive.
void set_timeouts(int fd, int timeout_ms) {
    timeval tv{};
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/// A connected socket, or -1.
int connect_to(const Endpoint& endpoint, const std::string& port, int timeout_ms) {
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* results = nullptr;
    if (::getaddrinfo(endpoint.host.c_str(), port.c_str(), &hints, &results) != 0 ||
        results == nullptr)
        return -1;
    int connected = -1;
    for (const addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
        const int fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC, ai->ai_protocol);
        if (fd < 0) continue;
        set_timeouts(fd, timeout_ms);
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
            const int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
            connected = fd;
            break;
        }
        ::close(fd);
    }
    ::freeaddrinfo(results);
    return connected;
}

/// The calling thread's idle connection, closed when the thread exits.
struct IdleConnection {
    std::string key;  ///< "host:port"
    int fd = -1;
    IdleConnection() = default;
    ~IdleConnection() {
        if (fd >= 0) ::close(fd);
    }
    IdleConnection(const IdleConnection&) = delete;
    IdleConnection& operator=(const IdleConnection&) = delete;
};
thread_local IdleConnection idle;

/// The idle connection to `key` if the peer has not closed it (and sent
/// nothing unasked), else -1. Any other cached connection is closed.
int take_idle(const std::string& key) {
    const int fd = std::exchange(idle.fd, -1);
    if (fd < 0) return -1;
    char byte = 0;
    if (idle.key == key && ::recv(fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT) < 0 &&
        (errno == EAGAIN || errno == EWOULDBLOCK))
        return fd;
    ::close(fd);
    return -1;
}

/// What a reply head says: its status and how its body is framed.
struct ReplyHead {
    int status = 0;
    std::optional<std::size_t> length;  ///< Content-Length; none = read to EOF
    bool close = false;                 ///< Connection: close
};

/// Empty when the head is malformed or frames its body by anything but
/// Content-Length: a chunked body would be misread, and a malformed
/// length ("5x", "+5", empty) would cut or drop the body.
std::optional<ReplyHead> parse_reply_head(const std::string& text) {
    const auto head = service::parse_http_head(text);
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
    ReplyHead reply;
    for (const char c : code) {
        if (c < '0' || c > '9') return std::nullopt;
        reply.status = reply.status * 10 + (c - '0');
    }
    if (head->headers.count("transfer-encoding") != 0) return std::nullopt;
    if (const auto it = head->headers.find("content-length"); it != head->headers.end()) {
        reply.length = service::parse_content_length(it->second);
        if (!reply.length) return std::nullopt;
    }
    if (const auto it = head->headers.find("connection"); it != head->headers.end()) {
        std::string value = it->second;
        for (char& c : value) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        reply.close = value.find("close") != std::string::npos;
    }
    return reply;
}

/// One exchange on a connection.
struct Reply {
    std::optional<HttpClientResponse> response;  ///< empty on a transport failure
    bool stale = false;     ///< the peer closed or reset before any reply byte
    bool reusable = false;  ///< framed by Content-Length, not Connection: close
};

/// Sends `request` on `fd` and reads one reply framed by its
/// Content-Length (to EOF when it has none).
Reply round_trip(int fd, const std::string& request) {
    Reply reply;
    if (!send_all(fd, request)) {
        reply.stale = errno == EPIPE || errno == ECONNRESET;
        return reply;
    }
    std::string raw;
    std::optional<ReplyHead> head;
    std::size_t body_at = 0;
    char buf[8192];
    for (;;) {
        if (!head) {
            const std::size_t blank = raw.find("\r\n\r\n");
            if (blank != std::string::npos) {
                head = parse_reply_head(raw.substr(0, blank));
                if (!head) return reply;
                body_at = blank + 4;
            }
        }
        if (head && head->length && raw.size() - body_at >= *head->length) break;
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n < 0) {
            if (errno == EINTR) continue;
            reply.stale = raw.empty() && errno == ECONNRESET;
            return reply;  // includes receive timeout
        }
        if (n == 0) {
            if (head && !head->length) break;  // framed by EOF
            reply.stale = raw.empty();
            return reply;  // torn
        }
        raw.append(buf, static_cast<std::size_t>(n));
        if (raw.size() > (std::size_t{8} << 20) + 65536) return reply;  // runaway
    }
    std::string payload = raw.substr(body_at);
    reply.reusable = head->length && !head->close && payload.size() == *head->length;
    if (head->length) payload.resize(*head->length);
    reply.response = HttpClientResponse{head->status, std::move(payload)};
    return reply;
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
    const std::string port = std::to_string(endpoint.port);
    const std::string key = endpoint.host + ":" + port;
    std::string request = method + " " + target + " HTTP/1.1\r\n";
    request += "Host: " + key + "\r\n";
    request += "Content-Type: application/json\r\n";
    request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    request += "Connection: keep-alive\r\n\r\n";
    request += body;

    int fd = take_idle(key);
    bool reused = fd >= 0;
    for (;;) {
        if (reused) {
            set_timeouts(fd, timeout_ms);
        } else if ((fd = connect_to(endpoint, port, timeout_ms)) < 0) {
            return std::nullopt;
        }
        Reply reply = round_trip(fd, request);
        if (reply.response && reply.reusable) {
            idle.fd = fd;
            idle.key = key;
        } else {
            ::close(fd);
        }
        // The server may close an idle connection just as a request goes
        // out on it: retry once on a fresh one, but only when no reply
        // byte came back, so no request is answered twice.
        if (reply.response || !reused || !reply.stale) return reply.response;
        reused = false;
    }
}

} // namespace dynamo::dist
