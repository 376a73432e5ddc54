// dynamo/service/http.cpp
//
// Minimal HTTP/1.1 over POSIX sockets (scope in http.hpp).
#include "service/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace dynamo::service {

namespace {

std::string lowercase(std::string s) {
    for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

std::string trim(const std::string& s) {
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
    while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r')) --e;
    return s.substr(b, e - b);
}

/// Hard ceiling on request bodies (manifests are a few KB; anything near
/// this is abuse or a bug): 8 MiB.
constexpr std::size_t kMaxBody = 8u << 20;

/// Hard ceiling on the request head (request line + headers): 16 KiB.
constexpr std::size_t kMaxHead = 16u << 10;

/// Per-connection deadline: a client gets this long after accept() or
/// after its last reply to deliver its whole request, and this long to
/// take a reply. A connection that misses it is closed, so idle,
/// trickling or non-reading clients never pile up.
constexpr std::chrono::seconds kConnectionDeadline{2};

/// Open connections beyond this wait in the listen backlog, well below
/// the usual 1024-descriptor limit.
constexpr std::size_t kMaxConnections = 256;

} // namespace

HttpResponse json_response(int status, util::JsonObject body) {
    return {status, "application/json", util::Json(std::move(body)).dump(0) + "\n"};
}

HttpResponse error_response(int status, const std::string& message) {
    util::JsonObject body;
    body.emplace_back("error", util::Json(message));
    return json_response(status, std::move(body));
}

std::optional<HttpHead> parse_http_head(const std::string& text) {
    std::istringstream head(text);
    std::string line;
    if (!std::getline(head, line)) return std::nullopt;
    HttpHead parsed{trim(line), {}};
    while (std::getline(head, line)) {
        line = trim(line);
        if (line.empty()) continue;
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos) return std::nullopt;
        std::string value = trim(line.substr(colon + 1));
        const auto [it, fresh] =
            parsed.headers.try_emplace(lowercase(trim(line.substr(0, colon))), value);
        if (fresh) continue;
        // Two different lengths leave the message's end ambiguous.
        if (it->first == "content-length" && it->second != value) return std::nullopt;
        it->second = std::move(value);
    }
    return parsed;
}

std::optional<HttpRequest> parse_http_request(const std::string& text) {
    const std::size_t head_end = text.find("\r\n\r\n");
    if (head_end == std::string::npos) return std::nullopt;
    auto head = parse_http_head(text.substr(0, head_end));
    if (!head) return std::nullopt;

    // Request line: METHOD SP TARGET SP VERSION
    std::istringstream request_line(head->start_line);
    HttpRequest request;
    std::string version;
    if (!(request_line >> request.method >> request.target >> version)) return std::nullopt;
    if (version.rfind("HTTP/1.", 0) != 0) return std::nullopt;

    request.headers = std::move(head->headers);
    request.body = text.substr(head_end + 4);
    return request;
}

std::optional<std::size_t> parse_content_length(std::string_view text) {
    std::size_t length = 0;
    const char* end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, length);
    if (text.empty() || stop != end) return std::nullopt;
    if (ec == std::errc::result_out_of_range) return std::numeric_limits<std::size_t>::max();
    return length;
}

std::string render_http_response(const HttpResponse& response, bool keep_alive) {
    std::ostringstream out;
    out << "HTTP/1.1 " << response.status << " " << http_status_text(response.status)
        << "\r\n"
        << "Content-Type: " << response.content_type << "\r\n"
        << "Content-Length: " << response.body.size() << "\r\n"
        << (keep_alive ? "Connection: keep-alive\r\n\r\n" : "Connection: close\r\n\r\n")
        << response.body;
    return out.str();
}

const char* http_status_text(int status) {
    switch (status) {
        case 200: return "OK";
        case 202: return "Accepted";
        case 400: return "Bad Request";
        case 404: return "Not Found";
        case 405: return "Method Not Allowed";
        case 409: return "Conflict";
        case 410: return "Gone";
        case 413: return "Payload Too Large";
        case 431: return "Request Header Fields Too Large";
        case 500: return "Internal Server Error";
        case 501: return "Not Implemented";
        case 503: return "Service Unavailable";
        default: return "Unknown";
    }
}

HttpServer::HttpServer(std::uint16_t port) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) throw std::runtime_error("http: cannot create socket");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 16) != 0) {
        const std::string why = std::strerror(errno);
        ::close(listen_fd_);
        listen_fd_ = -1;
        throw std::runtime_error("http: cannot listen on 127.0.0.1:" + std::to_string(port) +
                                 ": " + why);
    }

    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    port_ = ntohs(bound.sin_port);
}

HttpServer::~HttpServer() {
    if (listen_fd_ >= 0) ::close(listen_fd_);
}

namespace {

using Clock = std::chrono::steady_clock;

/// A request framed off the front of a connection's buffer, or the
/// error reply that ends the connection.
struct Framed {
    std::optional<HttpRequest> request;  ///< set once a whole request is buffered
    std::size_t length = 0;              ///< its bytes in the buffer
    std::optional<HttpResponse> reject;  ///< set when the buffer can never frame one
};

Framed rejected(int status, const std::string& message) {
    Framed framed;
    framed.reject = error_response(status, message);
    return framed;
}

/// Frames the first request of `in`. `scanned` is how much of `in` is
/// already known to hold no head end, so a trickled head is searched once.
Framed frame_request(const std::string& in, std::size_t& scanned) {
    // Resume 3 bytes back: the last read may have split the end.
    const std::size_t head_end = in.find("\r\n\r\n", std::max<std::size_t>(scanned, 3) - 3);
    scanned = head_end == std::string::npos ? in.size() : head_end;
    if ((head_end == std::string::npos ? in.size() : head_end + 4) > kMaxHead)
        return rejected(431, "request head too large");
    if (head_end == std::string::npos) return {};
    auto request = parse_http_request(in.substr(0, head_end + 4));
    if (!request) return rejected(400, "malformed request");
    // A body of another framing could be read as the next request.
    if (request->headers.count("transfer-encoding") != 0)
        return rejected(501, "transfer-encoding is not supported");
    std::size_t content_length = 0;
    if (const auto it = request->headers.find("content-length"); it != request->headers.end()) {
        const auto length = parse_content_length(it->second);
        if (!length) return rejected(400, "malformed request");
        content_length = *length;
    }
    if (content_length > kMaxBody) return rejected(413, "request body too large");
    Framed framed;
    if (in.size() - head_end - 4 < content_length) return framed;
    request->body = in.substr(head_end + 4, content_length);
    framed.length = head_end + 4 + content_length;
    framed.request = std::move(request);
    return framed;
}

/// True when the request asked to keep its connection open.
bool wants_keep_alive(const HttpRequest& request) {
    const auto it = request.headers.find("connection");
    return it != request.headers.end() &&
           lowercase(it->second).find("keep-alive") != std::string::npos;
}

/// One open connection of the poll loop. It is reading (no reply
/// pending) or writing (`out` not yet sent); `deadline` bounds either.
struct Connection {
    int fd = -1;
    std::string in;            ///< received bytes not yet consumed
    std::size_t scanned = 0;   ///< see frame_request
    bool peer_closed = false;  ///< the client closed its side (or failed)
    std::string out;           ///< the reply being sent
    std::size_t sent = 0;
    bool close_after = false;  ///< close once `out` is sent
    Clock::time_point deadline;
};

/// The connections of one serve_forever call.
class PollLoop {
  public:
    PollLoop(int listen_fd, const std::function<HttpResponse(const HttpRequest&)>& handler)
        : listen_fd_(listen_fd), handler_(handler) {}
    ~PollLoop() {
        for (Connection& c : conns_) close(c);
    }
    PollLoop(const PollLoop&) = delete;
    PollLoop& operator=(const PollLoop&) = delete;

    void run() {
        std::vector<pollfd> fds;
        for (;;) {
            const auto now = Clock::now();
            if (stopping_) {
                for (Connection& c : conns_)
                    if (c.out.empty()) close(c);
                sweep();
                if (conns_.empty()) return;
            }
            // The listener is polled even when full: its POLLHUP is stop().
            fds.clear();
            int timeout_ms = -1;
            if (!stopping_) {
                const bool room = conns_.size() < kMaxConnections;
                fds.push_back({listen_fd_, static_cast<short>(room ? POLLIN : 0), 0});
            }
            for (const Connection& c : conns_) {
                fds.push_back({c.fd, static_cast<short>(c.out.empty() ? POLLIN : POLLOUT), 0});
                const auto left =
                    std::chrono::duration_cast<std::chrono::milliseconds>(c.deadline - now);
                const int ms = static_cast<int>(std::max<std::int64_t>(left.count() + 1, 0));
                timeout_ms = timeout_ms < 0 ? ms : std::min(timeout_ms, ms);
            }
            if (::poll(fds.data(), fds.size(), timeout_ms) < 0) {
                if (errno == EINTR) continue;
                return;
            }
            std::size_t next = 0;
            if (!stopping_) {
                const short events = fds[next++].revents;
                if ((events & (POLLHUP | POLLERR | POLLNVAL)) != 0) {
                    stopping_ = true;
                } else if ((events & POLLIN) != 0) {
                    accept_one();
                }
            }
            const std::size_t polled = fds.size() - next;
            for (std::size_t i = 0; i < polled; ++i) {
                Connection& c = conns_[i];
                const short events = fds[next + i].revents;
                if (events == 0) continue;
                if (!c.out.empty()) {
                    flush(c);
                } else {
                    read_some(c);
                }
                serve_buffered(c);
            }
            const auto after = Clock::now();
            for (Connection& c : conns_)
                if (c.fd >= 0 && after >= c.deadline) close(c);  // idle, trickling or not reading
            sweep();
        }
    }

  private:
    void accept_one() {
        const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) return;
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        Connection c;
        c.fd = fd;
        c.deadline = Clock::now() + kConnectionDeadline;
        conns_.push_back(std::move(c));
    }

    void read_some(Connection& c) {
        char buf[65536];
        const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
        if (n > 0) {
            c.in.append(buf, static_cast<std::size_t>(n));
        } else if (n == 0 || (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK)) {
            c.peer_closed = true;
        }
    }

    /// Answers the requests buffered on a reading connection, one reply at
    /// a time, until one is incomplete or a reply cannot be sent at once.
    void serve_buffered(Connection& c) {
        while (c.fd >= 0 && c.out.empty() && !stopping_) {
            Framed framed = frame_request(c.in, c.scanned);
            HttpResponse response;
            bool keep_alive = false;
            if (framed.reject) {
                response = std::move(*framed.reject);
            } else if (framed.request) {
                keep_alive = wants_keep_alive(*framed.request);
                try {
                    response = handler_(*framed.request);
                } catch (const std::exception& e) {
                    response = error_response(500, e.what());
                }
                c.in.erase(0, framed.length);
                c.scanned = 0;
            } else if (c.peer_closed && !c.in.empty()) {
                response = error_response(400, "malformed request");  // torn request
            } else {
                if (c.peer_closed) close(c);
                return;
            }
            c.out = render_http_response(response, keep_alive);
            c.close_after = !keep_alive;
            c.deadline = Clock::now() + kConnectionDeadline;
            flush(c);
        }
    }

    /// Sends what the socket takes of `out`. A sent reply closes the
    /// connection or restarts its deadline for the next request.
    void flush(Connection& c) {
        while (c.sent < c.out.size()) {
            // MSG_NOSIGNAL: a client that reset the connection must cost
            // one EPIPE here, not a process-killing SIGPIPE.
            const ssize_t n =
                ::send(c.fd, c.out.data() + c.sent, c.out.size() - c.sent, MSG_NOSIGNAL);
            if (n > 0) {
                c.sent += static_cast<std::size_t>(n);
            } else if (n < 0 && errno == EINTR) {
                continue;
            } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                return;
            } else {
                close(c);
                return;
            }
        }
        c.out.clear();
        c.sent = 0;
        if (c.close_after) {
            close(c);
            return;
        }
        c.deadline = Clock::now() + kConnectionDeadline;
    }

    static void close(Connection& c) {
        if (c.fd < 0) return;
        ::shutdown(c.fd, SHUT_RDWR);
        ::close(c.fd);
        c.fd = -1;
    }

    void sweep() {
        conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                    [](const Connection& c) { return c.fd < 0; }),
                     conns_.end());
    }

    int listen_fd_;
    const std::function<HttpResponse(const HttpRequest&)>& handler_;
    std::vector<Connection> conns_;
    bool stopping_ = false;
};

} // namespace

void HttpServer::serve_forever(
    const std::function<HttpResponse(const HttpRequest&)>& handler) {
    PollLoop(listen_fd_, handler).run();
}

void HttpServer::stop() {
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
}

void write_port_file(const std::string& path, std::uint16_t port) {
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) throw std::runtime_error("cannot write port file '" + path + "'");
        out << port << "\n";
        out.flush();
        if (!out) throw std::runtime_error("cannot write port file '" + path + "'");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        throw std::runtime_error("cannot publish port file '" + path + "': " +
                                 std::strerror(errno));
}

} // namespace dynamo::service
