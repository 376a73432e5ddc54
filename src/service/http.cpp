// dynamo/service/http.cpp
//
// Minimal HTTP/1.1 over POSIX sockets (scope in http.hpp).
#include "service/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
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

/// Per-connection deadline: a client gets this long from accept() to
/// deliver its whole request, and each send of the reply blocks at most
/// this long. The loop is serial, so without it one idle or trickling
/// client would wedge every later one (a coordinator's worker heartbeats
/// included).
constexpr std::chrono::seconds kConnectionDeadline{2};

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
        parsed.headers[lowercase(trim(line.substr(0, colon)))] = trim(line.substr(colon + 1));
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

std::string render_http_response(const HttpResponse& response) {
    std::ostringstream out;
    out << "HTTP/1.1 " << response.status << " " << http_status_text(response.status)
        << "\r\n"
        << "Content-Type: " << response.content_type << "\r\n"
        << "Content-Length: " << response.body.size() << "\r\n"
        << "Connection: close\r\n\r\n"
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
        case 413: return "Payload Too Large";
        case 431: return "Request Header Fields Too Large";
        case 500: return "Internal Server Error";
        default: return "Unknown";
    }
}

HttpServer::HttpServer(std::uint16_t port) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
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

void HttpServer::serve_forever(
    const std::function<HttpResponse(const HttpRequest&)>& handler) {
    for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR) continue;
            return;  // stop() shut the listening socket down
        }
        const auto deadline = std::chrono::steady_clock::now() + kConnectionDeadline;

        // Read head, then exactly Content-Length body bytes.
        std::string data;
        char buf[4096];
        bool bad_request = false;
        bool head_too_large = false;
        bool timed_out = false;
        std::size_t scanned = 0;  // bytes already searched for the head's end
        std::size_t need = std::string::npos;  // total bytes once head is seen
        for (;;) {
            if (need == std::string::npos) {
                // Resume 3 bytes back: the last read may have split the end.
                const std::size_t head_end =
                    data.find("\r\n\r\n", std::max<std::size_t>(scanned, 3) - 3);
                scanned = data.size();
                if ((head_end == std::string::npos ? scanned : head_end + 4) > kMaxHead) {
                    head_too_large = true;
                    break;
                }
                if (head_end != std::string::npos) {
                    std::size_t content_length = 0;
                    const auto parsed = parse_http_request(data.substr(0, head_end + 4));
                    if (!parsed) {
                        bad_request = true;
                        break;
                    }
                    const auto it = parsed->headers.find("content-length");
                    if (it != parsed->headers.end()) {
                        const auto length = parse_content_length(it->second);
                        if (!length) {
                            bad_request = true;
                            break;
                        }
                        content_length = *length;
                    }
                    if (content_length > kMaxBody) {
                        need = kMaxBody + 1;  // sentinel: answer 413 below
                        break;
                    }
                    need = head_end + 4 + content_length;
                }
            }
            if (need != std::string::npos && data.size() >= need) break;
            const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - std::chrono::steady_clock::now());
            pollfd readable{fd, POLLIN, 0};
            const int ready =
                left.count() > 0 ? ::poll(&readable, 1, static_cast<int>(left.count())) : 0;
            if (ready < 0 && errno == EINTR) continue;
            if (ready <= 0) {
                timed_out = true;
                break;
            }
            const ssize_t n = ::read(fd, buf, sizeof(buf));
            if (n <= 0) break;  // peer closed or error: work with what we have
            data.append(buf, static_cast<std::size_t>(n));
        }

        if (timed_out) {  // idle or trickling client: drop it, serve the next
            ::close(fd);
            continue;
        }

        HttpResponse response;
        if (head_too_large) {
            response = error_response(431, "request head too large");
        } else if (bad_request || need == std::string::npos) {
            response = error_response(400, "malformed request");
        } else if (need == kMaxBody + 1) {
            response = error_response(413, "request body too large");
        } else {
            const auto request = parse_http_request(data.substr(0, need));
            if (!request) {
                response = error_response(400, "malformed request");
            } else {
                try {
                    response = handler(*request);
                } catch (const std::exception& e) {
                    response = error_response(500, e.what());
                }
            }
        }

        // The send timeout bounds a client that stops reading its reply.
        const timeval send_timeout{kConnectionDeadline.count(), 0};
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout, sizeof(send_timeout));
        // MSG_NOSIGNAL: a client that reset the connection must cost one
        // EPIPE here, not a process-killing SIGPIPE.
        const std::string wire = render_http_response(response);
        std::size_t sent = 0;
        while (sent < wire.size()) {
            const ssize_t n =
                ::send(fd, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
            if (n <= 0) break;
            sent += static_cast<std::size_t>(n);
        }
        ::shutdown(fd, SHUT_RDWR);
        ::close(fd);
    }
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
