#include "serve/server.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <system_error>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "api/request_io.hpp"
#include "api/serialize.hpp"
#include "serve/wire.hpp"

namespace temp::serve {

Server::Server(api::TempService &service, ServerOptions options)
    : service_(service), options_(std::move(options)),
      dispatcher_(service, options_.dispatcher)
{
}

Server::~Server()
{
    stop();
}

bool
Server::start(std::string *error)
{
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
        *error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port =
        htons(static_cast<std::uint16_t>(options_.port));
    if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) !=
        1) {
        *error = "invalid bind address '" + options_.host + "'";
        ::close(listen_fd_);
        listen_fd_ = -1;
        return false;
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        *error = "bind " + options_.host + ":" +
                 std::to_string(options_.port) + ": " +
                 std::strerror(errno);
        ::close(listen_fd_);
        listen_fd_ = -1;
        return false;
    }
    if (::listen(listen_fd_, 64) != 0) {
        *error = std::string("listen: ") + std::strerror(errno);
        ::close(listen_fd_);
        listen_fd_ = -1;
        return false;
    }
    socklen_t addr_len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
                  &addr_len);
    port_ = ntohs(addr.sin_port);

    accept_thread_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
Server::acceptLoop()
{
    for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return;  // listener shut down (stop) or fatal
        }
        std::vector<std::thread> finished;
        {
            std::lock_guard<std::mutex> lock(sessions_mutex_);
            if (stopping_.load()) {
                ::close(fd);
                return;
            }
            reapFinishedLocked(&finished);
            if (static_cast<int>(session_fds_.size()) >=
                options_.max_sessions) {
                // Over the session cap: refuse at the transport. The
                // dispatcher's admission control bounds queued work;
                // this bounds the threads feeding it.
                ::close(fd);
            } else {
                // Created under the lock: the session's exit epilogue
                // needs the same lock, so its id is registered here
                // before it could ever report itself finished. With no
                // thread to spare, refuse the connection like one over
                // the cap.
                session_fds_.push_back(fd);
                try {
                    std::thread thread([this, fd] { session(fd); });
                    const std::thread::id id = thread.get_id();
                    session_threads_.emplace(id, std::move(thread));
                } catch (const std::system_error &) {
                    session_fds_.pop_back();
                    ::close(fd);
                }
            }
        }
        for (std::thread &thread : finished)
            thread.join();
    }
}

void
Server::reapFinishedLocked(std::vector<std::thread> *out)
{
    for (const std::thread::id id : finished_session_ids_) {
        const auto it = session_threads_.find(id);
        if (it != session_threads_.end()) {
            out->push_back(std::move(it->second));
            session_threads_.erase(it);
        }
    }
    finished_session_ids_.clear();
}

std::string
Server::handle(const std::string &request_json, int *status)
{
    api::ParsedRequest request;
    std::string error;
    if (!parseRequest(request_json, &request, &error)) {
        *status = 400;
        return api::JsonObject()
            .add("ok", false)
            .add("error", error)
            .str();
    }
    try {
        const api::Response response =
            dispatcher_.dispatch(request.request, request.tenant);
        *status = response.shed ? 503 : 200;
        return api::toJson(response);
    } catch (const std::exception &e) {
        // A session thread must answer, never terminate the process.
        *status = 500;
        return api::JsonObject()
            .add("ok", false)
            .add("error", std::string("internal error: ") + e.what())
            .str();
    }
}

void
Server::serveFramed(int fd)
{
    for (;;) {
        std::string payload;
        std::string error;
        if (!readFrame(fd, &payload, &error)) {
            // In-band answer for protocol violations; plain EOF (or a
            // drain shutdown) ends the session silently.
            if (!error.empty())
                writeFrame(fd, api::JsonObject()
                                   .add("ok", false)
                                   .add("error", error)
                                   .str());
            return;
        }
        int status = 0;
        if (!writeFrame(fd, handle(payload, &status)))
            return;
    }
}

void
Server::serveHttp(int fd)
{
    // Persistent connections: the loop serves requests until the
    // client (or HTTP/1.0 default) asks for close, EOF, or a protocol
    // error. A kept-alive connection holds its session slot, so
    // max_sessions bounds concurrent HTTP clients exactly like framed
    // ones.
    for (;;) {
        HttpRequest request;
        std::string error;
        if (!readHttpRequest(fd, &request, &error)) {
            // In-band 400 for protocol violations; plain EOF (the
            // normal end of a keep-alive session) ends it silently.
            if (!error.empty()) {
                const std::string body = api::JsonObject()
                                             .add("ok", false)
                                             .add("error", error)
                                             .str();
                const std::string response = httpResponse(400, body);
                writeAll(fd, response.data(), response.size());
            }
            return;
        }

        int status = 200;
        std::string body;
        if (request.method == "POST" &&
            request.target == "/v1/requests") {
            body = handle(request.body, &status);
        } else if (request.method == "GET" &&
                   request.target == "/healthz") {
            body = api::JsonObject().add("ok", true).str();
        } else if (request.method == "GET" &&
                   request.target == "/stats") {
            const DispatchStats stats = dispatcher_.stats();
            body = api::JsonObject()
                       .add("ok", true)
                       .add("accepted", stats.accepted)
                       .add("coalesced", stats.coalesced)
                       .add("executed", stats.executed)
                       .add("shed", stats.shed)
                       .add("deadline_expired", stats.deadline_expired)
                       .add("deadline_cancelled",
                            stats.deadline_cancelled)
                       .add("completed", stats.completed)
                       .add("in_flight",
                            static_cast<long>(dispatcher_.inFlight()))
                       .str();
        } else {
            status = 404;
            body = api::JsonObject()
                       .add("ok", false)
                       .add("error", "no such endpoint (use POST "
                                     "/v1/requests, GET /healthz, "
                                     "GET /stats)")
                       .str();
        }
        const std::string response =
            httpResponse(status, body, request.keep_alive);
        if (!writeAll(fd, response.data(), response.size()) ||
            !request.keep_alive)
            return;
    }
}

void
Server::session(int fd)
{
    char first = 0;
    const ssize_t peeked = ::recv(fd, &first, 1, MSG_PEEK);
    if (peeked == 1) {
        // A framed-RPC length prefix of any sane payload starts with a
        // control byte; no HTTP method does.
        if (static_cast<unsigned char>(first) < 0x20)
            serveFramed(fd);
        else
            serveHttp(fd);
    }
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    session_fds_.erase(std::remove(session_fds_.begin(),
                                   session_fds_.end(), fd),
                       session_fds_.end());
    // Close under the sessions lock: stop() shuts live fds down under
    // the same lock, so a recycled descriptor can never be hit.
    ::close(fd);
    finished_session_ids_.push_back(std::this_thread::get_id());
}

void
Server::stop()
{
    if (stopping_.exchange(true))
        return;
    if (listen_fd_ >= 0) {
        // Unblock accept(); the loop exits on the failed accept. The
        // fd is closed (and listen_fd_ written) only after the accept
        // thread joins, so it never races the loop's reads and the
        // descriptor cannot be recycled under a live accept().
        ::shutdown(listen_fd_, SHUT_RDWR);
    }
    if (accept_thread_.joinable())
        accept_thread_.join();
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }

    std::vector<std::thread> sessions;
    {
        std::lock_guard<std::mutex> lock(sessions_mutex_);
        // Half-close live connections: blocked reads return EOF so no
        // session picks up *new* requests, while requests already
        // dispatched still finish and their responses still write.
        for (const int fd : session_fds_)
            ::shutdown(fd, SHUT_RD);
        for (auto &[id, thread] : session_threads_)
            sessions.push_back(std::move(thread));
        session_threads_.clear();
        finished_session_ids_.clear();
    }
    for (std::thread &thread : sessions)
        thread.join();

    // All sessions answered; drain whatever the dispatcher still
    // holds and stop its workers.
    dispatcher_.stop();
}

}  // namespace temp::serve
