#include "service/socket.hh"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

namespace shotgun
{
namespace service
{

namespace
{

std::string
errnoString()
{
    return std::strerror(errno);
}

} // namespace

Endpoint
Endpoint::parse(const std::string &spec)
{
    Endpoint ep;
    if (spec.rfind("unix:", 0) == 0) {
        ep.kind = Kind::Unix;
        ep.path = spec.substr(5);
        if (ep.path.empty())
            throw SocketError("endpoint 'unix:': empty socket path");
        // sun_path is a small fixed buffer; reject early with a
        // clearer message than bind()'s EINVAL.
        if (ep.path.size() >= sizeof(sockaddr_un{}.sun_path))
            throw SocketError("unix socket path too long: " + ep.path);
        return ep;
    }

    const auto colon = spec.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == spec.size())
        throw SocketError(
            "endpoint '" + spec +
            "': expected unix:<path> or <host>:<port>");
    ep.kind = Kind::Tcp;
    ep.host = spec.substr(0, colon);
    const std::string port_text = spec.substr(colon + 1);
    unsigned long port = 0;
    for (char c : port_text) {
        if (c < '0' || c > '9')
            throw SocketError("endpoint '" + spec +
                              "': malformed port '" + port_text + "'");
    }
    port = std::strtoul(port_text.c_str(), nullptr, 10);
    if (port > 65535)
        throw SocketError("endpoint '" + spec + "': port out of range");
    ep.port = static_cast<std::uint16_t>(port);
    return ep;
}

std::string
Endpoint::str() const
{
    if (kind == Kind::Unix)
        return "unix:" + path;
    return host + ":" + std::to_string(port);
}

Socket &
Socket::operator=(Socket &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = other.fd_;
        other.fd_ = -1;
    }
    return *this;
}

bool
Socket::sendAll(const char *data, std::size_t size)
{
    while (size > 0) {
        const ssize_t n = ::send(fd_, data, size, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += n;
        size -= static_cast<std::size_t>(n);
    }
    return true;
}

long
Socket::recvSome(char *data, std::size_t size)
{
    while (true) {
        const ssize_t n = ::recv(fd_, data, size, 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return kTimedOut; // SO_RCVTIMEO deadline expired.
        return static_cast<long>(n);
    }
}

bool
Socket::setRecvTimeout(unsigned milliseconds)
{
    timeval tv{};
    tv.tv_sec = milliseconds / 1000;
    tv.tv_usec =
        static_cast<suseconds_t>((milliseconds % 1000) * 1000);
    return ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv,
                        sizeof(tv)) == 0;
}

bool
Socket::waitReadable(unsigned milliseconds)
{
    pollfd fds{};
    fds.fd = fd_;
    fds.events = POLLIN;
    while (true) {
        const int rc =
            ::poll(&fds, 1, static_cast<int>(milliseconds));
        if (rc < 0 && errno == EINTR)
            continue;
        return rc != 0; // An error is for the next recv to report.
    }
}

void
Socket::shutdownBoth()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_RDWR);
}

void
Socket::shutdownRead()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_RD);
}

void
Socket::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

namespace
{

Socket
tcpListen(const Endpoint &endpoint, int backlog, Endpoint &bound)
{
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_PASSIVE;
    addrinfo *info = nullptr;
    const std::string port_text = std::to_string(endpoint.port);
    const int rc = ::getaddrinfo(endpoint.host.c_str(),
                                 port_text.c_str(), &hints, &info);
    if (rc != 0)
        throw SocketError("cannot resolve '" + endpoint.host +
                          "': " + gai_strerror(rc));

    Socket sock;
    std::string last_error = "no usable address";
    for (addrinfo *ai = info; ai != nullptr; ai = ai->ai_next) {
        Socket candidate(::socket(ai->ai_family, ai->ai_socktype,
                                  ai->ai_protocol));
        if (!candidate.valid())
            continue;
        const int one = 1;
        ::setsockopt(candidate.fd(), SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        if (::bind(candidate.fd(), ai->ai_addr, ai->ai_addrlen) != 0 ||
            ::listen(candidate.fd(), backlog) != 0) {
            last_error = errnoString();
            continue;
        }
        sock = std::move(candidate);
        break;
    }
    ::freeaddrinfo(info);
    if (!sock.valid())
        throw SocketError("cannot listen on " + endpoint.str() + ": " +
                          last_error);

    bound = endpoint;
    // Resolve "port 0" to the kernel-assigned port.
    sockaddr_storage addr{};
    socklen_t len = sizeof(addr);
    if (::getsockname(sock.fd(),
                      reinterpret_cast<sockaddr *>(&addr), &len) == 0) {
        if (addr.ss_family == AF_INET)
            bound.port = ntohs(
                reinterpret_cast<sockaddr_in *>(&addr)->sin_port);
        else if (addr.ss_family == AF_INET6)
            bound.port = ntohs(
                reinterpret_cast<sockaddr_in6 *>(&addr)->sin6_port);
    }
    return sock;
}

Socket
unixListen(const Endpoint &endpoint, int backlog)
{
    Socket sock(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!sock.valid())
        throw SocketError("cannot create unix socket: " +
                          errnoString());
    ::unlink(endpoint.path.c_str());
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, endpoint.path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::bind(sock.fd(), reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(sock.fd(), backlog) != 0)
        throw SocketError("cannot listen on " + endpoint.str() + ": " +
                          errnoString());
    return sock;
}

} // namespace

Listener::Listener(const Endpoint &endpoint, int backlog)
{
    if (endpoint.kind == Endpoint::Kind::Unix) {
        sock_ = unixListen(endpoint, backlog);
        bound_ = endpoint;
        unlinkPath_ = endpoint.path;
    } else {
        sock_ = tcpListen(endpoint, backlog, bound_);
    }

    int fds[2];
    if (::pipe(fds) != 0)
        throw SocketError("cannot create listener wake pipe: " +
                          errnoString());
    wakeRead_ = fds[0];
    wakeWrite_ = fds[1];
    ::fcntl(wakeRead_, F_SETFD, FD_CLOEXEC);
    ::fcntl(wakeWrite_, F_SETFD, FD_CLOEXEC);

    // Non-blocking listener: accept() waits in poll(), and a pending
    // connection that is aborted between poll and accept(2) must
    // yield EAGAIN back to the poll loop, not block accept(2) with
    // the wake pipe unwatched. (Accepted sockets do not inherit the
    // flag on Linux.)
    const int flags = ::fcntl(sock_.fd(), F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(sock_.fd(), F_SETFL, flags | O_NONBLOCK);
}

Listener::~Listener()
{
    close();
}

Socket
Listener::accept()
{
    if (!sock_.valid())
        return Socket();

    // Wait for a connection OR the wake pipe: shutdownListener()
    // writes a byte from any thread and a blocked accept returns an
    // invalid Socket immediately, even on platforms where
    // shutdown(2) of a listening socket does not interrupt accept.
    pollfd fds[2];
    fds[0].fd = sock_.fd();
    fds[0].events = POLLIN;
    fds[1].fd = wakeRead_;
    fds[1].events = POLLIN;
    while (true) {
        const int rc = ::poll(fds, 2, -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            return Socket();
        }
        if (fds[1].revents != 0)
            return Socket(); // Woken for shutdown.
        if (fds[0].revents == 0)
            continue;
        const int fd = ::accept(sock_.fd(), nullptr, nullptr);
        if (fd >= 0) {
            // BSDs make accepted fds inherit the listener's
            // O_NONBLOCK (Linux does not); connections must block.
            const int flags = ::fcntl(fd, F_GETFL, 0);
            if (flags >= 0)
                ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
            return Socket(fd);
        }
        // The pending connection vanished between poll and accept
        // (client abort): back to poll, which still watches the
        // wake pipe.
        if (errno == EAGAIN || errno == EWOULDBLOCK ||
            errno == ECONNABORTED || errno == EINTR)
            continue;
        return Socket(fd);
    }
}

void
Listener::shutdownListener()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (wakeWrite_ >= 0) {
        const char byte = 1;
        ssize_t rc;
        do {
            rc = ::write(wakeWrite_, &byte, 1);
        } while (rc < 0 && errno == EINTR);
    }
    sock_.shutdownBoth();
}

void
Listener::close()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (sock_.valid()) {
        sock_.shutdownBoth();
        sock_.close();
    }
    if (!unlinkPath_.empty()) {
        ::unlink(unlinkPath_.c_str());
        unlinkPath_.clear();
    }
    if (wakeRead_ >= 0) {
        ::close(wakeRead_);
        ::close(wakeWrite_);
        wakeRead_ = wakeWrite_ = -1;
    }
}

Socket
connectTo(const Endpoint &endpoint)
{
    if (endpoint.kind == Endpoint::Kind::Unix) {
        Socket sock(::socket(AF_UNIX, SOCK_STREAM, 0));
        if (!sock.valid())
            throw SocketError("cannot create unix socket: " +
                              errnoString());
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, endpoint.path.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::connect(sock.fd(), reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0)
            throw SocketError("cannot connect to " + endpoint.str() +
                              ": " + errnoString());
        return sock;
    }

    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo *info = nullptr;
    const std::string port_text = std::to_string(endpoint.port);
    const int rc = ::getaddrinfo(endpoint.host.c_str(),
                                 port_text.c_str(), &hints, &info);
    if (rc != 0)
        throw SocketError("cannot resolve '" + endpoint.host +
                          "': " + gai_strerror(rc));
    Socket sock;
    std::string last_error = "no usable address";
    for (addrinfo *ai = info; ai != nullptr; ai = ai->ai_next) {
        Socket candidate(::socket(ai->ai_family, ai->ai_socktype,
                                  ai->ai_protocol));
        if (!candidate.valid())
            continue;
        if (::connect(candidate.fd(), ai->ai_addr, ai->ai_addrlen) !=
            0) {
            last_error = errnoString();
            continue;
        }
        sock = std::move(candidate);
        break;
    }
    ::freeaddrinfo(info);
    if (!sock.valid())
        throw SocketError("cannot connect to " + endpoint.str() + ": " +
                          last_error);
    return sock;
}

bool
LineChannel::recvLine(std::string &line)
{
    timedOut_ = false;
    while (true) {
        // Bytes before scanned_ hold no newline: resume the search
        // there, so a line arriving in many chunks is scanned once.
        const auto newline = buffer_.find('\n', scanned_);
        if (newline != std::string::npos) {
            line.assign(buffer_, 0, newline);
            buffer_.erase(0, newline + 1);
            scanned_ = 0;
            return true;
        }
        scanned_ = buffer_.size();
        if (buffer_.size() > kMaxLine)
            return false;
        char chunk[16384];
        const long n = sock_.recvSome(chunk, sizeof(chunk));
        if (n == Socket::kTimedOut) {
            timedOut_ = true;
            return false;
        }
        if (n <= 0)
            return false;
        buffer_.append(chunk, static_cast<std::size_t>(n));
    }
}

bool
LineChannel::sendLine(std::string line)
{
    line += '\n';
    return sock_.sendAll(line.data(), line.size());
}

} // namespace service
} // namespace shotgun
