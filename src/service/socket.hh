/**
 * @file
 * Tiny portable stream-socket wrapper for the simulation service:
 * endpoints ("unix:<path>" or "<host>:<port>"), RAII sockets, a
 * listener, and a line channel for the newline-delimited JSON frame
 * protocol. POSIX only (the project targets Linux; the socket calls
 * used -- socket/bind/listen/accept/connect/send/recv -- are the
 * portable core that a WinSock port would wrap 1:1).
 *
 * Errors throw SocketError rather than calling fatal(): the server
 * must survive a peer resetting a connection, and the tools translate
 * the exception into a clean fatal() at top level.
 */

#ifndef SHOTGUN_SERVICE_SOCKET_HH
#define SHOTGUN_SERVICE_SOCKET_HH

#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>

namespace shotgun
{
namespace service
{

struct SocketError : std::runtime_error
{
    explicit SocketError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/**
 * A service address. Two forms:
 *  - "unix:<path>"  -- a Unix-domain stream socket;
 *  - "<host>:<port>" -- TCP (host resolved via getaddrinfo; port 0
 *    asks the kernel for a free port, see Listener::boundEndpoint()).
 */
struct Endpoint
{
    enum class Kind
    {
        Tcp,
        Unix,
    };

    Kind kind = Kind::Tcp;
    std::string host; ///< TCP only.
    std::uint16_t port = 0;
    std::string path; ///< Unix only.

    /** Parse a spec; throws SocketError on a malformed one. */
    static Endpoint parse(const std::string &spec);

    /** Canonical spec string ("unix:/run/x.sock", "127.0.0.1:7401"). */
    std::string str() const;
};

/** Move-only RAII socket. A default-constructed socket is invalid. */
class Socket
{
  public:
    Socket() = default;
    explicit Socket(int fd) : fd_(fd) {}
    ~Socket() { close(); }

    Socket(Socket &&other) noexcept : fd_(other.fd_)
    {
        other.fd_ = -1;
    }
    Socket &operator=(Socket &&other) noexcept;
    Socket(const Socket &) = delete;
    Socket &operator=(const Socket &) = delete;

    bool valid() const { return fd_ >= 0; }
    int fd() const { return fd_; }

    /** recvSome() return value when the receive deadline expired. */
    static constexpr long kTimedOut = -2;

    /** Send the whole buffer; false on error (SIGPIPE suppressed). */
    bool sendAll(const char *data, std::size_t size);

    /**
     * One recv(); 0 on orderly EOF, kTimedOut when a receive
     * deadline (setRecvTimeout) expired with no data, -1 on error.
     */
    long recvSome(char *data, std::size_t size);

    /**
     * Arm a receive deadline (SO_RCVTIMEO): a recv with no data for
     * `milliseconds` returns kTimedOut instead of blocking forever.
     * 0 disarms. False when setsockopt failed.
     */
    bool setRecvTimeout(unsigned milliseconds);

    /**
     * Wait up to `milliseconds` for a recv that would not block:
     * data, EOF, an error, or a shutdown() from another thread.
     * False when the time passed with none of them.
     */
    bool waitReadable(unsigned milliseconds);

    /** shutdown(2) both directions -- unblocks a reader elsewhere. */
    void shutdownBoth();

    /**
     * shutdown(2) the receive direction only: unblocks a reader
     * elsewhere while this side can still send a final frame (e.g. a
     * cancelled `done` during coordinator shutdown).
     */
    void shutdownRead();

    void close();

  private:
    int fd_ = -1;
};

/** Bound + listening server socket. */
class Listener
{
  public:
    /**
     * Bind and listen; throws SocketError (EADDRINUSE, bad path...).
     * A pre-existing Unix socket file is unlinked first: it is either
     * a stale leftover (bind would fail pointlessly) or a live server
     * the operator asked us to replace.
     */
    explicit Listener(const Endpoint &endpoint, int backlog = 16);
    ~Listener();

    Listener(const Listener &) = delete;
    Listener &operator=(const Listener &) = delete;

    /**
     * Accept one connection; an invalid Socket after
     * shutdownListener()/close() (the shutdown path) or on a
     * transient accept failure. Waits in poll(2) on the listening
     * socket *and* an internal wake pipe, so a concurrent
     * shutdownListener() interrupts a blocked accept deterministically
     * -- shutdown(2) on a listening socket alone is not a portable
     * wakeup, and a daemon with a connected-but-idle client must
     * still stop promptly.
     */
    Socket accept();

    /** The actual bound address (resolves TCP port 0). */
    const Endpoint &boundEndpoint() const { return bound_; }

    /**
     * Unblock a concurrent accept() (it returns an invalid Socket)
     * without closing the file descriptor: writes the wake pipe and
     * shuts the listening socket down. Safe to call from any thread,
     * while accept() runs and before or after close(). It must not
     * close the fd itself: that would free it under accept's feet
     * (data race + the fd number could be recycled by a concurrent
     * open).
     */
    void shutdownListener();

    /**
     * Close the listening socket and remove a Unix socket file, which
     * also drops connections still queued in the backlog, so their
     * clients see EOF instead of waiting out their deadlines. Not
     * thread-safe against a concurrent accept() -- call from the
     * accept loop's thread once it exited (servers do, and the
     * destructor covers the rest).
     */
    void close();

  private:
    /** Orders shutdownListener() against close() across threads. */
    std::mutex mutex_;
    Socket sock_;
    Endpoint bound_;
    std::string unlinkPath_; ///< Unix socket file to remove.
    int wakeRead_ = -1;      ///< Wake pipe, read end (poll target).
    int wakeWrite_ = -1;     ///< Wake pipe, write end.
};

/** Connect to an endpoint; throws SocketError on failure. */
Socket connectTo(const Endpoint &endpoint);

/**
 * Line-oriented channel over a socket: the transport of the
 * newline-delimited JSON frame protocol. recvLine() strips the
 * trailing '\n' and rejects lines over 64 MiB (a malformed or
 * malicious peer must not OOM the server).
 */
class LineChannel
{
  public:
    LineChannel() = default;
    explicit LineChannel(Socket sock) : sock_(std::move(sock)) {}

    bool valid() const { return sock_.valid(); }
    Socket &socket() { return sock_; }

    /** False on EOF/error/timeout; timedOut() tells which. */
    bool recvLine(std::string &line);

    /**
     * True when the last failed recvLine() hit the socket's receive
     * deadline (setRecvTimeout) rather than EOF or a transport
     * error -- the caller can report "server stalled" instead of
     * "connection closed".
     */
    bool timedOut() const { return timedOut_; }

    /**
     * Appends '\n' to `line` itself -- the caller's frame buffer,
     * moved in, not a copy of it -- and sends; false on failure.
     */
    bool sendLine(std::string line);

  private:
    static constexpr std::size_t kMaxLine = 64u << 20;

    Socket sock_;
    std::string buffer_;
    std::size_t scanned_ = 0; ///< Prefix of buffer_ without '\n'.
    bool timedOut_ = false;
};

} // namespace service
} // namespace shotgun

#endif // SHOTGUN_SERVICE_SOCKET_HH
