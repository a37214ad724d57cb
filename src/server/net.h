// Minimal TCP transport for the sketchd protocol: listen / connect
// helpers with Status errors, an RAII epoll wrapper for the server's
// event loops, and FramedConn, which pumps the length-prefixed CRC
// frames of server/protocol.h over a socket.
//
// FramedConn offers two I/O styles over one read buffer:
//   - blocking (client side): SendHello/ExpectHello, WriteFrame,
//     ReadFrame — EINTR-safe loops until the operation completes;
//   - non-blocking (server event loops, replication shipper):
//     FillFromSocket drains the socket edge-to-EAGAIN, TryConsumeHello /
//     NextBufferedFrame parse only what is buffered, and QueueWrite /
//     Flush buffer partial writes so a slow reader never blocks a loop
//     thread.
//
// IPv4 only (the daemon binds 127.0.0.1 by default); writes use
// MSG_NOSIGNAL so a peer that disappears surfaces as a Status instead
// of SIGPIPE.

#ifndef DDSKETCH_SERVER_NET_H_
#define DDSKETCH_SERVER_NET_H_

#include <cstdint>
#include <string>
#include <string_view>

#include <sys/epoll.h>

#include "util/status.h"

namespace dd {

/// Binds and listens on `host:port` (IPv4 dotted quad). Port 0 picks an
/// ephemeral port; *bound_port always receives the actual port. Returns
/// the listening fd (CLOEXEC).
Result<int> ListenTcp(const std::string& host, uint16_t port,
                      uint16_t* bound_port);

/// Connects to `host:port`. Returns the connected fd (CLOEXEC).
Result<int> ConnectTcp(const std::string& host, uint16_t port);

/// Puts `fd` into O_NONBLOCK mode (event-loop sockets).
Status SetNonBlocking(int fd);

/// RAII wrapper over an epoll instance. Move-only; closes on destruction.
/// The `data` pointer registered with Add comes back verbatim in
/// epoll_event::data.ptr from Wait.
class Epoll {
 public:
  static Result<Epoll> Create();
  Epoll(Epoll&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Epoll& operator=(Epoll&& other) noexcept;
  Epoll(const Epoll&) = delete;
  Epoll& operator=(const Epoll&) = delete;
  ~Epoll();

  Status Add(int fd, uint32_t events, void* data);
  Status Del(int fd);

  /// epoll_wait, EINTR-safe. Returns the number of events filled into
  /// `events` (0 on timeout). `timeout_ms` < 0 blocks indefinitely.
  Result<int> Wait(struct epoll_event* events, int max_events,
                   int timeout_ms);

 private:
  explicit Epoll(int fd) : fd_(fd) {}
  int fd_ = -1;
};

/// A non-owning framed view over a connected socket: one side of the
/// sketchd protocol. The caller keeps ownership of the fd (the server
/// needs it for shutdown(2)-based cancellation from other threads).
/// Not thread-safe; each FramedConn is owned by exactly one event loop
/// (or one client thread).
class FramedConn {
 public:
  explicit FramedConn(int fd) : fd_(fd) {}

  /// Sends this side's 5 hello bytes.
  Status SendHello();

  /// Reads and validates the peer's 5 hello bytes.
  Status ExpectHello();

  /// Writes a fully-encoded frame (EncodeRequest/EncodeResponse output).
  Status WriteFrame(std::string_view frame);

  /// Reads the next complete frame and returns its body (CRC already
  /// verified). A clean EOF at a frame boundary fails with OutOfRange
  /// ("connection closed"); an EOF mid-frame is Corruption.
  Result<std::string> ReadFrame();

  // --- non-blocking event-loop API (fd must be O_NONBLOCK) ---
  // Edge-triggered discipline: after an EPOLLIN edge, call
  // FillFromSocket once (it drains to EAGAIN) and then parse the buffer
  // with TryConsumeHello / NextBufferedFrame until they report
  // incomplete; after an EPOLLOUT edge (or any queued write), call
  // Flush until it reports drained or would-block.

  /// Drains everything the socket currently has into the read buffer
  /// (reads until EAGAIN). Returns false on EOF (peer closed), true
  /// otherwise. Sets *got_bytes when any bytes arrived.
  Result<bool> FillFromSocket(bool* got_bytes);

  /// Consumes the peer's 5 hello bytes from the read buffer only.
  /// Returns false when fewer than 5 bytes are buffered (read more),
  /// true when a valid hello was consumed; fails with Corruption /
  /// Incompatible on a bad hello.
  Result<bool> TryConsumeHello();

  /// Splits the next complete frame body off the read buffer without
  /// touching the socket. Returns false when only a frame prefix (or
  /// nothing) is buffered; Corruption on a bad CRC / implausible length.
  Result<bool> NextBufferedFrame(std::string* body);

  /// Appends bytes to the write queue without touching the socket.
  void QueueWrite(std::string_view bytes);

  /// Writes as much of the queue as the socket accepts right now.
  /// Returns true when the queue fully drained, false on would-block;
  /// errors (peer reset, ...) surface as a Status.
  Result<bool> Flush();

  /// Bytes queued by QueueWrite but not yet accepted by the socket.
  size_t pending_write_bytes() const noexcept {
    return out_.size() - out_off_;
  }

  /// Bytes received but not yet parsed into frames.
  size_t buffered_read_bytes() const noexcept { return buffer_.size(); }

  int fd() const noexcept { return fd_; }

 private:
  int fd_;
  std::string buffer_;   // bytes received but not yet consumed
  std::string out_;      // queued write bytes (out_off_ already sent)
  size_t out_off_ = 0;
};

}  // namespace dd

#endif  // DDSKETCH_SERVER_NET_H_
