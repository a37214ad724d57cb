#include "server/net.h"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "server/protocol.h"

namespace dd {
namespace {

std::string Errno(const std::string& op) {
  return op + ": " + std::strerror(errno);
}

Result<struct sockaddr_in> MakeAddr(const std::string& host, uint16_t port) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  return addr;
}

Result<int> NewSocket() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::Internal(Errno("socket"));
  // Latency matters more than segment count for request/response frames.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

Result<int> ListenTcp(const std::string& host, uint16_t port,
                      uint16_t* bound_port) {
  auto addr = MakeAddr(host, port);
  if (!addr.ok()) return addr.status();
  auto sock = NewSocket();
  if (!sock.ok()) return sock.status();
  const int fd = sock.value();
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const struct sockaddr*>(&addr.value()),
             sizeof(addr.value())) != 0) {
    const Status status = Status::Internal(Errno("bind " + host));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 128) != 0) {
    const Status status = Status::Internal(Errno("listen"));
    ::close(fd);
    return status;
  }
  struct sockaddr_in actual;
  socklen_t len = sizeof(actual);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&actual), &len) !=
      0) {
    const Status status = Status::Internal(Errno("getsockname"));
    ::close(fd);
    return status;
  }
  *bound_port = ntohs(actual.sin_port);
  return fd;
}

Result<int> ConnectTcp(const std::string& host, uint16_t port) {
  auto addr = MakeAddr(host, port);
  if (!addr.ok()) return addr.status();
  auto sock = NewSocket();
  if (!sock.ok()) return sock.status();
  const int fd = sock.value();
  for (;;) {
    if (::connect(fd, reinterpret_cast<const struct sockaddr*>(&addr.value()),
                  sizeof(addr.value())) == 0) {
      return fd;
    }
    if (errno == EINTR) continue;
    const Status status = Status::Internal(Errno("connect " + host));
    ::close(fd);
    return status;
  }
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Status::Internal(Errno("fcntl(F_GETFL)"));
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Internal(Errno("fcntl(F_SETFL)"));
  }
  return Status::OK();
}

Result<Epoll> Epoll::Create() {
  const int fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (fd < 0) return Status::Internal(Errno("epoll_create1"));
  return Epoll(fd);
}

Epoll& Epoll::operator=(Epoll&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Epoll::~Epoll() {
  if (fd_ >= 0) ::close(fd_);
}

namespace {

Status EpollCtl(int epfd, int op, int fd, uint32_t events, void* data,
                const char* what) {
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = events;
  ev.data.ptr = data;
  if (::epoll_ctl(epfd, op, fd, op == EPOLL_CTL_DEL ? nullptr : &ev) != 0) {
    return Status::Internal(Errno(what));
  }
  return Status::OK();
}

}  // namespace

Status Epoll::Add(int fd, uint32_t events, void* data) {
  return EpollCtl(fd_, EPOLL_CTL_ADD, fd, events, data, "epoll_ctl(ADD)");
}

Status Epoll::Del(int fd) {
  return EpollCtl(fd_, EPOLL_CTL_DEL, fd, 0, nullptr, "epoll_ctl(DEL)");
}

Result<int> Epoll::Wait(struct epoll_event* events, int max_events,
                        int timeout_ms) {
  for (;;) {
    const int n = ::epoll_wait(fd_, events, max_events, timeout_ms);
    if (n >= 0) return n;
    if (errno == EINTR) continue;
    return Status::Internal(Errno("epoll_wait"));
  }
}

namespace {

/// Writes all of `data`; EINTR-safe, SIGPIPE-free.
Status SendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(Errno("send"));
    }
    data.remove_prefix(static_cast<size_t>(n));
  }
  return Status::OK();
}

}  // namespace

Status FramedConn::SendHello() { return SendAll(fd_, EncodeHello()); }

Status FramedConn::ExpectHello() {
  while (buffer_.size() < kHelloBytes) {
    char buf[64];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(Errno("recv"));
    }
    if (n == 0) return Status::Corruption("connection closed during hello");
    buffer_.append(buf, static_cast<size_t>(n));
  }
  DD_RETURN_IF_ERROR(CheckHello(std::string_view(buffer_).substr(0, kHelloBytes)));
  buffer_.erase(0, kHelloBytes);
  return Status::OK();
}

Status FramedConn::WriteFrame(std::string_view frame) {
  return SendAll(fd_, frame);
}

Result<std::string> FramedConn::ReadFrame() {
  for (;;) {
    size_t frame_size = 0;
    auto body = DecodeFrame(buffer_, &frame_size);
    if (body.ok()) {
      std::string out(body.value());
      buffer_.erase(0, frame_size);
      return out;
    }
    if (body.status().code() != StatusCode::kOutOfRange) {
      return body.status();  // Corruption: CRC mismatch / absurd length
    }
    char buf[1 << 16];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(Errno("recv"));
    }
    if (n == 0) {
      if (buffer_.empty()) {
        return Status::OutOfRange("connection closed");
      }
      return Status::Corruption("connection closed mid-frame");
    }
    buffer_.append(buf, static_cast<size_t>(n));
  }
}

Result<bool> FramedConn::FillFromSocket(bool* got_bytes) {
  *got_bytes = false;
  for (;;) {
    char buf[1 << 16];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return Status::Internal(Errno("recv"));
    }
    if (n == 0) return false;  // EOF
    buffer_.append(buf, static_cast<size_t>(n));
    *got_bytes = true;
  }
}

Result<bool> FramedConn::TryConsumeHello() {
  if (buffer_.size() < kHelloBytes) return false;
  DD_RETURN_IF_ERROR(
      CheckHello(std::string_view(buffer_).substr(0, kHelloBytes)));
  buffer_.erase(0, kHelloBytes);
  return true;
}

Result<bool> FramedConn::NextBufferedFrame(std::string* body) {
  size_t frame_size = 0;
  auto decoded = DecodeFrame(buffer_, &frame_size);
  if (decoded.ok()) {
    body->assign(decoded.value());
    buffer_.erase(0, frame_size);
    return true;
  }
  if (decoded.status().code() == StatusCode::kOutOfRange) return false;
  return decoded.status();  // Corruption: CRC mismatch / absurd length
}

void FramedConn::QueueWrite(std::string_view bytes) {
  // Compact lazily: once everything before out_off_ has been sent and
  // the dead prefix dominates, drop it instead of growing forever.
  if (out_off_ > 0 && out_off_ >= out_.size() / 2) {
    out_.erase(0, out_off_);
    out_off_ = 0;
  }
  out_.append(bytes);
}

Result<bool> FramedConn::Flush() {
  while (out_off_ < out_.size()) {
    const ssize_t n = ::send(fd_, out_.data() + out_off_, out_.size() - out_off_,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return false;
      return Status::Internal(Errno("send"));
    }
    out_off_ += static_cast<size_t>(n);
  }
  out_.clear();
  out_off_ = 0;
  return true;
}

}  // namespace dd
