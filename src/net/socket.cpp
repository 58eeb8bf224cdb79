#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace psw::net {

namespace {

void set_error(std::string* error, const char* what) {
  if (error) *error = std::string(what) + ": " + std::strerror(errno);
}

bool parse_addr(const std::string& addr, uint16_t port, sockaddr_in* out,
                std::string* error) {
  std::memset(out, 0, sizeof(*out));
  out->sin_family = AF_INET;
  out->sin_port = htons(port);
  if (inet_pton(AF_INET, addr.c_str(), &out->sin_addr) != 1) {
    if (error) *error = "invalid IPv4 address '" + addr + "'";
    return false;
  }
  return true;
}

}  // namespace

void UniqueFd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

UniqueFd tcp_listen(const std::string& addr, uint16_t port, int backlog,
                    std::string* error) {
  sockaddr_in sa;
  if (!parse_addr(addr, port, &sa, error)) return UniqueFd();
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    set_error(error, "socket");
    return UniqueFd();
  }
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    set_error(error, "bind");
    return UniqueFd();
  }
  if (::listen(fd.get(), backlog) != 0) {
    set_error(error, "listen");
    return UniqueFd();
  }
  return fd;
}

uint16_t local_port(int fd) {
  sockaddr_in sa{};
  socklen_t len = sizeof(sa);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len) != 0) return 0;
  return ntohs(sa.sin_port);
}

UniqueFd tcp_connect(const std::string& host, uint16_t port, std::string* error,
                     int recv_buffer_bytes) {
  int ignored = 0;
  return tcp_connect_errno(host, port, error, &ignored, recv_buffer_bytes);
}

UniqueFd tcp_connect_errno(const std::string& host, uint16_t port,
                           std::string* error, int* connect_errno,
                           int recv_buffer_bytes, bool* in_progress) {
  *connect_errno = 0;
  if (in_progress != nullptr) *in_progress = false;
  sockaddr_in sa;
  if (!parse_addr(host, port, &sa, error)) return UniqueFd();
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid() || (in_progress != nullptr && !set_nonblocking(fd.get(), true))) {
    *connect_errno = errno;
    set_error(error, "socket");
    return UniqueFd();
  }
  if (recv_buffer_bytes > 0) {
    ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &recv_buffer_bytes,
                 sizeof(recv_buffer_bytes));
  }
  // Frames are written whole; batching small messages behind Nagle only
  // adds latency to the request/reply path.
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    if (in_progress != nullptr && errno == EINPROGRESS) {
      *in_progress = true;
      return fd;
    }
    *connect_errno = errno;
    set_error(error, "connect");
    return UniqueFd();
  }
  return fd;  // connected (at once, on the loopback fast path, when non-blocking)
}

bool retryable_connect_errno(int err) {
  return err == ECONNREFUSED || err == ECONNRESET || err == ETIMEDOUT ||
         err == EHOSTUNREACH || err == ENETUNREACH || err == EAGAIN;
}

int finish_nonblocking_connect(int fd) {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) return errno;
  return err;
}

bool set_nonblocking(int fd, bool on) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  const int want = on ? flags | O_NONBLOCK : flags & ~O_NONBLOCK;
  return ::fcntl(fd, F_SETFL, want) == 0;
}

bool WakePipe::open(std::string* error) {
  int fds[2];
  if (::pipe(fds) != 0) {
    set_error(error, "pipe");
    return false;
  }
  set_nonblocking(fds[0], true);
  set_nonblocking(fds[1], true);
  rd_.reset(fds[0]);
  MutexLock lock(mutex_);
  wr_ = fds[1];
  return true;
}

void WakePipe::close() {
  {
    MutexLock lock(mutex_);
    if (wr_ >= 0) ::close(wr_);
    wr_ = -1;
  }
  rd_.reset();
}

void WakePipe::drain() {
  uint8_t sink[64];
  while (::read(rd_.get(), sink, sizeof(sink)) > 0) {
  }
}

void WakePipe::wake() {
  MutexLock lock(mutex_);
  if (wr_ < 0) return;
  const uint8_t byte = 1;
  // A full pipe already guarantees a pending wakeup; EAGAIN is fine.
  [[maybe_unused]] const ssize_t n = ::write(wr_, &byte, 1);
}

}  // namespace psw::net
