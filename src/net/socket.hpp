// Thin POSIX TCP helpers shared by the server and client: RAII fd
// ownership, listen/connect with error strings instead of errno spelunking
// at every call site, non-blocking mode toggles for the poll loop, and the
// poll loop's self-pipe wakeup.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "util/sync.hpp"

namespace psw::net {

// Owns one file descriptor; closes it on destruction. Move-only.
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() { reset(); }

  UniqueFd(UniqueFd&& o) noexcept : fd_(o.release()) {}
  UniqueFd& operator=(UniqueFd&& o) noexcept {
    if (this != &o) reset(o.release());
    return *this;
  }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() { return std::exchange(fd_, -1); }
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

// Binds and listens on addr:port (IPv4 dotted quad; port 0 = ephemeral).
// Returns an invalid fd and fills *error on failure.
UniqueFd tcp_listen(const std::string& addr, uint16_t port, int backlog,
                    std::string* error);

// The locally bound port of a listening socket (resolves port 0).
uint16_t local_port(int fd);

// Blocking connect to host:port (IPv4 dotted quad), TCP_NODELAY set. A nonzero
// recv_buffer_bytes requests a small SO_RCVBUF before connecting (so it
// affects the negotiated window) — tests use this to provoke backpressure
// without shipping hundreds of megabytes through loopback.
UniqueFd tcp_connect(const std::string& host, uint16_t port, std::string* error,
                     int recv_buffer_bytes = 0);

// As tcp_connect, but additionally reports the failing errno through
// *connect_errno (0 on success) so callers can classify transient refusals
// (server not up yet) from permanent failures. `retryable_connect_errno`
// encodes that classification in one place. A non-null `in_progress` makes
// the connect non-blocking: the socket comes back O_NONBLOCK, with
// *in_progress = true while the connect is pending (EINPROGRESS; poll for
// writability, then finish_nonblocking_connect).
UniqueFd tcp_connect_errno(const std::string& host, uint16_t port,
                           std::string* error, int* connect_errno,
                           int recv_buffer_bytes = 0, bool* in_progress = nullptr);

// True for errnos worth retrying with backoff: the address is fine but the
// peer is not (yet) accepting — ECONNREFUSED, ECONNRESET, ETIMEDOUT,
// EHOSTUNREACH, ENETUNREACH, EAGAIN.
bool retryable_connect_errno(int err);

// After writability on a pending non-blocking connect: returns the
// SO_ERROR value (0 = connected).
int finish_nonblocking_connect(int fd);

bool set_nonblocking(int fd, bool on);

// A poll loop's self-pipe. The owner opens it before starting the poll
// thread and closes it after joining; the poll thread polls read_fd() and
// drains it; wake() may be called from any thread at any time. The write
// end is published and retired under one mutex, so a wake() racing a
// stop()/start() either reaches the live pipe or finds no fd — it never
// writes into a closed, or recycled, fd number. close() retires the write
// end before the read end goes away, so a late wake() cannot raise SIGPIPE.
class WakePipe {
 public:
  WakePipe() = default;
  ~WakePipe() { close(); }
  WakePipe(const WakePipe&) = delete;
  WakePipe& operator=(const WakePipe&) = delete;

  bool open(std::string* error);
  void close();
  int read_fd() const { return rd_.get(); }
  void drain();  // poll thread: swallow every pending wakeup byte
  void wake();

 private:
  UniqueFd rd_;
  Mutex mutex_;
  int wr_ PSW_GUARDED_BY(mutex_) = -1;
};

}  // namespace psw::net
