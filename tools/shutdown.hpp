// SIGINT/SIGTERM latch shared by the long-running tools (netserve,
// clusterctl). The handler is async-signal-safe: it sets a flag and writes
// one byte to a self-pipe. A thread that must react blocks in
// wait_for_shutdown() on the read end, and a loop polls
// shutdown_requested(), so reports are always flushed on Ctrl-C instead of
// the process dying mid-write.
#pragma once

#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>

namespace psw::tools {

namespace detail {
inline volatile std::sig_atomic_t g_shutdown = 0;
inline int g_pipe[2] = {-1, -1};

inline void on_signal(int) {
  g_shutdown = 1;
  if (g_pipe[1] >= 0) {
    const unsigned char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(g_pipe[1], &byte, 1);
  }
}
}  // namespace detail

// Install handlers for SIGINT and SIGTERM. Call once, early in main().
inline void install_shutdown_handler() {
  if (detail::g_pipe[0] < 0) {
    [[maybe_unused]] const int rc = ::pipe(detail::g_pipe);
  }
  struct sigaction sa = {};
  sa.sa_handler = detail::on_signal;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

inline bool shutdown_requested() { return detail::g_shutdown != 0; }

// Blocks until a signal arrives.
inline void wait_for_shutdown() {
  unsigned char byte;
  while (::read(detail::g_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
}

}  // namespace psw::tools
