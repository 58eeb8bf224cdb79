// The one event loop behind both front ends (NetServer, cluster::Router):
// a listener, one poll thread and one poll set over net::Conns. Each
// iteration polls, runs the owner's timers (tick), accepts, reads every
// ready connection, then flushes all output, closes the connections that
// said goodbye and harvests idle ones. Accepted connections are Peers,
// owned by the loop; the owner derives its per-connection state from Peer
// and sees only messages past the loop's gates — a framing error gets a
// typed "wire error: <status>" and a close (message boundaries are lost),
// anything before hello a typed error and a close, a hello in another
// protocol version a typed rejection, and bye a flush and a close.
//
// Connections the owner dials itself (the router's upstream and shard
// control connections) join the same poll set: watch() add()s them under a
// WatchKey, and the loop connects, reads, dispatches and flushes them like
// its peers. A key rather than a pointer names them, because a handler may
// close or replace one mid-iteration.
#pragma once

#include <poll.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/conn.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"

namespace psw::net {

// What both front ends' options share: where to listen, how many clients
// to hold, and when a quiet one is closed.
struct ListenOptions {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; see port() of the front end
  int backlog = 16;
  int max_connections = 64;
  double idle_timeout_ms = 30'000.0;  // 0 disables idle harvesting
};

// One accepted connection; the loop destroys it on close and on stop().
struct Peer {
  Peer() = default;
  virtual ~Peer() = default;
  Peer(const Peer&) = delete;
  Peer& operator=(const Peer&) = delete;

  uint64_t id = 0;
  Conn io;
  bool got_hello = false;
  bool closing = false;  // flush the send queue, then close
};

// An owner-held connection: `peer` it belongs to (0: none), owner's `index`.
struct WatchKey {
  uint64_t peer = 0;
  size_t index = 0;
};

class Loop {
 public:
  // What the loop asks of its owner; every hook runs on the poll thread.
  class Handler {
   public:
    virtual std::unique_ptr<Peer> make_peer() = 0;
    // Timers and cross-thread hand-offs: after every poll, before reads.
    virtual void tick() = 0;
    // A message past the gates; false closes the peer once it has flushed.
    virtual bool on_message(Peer& peer, InMessage& msg) = 0;
    virtual void flushed(Peer&) {}  // after a successful end-of-iteration flush
    // True while work is in flight: exempt from the idle harvest.
    virtual bool busy(const Peer&) const { return false; }
    // Owner-held connections: watch() add()s them before each poll,
    // watched() resolves a key again (null once gone), and a false from
    // on_watched_message, EOF, a failed connect or write, or a framing
    // error (`status`) ends in watched_lost.
    virtual void watch() {}
    virtual Conn* watched(const WatchKey&) { return nullptr; }
    virtual bool on_watched_message(const WatchKey&, InMessage&) { return false; }
    virtual void watched_lost(const WatchKey&, const char* /*why*/, WireStatus) {}

   protected:
    ~Handler() = default;
  };

  // The owner's counters the loop bumps; a null one is skipped.
  struct Counters {
    std::atomic<uint64_t>* accepted = nullptr;
    std::atomic<uint64_t>* rejected = nullptr;  // at max_connections
    std::atomic<uint64_t>* closed = nullptr;
    std::atomic<uint64_t>* idle_timeouts = nullptr;
    // Framing errors, requests before hello and reject() calls.
    std::atomic<uint64_t>* protocol_errors = nullptr;
    std::atomic<uint64_t>* hello_rejects = nullptr;  // other protocol versions
    std::atomic<uint64_t>* errors_sent = nullptr;    // typed errors it queues
  };

  struct Config {
    ListenOptions listen;
    int send_buffer_bytes = 0;  // SO_SNDBUF per accepted socket; 0 = OS default
    std::string name;           // sent back in every hello ack
    ConnShared shared;          // pool, byte counters, recorder of the peers
    Counters counters;
  };

  explicit Loop(Handler& handler)
      : handler_(handler), wake_(std::make_shared<WakePipe>()) {}
  ~Loop() { stop(); }
  Loop(const Loop&) = delete;
  Loop& operator=(const Loop&) = delete;

  // Binds, listens and starts the poll thread, whose first iteration runs
  // at once. False (with *error) when the address is unavailable.
  bool start(Config config, std::string* error);
  // Joins the poll thread, closes the listener and every peer. Idempotent;
  // a stopped loop can start again.
  void stop();

  bool running() const { return thread_.joinable(); }
  uint16_t port() const { return port_; }
  // Any thread, any time: the poll thread iterates now.
  void wake() { wake_->wake(); }
  // Shared, so a producer that may outlive the loop (a render callback)
  // still reaches a live object — closed, at worst.
  const std::shared_ptr<WakePipe>& wake_pipe() const { return wake_; }

  // --- poll thread only ---
  Peer* find(uint64_t id);
  std::map<uint64_t, std::unique_ptr<Peer>>& peers() { return peers_; }
  void add(const WatchKey& key, const Conn& conn);  // from Handler::watch()
  // Counts a protocol error and queues a typed error for the connection;
  // false, so that on_message can end with it.
  bool reject(Peer& peer, const std::string& message);

 private:
  struct Slot {
    WatchKey key;
    bool peer = false;  // key.peer names one of peers_, not a watched Conn
  };

  void run();
  void accept_ready();
  void read_peer(uint64_t id, short revents);
  bool gate(Peer& peer, InMessage& msg);
  void read_watched(const WatchKey& key, int fd, short revents);
  void sweep();

  Handler& handler_;
  Config cfg_;
  UniqueFd listener_;
  uint16_t port_ = 0;
  const std::shared_ptr<WakePipe> wake_;
  std::atomic<bool> stopping_{false};
  std::map<uint64_t, std::unique_ptr<Peer>> peers_;
  uint64_t next_id_ = 1;
  // Reused every iteration: fds_[0] is the listener, fds_[1] the wake pipe
  // and fds_[i + 2] polls slots_[i].
  std::vector<pollfd> fds_;
  std::vector<Slot> slots_;
  std::vector<uint64_t> done_;  // peers the sweep closes
  std::thread thread_;
};

}  // namespace psw::net
