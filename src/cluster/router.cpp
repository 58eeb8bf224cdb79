#include "cluster/router.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>

#include "obs/export.hpp"
#include "util/timer.hpp"

namespace psw::cluster {

using net::InMessage;
using net::MsgType;
using net::WireStatus;
using serve::Clock;

namespace {

double ms_since(Clock::time_point then, Clock::time_point now) {
  return std::chrono::duration<double, std::milli>(now - then).count();
}

}  // namespace

Router::Router(std::vector<ShardSpec> shards, RouterOptions options)
    : specs_(std::move(shards)),
      options_(std::move(options)),
      metrics_(specs_.size()),
      ring_(options_.vnodes),
      published_state_(new std::atomic<int>[specs_.size()]),
      drain_want_(new std::atomic<bool>[specs_.size()]) {
  shards_.resize(specs_.size());
  for (size_t i = 0; i < specs_.size(); ++i) {
    shards_[i].spec = specs_[i];
    published_state_[i].store(static_cast<int>(ShardState::kConnecting));
    drain_want_[i].store(false);
  }
  {
    MutexLock lock(snapshot_mutex_);
    shard_metrics_.resize(specs_.size());
  }
}

Router::~Router() { stop(); }

bool Router::start(std::string* error) {
  if (running()) return true;
  listener_ = net::tcp_listen(options_.bind_address, options_.port,
                              options_.backlog, error);
  if (!listener_.valid()) return false;
  net::set_nonblocking(listener_.get(), true);
  port_ = net::local_port(listener_.get());

  if (!wake_.open(error)) {
    listener_.reset();
    return false;
  }

  stopping_.store(false);
  const Clock::time_point now = Clock::now();
  for (Shard& s : shards_) {
    s.next_reconnect = now;  // connect control channels immediately
    s.backoff_ms = options_.reconnect_backoff_ms;
  }
  thread_ = std::thread([this] { poll_loop(); });
  return true;
}

void Router::stop() {
  if (!running()) return;
  stopping_.store(true);
  wake_.wake();
  thread_.join();
  conns_.clear();
  for (Shard& s : shards_) {
    s.ctl = {};
    s.hello_done = false;
  }
  listener_.reset();
  wake_.close();  // retires the write end before the read end
}

bool Router::wait_healthy(size_t n, double timeout_ms) const {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(static_cast<int64_t>(timeout_ms));
  for (;;) {
    size_t healthy = 0;
    for (size_t i = 0; i < specs_.size(); ++i) {
      const ShardState s = shard_state(i);
      if (s == ShardState::kHealthy || s == ShardState::kDraining) ++healthy;
    }
    if (healthy >= n) return true;
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

bool Router::set_drain(const std::string& shard_id, bool draining) {
  for (size_t i = 0; i < specs_.size(); ++i) {
    if (specs_[i].id == shard_id) {
      // relaxed: a one-word request flag; the poll thread re-reads it on
      // its next iteration and the pipe write below provides the wakeup.
      drain_want_[i].store(draining, std::memory_order_relaxed);
      wake_.wake();
      return true;
    }
  }
  return false;
}

std::string Router::metrics_json() const {
  std::vector<ShardSnapshot> snaps(specs_.size());
  {
    MutexLock lock(snapshot_mutex_);
    for (size_t i = 0; i < specs_.size(); ++i) {
      snaps[i].metrics_json = shard_metrics_[i];
    }
  }
  for (size_t i = 0; i < specs_.size(); ++i) {
    snaps[i].id = specs_[i].id;
    snaps[i].weight = specs_[i].weight;
    snaps[i].state = shard_state(i);
    snaps[i].in_ring = snaps[i].state == ShardState::kHealthy;
  }
  return aggregate_metrics_json(metrics_, snaps, pool_.stats());
}

std::string Router::prometheus_text() const {
  obs::PromText p;
  p.counter("psw_router_clients_accepted_total", "Client connections accepted",
            metrics_.clients_accepted.load());
  p.counter("psw_router_clients_rejected_total",
            "Client connections rejected at the accept cap",
            metrics_.clients_rejected.load());
  p.counter("psw_router_protocol_errors_total", "Framing/decode failures",
            metrics_.protocol_errors.load());
  p.counter("psw_router_requests_routed_total", "Render requests routed",
            metrics_.requests_routed.load());
  p.counter("psw_router_streams_routed_total", "Streams routed",
            metrics_.streams_routed.load());
  p.counter("psw_router_frames_forwarded_total", "Frames forwarded",
            metrics_.frames_forwarded.load());
  p.counter("psw_router_reroutes_total", "Sessions re-pinned after shard loss",
            metrics_.reroutes.load());
  p.counter("psw_router_unavailable_total",
            "Requests rejected with no eligible shard",
            metrics_.unavailable_rejections.load());
  for (size_t i = 0; i < specs_.size(); ++i) {
    const ShardCounters& c = *metrics_.shards[i];
    const std::string label = "shard=\"" + specs_[i].id + "\"";
    p.counter("psw_router_shard_requests_total", "Requests routed per shard",
              c.routed_requests.load(), label);
    p.counter("psw_router_shard_frames_total", "Frames forwarded per shard",
              c.forwarded_frames.load(), label);
    p.counter("psw_router_shard_ejections_total", "Shard ejections",
              c.ejections.load(), label);
    p.gauge("psw_router_shard_inflight", "Routed, unanswered requests",
            static_cast<double>(c.inflight_requests.load()), label);
    p.summary_ms("psw_router_shard_frame_latency_ms",
                 "Server total_ms of forwarded frames", c.frame_latency_ms,
                 label);
  }
  p.trace_counters(options_.recorder);
  return p.str();
}

std::string Router::trace_dump_json() const {
  return obs::trace_dump_json(options_.recorder, options_.trace_node);
}

// --------------------------------------------------------------------------
// Poll loop
// --------------------------------------------------------------------------

void Router::poll_loop() {
  struct Slot {
    enum class Kind { kClient, kUpstream, kCtl } kind;
    uint64_t conn_id = 0;
    size_t shard = 0;
  };
  std::vector<pollfd> fds;
  std::vector<Slot> slots;

  while (!stopping_.load()) {
    const Clock::time_point now = Clock::now();

    // Apply administrative drain requests.
    for (size_t i = 0; i < shards_.size(); ++i) {
      // relaxed: see set_drain — the flag is a standalone request word.
      const bool want = drain_want_[i].load(std::memory_order_relaxed);
      if (want != shards_[i].draining) {
        shards_[i].draining = want;
        rebuild_ring();
        publish_state(i);
      }
    }

    // Advance shard control channels: reconnects, probes, probe timeouts.
    for (Shard& s : shards_) advance_shard(s, now);

    // Build the poll set.
    fds.clear();
    slots.clear();
    fds.push_back({listener_.get(), POLLIN, 0});
    fds.push_back({wake_.read_fd(), POLLIN, 0});
    for (auto& [id, conn] : conns_) {
      fds.push_back({conn.io.fd(), conn.io.poll_events(), 0});
      slots.push_back({Slot::Kind::kClient, id, 0});
      for (auto& [shard, up] : conn.upstreams) {
        if (!up.io.valid()) continue;
        fds.push_back({up.io.fd(), up.io.poll_events(), 0});
        slots.push_back({Slot::Kind::kUpstream, id, shard});
      }
    }
    for (size_t i = 0; i < shards_.size(); ++i) {
      if (!shards_[i].ctl.valid()) continue;
      fds.push_back({shards_[i].ctl.fd(), shards_[i].ctl.poll_events(), 0});
      slots.push_back({Slot::Kind::kCtl, 0, i});
    }

    ::poll(fds.data(), fds.size(), 50);
    if (stopping_.load()) break;

    if (fds[1].revents & POLLIN) wake_.drain();
    if (fds[0].revents & POLLIN) accept_ready();

    std::vector<uint64_t> dead_clients;
    std::vector<size_t> dead_shards;  // via data-path upstream loss

    for (size_t i = 0; i < slots.size(); ++i) {
      const Slot& slot = slots[i];
      const short revents = fds[i + 2].revents;
      if (revents == 0) continue;
      const auto it = conns_.find(slot.conn_id);

      switch (slot.kind) {
        case Slot::Kind::kClient: {
          if (it == conns_.end()) break;
          ClientConn& conn = it->second;
          if (revents & (POLLERR | POLLHUP | POLLNVAL)) {
            if (!(revents & POLLIN)) {
              dead_clients.push_back(conn.id);
              break;
            }
          }
          if (revents & POLLIN) client_read(conn);
          break;
        }
        case Slot::Kind::kUpstream: {
          if (it == conns_.end()) break;
          ClientConn& conn = it->second;
          const auto uit = conn.upstreams.find(slot.shard);
          if (uit == conn.upstreams.end()) break;
          Upstream& up = uit->second;
          if (!up.io.finish_connect(revents)) {
            up.broken = true;
            dead_shards.push_back(up.shard);
            break;
          }
          if (!up.io.connecting() && (revents & POLLIN)) upstream_read(conn, up);
          if (up.broken) dead_shards.push_back(up.shard);
          break;
        }
        case Slot::Kind::kCtl: {
          Shard& s = shards_[slot.shard];
          if (!s.ctl.valid()) break;
          if (!s.ctl.finish_connect(revents)) {
            ctl_failure(s, "connect failed");
            break;
          }
          if (!s.ctl.connecting() && (revents & POLLIN)) shard_ctl_read(s);
          break;
        }
      }
    }

    // Flush everything with pending output (newly queued bytes included).
    for (auto& [id, conn] : conns_) {
      if (!conn.io.flush()) {
        dead_clients.push_back(id);
        continue;
      }
      if (conn.io.sendq_bytes() > options_.max_send_buffer_bytes) {
        // A reader this slow would make the router buffer frames without
        // bound (forwarded delta frames cannot be dropped: the codec chain
        // breaks). Cut the connection instead.
        metrics_.protocol_errors.fetch_add(1);
        dead_clients.push_back(id);
        continue;
      }
      if (conn.closing && !conn.io.has_outbound()) {
        dead_clients.push_back(id);
        continue;
      }
      for (auto& [shard, up] : conn.upstreams) {
        if (up.io.valid() && !up.broken && !up.io.flush()) {
          up.broken = true;
          dead_shards.push_back(shard);
        }
      }
    }
    for (Shard& s : shards_) {
      if (s.ctl.valid() && !s.ctl.flush()) ctl_failure(s, "control write failed");
    }

    // Idle-harvest clients with nothing outstanding.
    if (options_.idle_timeout_ms > 0) {
      for (auto& [id, conn] : conns_) {
        bool outstanding = conn.io.has_outbound();
        for (auto& [shard, up] : conn.upstreams) {
          if (!up.inflight_requests.empty() || !up.active_streams.empty()) {
            outstanding = true;
          }
        }
        if (!outstanding &&
            ms_since(conn.io.last_activity(), now) > options_.idle_timeout_ms) {
          dead_clients.push_back(id);
        }
      }
    }

    // Data-path losses eject the shard (which notifies every affected
    // client), then dead clients go away.
    std::sort(dead_shards.begin(), dead_shards.end());
    dead_shards.erase(std::unique(dead_shards.begin(), dead_shards.end()),
                      dead_shards.end());
    for (const size_t shard : dead_shards) {
      eject_shard(shard, "upstream connection lost");
    }
    std::sort(dead_clients.begin(), dead_clients.end());
    dead_clients.erase(std::unique(dead_clients.begin(), dead_clients.end()),
                       dead_clients.end());
    for (const uint64_t id : dead_clients) close_client(id);
  }
}

void Router::accept_ready() {
  for (;;) {
    const int fd = ::accept(listener_.get(), nullptr, nullptr);
    if (fd < 0) return;
    if (conns_.size() >= static_cast<size_t>(options_.max_connections)) {
      metrics_.clients_rejected.fetch_add(1);
      ::close(fd);
      continue;
    }
    net::set_nonblocking(fd, true);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ClientConn conn;
    conn.id = next_conn_id_++;
    conn.io = net::Conn(net::UniqueFd(fd), {&pool_});
    metrics_.clients_accepted.fetch_add(1);
    conns_.emplace(conn.id, std::move(conn));
  }
}

// --------------------------------------------------------------------------
// Client face
// --------------------------------------------------------------------------

void Router::client_read(ClientConn& conn) {
  if (!conn.io.read_some()) {
    conn.closing = true;
    return;
  }
  const WireStatus status = conn.io.dispatch(
      [&](InMessage& m) { return handle_client_message(conn, m); });
  if (status == WireStatus::kNeedMore) return;
  if (status != WireStatus::kOk) {
    metrics_.protocol_errors.fetch_add(1);
    conn.io.queue_error(0, serve::ServeStatus::kError, "wire error");
  }
  conn.closing = true;
}

bool Router::handle_client_message(ClientConn& conn, InMessage& msg) {
  if (!conn.got_hello && msg.type != MsgType::kHello) {
    metrics_.protocol_errors.fetch_add(1);
    conn.io.queue_error(0, serve::ServeStatus::kError, "expected hello first");
    return false;
  }
  switch (msg.type) {
    case MsgType::kHello: {
      net::HelloMsg hello;
      if (!net::HelloMsg::decode(msg.bytes(), &hello)) break;
      conn.got_hello = conn.io.answer_hello(hello, options_.name);
      if (!conn.got_hello) metrics_.hello_rejects.fetch_add(1);
      return conn.got_hello;
    }
    case MsgType::kRenderRequest:
      route_render_request(conn, msg);
      return true;
    case MsgType::kStreamRequest:
      route_stream_request(conn, msg);
      return true;
    case MsgType::kMetricsRequest: {
      metrics_.metrics_served.fetch_add(1);
      net::MetricsReplyMsg reply;
      reply.json = net::metrics_document(*this, msg.bytes());
      conn.io.queue_msg(MsgType::kMetricsReply, reply);
      return true;
    }
    case MsgType::kBye:
      return false;  // flush, then close (upstreams close with the client)
    default:
      break;
  }
  metrics_.protocol_errors.fetch_add(1);
  conn.io.queue_error(0, serve::ServeStatus::kError,
                      std::string("bad message: ") + to_string(msg.type));
  return false;
}

bool Router::pick_shard(ClientConn& conn, uint64_t session_id,
                        const serve::VolumeKey& volume,
                        uint64_t error_request_id,
                        const obs::TraceContext& trace, size_t* shard_out) {
  // Affinity first: the pinned shard holds this session's delta-codec and
  // renderer-profile state, so the pin survives ring churn (including
  // drain) as long as the shard itself is alive.
  const auto pin = conn.session_pins.find(session_id);
  if (pin != conn.session_pins.end()) {
    if (shards_[pin->second].healthy) {
      *shard_out = pin->second;
      return true;
    }
    conn.session_pins.erase(pin);
    conn.lost_pins.insert(session_id);
  }

  if (ring_.empty()) {
    metrics_.unavailable_rejections.fetch_add(1);
    conn.io.queue_error(error_request_id, serve::ServeStatus::kUnavailable,
                        "no healthy shard available", trace);
    return false;
  }

  const uint64_t h = HashRing::hash_key(volume.canonical());
  const std::vector<size_t> ring_candidates = ring_.pick(h, options_.replicate);
  size_t best = ring_shard_map_[ring_candidates[0]];
  int64_t best_load = std::numeric_limits<int64_t>::max();
  for (const size_t ring_idx : ring_candidates) {
    const size_t shard = ring_shard_map_[ring_idx];
    const ShardCounters& c = *metrics_.shards[shard];
    const int64_t load =
        c.inflight_requests.load() + c.active_streams.load();
    if (load < best_load) {
      best_load = load;
      best = shard;
    }
  }

  if (conn.lost_pins.erase(session_id) > 0) {
    metrics_.reroutes.fetch_add(1);
    if (trace.sampled()) {
      std::fprintf(stderr,
                   "[router] session %llu rerouted to shard %s trace=%s\n",
                   static_cast<unsigned long long>(session_id),
                   shards_[best].spec.id.c_str(),
                   obs::trace_id_hex(trace).c_str());
    }
  }
  conn.session_pins[session_id] = best;
  *shard_out = best;
  return true;
}

net::Conn Router::dial(size_t shard) {
  std::string error;
  bool in_progress = false;
  net::UniqueFd fd = net::tcp_connect_start(
      shards_[shard].spec.host, shards_[shard].spec.port, &error, &in_progress);
  if (!fd.valid()) return {};
  net::Conn conn(std::move(fd), {&pool_}, in_progress);
  net::HelloMsg hello;
  hello.name = options_.name;
  conn.queue_msg(MsgType::kHello, hello);
  return conn;
}

Router::Upstream* Router::upstream_for(ClientConn& conn, size_t shard) {
  auto it = conn.upstreams.find(shard);
  if (it != conn.upstreams.end() && it->second.io.valid() && !it->second.broken) {
    return &it->second;
  }
  conn.upstreams.erase(shard);

  Upstream up;
  up.shard = shard;
  up.io = dial(shard);
  if (!up.io.valid()) return nullptr;
  auto [pos, inserted] = conn.upstreams.emplace(shard, std::move(up));
  return &pos->second;
}

void Router::route_render_request(ClientConn& conn, InMessage& msg) {
  net::RenderRequestMsg req;
  if (!net::RenderRequestMsg::decode(msg.bytes(), &req)) {
    metrics_.protocol_errors.fetch_add(1);
    conn.io.queue_error(0, serve::ServeStatus::kError, "bad render request");
    return;
  }
  size_t shard = 0;
  if (!pick_shard(conn, req.session_id, req.volume, req.request_id, req.trace,
                  &shard)) {
    return;
  }
  Upstream* up = upstream_for(conn, shard);
  if (up == nullptr) {
    metrics_.unavailable_rejections.fetch_add(1);
    conn.io.queue_error(req.request_id, serve::ServeStatus::kUnavailable,
                        "shard " + shards_[shard].spec.id + " unreachable",
                        req.trace);
    return;
  }
  up->inflight_requests[req.request_id] = ProxyEntry{req.trace, steady_now_ns()};
  metrics_.requests_routed.fetch_add(1);
  metrics_.shards[shard]->routed_requests.fetch_add(1);
  metrics_.shards[shard]->inflight_requests.fetch_add(1);
  up->io.forward(std::move(msg));
}

void Router::route_stream_request(ClientConn& conn, InMessage& msg) {
  net::StreamRequestMsg req;
  if (!net::StreamRequestMsg::decode(msg.bytes(), &req)) {
    metrics_.protocol_errors.fetch_add(1);
    conn.io.queue_error(0, serve::ServeStatus::kError, "bad stream request");
    return;
  }
  size_t shard = 0;
  if (!pick_shard(conn, req.session_id, req.volume, req.stream_id, req.trace,
                  &shard)) {
    return;
  }
  Upstream* up = upstream_for(conn, shard);
  if (up == nullptr) {
    metrics_.unavailable_rejections.fetch_add(1);
    conn.io.queue_error(req.stream_id, serve::ServeStatus::kUnavailable,
                        "shard " + shards_[shard].spec.id + " unreachable",
                        req.trace);
    return;
  }
  up->active_streams[req.stream_id] = ProxyEntry{req.trace, steady_now_ns()};
  metrics_.streams_routed.fetch_add(1);
  metrics_.shards[shard]->routed_streams.fetch_add(1);
  metrics_.shards[shard]->active_streams.fetch_add(1);
  up->io.forward(std::move(msg));
}

void Router::record_proxy_span(const ProxyEntry& entry, uint64_t tag) {
  if (options_.recorder == nullptr || !entry.trace.sampled()) return;
  obs::SpanRecord s;
  s.trace_hi = entry.trace.trace_hi;
  s.trace_lo = entry.trace.trace_lo;
  s.span_id = obs::next_span_id();
  // The router forwards the payload verbatim, so the shard's request span
  // parents to the same wire parent — the proxy span sits beside it under
  // the client root, wrapping it in time.
  s.parent_id = entry.trace.parent_span;
  s.kind = obs::SpanKind::kRouterProxy;
  s.t_start_ns = entry.start_ns;
  s.t_end_ns = steady_now_ns();
  s.tag = tag;
  options_.recorder->record(entry.trace, s);
}

void Router::close_client(uint64_t conn_id) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  // Upstream sockets close with the client; the shard sees EOF and reaps
  // its per-connection state, exactly as with a direct client.
  conns_.erase(it);
}

// --------------------------------------------------------------------------
// Upstream face
// --------------------------------------------------------------------------

void Router::upstream_read(ClientConn& conn, Upstream& up) {
  if (!up.io.read_some()) {
    up.broken = true;
    return;
  }
  const WireStatus status = up.io.dispatch(
      [&](InMessage& m) { return forward_upstream_message(conn, up, m); });
  if (status == WireStatus::kNeedMore) return;
  if (status != WireStatus::kOk) metrics_.protocol_errors.fetch_add(1);
  up.broken = true;
}

bool Router::forward_upstream_message(ClientConn& conn, Upstream& up,
                                      InMessage& msg) {
  ShardCounters& counters = *metrics_.shards[up.shard];
  switch (msg.type) {
    case MsgType::kHelloAck:
      return true;  // consumed by the proxy, not forwarded
    case MsgType::kFrame: {
      // Peek the fixed-offset metadata (wire.hpp FrameMsg layout) without
      // touching the codec blob; the frame forwards verbatim either way.
      net::ByteReader r(msg.bytes());
      const uint64_t request_id = r.read_u64();
      r.read_u64();  // stream_id
      r.read_u32();  // seq
      r.read_u32();  // dropped_before
      r.read_f64();  // render_ms
      const double total_ms = r.read_f64();
      if (r.ok()) {
        counters.frame_latency_ms.record_ms(total_ms);
        if (request_id != 0) {
          const auto rit = up.inflight_requests.find(request_id);
          if (rit != up.inflight_requests.end()) {
            record_proxy_span(rit->second, request_id);
            up.inflight_requests.erase(rit);
            counters.inflight_requests.fetch_sub(1);
          }
        }
      }
      metrics_.frames_forwarded.fetch_add(1);
      counters.forwarded_frames.fetch_add(1);
      break;
    }
    case MsgType::kStreamEnd: {
      net::StreamEndMsg end;
      if (net::StreamEndMsg::decode(msg.bytes(), &end)) {
        const auto sit = up.active_streams.find(end.stream_id);
        if (sit != up.active_streams.end()) {
          // One proxy span covers the whole stream: forwarded -> stream end.
          record_proxy_span(sit->second, end.stream_id);
          up.active_streams.erase(sit);
          counters.active_streams.fetch_sub(1);
        }
      }
      break;
    }
    case MsgType::kError: {
      net::ErrorMsg err;
      if (net::ErrorMsg::decode(msg.bytes(), &err) && err.request_id != 0) {
        if (up.inflight_requests.erase(err.request_id) > 0) {
          counters.inflight_requests.fetch_sub(1);
        }
        if (up.active_streams.erase(err.request_id) > 0) {
          counters.active_streams.fetch_sub(1);
        }
      }
      counters.forwarded_errors.fetch_add(1);
      break;
    }
    case MsgType::kBye:
      return false;  // shard is going away; the loss path takes over
    default:
      metrics_.protocol_errors.fetch_add(1);
      return false;
  }
  // Flush as we go: a reply the kernel takes at once returns its buffer to
  // the pool before the next message in this read is taken, so a burst of
  // replies recycles one warm buffer instead of holding one per reply. A
  // failed write closes the client at the end of this loop iteration.
  conn.io.forward(std::move(msg));
  if (!conn.io.flush()) conn.closing = true;
  return true;
}

void Router::upstream_lost(ClientConn& conn, Upstream& up, const std::string& why) {
  // Every in-flight request and open stream on this upstream dies with a
  // typed, per-id error — the client learns exactly which work was lost
  // and can retry; the session unpins so its next request re-places.
  const std::string& shard_id = shards_[up.shard].spec.id;
  const auto fail_all = [&](std::map<uint64_t, ProxyEntry>& entries,
                            std::atomic<int64_t>& gauge, const char* what,
                            const char* lost) {
    for (const auto& [id, entry] : entries) {
      if (entry.trace.sampled()) {
        std::fprintf(stderr, "[router] shard %s lost %s %llu trace=%s: %s\n",
                     shard_id.c_str(), what, static_cast<unsigned long long>(id),
                     obs::trace_id_hex(entry.trace).c_str(), why.c_str());
      }
      conn.io.queue_error(id, serve::ServeStatus::kUnavailable,
                          "shard " + shard_id + lost + why, entry.trace);
      gauge.fetch_sub(1);
    }
    entries.clear();
  };
  ShardCounters& counters = *metrics_.shards[up.shard];
  fail_all(up.inflight_requests, counters.inflight_requests, "request", " lost: ");
  fail_all(up.active_streams, counters.active_streams, "stream", " lost mid-stream: ");
  for (auto it = conn.session_pins.begin(); it != conn.session_pins.end();) {
    if (it->second == up.shard) {
      conn.lost_pins.insert(it->first);
      it = conn.session_pins.erase(it);
    } else {
      ++it;
    }
  }
}

// --------------------------------------------------------------------------
// Shard lifecycle
// --------------------------------------------------------------------------

size_t Router::shard_index(const Shard& s) const {
  return static_cast<size_t>(&s - shards_.data());
}

void Router::advance_shard(Shard& s, Clock::time_point now) {
  if (!s.ctl.valid()) {
    if (now < s.next_reconnect || stopping_.load()) return;
    // Handshake first; the first probe follows the hello ack.
    s.ctl = dial(shard_index(s));
    s.hello_done = false;
    s.probe_outstanding = false;
    if (!s.ctl.valid()) ctl_failure(s, "connect failed");
    return;
  }
  if (!s.hello_done) return;
  if (s.probe_outstanding) {
    if (ms_since(s.probe_sent, now) > options_.probe_timeout_ms) {
      ctl_failure(s, "probe timeout");
    }
    return;
  }
  if (now >= s.next_probe) {
    s.ctl.queue(MsgType::kMetricsRequest, {});
    s.probe_outstanding = true;
    s.probe_sent = now;
  }
}

void Router::shard_ctl_read(Shard& s) {
  if (!s.ctl.read_some()) {
    ctl_failure(s, "control connection closed");
    return;
  }
  const WireStatus status =
      s.ctl.dispatch([&](InMessage& m) { return handle_ctl_message(s, m); });
  if (status != WireStatus::kNeedMore) ctl_failure(s, "control protocol error");
}

bool Router::handle_ctl_message(Shard& s, const InMessage& msg) {
  switch (msg.type) {
    case MsgType::kHelloAck: {
      s.hello_done = true;
      // Probe immediately: health (and the first metrics snapshot) should
      // not wait out a full probe interval.
      s.ctl.queue(MsgType::kMetricsRequest, {});
      s.probe_outstanding = true;
      s.probe_sent = Clock::now();
      return true;
    }
    case MsgType::kMetricsReply: {
      net::MetricsReplyMsg reply;
      if (!net::MetricsReplyMsg::decode(msg.bytes(), &reply)) return false;
      const size_t idx = shard_index(s);
      s.probe_outstanding = false;
      s.consecutive_failures = 0;
      s.next_probe = Clock::now() + std::chrono::milliseconds(static_cast<int64_t>(
                                        options_.probe_interval_ms));
      s.backoff_ms = options_.reconnect_backoff_ms;
      metrics_.shards[idx]->probes_ok.fetch_add(1);
      {
        MutexLock lock(snapshot_mutex_);
        shard_metrics_[idx] = std::move(reply.json);
      }
      if (!s.healthy) mark_healthy(s);
      return true;
    }
    case MsgType::kError:
      // A typed error on the control channel (e.g. version rejection)
      // means this shard cannot serve us.
      return false;
    default:
      return false;
  }
}

void Router::ctl_failure(Shard& s, const std::string& why) {
  const size_t idx = shard_index(s);
  metrics_.shards[idx]->probe_failures.fetch_add(1);
  ++s.consecutive_failures;
  drop_ctl(s);
  if (s.healthy && s.consecutive_failures >= options_.eject_after_failures) {
    eject_shard(idx, why);
  } else {
    publish_state(idx);
  }
}

void Router::drop_ctl(Shard& s) {
  s.ctl = {};
  s.hello_done = false;
  s.probe_outstanding = false;
  s.next_reconnect = Clock::now() + std::chrono::milliseconds(
                                        static_cast<int64_t>(s.backoff_ms));
  s.backoff_ms = std::min(s.backoff_ms * 2.0, options_.reconnect_backoff_max_ms);
}

void Router::eject_shard(size_t shard, const std::string& why) {
  Shard& s = shards_[shard];
  if (s.healthy) {
    s.healthy = false;
    drop_ctl(s);
    metrics_.shards[shard]->ejections.fetch_add(1);
    rebuild_ring();
    publish_state(shard);
  }
  // Tear down every upstream to this shard across all clients, even when
  // the shard was already out (a second data-path loss in one iteration
  // must still notify its client and drop the broken socket).
  for (auto& [id, conn] : conns_) {
    const auto it = conn.upstreams.find(shard);
    if (it == conn.upstreams.end()) continue;
    upstream_lost(conn, it->second, why);
    conn.upstreams.erase(it);
  }
}

void Router::mark_healthy(Shard& s) {
  const size_t idx = shard_index(s);
  const bool rejoin = metrics_.shards[idx]->ejections.load() > 0;
  s.healthy = true;
  s.consecutive_failures = 0;
  if (rejoin) metrics_.shards[idx]->rejoins.fetch_add(1);
  rebuild_ring();
  publish_state(idx);
}

void Router::rebuild_ring() {
  std::vector<RingNode> nodes;
  ring_shard_map_.clear();
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].healthy && !shards_[i].draining) {
      nodes.push_back({shards_[i].spec.id, shards_[i].spec.weight});
      ring_shard_map_.push_back(i);
    }
  }
  ring_.rebuild(nodes);
}

void Router::publish_state(size_t shard) {
  const Shard& s = shards_[shard];
  ShardState state;
  if (s.healthy) {
    state = s.draining ? ShardState::kDraining : ShardState::kHealthy;
  } else {
    state = metrics_.shards[shard]->ejections.load() > 0 ? ShardState::kEjected
                                                         : ShardState::kConnecting;
  }
  // relaxed: observer gauge; see shard_state().
  published_state_[shard].store(static_cast<int>(state), std::memory_order_relaxed);
}

}  // namespace psw::cluster
