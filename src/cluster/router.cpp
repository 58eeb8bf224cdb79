#include "cluster/router.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <thread>

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
      drain_want_(new std::atomic<bool>[specs_.size()]),
      loop_(*this) {
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
  const Clock::time_point now = Clock::now();
  for (Shard& s : shards_) {
    s.next_reconnect = now;  // connect control channels on the first tick
    s.backoff_ms = options_.reconnect_backoff_ms;
  }
  // Clients: no SO_SNDBUF, no closed/idle/errors-sent counts, and hello
  // rejections counted apart from protocol errors.
  return loop_.start({options_, 0, options_.name, {&pool_},
                      {&metrics_.clients_accepted, &metrics_.clients_rejected, nullptr,
                       nullptr, &metrics_.protocol_errors, &metrics_.hello_rejects,
                       nullptr}},
                     error);
}

void Router::stop() {
  if (!running()) return;
  loop_.stop();
  for (Shard& s : shards_) {
    s.ctl = {};
    s.hello_done = false;
  }
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
      loop_.wake();
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
// Loop hooks
// --------------------------------------------------------------------------

void Router::tick() {
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
  const Clock::time_point now = Clock::now();
  for (Shard& s : shards_) advance_shard(s, now);
}

void Router::watch() {
  for (auto& [id, peer] : loop_.peers()) {
    for (auto& [shard, up] : client(*peer).upstreams) loop_.add({id, shard}, up.io);
  }
  for (size_t i = 0; i < shards_.size(); ++i) loop_.add({0, i}, shards_[i].ctl);
}

net::Conn* Router::watched(const net::WatchKey& key) {
  if (key.peer == 0) return &shards_[key.index].ctl;
  net::Peer* peer = loop_.find(key.peer);
  if (peer == nullptr) return nullptr;
  const auto it = client(*peer).upstreams.find(key.index);
  return it == client(*peer).upstreams.end() ? nullptr : &it->second.io;
}

bool Router::on_watched_message(const net::WatchKey& key, InMessage& msg) {
  if (key.peer == 0) return handle_ctl_message(shards_[key.index], msg);
  ClientConn& conn = client(*loop_.find(key.peer));
  return forward_upstream_message(conn, conn.upstreams.at(key.index), msg);
}

void Router::watched_lost(const net::WatchKey& key, const char* why,
                          WireStatus status) {
  if (key.peer == 0) {
    ctl_failure(shards_[key.index], std::string("control ") + why);
    return;
  }
  if (status != WireStatus::kOk) metrics_.protocol_errors.fetch_add(1);
  // Data-path loss ejects the shard, which notifies every affected client.
  eject_shard(key.index, "upstream connection lost");
}

void Router::flushed(net::Peer& peer) {
  if (peer.io.sendq_bytes() <= options_.max_send_buffer_bytes) return;
  // A reader this slow would make the router buffer frames without bound
  // (forwarded delta frames cannot be dropped: the codec chain breaks).
  // Cut the connection instead.
  metrics_.protocol_errors.fetch_add(1);
  peer.io.discard_outbound();
  peer.closing = true;
}

bool Router::busy(const net::Peer& peer) const {
  for (const auto& [shard, up] : static_cast<const ClientConn&>(peer).upstreams) {
    if (!up.inflight_requests.empty() || !up.active_streams.empty()) return true;
  }
  return false;
}

// --------------------------------------------------------------------------
// Client face
// --------------------------------------------------------------------------

bool Router::on_message(net::Peer& peer, InMessage& msg) {
  ClientConn& conn = client(peer);
  // A request that does not decode is answered with a typed error; the
  // connection itself stays usable.
  const auto bad = [&](const char* what) {
    metrics_.protocol_errors.fetch_add(1);
    conn.io.queue_error(0, serve::ServeStatus::kError, what);
    return true;
  };
  switch (msg.type) {
    case MsgType::kRenderRequest: {
      net::RenderRequestMsg req;
      if (!net::RenderRequestMsg::decode(msg.bytes(), &req)) return bad("bad render request");
      route(conn, msg, req.session_id, req.volume, req.request_id, req.trace, false);
      return true;
    }
    case MsgType::kStreamRequest: {
      net::StreamRequestMsg req;
      if (!net::StreamRequestMsg::decode(msg.bytes(), &req)) return bad("bad stream request");
      route(conn, msg, req.session_id, req.volume, req.stream_id, req.trace, true);
      return true;
    }
    case MsgType::kMetricsRequest: {
      metrics_.metrics_served.fetch_add(1);
      net::MetricsReplyMsg reply;
      reply.json = net::metrics_document(*this, msg.bytes());
      conn.io.queue_msg(MsgType::kMetricsReply, reply);
      return true;
    }
    default:
      return loop_.reject(conn, std::string("bad message: ") + to_string(msg.type));
  }
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
  int connect_errno = 0;
  bool in_progress = false;
  net::UniqueFd fd = net::tcp_connect_errno(shards_[shard].spec.host,
                                            shards_[shard].spec.port, &error,
                                            &connect_errno, 0, &in_progress);
  if (!fd.valid()) return {};
  net::Conn conn(std::move(fd), {&pool_}, in_progress);
  net::HelloMsg hello;
  hello.name = options_.name;
  conn.queue_msg(MsgType::kHello, hello);
  return conn;
}

Router::Upstream* Router::upstream_for(ClientConn& conn, size_t shard) {
  auto it = conn.upstreams.find(shard);
  if (it != conn.upstreams.end() && it->second.io.valid()) return &it->second;
  conn.upstreams.erase(shard);

  Upstream up;
  up.shard = shard;
  up.io = dial(shard);
  if (!up.io.valid()) return nullptr;
  auto [pos, inserted] = conn.upstreams.emplace(shard, std::move(up));
  return &pos->second;
}

void Router::route(ClientConn& conn, InMessage& msg, uint64_t session_id,
                   const serve::VolumeKey& volume, uint64_t id,
                   const obs::TraceContext& trace, bool stream) {
  size_t shard = 0;
  if (!pick_shard(conn, session_id, volume, id, trace, &shard)) return;
  Upstream* up = upstream_for(conn, shard);
  if (up == nullptr) {
    metrics_.unavailable_rejections.fetch_add(1);
    conn.io.queue_error(id, serve::ServeStatus::kUnavailable,
                        "shard " + shards_[shard].spec.id + " unreachable", trace);
    return;
  }
  ShardCounters& c = *metrics_.shards[shard];
  (stream ? up->active_streams : up->inflight_requests)[id] =
      ProxyEntry{trace, steady_now_ns()};
  (stream ? metrics_.streams_routed : metrics_.requests_routed).fetch_add(1);
  (stream ? c.routed_streams : c.routed_requests).fetch_add(1);
  (stream ? c.active_streams : c.inflight_requests).fetch_add(1);
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

// --------------------------------------------------------------------------
// Upstream face
// --------------------------------------------------------------------------

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
    if (now < s.next_reconnect) return;
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
    default:
      // A typed error on the control channel (e.g. version rejection), or
      // anything unexpected, means this shard cannot serve us.
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
  // the shard was already out (a data-path loss while it is ejected must
  // still notify its client and drop the broken socket).
  for (auto& [id, peer] : loop_.peers()) {
    ClientConn& conn = client(*peer);
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
