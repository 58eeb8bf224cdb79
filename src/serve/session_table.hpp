// Per-session rendering state: the canonical key of the volume the session
// is orbiting and a NewParallelRenderer instance whose ScanlineProfile
// carries the §4.2 partition profile from frame to frame. That profile is
// all a session keeps between frames. The encoded volume is looked up in
// the cache on every frame and held only while the frame renders, so a
// volume the cache evicts is freed once the frame using it is done; the
// intermediate image and frame scratch live in one workspace the table
// shares among all its sessions. Keeping the renderer per session (and
// batching a session's frames consecutively in the scheduler) is what
// preserves the paper's profile-reuse semantics under multi-session load:
// successive small-angle frames of one orbit repartition from the profile
// instead of re-measuring.
//
// The table is owned and accessed by the scheduler thread only; it needs no
// locking (the service serializes all rendering through that thread, which
// is also what makes the shared workspace safe). In the repo's capability
// model (DESIGN.md "Static concurrency analysis") this is thread
// confinement, not mutual exclusion: there is deliberately no psw::Mutex
// here, and the confinement is enforced by RenderService never letting a
// reference escape scheduler_loop()'s call tree.
#pragma once

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>

#include "parallel/new_renderer.hpp"

namespace psw::serve {

struct SessionState {
  uint64_t id = 0;
  std::string volume_key;  // canonical key currently bound (empty = none)
  NewParallelRenderer renderer;
  uint64_t frames_rendered = 0;

  SessionState(uint64_t sid, ParallelOptions opt,
               NewParallelRenderer::Workspace* workspace)
      : id(sid), renderer(opt, workspace) {}
};

class SessionTable {
 public:
  SessionTable(int max_sessions, ParallelOptions renderer_options)
      : max_sessions_(max_sessions < 1 ? 1 : max_sessions),
        renderer_options_(renderer_options) {}
  // Sessions point at the table's workspace, so the table stays put.
  SessionTable(const SessionTable&) = delete;
  SessionTable& operator=(const SessionTable&) = delete;

  // Finds or creates the session and marks it most recently used. Creating
  // beyond the capacity evicts the least recently used session (its profile
  // is dropped; a later request re-creates it fresh).
  SessionState& acquire(uint64_t id);

  size_t size() const { return index_.size(); }
  uint64_t created() const { return created_; }
  uint64_t evicted() const { return evicted_; }

 private:
  int max_sessions_;
  ParallelOptions renderer_options_;
  // Intermediate image and frame scratch shared by every session's renderer.
  NewParallelRenderer::Workspace workspace_;
  std::list<SessionState> lru_;  // front = most recently used
  std::unordered_map<uint64_t, std::list<SessionState>::iterator> index_;
  uint64_t created_ = 0;
  uint64_t evicted_ = 0;
};

}  // namespace psw::serve
