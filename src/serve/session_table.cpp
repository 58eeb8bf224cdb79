#include "serve/session_table.hpp"

namespace psw::serve {

SessionState& SessionTable::acquire(uint64_t id) {
  const auto it = index_.find(id);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);  // touch
    return *it->second;
  }
  while (static_cast<int>(lru_.size()) >= max_sessions_) {
    index_.erase(lru_.back().id);
    lru_.pop_back();
    ++evicted_;
  }
  lru_.emplace_front(id, renderer_options_, &workspace_);
  index_[id] = lru_.begin();
  ++created_;
  return lru_.front();
}

}  // namespace psw::serve
