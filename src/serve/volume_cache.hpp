// Sharded LRU cache of classified, run-length-encoded volumes. Classifying
// and encoding is by far the most expensive per-session setup (§2: the
// preprocessing the shear-warp algorithm amortizes over an animation), so
// sessions share encoded volumes through this cache instead of rebuilding
// them. Entries are handed out as shared_ptr: eviction drops the cache's
// reference, and a frame already rendering from the volume finishes with
// it. Sessions keep no reference between frames, so an evicted volume is
// freed once that frame is done.
#pragma once

#include <functional>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/rle_volume.hpp"
#include "parallel/prepare.hpp"
#include "serve/request.hpp"
#include "util/sync.hpp"

namespace psw::serve {

struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t bytes = 0;        // resident encoded bytes across shards
  uint64_t budget_bytes = 0;
  double hit_rate() const {
    const uint64_t n = hits + misses;
    return n == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(n);
  }
};

class VolumeCache {
 public:
  // Builds the encoded volume for a key on a miss. The default builder
  // generates the phantom named by key.kind, classifies it with the keyed
  // transfer-function preset and options, and encodes all three axes.
  // `timing` (may be null) receives the classify/encode stage split — the
  // tracing subsystem turns it into cache-build child spans.
  using Builder = std::function<std::shared_ptr<const EncodedVolume>(
      const VolumeKey&, PrepareTiming* timing)>;

  VolumeCache(uint64_t byte_budget, int shards = 8, Builder builder = {});

  // Returns the cached volume for `key`, building it on a miss (the build
  // runs under the shard lock, so concurrent requests for one key build
  // once). On a miss, `*build_ms` (if non-null) receives the build time
  // and `*prep` (if non-null) the builder's stage split; both are zeroed
  // on a hit.
  std::shared_ptr<const EncodedVolume> get(const VolumeKey& key,
                                           double* build_ms = nullptr,
                                           PrepareTiming* prep = nullptr);

  // Same, with the caller supplying key.canonical() (computed into a
  // reusable buffer); the hit path then performs no allocation at all.
  std::shared_ptr<const EncodedVolume> get(const VolumeKey& key,
                                           const std::string& canonical,
                                           double* build_ms,
                                           PrepareTiming* prep);

  CacheStats stats() const;
  uint64_t byte_budget() const { return budget_; }

  // `prep` selects the preparation pipeline: the default is serial; with
  // prep.threads > 1 misses classify and encode on a thread pool (output is
  // bit-identical — see parallel/prepare.hpp).
  static Builder phantom_builder(const PrepareOptions& prep = {});

  // Same, drawing the transient build storage (classified grid, chunk
  // tables, lane buffers) from `scratch_pool`, so repeated misses rebuild
  // into warm memory instead of allocating. The pool (null = no pooling)
  // must outlive the returned builder.
  static Builder phantom_builder(const PrepareOptions& prep,
                                 PrepareScratchPool* scratch_pool);

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const EncodedVolume> volume;
    uint64_t bytes = 0;
  };
  // Lock protocol: each shard is independent — one mutex covers that
  // shard's LRU list, its index (whose iterators point into the list) and
  // its byte/hit accounting, and a miss's build runs under it so
  // concurrent requests for one key build once. Shard mutexes are never
  // nested: stats() visits shards one at a time, so there is no
  // cross-shard lock order to get wrong (and none to annotate).
  struct Shard {
    mutable Mutex mutex;
    std::list<Entry> lru PSW_GUARDED_BY(mutex);  // front = most recently used
    std::unordered_map<std::string, std::list<Entry>::iterator> index
        PSW_GUARDED_BY(mutex);
    uint64_t bytes PSW_GUARDED_BY(mutex) = 0;
    uint64_t hits PSW_GUARDED_BY(mutex) = 0;
    uint64_t misses PSW_GUARDED_BY(mutex) = 0;
    uint64_t evictions PSW_GUARDED_BY(mutex) = 0;
  };

  Shard& shard_for(const std::string& canonical);
  void evict_locked(Shard& s, uint64_t shard_budget) PSW_REQUIRES(s.mutex);

  uint64_t budget_;
  uint64_t shard_budget_;
  Builder builder_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace psw::serve
