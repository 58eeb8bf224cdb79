// Trace-driven data-race detection over TraceSet reference streams.
//
// The correctness invariant behind both parallel shear-warp algorithms is
// that no two processors touch the same bytes conflictingly (write/write or
// read/write) within a synchronization interval — sharing is only legal
// *across* barriers or point-to-point completion edges. check_races replays
// a TraceSet against the happens-before relation reconstructed by SyncGraph
// and reports every conflicting access pair not ordered by it, classified
// by the owning data structure via a RegionRegistry.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/rle_volume.hpp"
#include "parallel/profile.hpp"
#include "trace/sink.hpp"
#include "util/image.hpp"

namespace psw {

class IntermediateImage;

// Named address ranges used to attribute findings to data structures
// (volume runs / voxel data / intermediate image / final image / ...).
class RegionRegistry {
 public:
  void add(std::string name, const void* base, size_t bytes);
  void add_range(std::string name, uint64_t lo, uint64_t hi);

  // Name of the region containing addr, or "unregistered".
  const std::string& classify(uint64_t addr) const;
  size_t size() const { return regions_.size(); }
  // Every region's [lo, hi), in the order added.
  std::vector<std::pair<uint64_t, uint64_t>> ranges() const;

 private:
  struct Region {
    uint64_t lo = 0, hi = 0;
    std::string name;
    size_t order = 0;  // position in add() order; classify() sorts by lo
  };
  mutable std::vector<Region> regions_;
  mutable bool sorted_ = true;
};

// Registers the address regions of one renderer run: the three per-axis RLE
// encodings (runs + packed voxels), the intermediate image (pixels + skip
// links), the final image, and (for the new algorithm) the scanline
// profile. `profile` may be null.
void register_render_regions(RegionRegistry* regions, const EncodedVolume& volume,
                             const IntermediateImage& intermediate,
                             const ImageU8& final_image,
                             const ScanlineProfile* profile);

struct RaceCheckOptions {
  // Bytes per shadow cell (power of two). Coarser cells cost less memory on
  // large traces but can report false sharing: two processors touching
  // distinct bytes of one cell look conflicting. 4 bytes matches the
  // smallest traced accesses (skip links, profile counters), so the default
  // is exact for every stream the renderers emit.
  uint32_t granularity = 4;
  // Findings recorded in the report; further races are still counted.
  size_t max_findings = 16;
};

struct RaceEndpoint {
  int proc = -1;
  int interval = -1;    // -1 = before the first boundary
  size_t record = 0;    // index into the proc's stream
  bool write = false;
  uint64_t addr = 0;
  uint32_t size = 0;
};

struct RaceFinding {
  uint64_t cell_lo = 0, cell_hi = 0;  // offending shadow-cell byte range
  RaceEndpoint first, second;         // first = earlier in replay order
  std::string region;
};

struct RaceReport {
  std::vector<RaceFinding> findings;
  uint64_t races_total = 0;       // all conflicting pairs, beyond max_findings
  uint64_t records_checked = 0;
  size_t shadow_cells = 0;
  int procs = 0;

  bool clean() const { return races_total == 0; }
  // Human-readable findings, one block per finding (empty when clean).
  std::string summary(const TraceSet& traces) const;
};

RaceReport check_races(const TraceSet& traces, const RegionRegistry& regions,
                       const RaceCheckOptions& opt = {});

}  // namespace psw
