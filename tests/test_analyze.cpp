// Tests for the trace-driven race detector (src/analyze): happens-before
// reconstruction from sync events, FastTrack shadow-state transitions,
// shadow granularity behaviour, a seeded renderer-level race (two
// processors compositing the same intermediate scanline in one interval),
// and clean-run assertions for both renderers across the standard matrix.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "analyze/race_check.hpp"
#include "analyze/sync_graph.hpp"
#include "core/compositor.hpp"
#include "core/factorization.hpp"
#include "core/intermediate_image.hpp"
#include "memsim/experiment.hpp"
#include "trace/sink.hpp"

namespace psw {
namespace {

RaceReport check(const TraceSet& traces, uint32_t granularity = 4) {
  RegionRegistry regions;
  RaceCheckOptions opt;
  opt.granularity = granularity;
  return check_races(traces, regions, opt);
}

// --- SyncGraph ordering --------------------------------------------------

TEST(SyncGraph, BarrierOrdersAcrossProcessors) {
  TraceSet t(2);
  t.begin_interval("a");
  int x = 0;
  t.hook(0)->access(&x, 4, true);
  t.sync_barrier();
  t.hook(1)->access(&x, 4, true);

  const SyncGraph g(t);
  const int s0 = g.segment_at(0, 0);
  const int s1 = g.segment_at(1, 0);
  EXPECT_EQ(g.segment_proc(s0), 0);
  EXPECT_EQ(g.segment_proc(s1), 1);
  EXPECT_TRUE(g.ordered(s0, s1));
  EXPECT_FALSE(g.ordered(s1, s0));
  EXPECT_FALSE(g.concurrent(s0, s1));
  EXPECT_TRUE(check(t).clean());
}

TEST(SyncGraph, UnsynchronizedWritesAreConcurrentAndRace) {
  TraceSet t(2);
  t.begin_interval("a");
  int x = 0;
  t.hook(0)->access(&x, 4, true);
  t.hook(1)->access(&x, 4, true);

  const SyncGraph g(t);
  EXPECT_TRUE(g.concurrent(g.segment_at(0, 0), g.segment_at(1, 0)));
  const RaceReport r = check(t);
  ASSERT_FALSE(r.clean());
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].first.proc, 0);
  EXPECT_EQ(r.findings[0].second.proc, 1);
  EXPECT_TRUE(r.findings[0].first.write);
  EXPECT_TRUE(r.findings[0].second.write);
  EXPECT_EQ(r.findings[0].region, "unregistered");
}

TEST(SyncGraph, ReleaseAcquireOrdersPointToPoint) {
  TraceSet t(2);
  t.begin_interval("a");
  int x = 0;
  t.hook(0)->access(&x, 4, true);
  t.sync_release(0, /*token=*/7);
  t.sync_acquire(1, /*token=*/7);
  t.hook(1)->access(&x, 4, true);
  EXPECT_TRUE(check(t).clean());
}

TEST(SyncGraph, AcquireUnderDifferentTokenDoesNotOrder) {
  TraceSet t(2);
  t.begin_interval("a");
  int x = 0;
  t.hook(0)->access(&x, 4, true);
  t.sync_release(0, /*token=*/7);
  t.sync_acquire(1, /*token=*/8);  // wrong token: no edge
  t.hook(1)->access(&x, 4, true);
  EXPECT_FALSE(check(t).clean());
}

TEST(SyncGraph, AcquireCollectsEveryReleaseUnderToken) {
  // Two contributors (as when a thief composites part of a stolen
  // partition) both release under the owner's token; one acquire must
  // order both.
  TraceSet t(3);
  t.begin_interval("a");
  int x = 0, y = 0;
  t.hook(0)->access(&x, 4, true);
  t.sync_release(0, 5);
  t.hook(1)->access(&y, 4, true);
  t.sync_release(1, 5);
  t.sync_acquire(2, 5);
  t.hook(2)->access(&x, 4, true);
  t.hook(2)->access(&y, 4, true);
  EXPECT_TRUE(check(t).clean());
}

TEST(SyncGraph, EdgeIsImmediateReleaseAcquire) {
  TraceSet t(2);
  t.begin_interval("a");
  int x = 0;
  t.hook(0)->access(&x, 4, true);
  t.sync_edge(0, 1);
  t.hook(1)->access(&x, 4, true);
  EXPECT_TRUE(check(t).clean());

  // The edge covers only records before it: a later proc-0 write is not
  // ordered against proc 1.
  TraceSet t2(2);
  t2.begin_interval("a");
  t2.sync_edge(0, 1);
  t2.hook(0)->access(&x, 4, true);
  t2.hook(1)->access(&x, 4, true);
  EXPECT_FALSE(check(t2).clean());
}

TEST(SyncGraph, OrderingIsTransitiveThroughIntermediary) {
  TraceSet t(3);
  t.begin_interval("a");
  int x = 0;
  t.hook(0)->access(&x, 4, true);
  t.sync_edge(0, 1);
  t.hook(1)->access(&x, 4, false);
  t.sync_edge(1, 2);
  t.hook(2)->access(&x, 4, true);
  EXPECT_TRUE(check(t).clean());
}

// --- Access-kind rules ---------------------------------------------------

TEST(RaceCheck, ConcurrentReadsDoNotRace) {
  TraceSet t(3);
  t.begin_interval("a");
  int x = 0;
  for (int p = 0; p < 3; ++p) t.hook(p)->access(&x, 4, false);
  EXPECT_TRUE(check(t).clean());
}

TEST(RaceCheck, ReadWriteConflictRaces) {
  TraceSet t(2);
  t.begin_interval("a");
  int x = 0;
  t.hook(0)->access(&x, 4, false);
  t.hook(1)->access(&x, 4, true);
  const RaceReport r = check(t);
  ASSERT_FALSE(r.clean());
  EXPECT_FALSE(r.findings[0].first.write);
  EXPECT_TRUE(r.findings[0].second.write);
}

TEST(RaceCheck, WriteAgainstInflatedReadSetRaces) {
  // Concurrent readers force the FastTrack read-vector representation; an
  // unordered write must still conflict with one of them.
  TraceSet t(3);
  t.begin_interval("a");
  int x = 0;
  t.hook(0)->access(&x, 4, false);
  t.hook(1)->access(&x, 4, false);
  t.hook(2)->access(&x, 4, true);
  EXPECT_FALSE(check(t).clean());
}

TEST(RaceCheck, SameProcessorAccessesNeverRace) {
  TraceSet t(2);
  t.begin_interval("a");
  int x = 0;
  t.hook(0)->access(&x, 4, true);
  t.hook(0)->access(&x, 4, true);
  t.hook(0)->access(&x, 4, false);
  EXPECT_TRUE(check(t).clean());
}

TEST(RaceCheck, OverlappingRangesConflict) {
  // An 8-byte write overlapping a 4-byte write at a different base address
  // still shares shadow cells.
  TraceSet t(2);
  t.begin_interval("a");
  alignas(8) char buf[16] = {};
  t.hook(0)->access(buf, 8, true);
  t.hook(1)->access(buf + 4, 4, true);
  EXPECT_FALSE(check(t).clean());
}

// --- Shadow granularity --------------------------------------------------

TEST(RaceCheck, GranularitySeparatesAdjacentAccesses) {
  // Two processors writing adjacent bytes: exact at 1-byte cells, reported
  // as false sharing at 4-byte cells.
  TraceSet t(2);
  t.begin_interval("a");
  alignas(4) char buf[4] = {};
  t.hook(0)->access(buf + 0, 1, true);
  t.hook(1)->access(buf + 1, 1, true);
  EXPECT_TRUE(check(t, /*granularity=*/1).clean());
  EXPECT_FALSE(check(t, /*granularity=*/4).clean());
}

TEST(RaceCheck, DefaultGranularitySeparatesAdjacentWords) {
  // Adjacent uint32 counters (e.g. neighbouring profile slots) written by
  // different processors are distinct cells at the default 4 bytes.
  TraceSet t(2);
  t.begin_interval("a");
  alignas(8) uint32_t w[2] = {};
  t.hook(0)->access(&w[0], 4, true);
  t.hook(1)->access(&w[1], 4, true);
  EXPECT_TRUE(check(t, /*granularity=*/4).clean());
  EXPECT_FALSE(check(t, /*granularity=*/8).clean());
}

// --- Seeded renderer-level race ------------------------------------------

TEST(RaceCheck, FlagsOverlappingCompositePartition) {
  // Deliberately broken partition: two processors composite the SAME
  // intermediate scanline in one interval with no sync edge between them.
  const Dataset data = make_dataset("mri", "mri16", 16, 16, 16);
  const Camera cam = Camera::orbit(data.dims, 0.55, 0.35);
  const Factorization f = factorize(cam, data.dims);
  const RleVolume& rle = data.volume.for_axis(f.principal_axis);

  IntermediateImage inter(f.intermediate_width, f.intermediate_height);
  inter.clear();
  // Pick a scanline that actually receives contributions.
  int v = -1;
  for (int cand = 0; cand < f.intermediate_height; ++cand) {
    if (!scanline_provably_empty(rle, f, cand)) {
      v = cand;
      break;
    }
  }
  ASSERT_GE(v, 0) << "phantom produced an empty frame";

  TraceSet traces(2);
  traces.begin_interval("composite");
  composite_scanline(rle, f, v, inter, traces.hook(0));
  inter.clear_rows(v, v + 1);  // reset opacity state; untraced on purpose
  composite_scanline(rle, f, v, inter, traces.hook(1));

  RegionRegistry regions;
  ImageU8 final_image;
  register_render_regions(&regions, data.volume, inter, final_image, nullptr);

  const RaceReport report = check_races(traces, regions, {});
  ASSERT_FALSE(report.clean());
  ASSERT_FALSE(report.findings.empty());

  bool saw_intermediate = false;
  for (const RaceFinding& fnd : report.findings) {
    // Endpoints: proc 0's composite first, proc 1's second, both in the
    // single "composite" interval.
    EXPECT_EQ(fnd.first.proc, 0);
    EXPECT_EQ(fnd.second.proc, 1);
    EXPECT_EQ(fnd.first.interval, 0);
    EXPECT_EQ(fnd.second.interval, 0);
    EXPECT_LT(fnd.first.record, traces.stream(0).records.size());
    EXPECT_LT(fnd.second.record, traces.stream(1).records.size());
    // Every conflicting structure here belongs to the intermediate image
    // (pixels or their skip links) — volume data is only read.
    EXPECT_TRUE(fnd.region == "intermediate image" || fnd.region == "skip links")
        << fnd.region;
    saw_intermediate |= fnd.region == "intermediate image";
  }
  EXPECT_TRUE(saw_intermediate);
  EXPECT_EQ(traces.interval_name(0), "composite");
  EXPECT_FALSE(report.summary(traces).empty());
}

// --- Clean runs over the real renderers ----------------------------------

class RendererMatrix : public ::testing::Test {
 protected:
  static const Dataset& mri() {
    static const Dataset d = make_dataset("mri", "mri32", 32, 32, 32);
    return d;
  }
  static const Dataset& ct() {
    static const Dataset d = make_dataset("ct", "ct32", 32, 32, 32);
    return d;
  }
};

TEST_F(RendererMatrix, BothRenderersRaceFreeOnBothPhantoms) {
  WorkloadOptions opt;
  opt.verify_race_free = false;  // we inspect the report directly
  for (const Dataset* data : {&mri(), &ct()}) {
    for (const Algo algo : {Algo::kOld, Algo::kNew}) {
      for (const int procs : {1, 4, 16}) {
        const RaceReport report = check_frame_races(algo, *data, procs, opt);
        EXPECT_TRUE(report.clean())
            << algo_name(algo) << "/" << data->name << "/" << procs
            << " procs: " << report.races_total << " races";
        EXPECT_GT(report.records_checked, 0u);
      }
    }
  }
}

// 16³ at P = 16 leaves some compositing partitions empty, so a warp region
// reads rows owned by a partition past its empty neighbour; the fused wait
// must cover that owner, not just p±1.
TEST_F(RendererMatrix, NewRendererRaceFreeWithEmptyPartitions) {
  WorkloadOptions opt;
  opt.verify_race_free = false;
  for (const char* kind : {"mri", "ct"}) {
    const Dataset data = make_dataset(kind, std::string(kind) + "16", 16, 16, 16);
    const RaceReport report = check_frame_races(Algo::kNew, data, 16, opt);
    EXPECT_TRUE(report.clean()) << kind << ": " << report.races_total << " races";
  }
}

TEST_F(RendererMatrix, NewRendererRaceFreeWithoutFusedPhases) {
  WorkloadOptions opt;
  opt.verify_race_free = false;
  opt.parallel.fused_phases = false;  // barrier path instead of p2p edges
  const RaceReport report = check_frame_races(Algo::kNew, mri(), 4, opt);
  EXPECT_TRUE(report.clean()) << report.races_total << " races";
}

TEST_F(RendererMatrix, TraceFrameVerificationPassesWhenEnabled) {
  WorkloadOptions opt;
  opt.verify_race_free = true;
  EXPECT_NO_THROW({
    const TraceSet traces = trace_frame(Algo::kNew, mri(), 4, opt);
    EXPECT_GT(traces.total_records(), 0u);
  });
}

}  // namespace
}  // namespace psw
