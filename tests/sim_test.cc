#include <gtest/gtest.h>

#include "sim/cost_model.h"
#include "sim/timeline.h"

namespace m3r::sim {
namespace {

TEST(CostModelTest, BasicShapes) {
  ClusterSpec spec;
  CostModel cost(spec);
  EXPECT_EQ(cost.DiskRead(0), 0.0);
  EXPECT_GT(cost.DiskRead(1), 0.0);  // seek floor
  // Streaming dominates for large transfers.
  double t1 = cost.DiskRead(100 << 20);
  double t2 = cost.DiskRead(200 << 20);
  EXPECT_NEAR(t2 / t1, 2.0, 0.05);
  // Remote DFS read costs strictly more than local.
  EXPECT_GT(cost.DfsRead(1 << 20, false), cost.DfsRead(1 << 20, true));
  // Replication makes writes more expensive than plain disk writes.
  EXPECT_GT(cost.DfsWrite(1 << 20), cost.DiskWrite(1 << 20));
}

TEST(SlotTimelineTest, ParallelismBoundedBySlots) {
  ClusterSpec spec;
  spec.num_nodes = 2;
  spec.slots_per_node = 1;  // 2 slots total
  SlotTimeline tl(spec, 0);
  for (int i = 0; i < 4; ++i) {
    tl.Schedule(0, 10.0, 0);
  }
  // 4 tasks x 10s over 2 slots => 20s makespan.
  EXPECT_DOUBLE_EQ(tl.Makespan(), 20.0);
}

TEST(SlotTimelineTest, DispatchDelayAddsUp) {
  ClusterSpec spec;
  spec.num_nodes = 1;
  spec.slots_per_node = 1;
  SlotTimeline tl(spec, 5.0);
  auto t = tl.Schedule(5.0, 2.0, 0.5);
  EXPECT_DOUBLE_EQ(t.start_s, 5.5);
  EXPECT_DOUBLE_EQ(t.finish_s, 7.5);
}

TEST(SlotTimelineTest, LocalityPreferenceHonored) {
  ClusterSpec spec;
  spec.num_nodes = 4;
  spec.slots_per_node = 1;
  SlotTimeline tl(spec, 0);
  bool local = false;
  auto t = tl.Schedule(0, 1.0, 0, {2}, &local);
  EXPECT_TRUE(local);
  EXPECT_EQ(t.node, 2);
}

TEST(SlotTimelineTest, LocalityGivenUpAfterHeartbeatWindow) {
  ClusterSpec spec;
  spec.num_nodes = 2;
  spec.slots_per_node = 1;
  spec.heartbeat_interval_s = 1.0;
  SlotTimeline tl(spec, 0);
  // Occupy node 0 for a long time.
  tl.ScheduleOnNode(0, 0, 100.0);
  bool local = false;
  auto t = tl.Schedule(0, 1.0, 0, {0}, &local);
  // Waiting 100s for locality is worse than one heartbeat; scheduler
  // falls back to node 1.
  EXPECT_FALSE(local);
  EXPECT_EQ(t.node, 1);
}

TEST(SlotTimelineTest, DurationMayDependOnPlacement) {
  ClusterSpec spec;
  spec.num_nodes = 2;
  spec.slots_per_node = 1;
  SlotTimeline tl(spec, 0);
  bool local = false;
  auto t = tl.ScheduleFn(
      0, [](bool is_local, int) { return is_local ? 1.0 : 3.0; }, 0, {1},
      &local);
  EXPECT_TRUE(local);
  EXPECT_DOUBLE_EQ(t.finish_s - t.start_s, 1.0);
}

TEST(SlotTimelineTest, ScheduleOnNodeUsesLeastLoadedSlot) {
  ClusterSpec spec;
  spec.num_nodes = 1;
  spec.slots_per_node = 2;
  SlotTimeline tl(spec, 0);
  tl.ScheduleOnNode(0, 0, 10.0);
  auto t = tl.ScheduleOnNode(0, 0, 1.0);
  EXPECT_DOUBLE_EQ(t.start_s, 0.0);  // second slot was free
}

}  // namespace
}  // namespace m3r::sim
