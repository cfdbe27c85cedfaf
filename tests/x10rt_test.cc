#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "serialize/basic_writables.h"
#include "x10rt/channel.h"
#include "x10rt/place_group.h"

namespace m3r::x10rt {
namespace {

using serialize::IntWritable;
using serialize::Text;

TEST(PlaceGroupTest, RunsEveryPlaceExactlyOnce) {
  PlaceGroup places(16, 4);
  std::vector<std::atomic<int>> hits(16);
  places.FinishForAll([&](int p) { ++hits[static_cast<size_t>(p)]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(PlaceGroupTest, FinishForHandlesManyTasks) {
  PlaceGroup places(4, 3);
  std::atomic<int64_t> sum{0};
  places.FinishFor(1000, [&](size_t i) { sum += static_cast<int64_t>(i); });
  EXPECT_EQ(sum.load(), 999 * 1000 / 2);
}

TEST(PlaceGroupTest, NestedFinishDoesNotDeadlock) {
  PlaceGroup places(4, 2);
  std::atomic<int> inner_total{0};
  places.FinishForAll([&](int) {
    places.FinishFor(8, [&](size_t) { ++inner_total; });
  });
  EXPECT_EQ(inner_total.load(), 4 * 8);
}

TEST(PlaceGroupTest, SingleHostThreadStillCompletes) {
  PlaceGroup places(8, 1);
  std::atomic<int> count{0};
  places.FinishForAll([&](int) { ++count; });
  EXPECT_EQ(count.load(), 8);
}

TEST(PlaceGroupTest, SurvivesManyRounds) {
  PlaceGroup places(6, 3);
  // Long-lived places reused across "jobs" — the M3R design point.
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    places.FinishForAll([&](int) { ++count; });
    ASSERT_EQ(count.load(), 6);
  }
}

TEST(ChannelTest, RoundTripWithDedupStats) {
  Channel channel(serialize::DedupMode::kFull);
  auto broadcast = std::make_shared<Text>("big-broadcast-value");
  for (int i = 0; i < 5; ++i) {
    channel.Send(std::make_shared<IntWritable>(i));
    channel.Send(broadcast);
  }
  Channel::Wire wire = channel.Finish();
  EXPECT_EQ(wire.objects, 10u);
  EXPECT_EQ(wire.objects_deduped, 4u);  // broadcast repeats

  auto objs = Channel::Decode(wire.bytes);
  ASSERT_EQ(objs.size(), 10u);
  // Aliases reconstructed.
  EXPECT_EQ(objs[1].get(), objs[3].get());
  EXPECT_EQ(objs[1]->ToString(), "big-broadcast-value");
  EXPECT_EQ(static_cast<IntWritable&>(*objs[8]).Get(), 4);
}

TEST(ChannelTest, WireSmallerWithDedup) {
  auto payload = std::make_shared<Text>(std::string(1000, 'x'));
  Channel with(serialize::DedupMode::kFull);
  Channel without(serialize::DedupMode::kOff);
  for (int i = 0; i < 10; ++i) {
    with.Send(payload);
    without.Send(payload);
  }
  auto w1 = with.Finish();
  auto w2 = without.Finish();
  EXPECT_LT(w1.bytes.size(), w2.bytes.size() / 5);
}

}  // namespace
}  // namespace m3r::x10rt
