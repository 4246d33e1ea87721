#include "core/two_level_lru.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "util/random.h"

namespace ctflash::core {
namespace {

using Tier = TwoLevelLru::Tier;

constexpr std::uint64_t kPages = 1024;  // LPN key space of every test LRU

TEST(TwoLevelLru, ZeroCapacityRejected) {
  EXPECT_THROW(TwoLevelLru(kPages, 0, 1), std::invalid_argument);
  EXPECT_THROW(TwoLevelLru(kPages, 1, 0), std::invalid_argument);
}

TEST(TwoLevelLru, KeySpaceIsFixed) {
  EXPECT_THROW(TwoLevelLru(0, 1, 1), std::invalid_argument);
  TwoLevelLru lru(8, 4, 4);
  lru.OnWrite(7);
  EXPECT_EQ(lru.TierOf(7), Tier::kHot);
  EXPECT_THROW(lru.OnWrite(8), std::out_of_range);
  EXPECT_THROW(lru.OnRead(8), std::out_of_range);
  EXPECT_THROW(lru.Erase(8), std::out_of_range);
  EXPECT_THROW(lru.TierOf(kInvalidLpn), std::out_of_range);
  EXPECT_EQ(lru.HotSize(), 1u);
  EXPECT_TRUE(lru.CheckInvariants());
}

TEST(TwoLevelLru, NewWriteEntersHotList) {
  TwoLevelLru lru(kPages, 4, 4);
  const auto out = lru.OnWrite(10);
  EXPECT_EQ(out.tier, Tier::kHot);
  EXPECT_FALSE(out.demoted_to_cold.has_value());
  EXPECT_EQ(lru.TierOf(10), Tier::kHot);
  EXPECT_EQ(lru.HotSize(), 1u);
}

TEST(TwoLevelLru, ReadPromotesHotToIron) {
  TwoLevelLru lru(kPages, 4, 4);
  lru.OnWrite(10);
  const auto out = lru.OnRead(10);
  EXPECT_EQ(out.tier, Tier::kIronHot);
  EXPECT_EQ(lru.TierOf(10), Tier::kIronHot);
  EXPECT_EQ(lru.HotSize(), 0u);
  EXPECT_EQ(lru.IronSize(), 1u);
}

TEST(TwoLevelLru, ReadOfUnknownLpnDoesNothing) {
  TwoLevelLru lru(kPages, 4, 4);
  const auto out = lru.OnRead(99);
  EXPECT_EQ(out.tier, Tier::kNone);
  EXPECT_FALSE(out.demoted_to_cold.has_value());
  EXPECT_EQ(lru.HotSize() + lru.IronSize(), 0u);
}

TEST(TwoLevelLru, IronWriteStaysIron) {
  TwoLevelLru lru(kPages, 4, 4);
  lru.OnWrite(10);
  lru.OnRead(10);
  const auto out = lru.OnWrite(10);  // Algorithm 1: dedup + reinsert as iron
  EXPECT_EQ(out.tier, Tier::kIronHot);
  EXPECT_EQ(lru.IronSize(), 1u);
  EXPECT_EQ(lru.HotSize(), 0u);
}

TEST(TwoLevelLru, HotOverflowDemotesLruTailToCold) {
  TwoLevelLru lru(kPages, 2, 2);
  lru.OnWrite(1);
  lru.OnWrite(2);
  const auto out = lru.OnWrite(3);  // hot = {3, 2}, 1 falls out
  ASSERT_TRUE(out.demoted_to_cold.has_value());
  EXPECT_EQ(*out.demoted_to_cold, 1u);
  EXPECT_EQ(lru.TierOf(1), Tier::kNone);
  EXPECT_EQ(lru.HotSize(), 2u);
}

TEST(TwoLevelLru, IronOverflowCascadesThroughHot) {
  TwoLevelLru lru(kPages, 1, 1);
  lru.OnWrite(1);
  lru.OnRead(1);  // iron = {1}
  lru.OnWrite(2);  // hot = {2}
  const auto out = lru.OnRead(2);  // 2 -> iron, 1 -> hot head; hot empty now
  EXPECT_FALSE(out.demoted_to_cold.has_value());
  EXPECT_EQ(lru.TierOf(2), Tier::kIronHot);
  EXPECT_EQ(lru.TierOf(1), Tier::kHot);
  // One more promotion: 1 -> iron pushes 2 -> hot.
  lru.OnWrite(3);  // hot = {3, 1(overflow)} -> capacity 1: 1 demoted to cold
  EXPECT_EQ(lru.TierOf(3), Tier::kHot);
  EXPECT_EQ(lru.TierOf(1), Tier::kNone);
}

TEST(TwoLevelLru, RewriteRefreshesRecency) {
  TwoLevelLru lru(kPages, 2, 2);
  lru.OnWrite(1);
  lru.OnWrite(2);
  lru.OnWrite(1);  // 1 becomes MRU again
  const auto out = lru.OnWrite(3);
  ASSERT_TRUE(out.demoted_to_cold.has_value());
  EXPECT_EQ(*out.demoted_to_cold, 2u);  // 2 was LRU, not 1
}

TEST(TwoLevelLru, EraseRemovesEntry) {
  TwoLevelLru lru(kPages, 4, 4);
  lru.OnWrite(1);
  lru.OnRead(1);
  lru.Erase(1);
  EXPECT_EQ(lru.TierOf(1), Tier::kNone);
  EXPECT_EQ(lru.IronSize(), 0u);
  lru.Erase(1);  // no-op on absent
}

TEST(TwoLevelLru, TailAccessors) {
  TwoLevelLru lru(kPages, 4, 4);
  EXPECT_FALSE(lru.HotTail().has_value());
  EXPECT_FALSE(lru.IronTail().has_value());
  lru.OnWrite(1);
  lru.OnWrite(2);
  EXPECT_EQ(lru.HotTail().value(), 1u);
  lru.OnRead(1);
  EXPECT_EQ(lru.IronTail().value(), 1u);
}

TEST(TwoLevelLru, InvariantsUnderRandomOps) {
  TwoLevelLru lru(kPages, 16, 8);
  util::Xoshiro256StarStar rng(77);
  for (int i = 0; i < 20000; ++i) {
    const Lpn lpn = rng.UniformBelow(64);
    const auto action = rng.UniformBelow(3);
    if (action == 0) {
      lru.OnWrite(lpn);
    } else if (action == 1) {
      lru.OnRead(lpn);
    } else {
      lru.Erase(lpn);
    }
    ASSERT_LE(lru.HotSize(), 16u);
    ASSERT_LE(lru.IronSize(), 8u);
    if (i % 1000 == 0) {
      ASSERT_TRUE(lru.CheckInvariants()) << "iteration " << i;
    }
  }
  EXPECT_TRUE(lru.CheckInvariants());
}

util::StateWriter SaveLists(const std::vector<std::uint64_t>& hot,
                            const std::vector<std::uint64_t>& iron) {
  util::StateWriter w;
  w.Tag("2LRU");
  w.PutU64Seq(hot);
  w.PutU64Seq(iron);
  return w;
}

TEST(TwoLevelLru, SaveLoadRoundTripKeepsOrder) {
  TwoLevelLru lru(kPages, 4, 2);
  for (Lpn l : {5, 6, 7, 8}) lru.OnWrite(l);
  lru.OnRead(6);
  util::StateWriter w;
  lru.SaveState(w);
  EXPECT_EQ(w.bytes(), SaveLists({8, 7, 5}, {6}).bytes());  // MRU -> LRU
  TwoLevelLru loaded(kPages, 4, 2);
  loaded.OnWrite(100);  // replaced by the load
  util::StateReader r(w.bytes());
  loaded.LoadState(r);
  EXPECT_TRUE(loaded.CheckInvariants());
  EXPECT_EQ(loaded.TierOf(100), Tier::kNone);
  EXPECT_EQ(loaded.HotTail().value(), 5u);
  EXPECT_EQ(loaded.IronTail().value(), 6u);
  util::StateWriter again;
  loaded.SaveState(again);
  EXPECT_EQ(again.bytes(), w.bytes());
}

TEST(TwoLevelLru, LoadRejectsDuplicateAndOutOfRangeLpns) {
  const auto load = [](const util::StateWriter& w) {
    TwoLevelLru lru(kPages, 4, 4);
    util::StateReader r(w.bytes());
    lru.LoadState(r);
  };
  const auto message = [&](const util::StateWriter& w) -> std::string {
    try {
      load(w);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_NO_THROW(load(SaveLists({1, 2}, {3})));
  EXPECT_NE(message(SaveLists({1, 1}, {})).find("2LRU hot lpn 1"),
            std::string::npos);
  EXPECT_NE(message(SaveLists({}, {3, 3})).find("2LRU iron lpn 3"),
            std::string::npos);
  EXPECT_NE(message(SaveLists({2}, {2})).find("2LRU iron lpn 2"),
            std::string::npos);
  EXPECT_NE(message(SaveLists({kPages}, {})).find("2LRU hot lpn 1024"),
            std::string::npos);
  EXPECT_NE(message(SaveLists({}, {kPages + 7})).find("2LRU iron lpn 1031"),
            std::string::npos);
  EXPECT_NE(message(SaveLists({1, 2, 3, 4, 5}, {})).find("exceeds capacity"),
            std::string::npos);
}

/// Parameterized capacity sweep: the structure never exceeds its budgets and
/// at most one entry leaves per operation.
class LruCapacitySweep
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(LruCapacitySweep, BoundedAndLossless) {
  const auto [hot_cap, iron_cap] = GetParam();
  TwoLevelLru lru(kPages, hot_cap, iron_cap);
  util::Xoshiro256StarStar rng(hot_cap * 31 + iron_cap);
  std::size_t inserted = 0, demoted = 0;
  for (int i = 0; i < 5000; ++i) {
    const Lpn lpn = rng.UniformBelow(256);
    const bool was_tracked = lru.Contains(lpn);
    const auto out =
        rng.Bernoulli(0.5) ? lru.OnWrite(lpn) : lru.OnRead(lpn);
    if (!was_tracked && out.tier != Tier::kNone) ++inserted;
    if (out.demoted_to_cold) ++demoted;
    ASSERT_LE(lru.HotSize(), hot_cap);
    ASSERT_LE(lru.IronSize(), iron_cap);
  }
  // Conservation: tracked + demoted == inserted.
  EXPECT_EQ(lru.HotSize() + lru.IronSize() + demoted, inserted);
  EXPECT_TRUE(lru.CheckInvariants());
}

INSTANTIATE_TEST_SUITE_P(
    Capacities, LruCapacitySweep,
    ::testing::Values(std::make_pair<std::size_t, std::size_t>(1, 1),
                      std::make_pair<std::size_t, std::size_t>(4, 2),
                      std::make_pair<std::size_t, std::size_t>(32, 16),
                      std::make_pair<std::size_t, std::size_t>(100, 500)));

}  // namespace
}  // namespace ctflash::core
