#include "core/access_frequency_table.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/serial.h"

namespace ctflash::core {
namespace {

constexpr std::uint64_t kPages = 1024;  // LPN key space of every test table

TEST(FreqTable, ConstructionValidation) {
  EXPECT_THROW(AccessFrequencyTable(kPages, 0, 10), std::invalid_argument);
  EXPECT_THROW(AccessFrequencyTable(kPages, 2, 0), std::invalid_argument);
}

TEST(FreqTable, KeySpaceIsFixed) {
  EXPECT_THROW(AccessFrequencyTable(0, 2, 10), std::invalid_argument);
  AccessFrequencyTable t(8, 2, 10);
  EXPECT_EQ(t.OnRead(7), 1u);
  EXPECT_THROW(t.OnRead(8), std::out_of_range);
  EXPECT_THROW(t.OnWrite(8), std::out_of_range);
  EXPECT_THROW(t.Register(8, 3), std::out_of_range);
  EXPECT_THROW(t.Erase(8), std::out_of_range);
  EXPECT_THROW(t.FrequencyOf(kInvalidLpn), std::out_of_range);
  EXPECT_EQ(t.Size(), 1u);
  EXPECT_TRUE(t.CheckInvariants());
}

TEST(FreqTable, UntrackedIsIcyCold) {
  const AccessFrequencyTable t(kPages, 2, 100);
  EXPECT_EQ(t.FrequencyOf(5), 0u);
  EXPECT_FALSE(t.IsCold(5));
}

TEST(FreqTable, ReadsAccumulateAndPromote) {
  AccessFrequencyTable t(kPages, 2, 100);
  EXPECT_EQ(t.OnRead(5), 1u);
  EXPECT_FALSE(t.IsCold(5));  // 1 < threshold 2
  EXPECT_EQ(t.OnRead(5), 2u);
  EXPECT_TRUE(t.IsCold(5));  // write-once-read-many now
}

TEST(FreqTable, WriteResetsPopularity) {
  AccessFrequencyTable t(kPages, 2, 100);
  t.OnRead(5);
  t.OnRead(5);
  ASSERT_TRUE(t.IsCold(5));
  t.OnWrite(5);  // fresh content: popularity unknown again
  EXPECT_FALSE(t.IsCold(5));
  EXPECT_EQ(t.FrequencyOf(5), 0u);
}

TEST(FreqTable, RegisterSeedsFrequency) {
  AccessFrequencyTable t(kPages, 3, 100);
  t.Register(7, 3);
  EXPECT_TRUE(t.IsCold(7));
  t.Register(7, 0);  // overwrite existing seed
  EXPECT_FALSE(t.IsCold(7));
}

TEST(FreqTable, EraseForgets) {
  AccessFrequencyTable t(kPages, 2, 100);
  t.OnRead(5);
  t.Erase(5);
  EXPECT_EQ(t.FrequencyOf(5), 0u);
  EXPECT_EQ(t.Size(), 0u);
}

TEST(FreqTable, DecayHalvesAndDropsZeroes) {
  AccessFrequencyTable t(kPages, 2, 4);
  // Fill to capacity with varying counts.
  t.Register(1, 1);
  t.Register(2, 4);
  t.Register(3, 8);
  t.Register(4, 1);
  EXPECT_EQ(t.Size(), 4u);
  // Next insert triggers aging: counts halve, zeroes evicted.
  t.OnRead(5);
  EXPECT_GE(t.decay_count(), 1u);
  EXPECT_EQ(t.FrequencyOf(1), 0u);  // 1/2 = 0 -> dropped
  EXPECT_EQ(t.FrequencyOf(2), 2u);
  EXPECT_EQ(t.FrequencyOf(3), 4u);
  EXPECT_EQ(t.FrequencyOf(5), 1u);
  EXPECT_LE(t.Size(), 4u);
}

TEST(FreqTable, CapacityNeverExceeded) {
  AccessFrequencyTable t(kPages, 2, 16);
  for (Lpn l = 0; l < 1000; ++l) {
    t.OnRead(l % 100);
    ASSERT_LE(t.Size(), 16u);
  }
}

TEST(FreqTable, PathologicalAllPopularStillBounded) {
  AccessFrequencyTable t(kPages, 2, 4);
  // Every entry has a large count, so halving never zeroes them.  Each
  // over-capacity insert then drops the LOWEST LPN still tracked, so after
  // registering 20, 19, ..., 1 in descending order the table holds the
  // newest entry plus the three lowest LPNs that were already present.
  for (Lpn l = 20; l >= 1; --l) {
    t.Register(l, 1u << 30);
    ASSERT_LE(t.Size(), 4u);
    ASSERT_TRUE(t.CheckInvariants());
  }
  EXPECT_EQ(t.Size(), 4u);
  EXPECT_EQ(t.decay_count(), 16u);
  for (Lpn l = 1; l <= 20; ++l) {
    const bool survives = l == 1 || l == 18 || l == 19 || l == 20;
    EXPECT_EQ(t.FrequencyOf(l) != 0, survives) << "lpn " << l;
  }
  // Ascending inserts: every decay evicts the oldest (lowest) survivor.
  AccessFrequencyTable up(kPages, 2, 4);
  for (Lpn l = 0; l < 20; ++l) up.Register(l, 1u << 30);
  for (Lpn l = 0; l < 20; ++l) {
    EXPECT_EQ(up.FrequencyOf(l) != 0, l >= 16) << "lpn " << l;
  }
}

TEST(FreqTable, SaturatesWithoutOverflow) {
  AccessFrequencyTable t(kPages, 2, 10);
  t.Register(1, ~0u);
  EXPECT_EQ(t.OnRead(1), ~0u);  // clamped, no wraparound
}

TEST(FreqTable, ThresholdBoundaryExact) {
  AccessFrequencyTable t(kPages, 5, 100);
  for (int i = 0; i < 4; ++i) t.OnRead(9);
  EXPECT_FALSE(t.IsCold(9));
  t.OnRead(9);
  EXPECT_TRUE(t.IsCold(9));
}

util::StateWriter SaveEntries(
    const std::vector<std::pair<std::uint64_t, std::uint32_t>>& entries,
    std::uint64_t decays = 3) {
  util::StateWriter w;
  w.Tag("FREQ");
  w.PutU64(entries.size());
  for (const auto& [lpn, count] : entries) {
    w.PutU64(lpn);
    w.PutU32(count);
  }
  w.PutU64(decays);
  return w;
}

TEST(FreqTable, SaveIsSortedByLpnAndRoundTrips) {
  AccessFrequencyTable t(kPages, 2, 8);
  t.Register(900, 5);
  t.OnRead(3);
  t.OnWrite(64);
  t.OnRead(63);
  t.OnRead(63);
  util::StateWriter w;
  t.SaveState(w);
  EXPECT_EQ(w.bytes(),
            SaveEntries({{3, 1}, {63, 2}, {64, 0}, {900, 5}}, 0).bytes());
  AccessFrequencyTable loaded(kPages, 2, 8);
  loaded.OnRead(500);  // replaced by the load
  util::StateReader r(w.bytes());
  loaded.LoadState(r);
  EXPECT_TRUE(loaded.CheckInvariants());
  EXPECT_EQ(loaded.FrequencyOf(500), 0u);
  EXPECT_EQ(loaded.FrequencyOf(63), 2u);
  EXPECT_EQ(loaded.Size(), 4u);
}

TEST(FreqTable, LoadRejectsDuplicateAndOutOfRangeEntries) {
  const auto message = [](const util::StateWriter& w) -> std::string {
    AccessFrequencyTable t(kPages, 2, 4);
    t.Register(1, 9);
    util::StateReader r(w.bytes());
    try {
      t.LoadState(r);
    } catch (const std::runtime_error& e) {
      // A rejected section leaves the table as it was.
      EXPECT_EQ(t.FrequencyOf(1), 9u);
      EXPECT_TRUE(t.CheckInvariants());
      return e.what();
    }
    EXPECT_EQ(t.decay_count(), 3u);
    return "";
  };
  EXPECT_EQ(message(SaveEntries({{1, 2}, {5, 0}})), "");
  EXPECT_NE(message(SaveEntries({{5, 2}, {5, 1}})).find("FREQ lpn 5"),
            std::string::npos);
  EXPECT_NE(message(SaveEntries({{kPages, 2}})).find("FREQ lpn 1024"),
            std::string::npos);
  EXPECT_NE(message(SaveEntries({{1, 1}, {2, 1}, {3, 1}, {4, 1}, {5, 1}}))
                .find("exceeds capacity"),
            std::string::npos);
}

}  // namespace
}  // namespace ctflash::core
