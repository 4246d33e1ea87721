#include "ftl/mapping_table.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "util/random.h"
#include "util/serial.h"

namespace ctflash::ftl {
namespace {

TEST(MappingTable, ConstructionValidation) {
  EXPECT_THROW(MappingTable(0, 10), std::invalid_argument);
  EXPECT_THROW(MappingTable(10, 0), std::invalid_argument);
  EXPECT_THROW(MappingTable(11, 10), std::invalid_argument);
  const MappingTable t(8, 16);
  EXPECT_EQ(t.logical_pages(), 8u);
  EXPECT_EQ(t.physical_pages(), 16u);
}

TEST(MappingTable, StartsUnmapped) {
  const MappingTable t(4, 8);
  for (Lpn l = 0; l < 4; ++l) {
    EXPECT_EQ(t.Lookup(l), kInvalidPpn);
    EXPECT_FALSE(t.IsMapped(l));
  }
  for (Ppn p = 0; p < 8; ++p) EXPECT_EQ(t.LpnOf(p), kInvalidLpn);
  EXPECT_EQ(t.mapped_count(), 0u);
  EXPECT_TRUE(t.CheckConsistent());
}

TEST(MappingTable, UpdateCreatesBidirectionalLink) {
  MappingTable t(4, 8);
  EXPECT_EQ(t.Update(2, 5), kInvalidPpn);
  EXPECT_EQ(t.Lookup(2), 5u);
  EXPECT_EQ(t.LpnOf(5), 2u);
  EXPECT_EQ(t.mapped_count(), 1u);
  EXPECT_TRUE(t.CheckConsistent());
}

TEST(MappingTable, UpdateReturnsAndReleasesOldPpn) {
  MappingTable t(4, 8);
  t.Update(2, 5);
  EXPECT_EQ(t.Update(2, 6), 5u);
  EXPECT_EQ(t.LpnOf(5), kInvalidLpn);  // old reverse entry cleared
  EXPECT_EQ(t.Lookup(2), 6u);
  EXPECT_EQ(t.mapped_count(), 1u);
  EXPECT_TRUE(t.CheckConsistent());
}

TEST(MappingTable, DoubleOwnershipRejected) {
  MappingTable t(4, 8);
  t.Update(0, 3);
  EXPECT_THROW(t.Update(1, 3), std::logic_error);
}

TEST(MappingTable, UnmapReleasesBothDirections) {
  MappingTable t(4, 8);
  t.Update(1, 2);
  EXPECT_EQ(t.Unmap(1), 2u);
  EXPECT_EQ(t.Lookup(1), kInvalidPpn);
  EXPECT_EQ(t.LpnOf(2), kInvalidLpn);
  EXPECT_EQ(t.mapped_count(), 0u);
  EXPECT_EQ(t.Unmap(1), kInvalidPpn);  // idempotent
  EXPECT_TRUE(t.CheckConsistent());
}

TEST(MappingTable, ReleasePpnClearsReverseOnly) {
  MappingTable t(4, 8);
  t.Update(1, 2);
  t.ReleasePpn(2);
  EXPECT_EQ(t.LpnOf(2), kInvalidLpn);
  // Forward still points; caller is mid-GC-move and must Update next.
  EXPECT_EQ(t.Lookup(1), 2u);
  t.Update(1, 7);
  EXPECT_TRUE(t.CheckConsistent());
}

TEST(MappingTable, RangeErrors) {
  MappingTable t(4, 8);
  EXPECT_THROW(t.Lookup(4), std::out_of_range);
  EXPECT_THROW(t.LpnOf(8), std::out_of_range);
  EXPECT_THROW(t.Update(4, 0), std::out_of_range);
  EXPECT_THROW(t.Update(0, 8), std::out_of_range);
  EXPECT_THROW(t.Unmap(4), std::out_of_range);
  EXPECT_THROW(t.ReleasePpn(8), std::out_of_range);
}

TEST(MappingTable, RandomOpStreamStaysConsistent) {
  // Property: any interleaving of Update/Unmap keeps the forward/reverse
  // maps mutually consistent.
  MappingTable t(64, 128);
  util::Xoshiro256StarStar rng(2024);
  std::vector<bool> ppn_used(128, false);
  for (int i = 0; i < 5000; ++i) {
    const Lpn lpn = rng.UniformBelow(64);
    if (rng.Bernoulli(0.2)) {
      const Ppn old = t.Unmap(lpn);
      if (old != kInvalidPpn) ppn_used[old] = false;
    } else {
      // Find a free ppn.
      Ppn ppn = rng.UniformBelow(128);
      bool found = false;
      for (int k = 0; k < 128; ++k) {
        const Ppn cand = (ppn + k) % 128;
        if (!ppn_used[cand]) {
          ppn = cand;
          found = true;
          break;
        }
      }
      if (!found) continue;
      const Ppn old = t.Update(lpn, ppn);
      ppn_used[ppn] = true;
      if (old != kInvalidPpn) ppn_used[old] = false;
    }
    if (i % 500 == 0) {
      ASSERT_TRUE(t.CheckConsistent()) << "iteration " << i;
    }
  }
  EXPECT_TRUE(t.CheckConsistent());
}

TEST(MappingTable, GenerationBumpsOnlyOnForwardMapChanges) {
  MappingTable m(8, 16);
  std::uint64_t gen = m.generation();
  m.Update(1, 5);
  EXPECT_GT(m.generation(), gen);
  gen = m.generation();
  m.Update(1, 6);  // remap of a mapped lpn
  EXPECT_GT(m.generation(), gen);

  gen = m.generation();
  EXPECT_EQ(m.Lookup(1), 6u);
  m.ReleasePpn(5);  // reverse map only (the page 1 left behind)
  EXPECT_EQ(m.Unmap(2), kInvalidPpn);  // nothing mapped: no change
  EXPECT_EQ(m.generation(), gen);

  EXPECT_EQ(m.Unmap(1), 6u);
  EXPECT_GT(m.generation(), gen);

  m.Update(3, 7);
  util::StateWriter w;
  m.SaveState(w);
  MappingTable restored(8, 16);
  gen = restored.generation();
  const std::vector<std::uint8_t> bytes = w.TakeBytes();
  util::StateReader r(bytes);
  restored.LoadState(r);
  EXPECT_GT(restored.generation(), gen);
  EXPECT_EQ(restored.Lookup(3), 7u);
}

}  // namespace
}  // namespace ctflash::ftl
