#include "ssd/ssd.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace ctflash::ssd {
namespace {

TEST(SsdConfig, Table1MatchesPaper) {
  const auto cfg = Table1Config();
  // Table 1 rows, verbatim.
  const double gib =
      static_cast<double>(cfg.geometry.TotalBytes()) / (1ull << 30);
  EXPECT_NEAR(gib, 64.0, 1.0);                       // Flash size 64 GBs
  EXPECT_EQ(cfg.geometry.page_size_bytes, 16384u);   // Page size 16 KBs
  EXPECT_EQ(cfg.geometry.pages_per_block, 384u);     // Pages per block
  EXPECT_EQ(cfg.timing.page_program_us, 600);        // Write latency 600 us
  EXPECT_EQ(cfg.timing.page_read_us, 49);            // Read latency 49 us
  EXPECT_DOUBLE_EQ(cfg.timing.transfer_mb_per_s, 533.0);  // 533 Mbps
  EXPECT_EQ(cfg.timing.block_erase_us, 4000);        // Erase 4 ms
  EXPECT_EQ(cfg.geometry.num_layers, 64u);           // 64-layer V-NAND
  EXPECT_DOUBLE_EQ(cfg.timing.speed_ratio, 2.0);     // 64-layer: within 2x
}

TEST(SsdConfig, ScaledConfigShrinksDevice) {
  const auto cfg = ScaledConfig(FtlKind::kPpb, 1ull << 30, 8 * 1024, 3.0);
  EXPECT_EQ(cfg.kind, FtlKind::kPpb);
  EXPECT_EQ(cfg.geometry.page_size_bytes, 8u * 1024);
  EXPECT_DOUBLE_EQ(cfg.timing.speed_ratio, 3.0);
  EXPECT_GE(cfg.geometry.TotalBytes(), 1ull << 30);
  EXPECT_LT(cfg.geometry.TotalBytes(), 2ull << 30);
  // The 4 GiB device of bench/specs/paper.json keeps Table 1's block shape.
  EXPECT_EQ(ScaledConfig(FtlKind::kPpb, 4ull << 30, 16 * 1024, 2.0)
                .geometry.ToString(),
            "4ch x 2chip x 2die x 2plane x 22blk x 384pg x 16384B "
            "(64 layers, 4.125 GiB)");
}

TEST(SsdConfig, ValidationPropagates) {
  auto cfg = ScaledConfig(FtlKind::kConventional, 1ull << 28, 16 * 1024, 2.0);
  cfg.timing.speed_ratio = 0.1;
  EXPECT_THROW(Ssd{cfg}, std::invalid_argument);
  cfg = ScaledConfig(FtlKind::kConventional, 1ull << 28, 16 * 1024, 2.0);
  cfg.endurance_pe_cycles = 0;
  EXPECT_THROW(Ssd{cfg}, std::invalid_argument);
}

TEST(Ssd, ConventionalFacadeBasics) {
  const auto cfg = ScaledConfig(FtlKind::kConventional, 1ull << 28, 16 * 1024, 2.0);
  Ssd ssd(cfg);
  EXPECT_EQ(ssd.FtlName(), "conventional-ftl");
  EXPECT_EQ(ssd.ppb(), nullptr);
  EXPECT_GT(ssd.LogicalBytes(), 0u);
  const auto w = ssd.Write(0, 16 * 1024, 0);
  EXPECT_GT(w.LatencyUs(), 0);
  const auto r = ssd.Read(0, 16 * 1024, w.completion_us);
  EXPECT_GT(r.LatencyUs(), 0);
}

TEST(Ssd, PpbFacadeExposesStrategy) {
  const auto cfg = ScaledConfig(FtlKind::kPpb, 1ull << 28, 16 * 1024, 2.0);
  Ssd ssd(cfg);
  EXPECT_EQ(ssd.FtlName(), "ppb-ftl");
  ASSERT_NE(ssd.ppb(), nullptr);
  ssd.Write(0, 4096, 0);  // sub-page -> hot
  EXPECT_EQ(ssd.ppb()->ppb_stats().hot_area_writes, 1u);
}

TEST(Ssd, KindNames) {
  EXPECT_STREQ(FtlKindName(FtlKind::kConventional), "conventional");
  EXPECT_STREQ(FtlKindName(FtlKind::kPpb), "ppb");
}

}  // namespace
}  // namespace ctflash::ssd
