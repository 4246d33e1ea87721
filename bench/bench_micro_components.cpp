// Micro-benchmarks (google-benchmark) for the performance-critical
// components: the structures PPB touches on every host request must stay
// O(1)-ish or the strategy's bookkeeping would eat its own latency gains.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/access_frequency_table.h"
#include "core/two_level_lru.h"
#include "core/virtual_block.h"
#include "ftl/flash_target.h"
#include "ftl/mapping_table.h"
#include "nand/error_model.h"
#include "nand/latency_model.h"
#include "ssd/ssd.h"
#include "trace/synthetic.h"
#include "util/random.h"

namespace {

using namespace ctflash;

void BM_XoshiroUniform(benchmark::State& state) {
  util::Xoshiro256StarStar rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.UniformBelow(1000003));
  }
}
BENCHMARK(BM_XoshiroUniform);

void BM_ZipfSample(benchmark::State& state) {
  const util::ZipfSampler zipf(static_cast<std::uint64_t>(state.range(0)), 1.1);
  util::Xoshiro256StarStar rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(1024)->Arg(65536)->Arg(1 << 20);

/// Table build at the cluster's user count (CDF plus guide table).
void BM_ZipfConstruct(benchmark::State& state) {
  for (auto _ : state) {
    const util::ZipfSampler zipf(static_cast<std::uint64_t>(state.range(0)),
                                 0.9);
    benchmark::DoNotOptimize(zipf.n());
  }
}
BENCHMARK(BM_ZipfConstruct)->Arg(1 << 20)->Unit(benchmark::kMillisecond);

void BM_LatencyModelRead(benchmark::State& state) {
  nand::NandGeometry g;
  nand::NandTiming t;
  t.speed_ratio = 3.0;
  const nand::LatencyModel m(g, t);
  std::uint32_t page = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.ReadUs(page));
    page = (page + 7) % g.pages_per_block;
  }
}
BENCHMARK(BM_LatencyModelRead);

void BM_MappingTableUpdate(benchmark::State& state) {
  ftl::MappingTable map(1 << 16, 1 << 17);
  util::Xoshiro256StarStar rng(3);
  Ppn next = 0;
  for (auto _ : state) {
    const Lpn lpn = rng.UniformBelow(1 << 16);
    const Ppn old = map.Update(lpn, next);
    if (old != kInvalidPpn) map.ReleasePpn(old);  // keep ppns reusable
    benchmark::DoNotOptimize(old);
    next = (next + 1) % (1 << 17);
    // Skip ppns still owned (rare at 2x overprovision in this loop).
    while (map.LpnOf(next) != kInvalidLpn) next = (next + 1) % (1 << 17);
  }
}
BENCHMARK(BM_MappingTableUpdate);

// Key space of the small LRU/frequency-table cases below.
constexpr std::uint64_t kSmallKeySpace = 1 << 16;

void BM_TwoLevelLruWrite(benchmark::State& state) {
  core::TwoLevelLru lru(kSmallKeySpace, 8192, 4096);
  util::Xoshiro256StarStar rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lru.OnWrite(rng.UniformBelow(kSmallKeySpace)));
  }
}
BENCHMARK(BM_TwoLevelLruWrite);

void BM_TwoLevelLruReadPromote(benchmark::State& state) {
  core::TwoLevelLru lru(kSmallKeySpace, 8192, 4096);
  util::Xoshiro256StarStar rng(5);
  for (Lpn l = 0; l < 8192; ++l) lru.OnWrite(l);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lru.OnRead(rng.UniformBelow(8192)));
  }
}
BENCHMARK(BM_TwoLevelLruReadPromote);

void BM_FreqTableOnRead(benchmark::State& state) {
  core::AccessFrequencyTable table(kSmallKeySpace, 2, 1 << 15);
  util::Xoshiro256StarStar rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.OnRead(rng.UniformBelow(kSmallKeySpace)));
  }
}
BENCHMARK(BM_FreqTableOnRead);

/// Logical page count of the Web/SQL replay device (4 GiB Table-1 shape,
/// 16 KiB pages, the repository benchmark's web_replay_ppb workload).
std::uint64_t WebLogicalPages() {
  static const std::uint64_t pages = [] {
    constexpr std::uint32_t kPageBytes = 16 * 1024;
    const ssd::Ssd ssd(ssd::ScaledConfig(ssd::FtlKind::kPpb, 4ull << 30,
                                         kPageBytes, 3.0));
    return ssd.LogicalBytes() / kPageBytes;
  }();
  return pages;
}

/// Zipf(1.05) LPN stream over the web key space (the replay's read skew),
/// ranks scattered by a multiplicative hash so hot keys are not adjacent.
std::vector<Lpn> WebKeyStream(std::uint64_t seed) {
  const std::uint64_t pages = WebLogicalPages();
  const util::ZipfSampler zipf(pages, 1.05);
  util::Xoshiro256StarStar rng(seed);
  std::vector<Lpn> keys(1 << 16);
  for (Lpn& k : keys) k = zipf.Sample(rng) * 0x9E3779B97F4A7C15ull % pages;
  return keys;
}

// The PPB read path asks the LRU for every page's tier; populate it with
// web-sized capacities (hot 8 %, iron-hot 4 %) from the same key stream.
void BM_TwoLevelLruTierOf(benchmark::State& state) {
  const std::uint64_t pages = WebLogicalPages();
  core::TwoLevelLru lru(pages, pages * 8 / 100, pages * 4 / 100);
  const std::vector<Lpn> keys = WebKeyStream(9);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    i % 3 == 0 ? lru.OnRead(keys[i]) : lru.OnWrite(keys[i]);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lru.TierOf(keys[i]));
    i = (i + 1) & (keys.size() - 1);
  }
}
BENCHMARK(BM_TwoLevelLruTierOf);

void BM_FreqTableFrequencyOf(benchmark::State& state) {
  const std::uint64_t pages = WebLogicalPages();
  core::AccessFrequencyTable table(pages, 2, pages / 4);
  const std::vector<Lpn> keys = WebKeyStream(10);
  for (const Lpn k : keys) table.OnRead(k);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.FrequencyOf(keys[i]));
    i = (i + 1) & (keys.size() - 1);
  }
}
BENCHMARK(BM_FreqTableFrequencyOf);

void BM_VirtualBlockAllocate(benchmark::State& state) {
  auto bm = std::make_unique<ftl::BlockManager>(1 << 14, 384);
  auto vbm = std::make_unique<core::VirtualBlockManager>(*bm, 384, 2);
  util::Xoshiro256StarStar rng(7);
  for (auto _ : state) {
    const auto level = static_cast<core::HotnessLevel>(rng.UniformBelow(4));
    auto a = vbm->AllocatePage(core::AreaOf(level), level);
    if (!a) {  // device full: reset (excluded cost is negligible amortized)
      state.PauseTiming();
      bm = std::make_unique<ftl::BlockManager>(1 << 14, 384);
      vbm = std::make_unique<core::VirtualBlockManager>(*bm, 384, 2);
      state.ResumeTiming();
      continue;
    }
    benchmark::DoNotOptimize(a->ppn);
  }
}
BENCHMARK(BM_VirtualBlockAllocate);

void BM_FlashTargetReadServiceTime(benchmark::State& state) {
  nand::NandGeometry g;
  g.blocks_per_plane = 4;
  ftl::FlashTarget ft(g, nand::NandTiming{});
  for (std::uint32_t p = 0; p < g.pages_per_block; ++p) {
    ft.ProgramPage(g.PpnOf(0, p), 0);
  }
  std::uint32_t page = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ft.ReadPage(g.PpnOf(0, page), 0));
    page = (page + 13) % g.pages_per_block;
  }
}
BENCHMARK(BM_FlashTargetReadServiceTime);

void BM_ErrorModelSample(benchmark::State& state) {
  nand::NandGeometry g;
  const nand::LayerErrorModel model(g, nand::ErrorModelConfig{});
  util::Xoshiro256StarStar rng(8);
  std::uint32_t page = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.SampleBitErrors(page, 1000, rng));
    page = (page + 31) % g.pages_per_block;
  }
}
BENCHMARK(BM_ErrorModelSample);

void BM_SyntheticTraceNext(benchmark::State& state) {
  auto cfg = trace::WebServerWorkload(1ull << 30, 1);
  trace::SyntheticTraceGenerator gen(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.Next());
  }
}
BENCHMARK(BM_SyntheticTraceNext);

}  // namespace

BENCHMARK_MAIN();
