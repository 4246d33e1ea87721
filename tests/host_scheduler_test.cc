// IoScheduler properties the ROADMAP's scaling work leans on: transaction
// conservation, die exclusivity, FIFO-vs-out-of-order latency ordering,
// bit-for-bit determinism of closed-loop runs, and a differential check of
// the indexed ready set against a reference linear-scan picker.
#include "host/io_scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "campaign/runner.h"
#include "campaign/spec.h"
#include "host/host_interface.h"
#include "host/load_generator.h"
#include "qos/tenant_table.h"
#include "ssd/experiment.h"
#include "ssd/ssd.h"
#include "util/random.h"

namespace ctflash::host {
namespace {

ssd::SsdConfig SmallConfig() {
  auto cfg = ssd::ScaledConfig(ssd::FtlKind::kConventional, 1ull << 28,
                               16 * 1024, 2.0);
  cfg.timing_mode = ftl::TimingMode::kQueued;
  return cfg;
}

Us Prefill(ssd::Ssd& ssd, std::uint32_t fraction_pct) {
  ssd::ExperimentRunner runner(ssd);
  return runner.Prefill(ssd.LogicalBytes() / 100 * fraction_pct);
}

/// Mapped lpns currently living on (predicate true) / off the given die.
std::vector<Lpn> LpnsOnDie(ssd::Ssd& ssd, std::uint64_t die, bool on,
                           std::size_t count) {
  const auto& geo = ssd.config().geometry;
  std::vector<Lpn> out;
  const Lpn logical_pages = ssd.LogicalBytes() / geo.page_size_bytes;
  for (Lpn lpn = 0; lpn < logical_pages && out.size() < count; ++lpn) {
    const Ppn ppn = ssd.ftl().ProbePpn(lpn);
    if (ppn == kInvalidPpn) continue;
    const bool here = geo.DieOfBlock(geo.BlockOf(ppn)) == die;
    if (here == on) out.push_back(lpn);
  }
  return out;
}

/// What a dispatch is compared on.
using DispatchRecord =
    std::tuple<std::uint64_t, sched::TxnSource, Lpn, Ppn, BlockId,
               std::uint32_t>;

DispatchRecord RecordOf(const FlashTransaction& txn) {
  return {txn.seq, txn.source, txn.lpn, txn.gc_src, txn.gc_block, txn.tenant};
}

class RecordingObserver final : public sched::SchedulerObserver {
 public:
  void OnDispatch(const FlashTransaction& txn,
                  const sched::DispatchContext&) override {
    log.push_back(RecordOf(txn));
  }
  std::vector<DispatchRecord> log;
};

TEST(IoScheduler, TransactionConservation) {
  // Every submitted page dispatches and completes exactly once, across
  // multi-page requests, sub-page requests and wrapped offsets.
  ssd::Ssd ssd(SmallConfig());
  const Us prefill_end = Prefill(ssd, 60);
  HostConfig cfg;
  cfg.device_slots = 8;
  HostInterface host(ssd, cfg);
  host.AdvanceTo(prefill_end);

  std::map<std::uint64_t, int> completions;
  std::uint64_t pages_reported = 0;
  const std::uint64_t logical = ssd.LogicalBytes();
  const std::uint64_t sizes[] = {4096, 16 * 1024, 48 * 1024, 128 * 1024};
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t size = sizes[i % 4];
    const std::uint64_t offset = (static_cast<std::uint64_t>(i) * 37 * 16 *
                                  1024) % (logical + 64 * 1024);  // some wrap
    const trace::OpType op =
        i % 3 == 0 ? trace::OpType::kWrite : trace::OpType::kRead;
    host.Submit(op, offset, size, [&](const HostCompletion& c) {
      completions[c.request.id]++;
      pages_reported += c.pages;
    });
  }
  host.Run();

  EXPECT_EQ(host.stats().submitted, static_cast<std::uint64_t>(n));
  EXPECT_EQ(host.stats().completed, static_cast<std::uint64_t>(n));
  EXPECT_EQ(completions.size(), static_cast<std::size_t>(n));
  for (const auto& [id, count] : completions) EXPECT_EQ(count, 1) << id;
  // Dispatched == completed == sum of per-request page counts.
  EXPECT_EQ(host.TxnsDispatched(), host.stats().transactions_completed);
  EXPECT_EQ(host.stats().transactions_completed, pages_reported);
  EXPECT_EQ(host.Outstanding(), 0u);
}

TEST(IoScheduler, DieExclusivityNoOverlappingReservations) {
  // A die's added busy time can never exceed the span it had available —
  // overlapping reservations on one die would violate this.
  ssd::Ssd ssd(SmallConfig());
  const Us prefill_end = Prefill(ssd, 60);
  HostInterface host(ssd, HostConfig{});
  host.AdvanceTo(prefill_end);
  const auto& dies = ssd.target().dies();
  std::vector<Us> busy_before(dies.Count());
  for (std::size_t i = 0; i < dies.Count(); ++i) {
    busy_before[i] = dies.At(i).BusyTime();
    ASSERT_LE(dies.At(i).FreeAt(), prefill_end);
  }
  const Us run_start = host.queue().Now();

  ClosedLoopGenerator::Config gen_cfg;
  gen_cfg.queue_depth = 16;
  gen_cfg.total_requests = 3000;
  gen_cfg.read_fraction = 0.8;
  gen_cfg.footprint_bytes = ssd.LogicalBytes() / 100 * 60;
  ClosedLoopGenerator generator(host, gen_cfg);
  generator.Run();

  std::size_t active_dies = 0;
  for (std::size_t i = 0; i < dies.Count(); ++i) {
    const Us busy_delta = dies.At(i).BusyTime() - busy_before[i];
    if (busy_delta == 0) continue;  // die saw no traffic this run
    ++active_dies;
    const Us span = dies.At(i).FreeAt() - run_start;
    EXPECT_LE(busy_delta, span) << "die " << i << " reservations overlap";
  }
  EXPECT_GT(active_dies, 1u) << "run was expected to exercise many dies";
}

TEST(FlashTargetDies, QueuedCellOpsSerializePerDieNotPerChip) {
  // Two dies on one chip interleave cell ops (the parallelism the host
  // scheduler exploits); two ops on one die strictly serialize.
  nand::NandGeometry g;
  g.channels = 1;
  g.chips_per_channel = 1;
  g.dies_per_chip = 2;
  g.planes_per_die = 1;
  g.blocks_per_plane = 4;
  g.pages_per_block = 8;
  g.num_layers = 8;
  nand::NandTiming t;
  ftl::FlashTarget ft(g, t, 1000, ftl::TimingMode::kQueued);
  // Blocks stripe plane-major: block 0 -> die 0, block 1 -> die 1.
  ASSERT_EQ(g.DieOfBlock(0), 0u);
  ASSERT_EQ(g.DieOfBlock(1), 1u);
  ft.ProgramPage(g.PpnOf(0, 0), 0);
  ft.ProgramPage(g.PpnOf(1, 0), 0);

  const Us same_a = ft.ReadPage(g.PpnOf(0, 0), 10000);
  const Us same_b = ft.ReadPage(g.PpnOf(0, 0), 10000);  // same die: queues
  EXPECT_GT(same_b, same_a);

  ftl::FlashTarget ft2(g, t, 1000, ftl::TimingMode::kQueued);
  ft2.ProgramPage(g.PpnOf(0, 0), 0);
  ft2.ProgramPage(g.PpnOf(1, 0), 0);
  const Us cross_a = ft2.ReadPage(g.PpnOf(0, 0), 10000);
  const Us cross_b = ft2.ReadPage(g.PpnOf(1, 0), 10000);  // other die
  // Cell sensing overlaps; only the shared channel serializes, so the
  // second read beats the same-die case.
  EXPECT_LT(cross_b, same_b);
  EXPECT_GE(cross_a, 10000);
}

TEST(IoScheduler, OutOfOrderBeatsFifoOnDieSkewedLoad) {
  // A burst against one hot die followed by reads to idle dies: FIFO holds
  // the idle-die reads behind the burst (head-of-line blocking), while
  // out-of-order dispatch overtakes.  Same device state, same request
  // order, only the policy differs.
  auto run = [](SchedPolicy policy) {
    ssd::Ssd ssd(SmallConfig());
    const Us prefill_end = Prefill(ssd, 60);
    HostConfig cfg;
    cfg.policy = policy;
    cfg.device_slots = 2;  // small device queue: ready set really queues
    HostInterface host(ssd, cfg);
    host.AdvanceTo(prefill_end);

    const auto hot = LpnsOnDie(ssd, 0, true, 24);
    const auto cold = LpnsOnDie(ssd, 0, false, 8);
    EXPECT_GE(hot.size(), 24u);
    EXPECT_GE(cold.size(), 8u);
    const std::uint32_t page = ssd.config().geometry.page_size_bytes;
    for (const Lpn lpn : hot) {
      host.Submit(trace::OpType::kRead, lpn * page, page);
    }
    for (const Lpn lpn : cold) {
      host.Submit(trace::OpType::kRead, lpn * page, page);
    }
    host.Run();
    return host.stats().read_latency.total_us();
  };

  const double fifo = run(SchedPolicy::kFifo);
  const double ooo = run(SchedPolicy::kOutOfOrder);
  EXPECT_LT(ooo, fifo);
}

TEST(IoScheduler, UnmappedReadDoesNotLeapfrogMappedIdleDieRead) {
  // Regression for the KeyOf neutral-key fix: unmapped reads used to key as
  // {0, 0} — "startable now on plane 0" — which let them jump dies they
  // will never use, overtaking mapped reads that are equally startable on
  // a real idle die.  With the neutral key (startable now, worst plane)
  // the mapped read must dispatch first; the unmapped read, which carries
  // no flash work, loses the tie it had no stake in.
  ssd::Ssd ssd(SmallConfig());
  const Us prefill_end = Prefill(ssd, 60);
  HostConfig cfg;
  cfg.device_slots = 1;  // serialize picks: the ready set really queues
  HostInterface host(ssd, cfg);
  host.AdvanceTo(prefill_end);

  const auto& geo = ssd.config().geometry;
  const std::uint32_t page = geo.page_size_bytes;
  // A mapped blocker, a mapped read on a DIFFERENT die (idle, startable
  // now), and an unmapped probe (prefill maps lpns from 0 upward, so the
  // top of the logical space is untouched).
  const auto blocker = LpnsOnDie(ssd, 0, true, 1);
  const auto mapped = LpnsOnDie(ssd, 0, false, 1);
  ASSERT_EQ(blocker.size(), 1u);
  ASSERT_EQ(mapped.size(), 1u);
  const Lpn unmapped = ssd.LogicalBytes() / page - 1;
  ASSERT_EQ(ssd.ftl().ProbePpn(unmapped), kInvalidPpn);

  RecordingObserver dispatches;
  host.scheduler().AttachObserver(&dispatches);

  host.Submit(trace::OpType::kRead, blocker[0] * page, page);
  host.Submit(trace::OpType::kRead, unmapped * page, page);
  host.Submit(trace::OpType::kRead, mapped[0] * page, page);
  host.Run();

  const auto lpn_at = [&](std::size_t i) {
    return std::get<2>(dispatches.log[i]);
  };
  ASSERT_EQ(dispatches.log.size(), 3u);
  EXPECT_EQ(lpn_at(0), blocker[0]);  // took the only slot instantly
  EXPECT_EQ(lpn_at(1), mapped[0])
      << "mapped idle-die read must beat the unmapped read's neutral key";
  EXPECT_EQ(lpn_at(2), unmapped);
}

TEST(IoScheduler, ClosedLoopQd8DeterministicAcrossRuns) {
  auto run = [] {
    ssd::Ssd ssd(SmallConfig());
    const Us prefill_end = Prefill(ssd, 60);
    HostInterface host(ssd, HostConfig{});
    host.AdvanceTo(prefill_end);
    ClosedLoopGenerator::Config gen_cfg;
    gen_cfg.queue_depth = 8;
    gen_cfg.total_requests = 2000;
    gen_cfg.read_fraction = 0.75;
    gen_cfg.footprint_bytes = ssd.LogicalBytes() / 100 * 60;
    gen_cfg.seed = 42;
    ClosedLoopGenerator generator(host, gen_cfg);
    const LoadStats load = generator.Run();
    return std::tuple{generator.issued(), load.requests, load.end_us,
                      load.read_latency.total_us(),
                      load.write_latency.total_us(),
                      load.read_latency.p99_us(), load.Iops()};
  };

  const auto a = run();
  const auto b = run();
  EXPECT_EQ(std::get<0>(a), std::get<0>(b));  // identical request streams
  EXPECT_EQ(std::get<1>(a), std::get<1>(b));
  EXPECT_EQ(std::get<2>(a), std::get<2>(b));
  EXPECT_DOUBLE_EQ(std::get<3>(a), std::get<3>(b));
  EXPECT_DOUBLE_EQ(std::get<4>(a), std::get<4>(b));
  EXPECT_DOUBLE_EQ(std::get<5>(a), std::get<5>(b));
  EXPECT_DOUBLE_EQ(std::get<6>(a), std::get<6>(b));
}

TEST(IoScheduler, QdSweepIopsMonotoneToSaturation) {
  // The acceptance shape of the subsystem, in miniature: closed-loop IOPS
  // never regresses as QD grows (within a small tolerance near
  // saturation), and a deeper queue beats QD=1 outright.  One campaign arm
  // per queue depth, each on its own SmallConfig device, 80 % prefilled.
  const campaign::CampaignResult result =
      campaign::CampaignRunner(campaign::CampaignSpec::Parse(R"({
        "defaults": {"device_bytes": "256MiB", "prefill_pct": 80,
                     "host": {"device_slots": 64},
                     "workload": {"kind": "closed_loop", "requests": 3000}},
        "grid": {"workload.queue_depth": [1, 2, 4, 8, 16]},
        "arms": [{"seed": 1}]
      })")).Run();
  ASSERT_EQ(result.arms.size(), 5u);
  std::vector<double> iops;
  for (const campaign::ArmResult& arm : result.arms) {
    ASSERT_TRUE(arm.ok) << arm.error;
    iops.push_back(arm.metrics.Get("iops")->AsDouble());
  }
  for (std::size_t i = 1; i < iops.size(); ++i) {
    EXPECT_GE(iops[i], iops[i - 1] * 0.98) << result.arms[i].name
                                           << " regressed";
  }
  EXPECT_GT(iops.back(), iops.front() * 2.0);
}

// --- Differential check: indexed ready set vs. linear scan -----------------

/// Reference picker: the scheduler as it was before the read index, one
/// ready vector keyed per transaction on every pick (mapping probe +
/// DieFreeAt for each read).  Only what decides the dispatch order is kept.
class LinearScanScheduler {
 public:
  LinearScanScheduler(ssd::Ssd& ssd, sim::EventQueue& queue,
                      SchedPolicy policy, std::uint32_t slots,
                      std::uint32_t gc_aging, std::uint32_t write_aging,
                      qos::TenantTable* tenants)
      : ssd_(ssd), queue_(queue), policy_(policy), slots_(slots),
        gc_aging_(gc_aging), write_aging_(write_aging), tenants_(tenants) {
    if (tenants_ != nullptr) active_.resize(tenants_->TenantCount());
    ssd_.ftl().AttachGcScheduler();
  }
  ~LinearScanScheduler() { ssd_.ftl().DetachGcScheduler(); }

  void Enqueue(FlashTransaction txn) {
    txn.seq = next_seq_++;
    ready_.push_back({txn, 0});
    Pump();
  }
  std::size_t ReadyCount() const { return ready_.size(); }

  std::vector<DispatchRecord> log;
  // Coverage of the remap paths the index must catch.
  std::uint64_t write_overwrote_ready_read = 0;
  std::uint64_t gc_moved_ready_read = 0;
  std::uint64_t unmapped_reads = 0;
  std::uint64_t urgent_picks = 0;
  std::uint64_t aged_gc_dispatches = 0;
  std::uint64_t aged_write_dispatches = 0;
  std::uint64_t tenant_picks = 0;

 private:
  struct Ready {
    FlashTransaction txn;
    std::uint32_t age;
  };

  static constexpr std::size_t kNone = ~static_cast<std::size_t>(0);

  void Pump() {
    auto& ftl = ssd_.ftl();
    while (in_flight_ < slots_) {
      if (ftl.ScheduledGcActive()) {
        std::vector<FlashTransaction> gc;
        ftl.DrainGcTransactions(gc);
        for (auto& txn : gc) {
          txn.seq = next_seq_++;
          if (txn.source == sched::TxnSource::kGcCopy) {
            copies_left_[txn.gc_block]++;
          }
          ready_.push_back({txn, 0});
          ++gc_ready_;
        }
      }
      if (ready_.empty()) break;
      const bool scheduled = ftl.ScheduledGcActive();
      const bool urgent = scheduled && ftl.GcUrgent();
      const bool pressure = scheduled && ftl.GcWritePressure();
      if (urgent) ++urgent_picks;
      const std::size_t idx = Pick(urgent, pressure);
      if (idx == kNone) break;
      Dispatch(idx, urgent);
    }
  }

  bool Eligible(const Ready& r, bool pressure) const {
    if (r.txn.source == sched::TxnSource::kHostWrite) {
      return !(pressure && gc_ready_ > 0);
    }
    if (r.txn.source == sched::TxnSource::kGcErase) {
      const auto it = copies_left_.find(r.txn.gc_block);
      return it == copies_left_.end() || it->second == 0;
    }
    return true;
  }

  int RankOf(const Ready& r, bool urgent) const {
    if (sched::IsGc(r.txn.source) && (urgent || r.age >= gc_aging_)) return 1;
    if (r.txn.source == sched::TxnSource::kHostWrite && write_aging_ > 0 &&
        r.age >= write_aging_) {
      return 0;
    }
    const int p = sched::PriorityOf(r.txn.source);
    return p == 0 ? 0 : p + 1;
  }

  std::pair<Us, std::uint32_t> KeyOf(const FlashTransaction& txn,
                                     Us write_free_at) const {
    const auto& geo = ssd_.target().geometry();
    BlockId block = txn.gc_block;
    switch (txn.source) {
      case sched::TxnSource::kHostWrite:
        return {write_free_at, 0};
      case sched::TxnSource::kHostRead: {
        const Ppn ppn = ssd_.ftl().ProbePpn(txn.lpn);
        if (ppn == kInvalidPpn) return {0, ~0u};
        block = geo.BlockOf(ppn);
        break;
      }
      case sched::TxnSource::kGcCopy:
        block = geo.BlockOf(txn.gc_src);
        break;
      case sched::TxnSource::kGcErase:
        break;
    }
    return {ssd_.target().DieFreeAt(block), geo.PlaneOfBlock(block)};
  }

  std::size_t Pick(bool urgent, bool pressure) {
    if (policy_ == SchedPolicy::kFifo) {
      for (std::size_t i = 0; i < ready_.size(); ++i) {
        if (Eligible(ready_[i], pressure)) return i;
      }
      return kNone;
    }
    const Us now = queue_.Now();
    const Us write_free_at = ssd_.ftl().ProbeWriteFreeAt().value_or(0);
    qos::TenantId serve = qos::kNoTenant;
    if (tenants_ != nullptr) {
      int winning = -1;
      bool any = false;
      for (const auto& r : ready_) {
        if (!Eligible(r, pressure)) continue;
        const int rank = RankOf(r, urgent);
        if (winning < 0 || rank < winning) {
          winning = rank;
          active_.assign(active_.size(), false);
          any = false;
        }
        if (rank != winning || r.txn.tenant == qos::kNoTenant) continue;
        active_[r.txn.tenant] = true;
        any = true;
      }
      if (winning < 0) return kNone;
      if (any && (winning == 0 || winning == 2)) {
        serve = tenants_->PickTenant(
            winning == 0 ? qos::ArbClass::kRead : qos::ArbClass::kWrite,
            active_);
        ++tenant_picks;
      }
    }
    std::size_t best = kNone;
    std::tuple<int, Us, std::uint32_t> best_key{};
    for (std::size_t i = 0; i < ready_.size(); ++i) {
      if (!Eligible(ready_[i], pressure)) continue;
      if (serve != qos::kNoTenant && ready_[i].txn.tenant != serve) continue;
      auto [start, plane] = KeyOf(ready_[i].txn, write_free_at);
      const std::tuple<int, Us, std::uint32_t> key{
          RankOf(ready_[i], urgent), std::max(start, now), plane};
      if (best == kNone || key < best_key) {
        best = i;
        best_key = key;
      }
    }
    return best;
  }

  void NoteCoverage(const FlashTransaction& txn) {
    const auto& map = ssd_.ftl().mapping();
    for (const auto& r : ready_) {
      if (r.txn.source != sched::TxnSource::kHostRead) continue;
      if (txn.source == sched::TxnSource::kHostWrite &&
          r.txn.lpn == txn.lpn) {
        ++write_overwrote_ready_read;
      }
      if (txn.source == sched::TxnSource::kGcCopy &&
          map.Lookup(r.txn.lpn) == txn.gc_src) {
        ++gc_moved_ready_read;
      }
    }
    if (txn.source == sched::TxnSource::kHostRead &&
        map.Lookup(txn.lpn) == kInvalidPpn) {
      ++unmapped_reads;
    }
  }

  void Dispatch(std::size_t idx, bool urgent) {
    const Ready r = ready_[idx];
    ready_.erase(ready_.begin() + static_cast<std::ptrdiff_t>(idx));
    const FlashTransaction txn = r.txn;
    NoteCoverage(txn);
    log.push_back(RecordOf(txn));
    ++in_flight_;
    auto done = [this](const ftl::RequestResult&) {
      --in_flight_;
      Pump();
    };
    if (sched::IsGc(txn.source)) {
      --gc_ready_;
      if (!urgent && r.age >= gc_aging_) ++aged_gc_dispatches;
      if (txn.source == sched::TxnSource::kGcCopy) {
        const auto it = copies_left_.find(txn.gc_block);
        if (--it->second == 0) copies_left_.erase(it);
      }
      ssd_.SubmitGc(txn, queue_, done);
      return;
    }
    if (gc_ready_ > 0) {
      for (auto& w : ready_) {
        if (sched::IsGc(w.txn.source)) ++w.age;
      }
    }
    const bool read = txn.source == sched::TxnSource::kHostRead;
    if (write_aging_ > 0) {
      if (read) {
        for (auto& w : ready_) {
          if (w.txn.source == sched::TxnSource::kHostWrite) ++w.age;
        }
      } else if (r.age >= write_aging_) {
        ++aged_write_dispatches;
      }
    }
    if (tenants_ != nullptr && txn.tenant != qos::kNoTenant) {
      tenants_->NoteDispatch(
          txn.tenant, read ? qos::ArbClass::kRead : qos::ArbClass::kWrite);
    }
    if (read) {
      ssd_.SubmitRead(txn.offset_bytes, txn.size_bytes, queue_, done);
    } else {
      ssd_.SubmitWrite(txn.offset_bytes, txn.size_bytes, queue_, done);
    }
  }

  ssd::Ssd& ssd_;
  sim::EventQueue& queue_;
  SchedPolicy policy_;
  std::uint32_t slots_;
  std::uint32_t gc_aging_;
  std::uint32_t write_aging_;
  qos::TenantTable* tenants_;
  std::vector<bool> active_;
  std::vector<Ready> ready_;
  std::unordered_map<BlockId, std::uint32_t> copies_left_;
  std::uint32_t in_flight_ = 0;
  std::size_t gc_ready_ = 0;
  std::uint64_t next_seq_ = 0;
};

/// One side of the differential run: its own device, clock and tenants.
struct DiffSide {
  explicit DiffSide(const ssd::SsdConfig& cfg, std::uint32_t prefill_pct,
                    const qos::QosConfig& qos)
      : ssd(cfg) {
    queue.RunUntil(Prefill(ssd, prefill_pct));
    if (qos.Enabled()) {
      tenants = std::make_unique<qos::TenantTable>(
          qos, static_cast<std::uint32_t>(qos.tenants.size()));
    }
  }
  ssd::Ssd ssd;
  sim::EventQueue queue;
  std::unique_ptr<qos::TenantTable> tenants;
};

TEST(IoScheduler, IndexedReadyMatchesLinearScanOverRandomTraffic) {
  // Both pickers run the same random traffic on identical devices in
  // lockstep: reads (some unmapped), writes aimed at the LPNs of ready
  // reads, and scheduled GC that relocates ready reads' pages.  Every
  // dispatch and the ready depth after every step must agree.
  std::uint64_t overwrites = 0, gc_moves = 0, unmapped = 0, urgent = 0;
  std::uint64_t aged_gc = 0, aged_writes = 0, tenant_picks = 0;
  constexpr std::uint64_t kSeeds = 24;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    util::Xoshiro256StarStar rng(seed * 7919);
    const auto policy = seed % 4 == 0 ? SchedPolicy::kFifo
                                      : SchedPolicy::kOutOfOrder;
    // Small blocks on few dies: GC starts after a few thousand writes, and
    // each die's plane buckets hold several reads.
    nand::NandGeometry shape;
    shape.channels = 2;
    shape.chips_per_channel = 1;
    shape.pages_per_block = 64;
    auto cfg = ssd::ScaledConfig(seed % 3 == 0 ? ssd::FtlKind::kPpb
                                               : ssd::FtlKind::kConventional,
                                 128ull << 20, 16 * 1024, 2.0, shape);
    cfg.timing_mode = ftl::TimingMode::kQueued;
    cfg.ftl.gc_routing = ftl::GcRouting::kScheduled;
    qos::QosConfig qos;
    const std::uint64_t tenant_count = rng.UniformInRange(0, 3) % 3 == 0
                                           ? 0
                                           : rng.UniformInRange(2, 3);
    for (std::uint32_t t = 0; t < tenant_count; ++t) {
      qos::TenantConfig tc;
      tc.name = std::to_string(t);
      tc.weight = static_cast<std::uint32_t>(1 + 3 * t + seed % 2);
      tc.queues = {t};
      if (t + 1 == tenant_count) tc.min_share = 0.25;
      qos.tenants.push_back(tc);
    }
    const auto slots = static_cast<std::uint32_t>(rng.UniformInRange(1, 8));
    const auto gc_aging = static_cast<std::uint32_t>(rng.UniformInRange(1, 8));
    // Half the seeds age writes (limit 1..6); the rest keep it off.
    const bool age_writes = rng.UniformInRange(0, 1) == 1;
    const auto write_aging =
        static_cast<std::uint32_t>(age_writes ? rng.UniformInRange(1, 6) : 0);

    DiffSide a(cfg, 95, qos), b(cfg, 95, qos);
    IoScheduler indexed(a.ssd, a.queue, policy, slots, gc_aging, write_aging,
                        a.tenants.get());
    RecordingObserver observer;
    indexed.AttachObserver(&observer);
    LinearScanScheduler reference(b.ssd, b.queue, policy, slots, gc_aging,
                                  write_aging, b.tenants.get());

    const std::uint32_t page = cfg.geometry.page_size_bytes;
    const Lpn logical = a.ssd.LogicalBytes() / page;
    const Lpn mapped_end = logical / 100 * 95;
    std::vector<Lpn> recent_reads;
    auto check = [&] {
      ASSERT_EQ(indexed.ReadyCount(), reference.ReadyCount());
      ASSERT_EQ(a.queue.PendingCount(), b.queue.PendingCount());
      ASSERT_EQ(observer.log.size(), reference.log.size());
      ASSERT_TRUE(std::equal(observer.log.begin(), observer.log.end(),
                             reference.log.begin()));
    };
    for (int op = 0; op < 3000; ++op) {
      FlashTransaction txn;
      txn.request_id = static_cast<std::uint64_t>(op);
      if (tenant_count > 0) {
        txn.tenant = static_cast<std::uint32_t>(rng.UniformBelow(tenant_count));
      }
      if (rng.UniformDouble() < 0.55) {
        txn.source = sched::TxnSource::kHostRead;
        // A slice past the prefilled range reads unmapped pages.
        txn.lpn = rng.UniformDouble() < 0.1
                      ? mapped_end + rng.UniformBelow(logical - mapped_end)
                      : rng.UniformBelow(mapped_end);
        recent_reads.push_back(txn.lpn);
        if (recent_reads.size() > 64) recent_reads.erase(recent_reads.begin());
      } else {
        txn.source = sched::TxnSource::kHostWrite;
        // Half the writes land on a page a ready read may still wait for.
        txn.lpn = !recent_reads.empty() && rng.UniformDouble() < 0.5
                      ? recent_reads[rng.UniformBelow(recent_reads.size())]
                      : rng.UniformBelow(logical);
      }
      txn.offset_bytes = txn.lpn * page;
      txn.size_bytes = page;
      indexed.Enqueue(txn);
      reference.Enqueue(txn);
      if (txn.source == sched::TxnSource::kHostWrite &&
          rng.UniformDouble() < 0.004) {
        // A burst of writes behind the scheduler's back (inline, like
        // another host path): it remaps ready reads between picks and, with
        // GC routed to the scheduler, drains the pool to the GC trigger so
        // GC turns urgent.
        auto& ftl = a.ssd.ftl();
        while (!ftl.GcUrgent() && ftl.FreeBlockCount() > 3) {
          const std::uint64_t offset = rng.UniformBelow(mapped_end) * page;
          a.ssd.Write(offset, page, a.queue.Now());
          b.ssd.Write(offset, page, b.queue.Now());
        }
      }
      check();
      if (HasFatalFailure()) return;
      // Let the ready set build up between steps, then drain it.
      const std::uint64_t steps =
          indexed.ReadyCount() > 48 ? 3 : rng.UniformBelow(2);
      for (std::uint64_t i = 0; i < steps; ++i) {
        a.queue.Step();
        b.queue.Step();
        check();
        if (HasFatalFailure()) return;
      }
    }
    while (a.queue.Step()) {
      b.queue.Step();
      check();
      if (HasFatalFailure()) return;
    }
    EXPECT_FALSE(b.queue.Step());
    EXPECT_EQ(indexed.ReadyCount(), 0u);
    EXPECT_EQ(indexed.AgedWriteDispatches(), reference.aged_write_dispatches);
    overwrites += reference.write_overwrote_ready_read;
    gc_moves += reference.gc_moved_ready_read;
    unmapped += reference.unmapped_reads;
    urgent += reference.urgent_picks;
    aged_gc += reference.aged_gc_dispatches;
    aged_writes += reference.aged_write_dispatches;
    tenant_picks += reference.tenant_picks;
  }
  // The traffic really exercised every path the index has to get right.
  EXPECT_GT(overwrites, 0u);
  EXPECT_GT(gc_moves, 0u);
  EXPECT_GT(unmapped, 0u);
  EXPECT_GT(urgent, 0u);
  EXPECT_GT(aged_gc, 0u);
  EXPECT_GT(aged_writes, 0u);
  EXPECT_GT(tenant_picks, 0u);
}

}  // namespace
}  // namespace ctflash::host
