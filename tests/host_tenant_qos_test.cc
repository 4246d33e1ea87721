// Multi-tenant QoS engine, end to end through the host interface: weighted
// DRR throughput proportionality, noisy-neighbor isolation, token-bucket
// rate capping, the write-aging starvation fix, per-queue telemetry and
// bit-for-bit determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <tuple>
#include <vector>

#include "host/host_interface.h"
#include "host/load_generator.h"
#include "qos/tenant.h"
#include "sched/observer.h"
#include "ssd/experiment.h"
#include "ssd/ssd.h"

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

/// Two tenants on queues {0,1} and {2,3}.
qos::QosConfig TwoTenants(std::uint32_t weight_a, std::uint32_t weight_b) {
  qos::QosConfig qos;
  qos.tenants.resize(2);
  qos.tenants[0].name = "a";
  qos.tenants[0].weight = weight_a;
  qos.tenants[0].queues = {0, 1};
  qos.tenants[1].name = "b";
  qos.tenants[1].weight = weight_b;
  qos.tenants[1].queues = {2, 3};
  return qos;
}

TEST(TenantQos, WeightedDrrTwoToOneThroughputUnderSaturation) {
  // The acceptance shape: identical saturating closed-loop read workloads
  // at 2:1 weights serve 2:1 within +-10 %.  Measured as the per-tenant
  // dispatch ratio over the contention window (counting stops the moment
  // the faster tenant's work is exhausted, before its tail drains).
  ssd::Ssd ssd(SmallConfig());
  const Us prefill_end = Prefill(ssd, 80);
  HostConfig cfg;
  cfg.qos = TwoTenants(2, 1);
  cfg.device_slots = 4;  // keep the ready set deep so arbitration decides
  HostInterface host(ssd, cfg);
  host.AdvanceTo(prefill_end);

  const std::uint64_t kRequests = 6'000;  // 1 page each (16 KiB)
  struct WindowCounter final : sched::SchedulerObserver {
    std::uint64_t limit = 0;
    std::uint64_t dispatches[2] = {0, 0};
    bool counting = true;
    void OnDispatch(const FlashTransaction& txn,
                    const sched::DispatchContext&) override {
      if (!counting || txn.tenant == qos::kNoTenant) return;
      if (++dispatches[txn.tenant] >= limit) counting = false;
    }
  } window;
  window.limit = kRequests;
  host.scheduler().AttachObserver(&window);

  TenantWorkload base;
  base.queue_depth = 16;
  base.total_requests = kRequests;
  base.read_fraction = 1.0;
  base.footprint_bytes = ssd.LogicalBytes() / 100 * 60;
  std::vector<TenantWorkload> workloads(2, base);
  workloads[0].tenant = 0;
  workloads[0].seed = 21;
  workloads[1].tenant = 1;
  workloads[1].seed = 22;
  const auto results = MultiTenantGenerator(host, workloads).Run();

  ASSERT_FALSE(window.counting) << "one tenant should exhaust its work";
  const std::uint64_t* dispatches = window.dispatches;
  ASSERT_GT(dispatches[1], 0u);
  const double ratio = static_cast<double>(dispatches[0]) /
                       static_cast<double>(dispatches[1]);
  EXPECT_GE(ratio, 1.8) << dispatches[0] << ":" << dispatches[1];
  EXPECT_LE(ratio, 2.2) << dispatches[0] << ":" << dispatches[1];
  // Per-tenant telemetry: every request served, one read dispatch per
  // single-page request booked to its tenant.
  ASSERT_EQ(results.size(), 2u);
  for (const TenantLoadStats& r : results) {
    EXPECT_EQ(r.load.requests, kRequests);
    EXPECT_GT(r.load.Iops(), 0.0);
    EXPECT_EQ(host.tenants()->StatsOf(r.tenant).read_dispatches, kRequests);
  }
}

/// Paced (latency-sensitive) tenant 0 on a private working-set slice;
/// optional flooder on tenant 1.  Returns tenant 0's read p99.
double PacedP99(const qos::QosConfig& qos, bool with_flooder) {
  ssd::Ssd ssd(SmallConfig());
  const Us prefill_end = Prefill(ssd, 80);
  HostConfig cfg;
  cfg.qos = qos;
  cfg.device_slots = 4;
  HostInterface host(ssd, cfg);
  host.AdvanceTo(prefill_end);

  TenantWorkload paced;
  paced.tenant = 0;
  paced.interarrival_us = 2'000;
  paced.total_requests = 400;
  paced.read_fraction = 1.0;
  paced.footprint_bytes = ssd.LogicalBytes() / 100 * 20;
  paced.seed = 31;
  std::vector<TenantWorkload> workloads = {paced};
  if (with_flooder) {
    TenantWorkload flooder;
    flooder.tenant = 1;
    flooder.queue_depth = 32;
    flooder.total_requests = 40'000;
    flooder.read_fraction = 1.0;
    flooder.footprint_base_bytes = ssd.LogicalBytes() / 100 * 20;
    flooder.footprint_bytes = ssd.LogicalBytes() / 100 * 40;
    flooder.seed = 32;
    workloads.push_back(flooder);
  }
  const auto results = MultiTenantGenerator(host, workloads).Run();
  return results[0].load.read_latency.p99_us();
}

/// What the hand-rolled tenant-less mix measures: the paced tenant's
/// latencies and the flooder's completions over its own span.
struct NoQosReference {
  util::LatencyStats paced;
  std::uint64_t flooder_done = 0;
  Us t0 = 0;
  Us last_flood_us = 0;
};

/// The paced + flooder mix with NO tenants configured, as a hand-written
/// loop: the flooder chains closed-loop through Submit, the paced reads
/// arrive open-loop through SubmitAt, and nothing arbitrates between them
/// (the flooder's ready transactions compete with the paced reads on die
/// keys alone).  The reference MultiTenantGenerator's tenant-less path
/// must reproduce call for call.
NoQosReference RunNoQosReference(std::uint64_t flooder_requests) {
  ssd::Ssd ssd(SmallConfig());
  const Us prefill_end = Prefill(ssd, 80);
  HostConfig cfg;
  cfg.device_slots = 4;
  HostInterface host(ssd, cfg);
  host.AdvanceTo(prefill_end);

  NoQosReference out;
  const std::uint64_t request = 16 * 1024;
  const std::uint64_t flood_base = ssd.LogicalBytes() / 100 * 20;
  const std::uint64_t flood_span = ssd.LogicalBytes() / 100 * 40;
  util::Xoshiro256StarStar rng(32);
  std::uint64_t issued = 0;
  // The chain closure outlives every pending completion (host.Run()
  // returns drained), so callbacks capture it by plain pointer.
  std::function<void()> submit_flood = [&, self = &submit_flood]() {
    if (issued >= flooder_requests) return;
    ++issued;
    const std::uint64_t offset =
        flood_base + rng.UniformBelow(flood_span / request) * request;
    host.Submit(trace::OpType::kRead, offset, request,
                [self, &out](const HostCompletion& c) {
                  ++out.flooder_done;
                  out.last_flood_us = std::max(out.last_flood_us,
                                               c.completion_us);
                  (*self)();
                });
  };
  out.t0 = host.queue().Now();
  for (int i = 0; i < 32; ++i) submit_flood();

  util::Xoshiro256StarStar paced_rng(31);
  const std::uint64_t paced_span = ssd.LogicalBytes() / 100 * 20;
  for (int i = 0; i < 400; ++i) {
    const std::uint64_t offset =
        paced_rng.UniformBelow(paced_span / request) * request;
    host.SubmitAt(out.t0 + static_cast<Us>(i) * 2'000, trace::OpType::kRead,
                  offset, request, [&out](const HostCompletion& c) {
                    out.paced.Add(c.LatencyUs());
                  });
  }
  host.Run();
  return out;
}

double PacedP99NoQos() { return RunNoQosReference(40'000).paced.p99_us(); }

TEST(TenantQos, TenantLessGeneratorMatchesHandRolledLoop) {
  // MultiTenantGenerator on a host without tenants: the flooder listed
  // first chains through Submit, the paced tenant through SubmitAt, so the
  // run is the hand-written loop above call for call (read_fraction 1.0
  // draws no random number).
  const NoQosReference ref = RunNoQosReference(4'000);

  ssd::Ssd ssd(SmallConfig());
  const Us prefill_end = Prefill(ssd, 80);
  HostConfig cfg;
  cfg.device_slots = 4;
  HostInterface host(ssd, cfg);
  host.AdvanceTo(prefill_end);
  TenantWorkload flooder;
  flooder.tenant = 1;
  flooder.queue_depth = 32;
  flooder.total_requests = 4'000;
  flooder.footprint_base_bytes = ssd.LogicalBytes() / 100 * 20;
  flooder.footprint_bytes = ssd.LogicalBytes() / 100 * 40;
  flooder.seed = 32;
  TenantWorkload paced;
  paced.tenant = 0;
  paced.interarrival_us = 2'000;
  paced.total_requests = 400;
  paced.footprint_bytes = ssd.LogicalBytes() / 100 * 20;
  paced.seed = 31;
  const auto results = MultiTenantGenerator(host, {flooder, paced}).Run();

  ASSERT_EQ(results.size(), 2u);
  const LoadStats& flood = results[0].load;
  const LoadStats& got = results[1].load;
  EXPECT_EQ(flood.requests, ref.flooder_done);
  EXPECT_EQ(flood.start_us, ref.t0);
  EXPECT_EQ(flood.end_us, ref.last_flood_us);
  EXPECT_EQ(got.read_latency.count(), ref.paced.count());
  EXPECT_EQ(got.read_latency.mean_us(), ref.paced.mean_us());
  EXPECT_EQ(got.read_latency.p50_us(), ref.paced.p50_us());
  EXPECT_EQ(got.read_latency.p99_us(), ref.paced.p99_us());
  EXPECT_EQ(got.read_latency.max_us(), ref.paced.max_us());
  // The untagged path books nothing to any tenant: there is no table.
  EXPECT_EQ(host.tenants(), nullptr);
}

TEST(TenantQos, NoisyNeighborIsolationBounded) {
  // A closed-loop flooder at QD 32 shares the device with a paced tenant.
  // With QoS weights in the paced tenant's favor, its read p99 stays
  // within 2x of its solo-run p99 (the acceptance bound); pushing the same
  // mix through the tenant-less seed path degrades it strictly more.
  auto favored = TwoTenants(8, 1);
  const double solo = PacedP99(favored, /*with_flooder=*/false);
  const double with_qos = PacedP99(favored, /*with_flooder=*/true);
  const double no_qos = PacedP99NoQos();
  ASSERT_GT(solo, 0.0);
  EXPECT_LE(with_qos, 2.0 * solo)
      << "solo " << solo << " us, with qos " << with_qos << " us";
  EXPECT_GT(no_qos, with_qos)
      << "the tenant-less path should hurt more: " << no_qos << " vs "
      << with_qos;
}

TEST(TenantQos, TokenBucketCapsFlooderIops) {
  // A closed-loop flooder capped at 2000 IOPS drains at the cap, not at
  // device speed, and the pacing queue (not the submission queues) absorbs
  // the excess.
  ssd::Ssd ssd(SmallConfig());
  const Us prefill_end = Prefill(ssd, 80);
  auto qos = TwoTenants(1, 1);
  qos.tenants[0].iops_limit = 2'000.0;
  qos.tenants[0].iops_burst = 8.0;
  HostConfig cfg;
  cfg.qos = qos;
  HostInterface host(ssd, cfg);
  host.AdvanceTo(prefill_end);

  TenantWorkload flood;
  flood.tenant = 0;
  flood.queue_depth = 32;
  flood.total_requests = 2'000;
  flood.read_fraction = 1.0;
  flood.footprint_bytes = ssd.LogicalBytes() / 100 * 60;
  flood.seed = 41;
  const auto results = MultiTenantGenerator(host, {flood}).Run();

  const double iops = results[0].load.Iops();
  EXPECT_LE(iops, 2'000.0 * 1.1) << "cap exceeded";
  EXPECT_GE(iops, 2'000.0 * 0.8) << "cap wildly undershot";
  const auto& tstats = host.tenants()->StatsOf(0);
  EXPECT_GT(tstats.throttled, 0u);
  EXPECT_GT(tstats.throttle_wait_us, 0);
  EXPECT_EQ(tstats.completed, flood.total_requests);
}

TEST(TenantQos, BytesBucketCapsThroughput) {
  // 16 MiB/s cap on 16 KiB requests = 1024 IOPS equivalent.
  ssd::Ssd ssd(SmallConfig());
  const Us prefill_end = Prefill(ssd, 80);
  auto qos = TwoTenants(1, 1);
  qos.tenants[0].bytes_per_sec_limit = 16.0 * 1024 * 1024;
  HostConfig cfg;
  cfg.qos = qos;
  HostInterface host(ssd, cfg);
  host.AdvanceTo(prefill_end);

  TenantWorkload flood;
  flood.tenant = 0;
  flood.queue_depth = 16;
  flood.total_requests = 1'000;
  flood.read_fraction = 1.0;
  flood.footprint_bytes = ssd.LogicalBytes() / 100 * 60;
  flood.seed = 43;
  const auto results = MultiTenantGenerator(host, {flood}).Run();
  const double bytes_per_sec =
      static_cast<double>(results[0].load.requests) * 16.0 * 1024 /
      (static_cast<double>(results[0].load.MakespanUs()) / 1e6);
  EXPECT_LE(bytes_per_sec, 16.0 * 1024 * 1024 * 1.1);
}

/// Read flood + a handful of writes; returns (last write completion,
/// makespan, aged-write dispatches).
std::tuple<Us, Us, std::uint64_t> ReadFloodWrites(
    std::uint32_t write_aging_limit) {
  ssd::Ssd ssd(SmallConfig());
  const Us prefill_end = Prefill(ssd, 80);
  HostConfig cfg;
  cfg.device_slots = 2;
  cfg.write_aging_limit = write_aging_limit;
  HostInterface host(ssd, cfg);
  host.AdvanceTo(prefill_end);

  const std::uint32_t page = ssd.config().geometry.page_size_bytes;
  const std::uint64_t read_span = ssd.LogicalBytes() / 100 * 60;
  const Us t0 = host.queue().Now();
  // Open-loop read flood: arrivals far faster than service, so the ready
  // set stays read-saturated for the whole run.
  for (int i = 0; i < 2'000; ++i) {
    const std::uint64_t offset =
        (static_cast<std::uint64_t>(i) * 37 * page) % read_span;
    host.SubmitAt(t0 + i * 5, trace::OpType::kRead, offset, page);
  }
  Us last_write_done = 0;
  for (int i = 0; i < 4; ++i) {
    host.SubmitAt(t0 + 100 + i, trace::OpType::kWrite,
                  read_span + static_cast<std::uint64_t>(i) * page, page,
                  [&](const HostCompletion& c) {
                    last_write_done = std::max(last_write_done,
                                               c.completion_us - t0);
                  });
  }
  host.Run();
  return {last_write_done, host.queue().Now() - t0,
          host.scheduler().AgedWriteDispatches()};
}

TEST(TenantQos, WriteAgingBoundsReadFloodStarvation) {
  // Regression for the documented starvation gap: with no write aging
  // (seed behavior) a sustained read flood postpones the writes to the
  // very end of the run; with HostConfig::write_aging_limit they complete
  // early, after a bounded number of read overtakes.  No tenants involved
  // — the fix must work outside QoS mode.
  const auto [starved_done, starved_span, starved_boosts] = ReadFloodWrites(0);
  const auto [aged_done, aged_span, aged_boosts] = ReadFloodWrites(64);
  EXPECT_EQ(starved_boosts, 0u);
  EXPECT_GT(starved_done, starved_span * 9 / 10)
      << "without aging the flood should starve writes to the end";
  EXPECT_GE(aged_boosts, 1u);
  EXPECT_LT(aged_done, aged_span / 4)
      << "aged writes should complete early in the flood";
  EXPECT_LT(aged_done, starved_done / 2);
}

TEST(TenantQos, PerQueueBreakdownConserves) {
  // Per-queue slices sum to the aggregate, and in multi-tenant mode
  // requests only land on their tenant's queues.
  ssd::Ssd ssd(SmallConfig());
  const Us prefill_end = Prefill(ssd, 80);
  HostConfig cfg;
  cfg.qos = TwoTenants(1, 1);
  HostInterface host(ssd, cfg);
  host.AdvanceTo(prefill_end);

  TenantWorkload only_b;
  only_b.tenant = 1;
  only_b.queue_depth = 8;
  only_b.total_requests = 500;
  only_b.read_fraction = 0.5;
  only_b.footprint_bytes = ssd.LogicalBytes() / 100 * 60;
  only_b.seed = 51;
  MultiTenantGenerator(host, {only_b}).Run();

  const auto& stats = host.stats();
  ASSERT_EQ(stats.per_queue.size(), 4u);
  std::uint64_t sum_completed = 0;
  std::uint64_t sum_samples = 0;
  for (const auto& q : stats.per_queue) {
    sum_completed += q.completed;
    sum_samples += q.read_latency.count() + q.write_latency.count();
  }
  EXPECT_EQ(sum_completed, stats.completed);
  EXPECT_EQ(sum_samples, stats.completed);
  // Tenant 1 owns queues 2 and 3; 0 and 1 must stay untouched.
  EXPECT_EQ(stats.per_queue[0].admitted, 0u);
  EXPECT_EQ(stats.per_queue[1].admitted, 0u);
  EXPECT_GT(stats.per_queue[2].admitted, 0u);
  EXPECT_GT(stats.per_queue[3].admitted, 0u);
}

TEST(TenantQos, MultiTenantRunDeterministic) {
  auto run = [] {
    ssd::Ssd ssd(SmallConfig());
    const Us prefill_end = Prefill(ssd, 80);
    HostConfig cfg;
    auto qos = TwoTenants(3, 1);
    qos.tenants[1].iops_limit = 5'000.0;
    cfg.qos = qos;
    cfg.write_aging_limit = 32;
    HostInterface host(ssd, cfg);
    host.AdvanceTo(prefill_end);
    TenantWorkload base;
    base.queue_depth = 12;
    base.total_requests = 1'500;
    base.read_fraction = 0.7;
    base.footprint_bytes = ssd.LogicalBytes() / 100 * 60;
    std::vector<TenantWorkload> workloads(2, base);
    workloads[0].tenant = 0;
    workloads[0].seed = 61;
    workloads[1].tenant = 1;
    workloads[1].seed = 62;
    const auto results = MultiTenantGenerator(host, workloads).Run();
    std::vector<std::tuple<std::uint64_t, Us, double, double>> out;
    for (const auto& r : results) {
      out.emplace_back(r.load.requests, r.load.end_us,
                       r.load.read_latency.total_us(),
                       r.load.write_latency.total_us());
    }
    return out;
  };
  EXPECT_EQ(run(), run());
}

TEST(TenantQos, ApiContracts) {
  ssd::Ssd ssd(SmallConfig());
  // FIFO cannot express weights.
  {
    HostConfig cfg;
    cfg.qos = TwoTenants(1, 1);
    cfg.policy = SchedPolicy::kFifo;
    EXPECT_THROW(HostInterface(ssd, cfg), std::invalid_argument);
  }
  // Tenants must partition the queues.
  {
    HostConfig cfg;
    cfg.qos = TwoTenants(1, 1);
    cfg.qos.tenants[1].queues = {2};  // queue 3 unowned
    EXPECT_THROW(HostInterface(ssd, cfg), std::invalid_argument);
  }
  // SubmitAs needs tenants; unknown tenants are rejected.
  {
    HostInterface host(ssd, HostConfig{});
    EXPECT_THROW(host.SubmitAs(0, trace::OpType::kRead, 0, 4096),
                 std::logic_error);
  }
  {
    HostConfig cfg;
    cfg.qos = TwoTenants(1, 1);
    HostInterface host(ssd, cfg);
    EXPECT_THROW(host.SubmitAs(7, trace::OpType::kRead, 0, 4096),
                 std::out_of_range);
  }
}

}  // namespace
}  // namespace ctflash::host
