// ClusterSim integration: a tiny fleet end to end.  Verifies worker-count
// determinism (the epoch-lockstep contract), healthy-cluster traffic flow,
// and the failure -> detection -> rebalance -> rebuild pipeline against the
// un-rebalanced control.  Full-scale arms live in bench_cluster.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "cluster/cluster_sim.h"
#include "cluster/spec.h"

namespace ctflash::cluster {
namespace {

// Small but real: 4 devices + spare, 32 MiB each, ~4 epochs of traffic.
constexpr const char* kHealthy = R"({
  "cluster": "unit-healthy",
  "fleet": {"devices": 4, "spares": 1},
  "router": {"shards": 64, "vnodes": 32},
  "device": {"device_bytes": "32MiB", "prefill_pct": 60,
             "prefill_chunk": "256KiB"},
  "users": {"count": 20000, "zipf_theta": 0.9},
  "workload": {"rate_iops": 4000, "read_fraction": 0.8,
               "request_bytes": "16KiB", "epochs": 4, "epoch_us": 50000},
  "seed": 5
})";

std::string WithFault(const char* base, const std::string& policy) {
  Json root = Json::Parse(base);
  Json fault;
  fault["device"] = static_cast<std::uint64_t>(1);
  fault["kind"] = std::string("device");
  fault["at_us"] = static_cast<std::uint64_t>(60'000);  // inside epoch 1
  campaign::JsonArray faults;
  faults.push_back(std::move(fault));
  root["faults"] = Json(std::move(faults));
  root["rebalance"]["policy"] = policy;
  root["cluster"] = std::string("unit-fault-") + policy;
  return root.Dump();
}

TEST(ClusterSim, DeterministicAcrossWorkerCounts) {
  // The device fault fails over in epoch 1, so epochs drawn ahead of the
  // director's step are routed across the failover.  9 workers is more
  // than the fleet's 5 devices.
  const ClusterSpec spec = ClusterSpec::Parse(WithFault(kHealthy, "on_failure"));
  const ClusterResult serial = ClusterSim(spec).Run(1);
  ASSERT_EQ(serial.devices_failed, 1u);
  Json a = serial.Report();
  a.AsObject().erase("wall_ms");
  for (const std::uint32_t workers : {2u, 3u, 9u}) {
    const ClusterResult parallel = ClusterSim(spec).Run(workers);
    EXPECT_EQ(serial.DeterministicJson().Dump(2),
              parallel.DeterministicJson().Dump(2))
        << workers << " workers";
    // Wall-clock is the only thing Report() may add.
    Json b = parallel.Report();
    b.AsObject().erase("wall_ms");
    EXPECT_EQ(a.Dump(), b.Dump()) << workers << " workers";
  }
}

TEST(ClusterSim, HealthyClusterServesEverything) {
  const ClusterSpec spec = ClusterSpec::Parse(kHealthy);
  const ClusterResult result = ClusterSim(spec).Run(2);
  ASSERT_EQ(result.epochs.size(), 4u);
  ASSERT_EQ(result.devices.size(), 5u);  // 4 + spare
  EXPECT_EQ(result.devices_failed, 0u);
  EXPECT_EQ(result.shards_moved, 0u);
  EXPECT_TRUE(result.events.empty());
  std::uint64_t arrivals = 0, completed = 0;
  for (const EpochSummary& e : result.epochs) {
    arrivals += e.arrivals;
    EXPECT_EQ(e.timeouts, 0u);
  }
  for (const DeviceSummary& d : result.devices) {
    EXPECT_TRUE(d.alive);
    EXPECT_FALSE(d.fatal);
    EXPECT_EQ(d.rebuild_reads + d.rebuild_writes, 0u);
    completed += d.completed;
  }
  EXPECT_GT(arrivals, 0u);
  EXPECT_EQ(completed, arrivals);
  // The spare idles outside the ring.
  EXPECT_EQ(result.devices[4].completed, 0u);
  EXPECT_EQ(result.devices[4].primary_shards, 0u);
}

TEST(ClusterSim, RebalanceAdoptsSpareAndRebuilds) {
  const ClusterSpec spec = ClusterSpec::Parse(WithFault(kHealthy, "on_failure"));
  const ClusterResult result = ClusterSim(spec).Run(2);
  EXPECT_EQ(result.devices_failed, 1u);
  EXPECT_EQ(result.spares_used, 1u);
  EXPECT_GT(result.shards_moved, 0u);
  EXPECT_EQ(result.unrecoverable_shards, 0u);  // replicas=2 covers one loss
  EXPECT_GT(result.migration_ops, 0u);
  ASSERT_EQ(result.events.size(), 1u);
  EXPECT_EQ(result.events[0].GetUintOr("device", 99), 1u);
  EXPECT_EQ(result.events[0].GetStringOr("action", ""), "rebalanced");
  // The failed device left the ring; the spare took its shards and now
  // serves + absorbs rebuild writes through the rebuild tenant.
  EXPECT_FALSE(result.devices[1].alive);
  EXPECT_GT(result.devices[4].primary_shards, 0u);
  std::uint64_t rebuild = 0;
  for (const DeviceSummary& d : result.devices) {
    rebuild += d.rebuild_reads + d.rebuild_writes;
  }
  EXPECT_GT(rebuild, 0u);
  // After the detection epoch the cluster stops burning timeouts.
  EXPECT_EQ(result.epochs.back().timeouts, 0u);
}

TEST(ClusterSim, ControlPolicyKeepsTimingOut) {
  const ClusterSpec spec = ClusterSpec::Parse(WithFault(kHealthy, "none"));
  const ClusterResult result = ClusterSim(spec).Run(2);
  EXPECT_EQ(result.devices_failed, 1u);
  EXPECT_EQ(result.shards_moved, 0u);
  EXPECT_EQ(result.migration_ops, 0u);
  ASSERT_EQ(result.events.size(), 1u);
  EXPECT_EQ(result.events[0].GetStringOr("action", ""), "none");
  // Traffic keeps routing to the dead primary: timeouts persist to the end
  // and drag the cluster read tail to the SLA timeout.
  EXPECT_GT(result.epochs.back().timeouts, 0u);
  EXPECT_GE(result.epochs.back().read.max_us(),
            static_cast<double>(spec.timeout_us));
}

TEST(ClusterSim, CsvHasOneRowPerEpoch) {
  const ClusterSpec spec = ClusterSpec::Parse(kHealthy);
  const ClusterResult result = ClusterSim(spec).Run(2);
  const std::string csv = result.Csv();
  std::size_t rows = 0;
  for (const char c : csv) rows += c == '\n';
  EXPECT_EQ(rows, 1u + result.epochs.size());  // header + epochs
  EXPECT_NE(csv.find("unit-healthy,0,"), std::string::npos);
}

}  // namespace
}  // namespace ctflash::cluster
