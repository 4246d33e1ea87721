// Observability through the campaign and cluster layers: arms/fleets with
// phase tracing on stay byte-deterministic across worker counts, the
// reports carry the phase-breakdown columns, and dead-device timeouts are
// attributed by name in the cluster rows.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "campaign/runner.h"
#include "campaign/spec.h"
#include "cluster/cluster_sim.h"
#include "cluster/spec.h"
#include "obs/tracer.h"

namespace ctflash::obs {
namespace {

constexpr const char* kTracedGrid = R"({
  "campaign": "obs-unit",
  "defaults": {
    "device_bytes": "32MiB",
    "prefill_pct": 80,
    "seed": 11,
    "observability": {"phases": true, "metrics_epoch_us": 20000},
    "workload": {"kind": "closed_loop", "requests": 400,
                  "read_fraction": 0.5, "queue_depth": 4}
  },
  "grid": {"gc_routing": ["inline", "scheduled"]}
})";

TEST(ObsCampaign, TracedArmsDeterministicAcrossWorkerCounts) {
  campaign::CampaignRunner runner(campaign::CampaignSpec::Parse(kTracedGrid));
  const campaign::CampaignResult serial = runner.Run(1);
  const campaign::CampaignResult parallel = runner.Run(4);
  ASSERT_EQ(serial.arms.size(), 2u);
  for (const auto& arm : serial.arms) {
    ASSERT_TRUE(arm.ok) << arm.name << ": " << arm.error;
  }
  // The whole report — phase breakdowns and epoch rows included — is
  // byte-identical for any worker count, and so is the CSV.
  EXPECT_EQ(serial.DeterministicJson().Dump(2),
            parallel.DeterministicJson().Dump(2));
  EXPECT_EQ(serial.Csv(), parallel.Csv());
}

TEST(ObsCampaign, ArmMetricsCarryPhaseBreakdowns) {
  campaign::CampaignRunner runner(campaign::CampaignSpec::Parse(kTracedGrid));
  const campaign::CampaignResult result = runner.Run(2);
  for (const auto& arm : result.arms) {
    ASSERT_TRUE(arm.ok) << arm.name << ": " << arm.error;
    const campaign::Json* phases = arm.metrics.Get("phases");
    ASSERT_NE(phases, nullptr) << arm.name;
    const campaign::Json* read = phases->Get("read");
    ASSERT_NE(read, nullptr);
    EXPECT_GT(read->GetUintOr("count", 0), 0u);
    // Conservation in the aggregate: phase means tile the total mean.
    const double total = read->Get("total")->GetDoubleOr("mean_us", 0);
    const double paced = read->Get("paced")->GetDoubleOr("mean_us", 0);
    const double queued = read->Get("queued")->GetDoubleOr("mean_us", 0);
    const double media = read->Get("media")->GetDoubleOr("mean_us", 0);
    EXPECT_NEAR(paced + queued + media, total, 1e-6) << arm.name;
    // metrics_epoch_us > 0: the time series rides along.
    EXPECT_NE(arm.metrics.Get("phase_epochs"), nullptr) << arm.name;
  }
  // CSV: the six per-arm phase columns are present and populated.
  const std::string csv = result.Csv();
  EXPECT_NE(csv.find("read_paced_us"), std::string::npos);
  EXPECT_NE(csv.find("write_media_us"), std::string::npos);
}

TEST(ObsCampaign, ObservabilityOffKeepsMetricsClean) {
  campaign::CampaignRunner runner(campaign::CampaignSpec::Parse(R"({
    "campaign": "obs-off",
    "defaults": {
      "device_bytes": "32MiB",
      "prefill_pct": 80,
      "workload": {"kind": "closed_loop", "requests": 200}
    }
  })"));
  const campaign::CampaignResult result = runner.Run(1);
  ASSERT_EQ(result.arms.size(), 1u);
  ASSERT_TRUE(result.arms[0].ok) << result.arms[0].error;
  EXPECT_EQ(result.arms[0].metrics.Get("phases"), nullptr);
}

TEST(ObsCampaign, SpansKeepEachArmsTracerWithoutChangingMetrics) {
  // "spans" records the timeline and hands the arm's tracer back (the
  // bench_spec --trace-out path); the deterministic metrics stay exactly
  // those of a phases-only run.
  campaign::Json root = campaign::Json::Parse(kTracedGrid);
  const campaign::CampaignResult phases_only =
      campaign::CampaignRunner(campaign::CampaignSpec::Parse(root)).Run(1);
  campaign::SetJsonPath(root, "defaults.observability.spans", true);
  const campaign::CampaignSpec spec = campaign::CampaignSpec::Parse(root);
  const campaign::CampaignResult traced =
      campaign::CampaignRunner(spec).Run(2);
  ASSERT_EQ(traced.arms.size(), phases_only.arms.size());
  for (std::size_t i = 0; i < traced.arms.size(); ++i) {
    ASSERT_TRUE(traced.arms[i].ok) << traced.arms[i].error;
    ASSERT_NE(traced.arms[i].tracer, nullptr) << traced.arms[i].name;
    EXPECT_FALSE(traced.arms[i].tracer->spans().empty());
    EXPECT_EQ(phases_only.arms[i].tracer, nullptr);
    EXPECT_EQ(traced.arms[i].metrics.Dump(), phases_only.arms[i].metrics.Dump());
  }
}

constexpr const char* kTracedCluster = R"({
  "cluster": "obs-cluster",
  "fleet": {"devices": 4, "spares": 1},
  "router": {"shards": 64, "vnodes": 32},
  "device": {"device_bytes": "32MiB", "prefill_pct": 60,
             "prefill_chunk": "256KiB"},
  "users": {"count": 20000, "zipf_theta": 0.9},
  "workload": {"rate_iops": 4000, "read_fraction": 0.8,
               "request_bytes": "16KiB", "epochs": 4, "epoch_us": 50000},
  "observability": {"phases": true},
  "faults": [{"device": 1, "kind": "device", "at_us": 60000}],
  "seed": 5
})";

TEST(ObsCluster, TracedFleetDeterministicAcrossWorkerCounts) {
  const cluster::ClusterSpec spec = cluster::ClusterSpec::Parse(kTracedCluster);
  const cluster::ClusterResult serial = cluster::ClusterSim(spec).Run(1);
  const cluster::ClusterResult parallel = cluster::ClusterSim(spec).Run(4);
  EXPECT_TRUE(serial.has_phases);
  EXPECT_EQ(serial.DeterministicJson().Dump(2),
            parallel.DeterministicJson().Dump(2));
  EXPECT_EQ(serial.Csv(), parallel.Csv());
}

TEST(ObsCluster, FleetReportCarriesPhasesAndNamesDeadDeviceStall) {
  const cluster::ClusterSpec spec = cluster::ClusterSpec::Parse(kTracedCluster);
  const cluster::ClusterResult result = cluster::ClusterSim(spec).Run(2);
  ASSERT_TRUE(result.has_phases);
  ASSERT_EQ(result.epochs.size(), 4u);

  std::uint64_t traced_reads = 0;
  std::uint64_t dead_stall_us = 0;
  for (const auto& e : result.epochs) {
    traced_reads += e.phases.read.total.count();
    dead_stall_us += e.phases.read.stall_us[static_cast<std::size_t>(
        StallCause::kDeadDevice)];
  }
  EXPECT_GT(traced_reads, 0u);
  // Device 1 went dark inside epoch 1: its timed-out traffic must appear
  // as dead-device stall, not vanish from the attribution.
  EXPECT_GT(dead_stall_us, 0u);

  // The JSON rows echo the same breakdowns.
  const campaign::Json json = result.DeterministicJson();
  const auto& epoch_rows = json.Get("epochs")->AsArray();
  ASSERT_EQ(epoch_rows.size(), 4u);
  for (const campaign::Json& row : epoch_rows) {
    ASSERT_NE(row.Get("phases"), nullptr);
  }
  bool any_device_phases = false;
  for (const campaign::Json& row : json.Get("devices")->AsArray()) {
    if (row.Get("phases") != nullptr) any_device_phases = true;
  }
  EXPECT_TRUE(any_device_phases);

  // CSV phase columns are always present; populated when tracing is on.
  const std::string csv = result.Csv();
  EXPECT_NE(csv.find("read_paced_mean_us"), std::string::npos);
  EXPECT_NE(csv.find("read_media_mean_us"), std::string::npos);
}

TEST(ObsCluster, ObservabilityOffOmitsPhasesFromReports) {
  cluster::Json root = cluster::Json::Parse(kTracedCluster);
  root.AsObject().erase("observability");
  root.AsObject().erase("faults");
  const cluster::ClusterSpec spec = cluster::ClusterSpec::Parse(root);
  const cluster::ClusterResult result = cluster::ClusterSim(spec).Run(2);
  EXPECT_FALSE(result.has_phases);
  const campaign::Json json = result.DeterministicJson();
  for (const campaign::Json& row : json.Get("epochs")->AsArray()) {
    EXPECT_EQ(row.Get("phases"), nullptr);
  }
  // Columns stay in the header (stable schema); values read 0 when off.
  EXPECT_NE(result.Csv().find("read_paced_mean_us,"), std::string::npos);
}

}  // namespace
}  // namespace ctflash::obs
