// Campaign workload kinds beyond the closed loop: the "tenants" kind's
// per-tenant telemetry (throttle counts, the contended-dispatch window, the
// tenant-less path) and the "replay" kind (field validation, equality with
// a hand-built ReplayEngine run, the streaming CSV window, the closed-loop
// direct mode against ExperimentRunner::Replay).  Tiny devices and short
// traces; the paper-scale runs are bench/specs/tenant_qos.json,
// bench/specs/trace_replay.json and bench/specs/paper.json.
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/checks.h"
#include "campaign/runner.h"
#include "campaign/spec.h"
#include "host/host_interface.h"
#include "replay/replay_engine.h"
#include "replay/replay_plan.h"
#include "replay/trace_source.h"
#include "replay/workload_profile.h"
#include "ssd/experiment.h"
#include "ssd/ssd.h"
#include "trace/synthetic.h"
#include "trace/trace.h"

namespace ctflash::campaign {
namespace {

/// Runs a one-arm campaign and returns that arm.
ArmResult RunOneArm(const std::string& spec) {
  CampaignResult result = CampaignRunner(CampaignSpec::Parse(spec)).Run(1);
  EXPECT_EQ(result.arms.size(), 1u);
  return result.arms.at(0);
}

double Number(const Json& root, const std::string& path) {
  const Json* node = LookupJsonPath(root, path);
  EXPECT_NE(node, nullptr) << path;
  return node == nullptr ? -1.0 : node->AsDouble();
}

/// Two saturating QD-16 read tenants at equal weights; `requests_a` and
/// `requests_b` are each tenant's request total.
std::string ContendedSpec(std::uint64_t requests_a, std::uint64_t requests_b) {
  return R"({
    "defaults": {
      "device_bytes": "64MiB", "prefill_pct": 80, "host": {"device_slots": 4},
      "qos": [{"weight": 1, "queues": [0, 1]}, {"weight": 1, "queues": [2, 3]}],
      "workload": {"kind": "tenants", "tenants": [
        {"queue_depth": 16, "requests": )" +
         std::to_string(requests_a) + R"(, "footprint_pct": 60, "footprint_base_pct": 0},
        {"queue_depth": 16, "requests": )" +
         std::to_string(requests_b) + R"(, "footprint_pct": 60, "footprint_base_pct": 0}
      ]}
    }
  })";
}

TEST(CampaignTenants, ContendedWindowClosesAtFirstTenantsOwnRequests) {
  // Tenant 0 runs out first: the window closes exactly at its 300th
  // dispatch (one page per 16 KiB request), long before tenant 1's 2000.
  const ArmResult a = RunOneArm(ContendedSpec(300, 2'000));
  ASSERT_TRUE(a.ok) << a.error;
  EXPECT_EQ(Number(a.metrics, "tenants.0.contended_dispatches"), 300.0);
  EXPECT_GT(Number(a.metrics, "tenants.1.contended_dispatches"), 0.0);
  EXPECT_LT(Number(a.metrics, "tenants.1.contended_dispatches"), 2'000.0);
  // Every request still completes: the window only stops the counting.
  EXPECT_EQ(Number(a.metrics, "tenants.1.requests"), 2'000.0);

  // Swapped: the window closes at tenant 1's own (smaller) total.
  const ArmResult b = RunOneArm(ContendedSpec(2'000, 300));
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_EQ(Number(b.metrics, "tenants.1.contended_dispatches"), 300.0);
  EXPECT_LT(Number(b.metrics, "tenants.0.contended_dispatches"), 2'000.0);
}

TEST(CampaignTenants, ThrottledCountsAndTenantLessPath) {
  // An IOPS cap on tenant 1 defers its submissions; tenant 0 is uncapped.
  const ArmResult capped = RunOneArm(R"({
    "defaults": {
      "device_bytes": "64MiB", "prefill_pct": 80,
      "qos": [{"queues": [0, 1]}, {"queues": [2, 3], "iops_limit": 2000}],
      "workload": {"kind": "tenants", "tenants": [
        {"queue_depth": 8, "requests": 300, "footprint_pct": 20},
        {"queue_depth": 8, "requests": 300, "footprint_base_pct": 20, "footprint_pct": 20}
      ]}
    }
  })");
  ASSERT_TRUE(capped.ok) << capped.error;
  EXPECT_EQ(Number(capped.metrics, "tenants.0.throttled"), 0.0);
  EXPECT_GT(Number(capped.metrics, "tenants.1.throttled"), 0.0);
  EXPECT_GT(Number(capped.metrics, "tenants.0.read_knee_us"), 0.0);

  // No qos list: both processes share the untagged path; nothing is
  // throttled and, with no dispatch attributed to a tenant, no contended
  // window is reported.
  const ArmResult shared = RunOneArm(R"({
    "defaults": {
      "device_bytes": "64MiB", "prefill_pct": 80,
      "workload": {"kind": "tenants", "tenants": [
        {"queue_depth": 8, "requests": 300},
        {"interarrival_us": 1000, "requests": 50}
      ]}
    }
  })");
  ASSERT_TRUE(shared.ok) << shared.error;
  EXPECT_EQ(Number(shared.metrics, "requests"), 350.0);
  EXPECT_EQ(Number(shared.metrics, "tenants.1.throttled"), 0.0);
  EXPECT_EQ(LookupJsonPath(shared.metrics, "tenants.0.contended_dispatches"),
            nullptr);
}

TEST(CampaignTenants, RejectsTenantIdOutOfRangeByIndex) {
  const std::string qos2 =
      R"([{"queues": [0, 1]}, {"queues": [2, 3]}])";
  const auto spec = [](const std::string& qos, const std::string& tenant) {
    return R"({"defaults": {"device_bytes": "64MiB", "prefill_pct": 50,
               "qos": )" +
           qos + R"(, "workload": {"kind": "tenants", "tenants": [
               {"queue_depth": 4, "requests": 50},
               {"queue_depth": 4, "requests": 50, "tenant": )" +
           tenant + "}]}}}";
  };
  const struct {
    std::string qos;
    std::string tenant;
    const char* error;
  } cases[] = {
      {qos2, "2", R"(tenants.1: "tenant" 2 is not below the qos tenant count 2)"},
      {qos2, "4294967295", R"(tenants.1: "tenant" 4294967295)"},
      {qos2, "4294967296", R"(tenants.1: "tenant" 4294967296)"},
      // On a tenant-less host the id is a label, but the untagged id and
      // anything wider than a TenantId are still refused.
      {"null", "4294967295", "is not below the reserved id 4294967295"},
      {"null", "8589934592", R"(tenants.1: "tenant" 8589934592)"},
  };
  for (const auto& c : cases) {
    const ArmResult arm = RunOneArm(spec(c.qos, c.tenant));
    EXPECT_FALSE(arm.ok) << c.qos << " " << c.tenant;
    EXPECT_NE(arm.error.find(c.error), std::string::npos)
        << c.qos << " " << c.tenant << " -> " << arm.error;
  }
  // A large label on a tenant-less host runs and is reported as given.
  const ArmResult label = RunOneArm(spec("null", "2000000000"));
  ASSERT_TRUE(label.ok) << label.error;
  EXPECT_EQ(Number(label.metrics, "tenants.1.tenant"), 2e9);
  EXPECT_EQ(Number(label.metrics, "requests"), 100.0);
}

/// A one-arm replay spec over `sources` (a JSON array) with `qos`.
std::string ReplaySpec(const std::string& sources,
                       const std::string& qos = R"([{"queues": [0, 1]},
                                                    {"queues": [2, 3]}])") {
  return R"({"defaults": {"device_bytes": "32MiB", "prefill_pct": 50,
             "qos": )" +
         qos + R"(, "workload": {"kind": "replay", "sources": )" + sources +
         "}}}";
}

TEST(CampaignReplay, RejectsBadSourceFieldsByName) {
  const struct {
    const char* sources;
    const char* field;
  } cases[] = {
      {R"([{"preset": "web", "path": "x.csv"}])", R"("preset" and "path")"},
      {R"([{"remap": "wrap"}])", R"("preset" and "path")"},
      {R"([{"preset": "tv"}])", R"(unknown "preset")"},
      {R"([{"preset": "web", "remap": "linear"}])", R"(unknown "remap")"},
      {R"([{"preset": "web", "tenant": 2}])", R"("tenant" 2)"},
      {R"([{"preset": "web", "target_iops": 0}])", R"("target_iops")"},
      {R"([{"preset": "web", "target_iops": -5}])", R"("target_iops")"},
      {R"([{"preset": "web", "slice": [2, 2]}])", R"("slice")"},
      {R"([{"preset": "web", "slice": [0, 0]}])", R"("slice")"},
      {R"([{"preset": "web", "slice": [1]}])", R"("slice")"},
      {R"([{"preset": "web", "slice": "half"}])", R"("slice")"},
      {R"([{"preset": "web"}, {"preset": "media", "slice": [3, 2]}])",
       R"(replay source 1: "slice")"},
      {R"([])", R"("sources")"},
  };
  for (const auto& c : cases) {
    const ArmResult arm = RunOneArm(ReplaySpec(c.sources));
    EXPECT_FALSE(arm.ok) << c.sources;
    EXPECT_NE(arm.error.find(c.field), std::string::npos)
        << c.sources << " -> " << arm.error;
  }
  // Without a qos list there is no tenant to tag.
  const ArmResult untagged =
      RunOneArm(ReplaySpec(R"([{"preset": "web", "tenant": 0}])", "null"));
  EXPECT_FALSE(untagged.ok);
  EXPECT_NE(untagged.error.find("qos tenant count 0"), std::string::npos)
      << untagged.error;
}

TEST(CampaignReplay, TwoSourceArmEqualsDirectEngineRun) {
  // The same two-tenant plan built by hand and run through ReplayEngine on
  // an identically prefilled device must report the same per-tenant
  // numbers as the campaign arm.
  const std::string spec = ReplaySpec(R"([
      {"name": "media", "tenant": 0, "preset": "media", "requests": 300,
       "seed": 5, "remap": "wrap", "slice": [0, 2], "target_iops": 500},
      {"name": "web", "tenant": 1, "preset": "web", "requests": 3000,
       "seed": 6, "remap": "hash_scatter", "slice": [1, 2],
       "target_iops": 8000}])");
  const ArmResult arm = RunOneArm(spec);
  ASSERT_TRUE(arm.ok) << arm.error;

  const CampaignSpec parsed = CampaignSpec::Parse(spec);
  const ArmSpec& a = parsed.arms.at(0);
  ssd::Ssd ssd(a.device);
  ssd::ExperimentRunner prefiller(ssd);
  const Us prefill_end = prefiller.Prefill(
      ssd.LogicalBytes() * a.prefill_pct / 100, a.prefill_chunk_bytes);
  host::HostInterface host(ssd, a.host);
  host.AdvanceTo(prefill_end);

  const std::uint64_t half = ssd.LogicalBytes() / 2;
  replay::ReplayPlan plan;
  const auto add = [&](const trace::SyntheticWorkloadConfig& cfg,
                       const char* name, qos::TenantId tenant,
                       replay::RemapPolicy policy, std::uint64_t base,
                       double target_iops) {
    replay::SourceOptions opts;
    opts.name = name;
    opts.tenant = tenant;
    opts.remap.policy = policy;
    opts.remap.footprint_bytes = half;
    opts.remap.base_bytes = base;
    opts.warp.target_iops = target_iops;
    replay::SyntheticTraceSource probe(cfg);
    const replay::WorkloadProfile profile = replay::Characterize(probe);
    opts.warp.ResolveRateTarget(profile.requests, profile.duration_us);
    plan.AddSource(std::make_unique<replay::SyntheticTraceSource>(cfg), opts);
  };
  add(trace::MediaServerWorkload(4 * kGiB, 300, 5), "media", 0,
      replay::RemapPolicy::kWrap, 0, 500.0);
  add(trace::WebServerWorkload(4 * kGiB, 3000, 6), "web", 1,
      replay::RemapPolicy::kHashScatter, half, 8000.0);
  replay::ReplayEngine engine(host, replay::ReplayEngineConfig{});
  const replay::ReplayResult direct = engine.Run(plan);

  EXPECT_EQ(Number(arm.metrics, "completed"),
            static_cast<double>(direct.completed));
  EXPECT_EQ(Number(arm.metrics, "pulled"), 3'300.0);
  ASSERT_EQ(direct.tenants.size(), 2u);
  for (std::size_t t = 0; t < 2; ++t) {
    const replay::TenantReplayResult& want = direct.tenants[t];
    const std::string at = "tenants." + std::to_string(t) + ".";
    EXPECT_EQ(Number(arm.metrics, at + "requests"),
              static_cast<double>(want.completed));
    EXPECT_EQ(Number(arm.metrics, at + "iops"), want.Iops());
    EXPECT_EQ(Number(arm.metrics, at + "throttled"),
              static_cast<double>(want.throttled));
    EXPECT_EQ(Number(arm.metrics, at + "read_latency.p99_us"),
              want.read_latency.p99_us());
    EXPECT_EQ(Number(arm.metrics, at + "read_latency.mean_us"),
              want.read_latency.mean_us());
    EXPECT_EQ(Number(arm.metrics, at + "write_latency.p99_us"),
              want.write_latency.p99_us());
  }
}

TEST(CampaignReplay, CsvSourceStaysWithinItsWindow) {
  // 10k records through the default 4096-record decode window: the arm
  // replays every record while never holding more than one window.
  const std::string path = ::testing::TempDir() + "campaign_replay_10k.csv";
  {
    std::ofstream out(path);
    trace::WriteMsrCsv(
        trace::SyntheticTraceGenerator(trace::WebServerWorkload(kGiB, 10'000))
            .Generate(),
        out);
  }
  const ArmResult arm = RunOneArm(
      ReplaySpec(R"([{"path": ")" + path + R"(", "tenant": 0}])"));
  ASSERT_TRUE(arm.ok) << arm.error;
  EXPECT_EQ(Number(arm.metrics, "sources.0.pulled"), 10'000.0);
  EXPECT_EQ(Number(arm.metrics, "completed"),
            Number(arm.metrics, "emitted"));
  const double peak = Number(arm.metrics, "sources.0.peak_resident_records");
  EXPECT_GT(peak, 0.0);
  EXPECT_LE(peak, 4096.0);
}

TEST(CampaignReplay, SampleCsvSplitsByHost) {
  // The checked-in two-host sample, one tenant per host: every record
  // lands in exactly one stream and completes.
  const std::string csv = std::string(CTFLASH_TEST_DATA_DIR) + "/sample_msr.csv";
  const ArmResult arm = RunOneArm(ReplaySpec(
      R"([{"name": "mds0", "tenant": 0, "path": ")" + csv +
      R"(", "host": "mds0", "slice": [0, 2]},
          {"name": "web0", "tenant": 1, "path": ")" + csv +
      R"(", "host": "web0", "slice": [1, 2]}])"));
  ASSERT_TRUE(arm.ok) << arm.error;
  const double mds = Number(arm.metrics, "sources.0.pulled");
  const double web = Number(arm.metrics, "sources.1.pulled");
  EXPECT_GT(mds, 0.0);
  EXPECT_GT(web, 0.0);
  EXPECT_EQ(mds + web,
            static_cast<double>(trace::ParseMsrCsvFile(csv).size()));
  EXPECT_EQ(Number(arm.metrics, "completed"), Number(arm.metrics, "emitted"));
  EXPECT_EQ(Number(arm.metrics, "tenants.0.requests"),
            Number(arm.metrics, "sources.0.emitted"));
}

TEST(CampaignReplay, ClosedLoopArmEqualsExperimentRunnerReplay) {
  // A closed-loop preset arm is the figure protocol: the preset spans the
  // prefilled footprint, and every record issues on the device at
  // max(timestamp, latest completion), exactly as ExperimentRunner::Replay
  // does after a straight prefill of that footprint.
  for (const char* ftl : {"conventional", "ppb"}) {
    const std::string spec =
        std::string(R"({"defaults": {"device_bytes": "64MiB", "ftl": ")") +
        ftl + R"(", "timing_mode": "service_time", "prefill_pct": 80,
          "workload": {"kind": "replay", "closed_loop": true, "sources": [
            {"preset": "web", "requests": 20000, "seed": 2}]}}})";
    const ArmResult arm = RunOneArm(spec);
    ASSERT_TRUE(arm.ok) << arm.error;

    const CampaignSpec parsed = CampaignSpec::Parse(spec);
    const ArmSpec& a = parsed.arms.at(0);
    ssd::Ssd ssd(a.device);
    const std::uint64_t footprint = ssd.LogicalBytes() * 80 / 100;
    const auto records = trace::SyntheticTraceGenerator(
                             trace::WebServerWorkload(footprint, 20'000, 2))
                             .Generate();
    ssd::ExperimentRunner runner(ssd);
    runner.Prefill(footprint, a.prefill_chunk_bytes);
    const ssd::ExperimentResult want = runner.Replay(records, "web");

    EXPECT_EQ(Number(arm.metrics, "read_latency.count"),
              static_cast<double>(want.read_latency.count()));
    EXPECT_EQ(Number(arm.metrics, "read_latency.mean_us"),
              want.read_latency.mean_us());
    EXPECT_EQ(Number(arm.metrics, "read_latency.p99_us"),
              want.read_latency.p99_us());
    EXPECT_EQ(Number(arm.metrics, "write_latency.mean_us"),
              want.write_latency.mean_us());
    EXPECT_EQ(Number(arm.metrics, "device.gc_erases"),
              static_cast<double>(want.erase_count));
    EXPECT_EQ(Number(arm.metrics, "device.waf"), want.waf);
    EXPECT_EQ(Number(arm.metrics, "completed"), Number(arm.metrics, "emitted"));
    EXPECT_EQ(arm.metrics.Get("windows"), nullptr);
    EXPECT_EQ(arm.metrics.Get("device")->Get("ppb") != nullptr,
              std::string(ftl) == "ppb");
  }
}

TEST(CampaignReplay, ClosedLoopRejectsHostOnlySettings) {
  // The closed loop bypasses the host interface, so settings that only the
  // host path honors are refused instead of silently ignored.
  for (const char* extra :
       {R"("qos": [{"queues": [0, 1]}, {"queues": [2, 3]}],)",
        R"("gc_routing": "scheduled",)",
        R"("observability": {"phases": true},)", R"("prefill_pct": 0,)"}) {
    const ArmResult arm = RunOneArm(
        std::string(R"({"defaults": {"device_bytes": "32MiB", )") + extra +
        R"( "workload": {"kind": "replay", "closed_loop": true,
            "sources": [{"preset": "web", "requests": 100}]}}})");
    EXPECT_FALSE(arm.ok) << extra;
    EXPECT_NE(arm.error.find("closed_loop"), std::string::npos)
        << extra << " -> " << arm.error;
  }
}

}  // namespace
}  // namespace ctflash::campaign
