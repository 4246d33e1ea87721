#include "campaign/runner.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "host/host_interface.h"
#include "host/load_generator.h"
#include "obs/export.h"
#include "obs/tracer.h"
#include "qos/tenant_table.h"
#include "replay/latency_cdf.h"
#include "replay/replay_engine.h"
#include "replay/replay_plan.h"
#include "replay/trace_source.h"
#include "replay/workload_profile.h"
#include "sched/observer.h"
#include "ssd/experiment.h"
#include "ssd/ssd.h"
#include "trace/synthetic.h"
#include "util/parallel.h"
#include "util/stats.h"
#include "util/types.h"

namespace ctflash::campaign {

namespace {

double WallMs(std::chrono::steady_clock::time_point from,
              std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

Json LatencyJson(const util::LatencyStats& stats) {
  Json out;
  out["count"] = stats.count();
  out["mean_us"] = stats.mean_us();
  out["p50_us"] = stats.p50_us();
  out["p95_us"] = stats.p95_us();
  out["p99_us"] = stats.p99_us();
  out["p999_us"] = stats.p999_us();
  out["max_us"] = stats.max_us();
  return out;
}

Json LoadStatsJson(const host::LoadStats& stats) {
  Json out;
  out["requests"] = stats.requests;
  out["makespan_us"] = stats.MakespanUs();
  out["iops"] = stats.Iops();
  out["read_latency"] = LatencyJson(stats.read_latency);
  out["write_latency"] = LatencyJson(stats.write_latency);
  out["die_utilization"] = stats.die_utilization;
  out["channel_utilization"] = stats.channel_utilization;
  return out;
}

/// A byte span given either as `key` (bytes) or as `<key>_pct` (percent of
/// the device's logical space, rounded logical/100*pct); `fallback` when
/// neither is set.
std::uint64_t SpanBytes(const Json& w, const std::string& key,
                        const ssd::Ssd& ssd, std::uint64_t fallback) {
  const Json* pct = w.Get(key + "_pct");
  if (pct == nullptr || pct->IsNull()) return w.GetBytesOr(key, fallback);
  if (w.Get(key) != nullptr || pct->AsUint() > 100) {
    throw std::runtime_error("campaign: " + key + "_pct must be <= 100 and "
                             "excludes " + key);
  }
  return ssd.LogicalBytes() / 100 * pct->AsUint();
}

/// One per-tenant report entry, the same shape for every workload kind:
/// the tenant's load stats, its rate-limiter deferrals and the knee of its
/// read-latency CDF.
Json TenantJson(qos::TenantId tenant, const host::LoadStats& load,
                std::uint64_t throttled) {
  Json entry = LoadStatsJson(load);
  entry["tenant"] = static_cast<std::uint64_t>(tenant);
  entry["throttled"] = throttled;
  const std::vector<replay::CdfPoint> cdf =
      replay::LatencyCdf(load.read_latency);
  const std::size_t knee = replay::KneeIndex(cdf);
  entry["read_knee_us"] = knee < cdf.size() ? cdf[knee].latency_us : 0.0;
  return entry;
}

Json RunClosedLoop(host::HostInterface& host, const Json& w,
                   std::uint64_t prefill_bytes, std::uint64_t seed) {
  host::ClosedLoopGenerator::Config cfg;
  cfg.queue_depth =
      static_cast<std::uint32_t>(w.GetUintOr("queue_depth", 8));
  cfg.total_requests = w.GetUintOr("requests", 10'000);
  cfg.read_fraction = w.GetDoubleOr("read_fraction", 1.0);
  cfg.request_bytes = w.GetBytesOr("request_bytes", 16 * kKiB);
  cfg.footprint_bytes = SpanBytes(w, "footprint", host.ssd(), prefill_bytes);
  cfg.seed = seed;
  cfg.Validate();
  host::ClosedLoopGenerator gen(host, cfg);
  return LoadStatsJson(gen.Run());
}

/// Counts each tenant's dispatches until the first tenant's count reaches
/// its own request total: the window in which every tenant still competes
/// for the device, over which weighted shares are measured.
class ContendedDispatchCounter final : public sched::SchedulerObserver {
 public:
  explicit ContendedDispatchCounter(std::vector<std::uint64_t> limits)
      : limits_(std::move(limits)), counts_(limits_.size(), 0) {}

  void OnDispatch(const sched::FlashTransaction& txn,
                  const sched::DispatchContext&) override {
    // GC and untagged transactions carry kNoTenant, beyond every limit.
    if (closed_ || txn.tenant >= limits_.size()) return;
    if (++counts_[txn.tenant] >= limits_[txn.tenant]) closed_ = true;
  }

  std::uint64_t CountOf(qos::TenantId tenant) const {
    return tenant < counts_.size() ? counts_[tenant] : 0;
  }

 private:
  std::vector<std::uint64_t> limits_;  ///< requests, indexed by tenant id
  std::vector<std::uint64_t> counts_;
  bool closed_ = false;
};

Json RunTenants(host::HostInterface& host, const Json& w,
                std::uint64_t prefill_bytes, std::uint64_t seed) {
  const Json* list = w.Get("tenants");
  if (list == nullptr || !list->IsArray() || list->AsArray().empty()) {
    throw std::runtime_error(
        "campaign: tenants workload needs a non-empty \"tenants\" array");
  }
  const std::size_t n = list->AsArray().size();
  // Default working sets: the prefilled space split evenly, tenant order.
  const std::uint64_t slice = prefill_bytes / n;
  // With qos tenants every id must name one; on a tenant-less host the id
  // only labels the result, and the untagged id kNoTenant is reserved.
  const qos::TenantTable* table = host.tenants();
  const std::uint64_t id_bound =
      table != nullptr ? table->TenantCount() : qos::kNoTenant;
  std::vector<host::TenantWorkload> workloads;
  std::vector<std::uint64_t> limits(table != nullptr ? id_bound : 0, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Json& t = list->AsArray()[i];
    const std::uint64_t id = t.GetUintOr("tenant", i);
    if (id >= id_bound) {
      throw std::runtime_error(
          "campaign: tenants." + std::to_string(i) + ": \"tenant\" " +
          std::to_string(id) + " is not below " +
          (table != nullptr ? "the qos tenant count " : "the reserved id ") +
          std::to_string(id_bound));
    }
    host::TenantWorkload tw;
    tw.tenant = static_cast<qos::TenantId>(id);
    tw.queue_depth = static_cast<std::uint32_t>(t.GetUintOr("queue_depth", 8));
    tw.interarrival_us = static_cast<Us>(t.GetUintOr("interarrival_us", 0));
    tw.total_requests = t.GetUintOr("requests", 1'000);
    tw.read_fraction = t.GetDoubleOr("read_fraction", 1.0);
    tw.request_bytes = t.GetBytesOr("request_bytes", 16 * kKiB);
    tw.footprint_base_bytes =
        SpanBytes(t, "footprint_base", host.ssd(), i * slice);
    tw.footprint_bytes = SpanBytes(t, "footprint", host.ssd(), slice);
    tw.seed = t.GetUintOr("seed", seed + i);
    tw.Validate();
    if (table != nullptr) limits[tw.tenant] += tw.total_requests;
    workloads.push_back(std::move(tw));
  }
  // Untagged transactions carry kNoTenant, so the contended window only
  // exists on a host with qos tenants.
  ContendedDispatchCounter contended(std::move(limits));
  if (table != nullptr) host.scheduler().AttachObserver(&contended);
  host::MultiTenantGenerator gen(host, std::move(workloads));
  const std::vector<host::TenantLoadStats> per_tenant = gen.Run();
  if (table != nullptr) host.scheduler().DetachObserver(&contended);
  Json out;
  JsonArray tenants;
  std::uint64_t requests = 0;
  for (const host::TenantLoadStats& t : per_tenant) {
    const std::uint64_t throttled =
        table != nullptr ? table->StatsOf(t.tenant).throttled : 0;
    Json entry = TenantJson(t.tenant, t.load, throttled);
    if (table != nullptr) {
      entry["contended_dispatches"] = contended.CountOf(t.tenant);
    }
    requests += t.load.requests;
    tenants.push_back(std::move(entry));
  }
  out["requests"] = requests;
  out["tenants"] = Json(std::move(tenants));
  return out;
}

/// Address span of the open-loop preset traces; the source's remap folds
/// it onto the source's slice of the device.  Closed-loop presets span the
/// prefilled footprint instead.
constexpr std::uint64_t kPresetSpanBytes = 4 * kGiB;

/// Width of the open-loop replay report's telemetry windows.
constexpr Us kReplayWindowUs = 250'000;

/// Builds one plan source from a replay `sources[index]` entry, generating
/// presets over `preset_span` bytes.  Returns the CSV source when the entry
/// reads a file (for its resident-window report), nullptr for a preset.
const replay::StreamingMsrCsvSource* AddReplaySource(
    replay::ReplayPlan& plan, const Json& s, std::size_t index,
    host::HostInterface& host, std::uint64_t preset_span,
    std::uint64_t seed) {
  const std::string where =
      "campaign: replay source " + std::to_string(index) + ": ";
  auto fail = [&where](const std::string& what) {
    throw std::runtime_error(where + what);
  };
  const std::string preset = s.GetStringOr("preset", "");
  const std::string path = s.GetStringOr("path", "");
  if (preset.empty() == path.empty()) {
    fail("needs exactly one of \"preset\" and \"path\"");
  }
  std::unique_ptr<replay::TraceSource> source;
  const replay::StreamingMsrCsvSource* csv = nullptr;
  if (!preset.empty()) {
    const std::uint64_t requests = s.GetUintOr("requests", 20'000);
    const std::uint64_t preset_seed = s.GetUintOr("seed", seed + index);
    trace::SyntheticWorkloadConfig cfg;
    if (preset == "web") {
      cfg = trace::WebServerWorkload(preset_span, requests, preset_seed);
    } else if (preset == "media") {
      cfg = trace::MediaServerWorkload(preset_span, requests, preset_seed);
    } else {
      fail("unknown \"preset\" \"" + preset +
           "\" (expected \"web\" or \"media\")");
    }
    source = std::make_unique<replay::SyntheticTraceSource>(cfg);
  } else {
    replay::StreamingMsrCsvSource::Options opts;
    opts.hostname_filter = s.GetStringOr("host", "");
    auto file = std::make_unique<replay::StreamingMsrCsvSource>(path, opts);
    csv = file.get();
    source = std::move(file);
  }

  replay::SourceOptions opts;
  opts.name = s.GetStringOr("name", "source" + std::to_string(index));
  if (const Json* t = s.Get("tenant"); t != nullptr && !t->IsNull()) {
    const std::size_t count =
        host.tenants() != nullptr ? host.tenants()->TenantCount() : 0;
    if (t->AsUint() >= count) {
      fail("\"tenant\" " + t->Dump() + " is not below the qos tenant count " +
           std::to_string(count));
    }
    opts.tenant = static_cast<qos::TenantId>(t->AsUint());
  }
  const std::string remap = s.GetStringOr("remap", "wrap");
  if (remap == "wrap") {
    opts.remap.policy = replay::RemapPolicy::kWrap;
  } else if (remap == "hash_scatter") {
    opts.remap.policy = replay::RemapPolicy::kHashScatter;
  } else {
    fail("unknown \"remap\" \"" + remap +
         "\" (expected \"wrap\" or \"hash_scatter\")");
  }
  // slice [i, n]: the i-th of n equal parts of the logical space.
  std::uint64_t part = 0;
  std::uint64_t parts = 1;
  if (const Json* slice = s.Get("slice"); slice != nullptr && !slice->IsNull()) {
    const bool ok = slice->IsArray() && slice->AsArray().size() == 2 &&
                    slice->AsArray()[0].IsNumber() &&
                    slice->AsArray()[1].IsNumber();
    if (ok) {
      part = slice->AsArray()[0].AsUint();
      parts = slice->AsArray()[1].AsUint();
    }
    if (!ok || part >= parts) fail("\"slice\" must be [i, n] with i < n");
  }
  const std::uint64_t logical = host.ssd().LogicalBytes();
  opts.remap.footprint_bytes = logical / parts;
  opts.remap.base_bytes = logical / parts * part;
  if (const Json* target = s.Get("target_iops");
      target != nullptr && !target->IsNull()) {
    if (!(target->AsDouble() > 0.0)) fail("\"target_iops\" must be > 0");
    // The warp factor comes from the source's native rate (one profile
    // pass; the replay rewinds the source).
    opts.warp.target_iops = target->AsDouble();
    const replay::WorkloadProfile profile = replay::Characterize(*source);
    opts.warp.ResolveRateTarget(profile.requests, profile.duration_us);
  }
  plan.AddSource(std::move(source), opts);
  return csv;
}

Json ReplayWindowJson(const replay::ReplayWindow& w) {
  Json out;
  out["start_us"] = w.start_us;
  out["end_us"] = w.end_us;
  out["arrivals"] = w.arrivals;
  out["completions"] = w.completions;
  out["iops"] = w.iops;
  out["read_p50_us"] = w.read_p50_us;
  out["read_p99_us"] = w.read_p99_us;
  out["write_p50_us"] = w.write_p50_us;
  out["write_p99_us"] = w.write_p99_us;
  out["outstanding_end"] = static_cast<std::uint64_t>(w.outstanding_end);
  return out;
}

/// Trace replay: the `sources` merge into one tenant-tagged plan that
/// replay::ReplayEngine streams open-loop through the host interface or,
/// with `closed_loop`, issues straight on the device, each record at
/// max(its timestamp, the latest completion).
Json RunReplay(host::HostInterface& host, const Json& w,
               std::uint64_t prefill_bytes, std::uint64_t seed) {
  const Json* list = w.Get("sources");
  if (list == nullptr || !list->IsArray() || list->AsArray().empty()) {
    throw std::runtime_error(
        "campaign: replay workload needs a non-empty \"sources\" array");
  }
  const bool closed_loop = w.GetBoolOr("closed_loop", false);
  if (closed_loop &&
      (host.tenants() != nullptr || host.tracer() != nullptr ||
       host.ssd().config().ftl.gc_routing != ftl::GcRouting::kInline ||
       prefill_bytes == 0)) {
    throw std::runtime_error(
        "campaign: a closed_loop replay bypasses the host interface, so it "
        "needs inline gc_routing, no qos, no observability, and a prefill "
        "for its presets to span");
  }
  const std::uint64_t preset_span =
      closed_loop ? prefill_bytes : kPresetSpanBytes;
  replay::ReplayPlan plan;
  std::vector<const replay::StreamingMsrCsvSource*> files;
  for (std::size_t i = 0; i < list->AsArray().size(); ++i) {
    files.push_back(AddReplaySource(plan, list->AsArray()[i], i, host,
                                    preset_span, seed));
  }
  replay::ReplayEngineConfig cfg;
  replay::ReplayResult result;
  if (closed_loop) {
    // One request in flight at a time: no queue for windows to sample.
    cfg.start_us = host.queue().Now();
    cfg.closed_loop = true;
    result = replay::ReplayEngine(host.ssd(), cfg).Run(plan);
  } else {
    cfg.window_us = kReplayWindowUs;
    result = replay::ReplayEngine(host, cfg).Run(plan);
  }

  Json out;
  out["requests"] = result.completed;
  out["makespan_us"] = result.MakespanUs();
  out["iops"] = result.Iops();
  out["read_latency"] = LatencyJson(result.read_latency);
  out["write_latency"] = LatencyJson(result.write_latency);
  // Conservation: every emitted record is pulled, submitted and completed.
  out["pulled"] = result.pulled;
  out["submitted"] = result.submitted;
  out["completed"] = result.completed;
  std::uint64_t emitted = 0;
  JsonArray sources;
  for (std::size_t i = 0; i < result.sources.size(); ++i) {
    const replay::SourceCounters& c = result.sources[i];
    Json entry;
    entry["name"] = c.name;
    entry["pulled"] = c.pulled;
    entry["emitted"] = c.emitted;
    entry["clipped"] = c.clipped;
    if (files[i] != nullptr) {
      entry["peak_resident_records"] =
          static_cast<std::uint64_t>(files[i]->PeakResidentRecords());
    }
    emitted += c.emitted;
    sources.push_back(std::move(entry));
  }
  out["emitted"] = emitted;
  out["sources"] = Json(std::move(sources));
  JsonArray tenants;
  for (const replay::TenantReplayResult& t : result.tenants) {
    host::LoadStats load;
    load.requests = t.completed;
    load.start_us = t.first_submit_us;
    load.end_us = t.last_completion_us;
    load.read_latency = t.read_latency;
    load.write_latency = t.write_latency;
    tenants.push_back(TenantJson(t.tenant, load, t.throttled));
  }
  out["tenants"] = Json(std::move(tenants));
  if (!closed_loop) {
    JsonArray windows;
    for (const replay::ReplayWindow& window : result.windows) {
      windows.push_back(ReplayWindowJson(window));
    }
    out["windows"] = Json(std::move(windows));
  }
  return out;
}

Json DeviceCountersJson(const ssd::Ssd& ssd) {
  const ftl::FtlStats& stats = ssd.ftl().stats();
  Json out;
  out["host_read_pages"] = stats.host_read_pages;
  out["host_write_pages"] = stats.host_write_pages;
  out["gc_page_copies"] = stats.gc_page_copies;
  out["gc_erases"] = stats.gc_erases;
  out["gc_stale_copies"] = stats.gc_stale_copies;
  out["waf"] = stats.Waf();
  if (const core::PpbFtl* ppb = ssd.ppb(); ppb != nullptr) {
    // Where PPB's reads land: per speed class, and per hotness level at
    // read time with the mean layer speed factor (1.0 = slowest layer).
    const core::PpbStats& ps = ppb->ppb_stats();
    Json reads;
    reads["fast_reads"] = ps.fast_reads;
    reads["slow_reads"] = ps.slow_reads;
    static constexpr const char* kLevels[] = {"iron_hot", "hot", "cold",
                                              "icy_cold"};
    for (int i = 0; i < 4; ++i) {
      Json level;
      level["reads"] = ps.reads_at_level[i];
      level["mean_speed_factor"] =
          ps.MeanReadFactor(static_cast<core::HotnessLevel>(i));
      reads["levels"][kLevels[i]] = std::move(level);
    }
    out["ppb"] = std::move(reads);
  }
  return out;
}

Json ReadErrorStatsJson(const ftl::ReadErrorStats& s) {
  Json out;
  out["sampled_reads"] = s.sampled_reads;
  out["uncorrectable_reads"] = s.uncorrectable_reads;
  out["retried_reads"] = s.retried_reads;
  out["retry_rungs"] = s.retry_rungs;
  out["recovered_reads"] = s.recovered_reads;
  out["unrecovered_reads"] = s.unrecovered_reads;
  out["lost_reads"] = s.lost_reads;
  return out;
}

Json FaultMetricsJson(const ssd::Ssd& ssd) {
  const ftl::FaultStats& fs = ssd.ftl().fault_stats();
  Json out;
  out["program_failures"] = fs.program_failures;
  out["erase_failures"] = fs.erase_failures;
  out["host_unreadable_pages"] = fs.host_unreadable_pages;
  out["gc_lost_pages"] = fs.gc_lost_pages;
  out["lost_pages"] = fs.LostPages();
  out["blocks_retired"] = ssd.ftl().blocks().RetiredCount();
  out["host_reads"] = ReadErrorStatsJson(ssd.target().read_error_stats());
  out["gc_reads"] = ReadErrorStatsJson(ssd.target().gc_read_error_stats());
  return out;
}

/// Per-arm outcome taxonomy (see ArmResult::outcome).
std::string ClassifyFaultOutcome(const ssd::Ssd& ssd) {
  const ftl::FaultStats& fs = ssd.ftl().fault_stats();
  if (fs.LostPages() > 0) return "data-loss";
  const ftl::ReadErrorStats& h = ssd.target().read_error_stats();
  const ftl::ReadErrorStats& g = ssd.target().gc_read_error_stats();
  const bool recovery_ran = fs.program_failures > 0 || fs.erase_failures > 0 ||
                            h.recovered_reads > 0 || g.recovered_reads > 0 ||
                            ssd.ftl().blocks().RetiredCount() > 0;
  return recovery_ran ? "recovered" : "masked";
}

/// Cumulative wear / media-error / GC counters for the arm's health
/// evaluation (mirrors the cluster director's per-epoch sampler; here the
/// window is the whole measured workload).
obs::HealthSample CollectHealthSample(const ssd::Ssd& ssd,
                                      const obs::Tracer* tracer) {
  obs::HealthSample s;
  const ftl::FtlBase& f = ssd.ftl();
  s.free_blocks = f.blocks().FreeCount();
  s.retired_blocks = f.blocks().RetiredCount();
  s.total_blocks = f.blocks().total_blocks();
  s.gc_floor_blocks = f.config().gc_threshold_low;
  const nand::NandDevice& nand = ssd.target().nand();
  s.total_erases = nand.Wear().total_erases;
  s.endurance_pe_cycles = nand.endurance_pe_cycles();
  const ftl::ReadErrorStats& host_err = ssd.target().read_error_stats();
  const ftl::ReadErrorStats& gc_err = ssd.target().gc_read_error_stats();
  s.sampled_reads = host_err.sampled_reads + gc_err.sampled_reads;
  s.retried_reads = host_err.retried_reads + gc_err.retried_reads;
  s.unrecovered_reads = host_err.unrecovered_reads + gc_err.unrecovered_reads;
  s.lost_pages = f.fault_stats().LostPages();
  s.program_pages = f.stats().host_write_pages + f.stats().gc_page_copies;
  s.program_failures = f.fault_stats().program_failures;
  if (tracer != nullptr) {
    const obs::PhaseBreakdown& read = tracer->phases().read;
    s.read_stall_gc_us =
        read.stall_us[static_cast<std::size_t>(obs::StallCause::kDieBusyGc)];
    s.read_media_us = static_cast<std::uint64_t>(read.media.total_us());
  }
  return s;
}

/// Shared-prefill key: device shape + prefill parameters.  gc_routing is
/// deliberately absent from the shape key (see campaign/snapshot.h) so
/// inline- and scheduled-GC arms share one prefill.
std::string PrefillKey(const ArmSpec& arm) {
  return SnapshotShapeKey(arm.device) +
         "|pct=" + std::to_string(arm.prefill_pct) +
         "|chunk=" + std::to_string(arm.prefill_chunk_bytes);
}

}  // namespace

ArmResult RunCampaignArm(const ArmSpec& arm, const DeviceState* shared) {
  ArmResult out;
  out.name = arm.name;
  out.index = arm.index;
  out.config = arm.ConfigSummary();
  try {
    ssd::Ssd ssd(arm.device);
    const std::uint64_t prefill_bytes =
        ssd.LogicalBytes() * arm.prefill_pct / 100;
    Us prefill_end = 0;
    if (shared != nullptr) {
      ssd.Restore(*shared);
      prefill_end = shared->clock_us;
    } else if (prefill_bytes > 0) {
      ssd::ExperimentRunner prefiller(ssd);
      prefill_end = prefiller.Prefill(prefill_bytes, arm.prefill_chunk_bytes);
    }
    // Faults arm after the restore/prefill: the aged snapshot is shared by
    // every fault plan, and the prefill itself must stay fault-free so the
    // arms diverge only through their injected schedules.
    if (arm.inject_faults) {
      ssd.target().ArmFaults(arm.fault_plan, arm.fault_handling,
                             arm.fault_seed);
    }
    host::HostInterface host(ssd, arm.host);
    host.AdvanceTo(prefill_end);

    // Phase tracing covers the measured workload only (aggregate mode, no
    // spans): attached after the prefill/restore so its epochs anchor at
    // the measurement start.
    std::unique_ptr<obs::Tracer> tracer;
    if (arm.trace_phases) {
      obs::TracerConfig tc;
      tc.record_spans = arm.record_spans;
      tc.metrics_epoch_us = arm.metrics_epoch_us;
      tc.epoch_base_us = prefill_end;
      tracer = std::make_unique<obs::Tracer>(tc);
      host.AttachTracer(tracer.get());
    }

    // Health evaluation windows the whole measured workload: baseline
    // sampled here (post-restore, pre-traffic), final sample after the run.
    std::unique_ptr<obs::HealthMonitor> health;
    if (arm.eval_health) {
      health = std::make_unique<obs::HealthMonitor>(arm.health);
      health->Observe(CollectHealthSample(ssd, tracer.get()));
    }

    const Json& w = *arm.merged.Get("workload");
    const std::string kind = w.GetStringOr("kind", "closed_loop");
    if (kind == "closed_loop") {
      out.metrics = RunClosedLoop(host, w, prefill_bytes, arm.seed);
    } else if (kind == "tenants") {
      out.metrics = RunTenants(host, w, prefill_bytes, arm.seed);
    } else if (kind == "replay") {
      out.metrics = RunReplay(host, w, prefill_bytes, arm.seed);
    } else {
      throw std::runtime_error("campaign: unknown workload kind \"" + kind +
                               "\"");
    }
    out.metrics["device"] = DeviceCountersJson(ssd);
    if (tracer != nullptr) {
      out.metrics["phases"] = obs::PhaseStatsJson(tracer->phases());
      if (arm.metrics_epoch_us > 0) {
        JsonArray epochs;
        for (const obs::PhaseStats& e : tracer->epoch_phases()) {
          epochs.push_back(obs::PhaseStatsJson(e));
        }
        out.metrics["phase_epochs"] = Json(std::move(epochs));
      }
    }
    if (arm.inject_faults) {
      out.metrics["faults"] = FaultMetricsJson(ssd);
      out.outcome = ClassifyFaultOutcome(ssd);
    }
    if (health != nullptr) {
      health->Observe(CollectHealthSample(ssd, tracer.get()));
      out.metrics["health"] = health->ToJson();
    }
    if (arm.record_spans) out.tracer = std::move(tracer);
    out.ok = true;
  } catch (const std::exception& e) {
    out.ok = false;
    out.error = e.what();
    out.metrics = Json();
    // An arm that dies mid-run on an unrecoverable media error (e.g. the
    // spare pool retired away) is a data-loss outcome, not a campaign bug.
    if (arm.inject_faults) out.outcome = "data-loss";
  }
  return out;
}

CampaignRunner::CampaignRunner(CampaignSpec spec) : spec_(std::move(spec)) {}

CampaignResult CampaignRunner::Run(std::uint32_t workers_override) {
  const std::uint32_t workers =
      workers_override != 0 ? workers_override : spec_.workers;
  CampaignResult result;
  result.campaign = spec_.name;
  result.workers = workers;
  result.share_prefill = spec_.share_prefill;
  result.arms.resize(spec_.arms.size());

  const auto t0 = std::chrono::steady_clock::now();
  util::WorkerPool pool(workers);

  // Phase 1: one prefill snapshot per (shape, prefill) group.
  struct PrefillGroup {
    const ArmSpec* representative = nullptr;
    std::unique_ptr<DeviceState> state;
    std::exception_ptr error;
  };
  std::vector<PrefillGroup> groups;
  std::vector<std::size_t> arm_group(spec_.arms.size(), 0);
  if (spec_.share_prefill) {
    std::map<std::string, std::size_t> group_of;
    for (std::size_t i = 0; i < spec_.arms.size(); ++i) {
      const std::string key = PrefillKey(spec_.arms[i]);
      auto [it, inserted] = group_of.emplace(key, groups.size());
      if (inserted) {
        groups.push_back(PrefillGroup{&spec_.arms[i], nullptr, nullptr});
      }
      arm_group[i] = it->second;
    }
    pool.Run(groups.size(), [&](std::size_t g) {
      PrefillGroup& group = groups[g];
      try {
        const ArmSpec& arm = *group.representative;
        ssd::Ssd ssd(arm.device);
        const std::uint64_t bytes = ssd.LogicalBytes() * arm.prefill_pct / 100;
        Us end = 0;
        if (bytes > 0) {
          ssd::ExperimentRunner prefiller(ssd);
          end = prefiller.Prefill(bytes, arm.prefill_chunk_bytes);
        }
        group.state = std::make_unique<DeviceState>(ssd.Snapshot(end));
      } catch (...) {
        group.error = std::current_exception();
      }
    });
    for (const PrefillGroup& group : groups) {
      if (group.error) std::rethrow_exception(group.error);
    }
  }
  const auto t1 = std::chrono::steady_clock::now();

  // Phase 2: arms.
  pool.Run(spec_.arms.size(), [&](std::size_t i) {
    const DeviceState* shared =
        spec_.share_prefill ? groups[arm_group[i]].state.get() : nullptr;
    result.arms[i] = RunCampaignArm(spec_.arms[i], shared);
  });
  const auto t2 = std::chrono::steady_clock::now();

  result.prefill_wall_ms = WallMs(t0, t1);
  result.arms_wall_ms = WallMs(t1, t2);
  result.total_wall_ms = WallMs(t0, t2);
  result.prefill_groups = groups.size();
  result.prefill_restores =
      spec_.share_prefill ? spec_.arms.size() : 0;
  return result;
}

Json CampaignResult::DeterministicJson() const {
  Json out;
  out["campaign"] = campaign;
  JsonArray arm_array;
  for (const ArmResult& arm : arms) {
    Json entry;
    entry["name"] = arm.name;
    entry["index"] = arm.index;
    entry["ok"] = arm.ok;
    if (!arm.ok) entry["error"] = arm.error;
    if (!arm.outcome.empty()) entry["outcome"] = arm.outcome;
    entry["config"] = arm.config;
    entry["metrics"] = arm.metrics;
    arm_array.push_back(std::move(entry));
  }
  out["arms"] = Json(std::move(arm_array));
  return out;
}

Json CampaignResult::Report() const {
  Json out = DeterministicJson();
  Json timing;
  timing["workers"] = static_cast<std::uint64_t>(workers);
  timing["share_prefill"] = share_prefill;
  timing["total_wall_ms"] = total_wall_ms;
  timing["prefill_wall_ms"] = prefill_wall_ms;
  timing["arms_wall_ms"] = arms_wall_ms;
  timing["prefill_groups"] = prefill_groups;
  timing["prefill_restores"] = prefill_restores;
  out["timing"] = std::move(timing);
  return out;
}

std::string CsvField(const std::string& value) {
  if (value.find_first_of(",\"\r\n") == std::string::npos) return value;
  std::string out;
  out.reserve(value.size() + 2);
  out += '"';
  for (const char c : value) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string CampaignResult::Csv() const {
  std::string csv =
      "arm,ok,requests,iops,read_mean_us,read_p99_us,write_mean_us,"
      "write_p99_us,waf,read_paced_us,read_queued_us,read_media_us,"
      "write_paced_us,write_queued_us,write_media_us,health_state,"
      "health_score\n";
  auto field = [](const Json& metrics, const char* a, const char* b) {
    const Json* section = metrics.Get(a);
    if (section == nullptr) return std::string("0");
    const Json* v = section->Get(b);
    return v == nullptr ? std::string("0") : v->Dump();
  };
  // Mean of one phase series from the arm's "phases" breakdown ("0" when
  // the arm ran without observability).
  auto phase = [](const Json& metrics, const char* side, const char* which) {
    const Json* phases = metrics.Get("phases");
    if (phases == nullptr) return std::string("0");
    const Json* s = phases->Get(side);
    if (s == nullptr) return std::string("0");
    const Json* p = s->Get(which);
    if (p == nullptr) return std::string("0");
    const Json* mean = p->Get("mean_us");
    return mean == nullptr ? std::string("0") : mean->Dump();
  };
  for (const ArmResult& arm : arms) {
    csv += CsvField(arm.name) + "," + (arm.ok ? "1" : "0") + ",";
    if (arm.ok) {
      const Json* requests = arm.metrics.Get("requests");
      const Json* iops = arm.metrics.Get("iops");
      csv += (requests ? requests->Dump() : "0") + ",";
      csv += (iops ? iops->Dump() : "0") + ",";
      csv += field(arm.metrics, "read_latency", "mean_us") + ",";
      csv += field(arm.metrics, "read_latency", "p99_us") + ",";
      csv += field(arm.metrics, "write_latency", "mean_us") + ",";
      csv += field(arm.metrics, "write_latency", "p99_us") + ",";
      csv += field(arm.metrics, "device", "waf") + ",";
      csv += phase(arm.metrics, "read", "paced") + ",";
      csv += phase(arm.metrics, "read", "queued") + ",";
      csv += phase(arm.metrics, "read", "media") + ",";
      csv += phase(arm.metrics, "write", "paced") + ",";
      csv += phase(arm.metrics, "write", "queued") + ",";
      csv += phase(arm.metrics, "write", "media") + ",";
      // Health columns ("" / 0 when the arm ran without evaluation).
      const Json* health = arm.metrics.Get("health");
      const Json* state = health ? health->Get("state") : nullptr;
      const Json* score = health ? health->Get("score") : nullptr;
      csv += (state ? CsvField(state->AsString()) : std::string()) + ",";
      csv += score ? score->Dump() : std::string("0");
    } else {
      csv += "0,0,0,0,0,0,0,0,0,0,0,0,0,,0";
    }
    csv += "\n";
  }
  return csv;
}

}  // namespace ctflash::campaign
