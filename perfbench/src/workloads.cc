#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>

#include "cluster/cluster_sim.h"
#include "cluster/spec.h"
#include "host/host_interface.h"
#include "host/load_generator.h"
#include "ssd/experiment.h"
#include "ssd/ssd.h"
#include "trace/synthetic.h"
#include "util/random.h"
#include "util/stats.h"

namespace perfbench {
namespace {

using namespace ctflash;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/// 64-bit FNV-1a, split into two exactly representable halves.
void AddDigest(SimOutputs& out, const std::string& key,
               const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  out.emplace_back(key + ".hi", static_cast<double>(h >> 32));
  out.emplace_back(key + ".lo", static_cast<double>(h & 0xffffffffull));
}

void AddLatency(SimOutputs& out, const std::string& prefix,
                const util::LatencyStats& s) {
  out.emplace_back(prefix + ".count", static_cast<double>(s.count()));
  out.emplace_back(prefix + ".total_us", s.total_us());
  out.emplace_back(prefix + ".p50_us", s.p50_us());
  out.emplace_back(prefix + ".p99_us", s.p99_us());
  out.emplace_back(prefix + ".p999_us", s.p999_us());
  out.emplace_back(prefix + ".max_us", s.max_us());
}

/// FTL, PPB-core and NAND counters of one device since its last reset.
void AddDevice(SimOutputs& out, const ssd::Ssd& ssd) {
  const ftl::FtlStats& f = ssd.ftl().stats();
  out.emplace_back("ftl.host_read_pages", f.host_read_pages);
  out.emplace_back("ftl.host_write_pages", f.host_write_pages);
  out.emplace_back("ftl.gc_page_copies", f.gc_page_copies);
  out.emplace_back("ftl.gc_erases", f.gc_erases);
  out.emplace_back("ftl.gc_stale_copies", f.gc_stale_copies);
  out.emplace_back("ftl.waf", f.Waf());
  if (const core::PpbFtl* ppb = ssd.ppb()) {
    const core::PpbStats& p = ppb->ppb_stats();
    out.emplace_back("core.fast_reads", p.fast_reads);
    out.emplace_back("core.slow_reads", p.slow_reads);
    out.emplace_back("core.hot_area_writes", p.hot_area_writes);
    out.emplace_back("core.diverted_writes", p.diverted_writes);
  }
  out.emplace_back("nand.retried_reads",
                   ssd.target().read_error_stats().retried_reads +
                       ssd.target().gc_read_error_stats().retried_reads);
}

void AddUtilization(SimOutputs& out, const host::LoadStats& load) {
  out.emplace_back("makespan_us", static_cast<double>(load.MakespanUs()));
  out.emplace_back("nand.die_util", load.die_utilization);
  out.emplace_back("nand.channel_util", load.channel_utilization);
}

void CheckConserved(Rep& rep, const char* op, std::uint64_t submitted,
                    std::uint64_t completed) {
  if (submitted != completed) {
    rep.errors.push_back(std::string(op) + ": " + std::to_string(submitted) +
                         " submitted but " + std::to_string(completed) +
                         " completed");
  }
}

/// Timed-phase clock that also cuts the phase into kWindows windows at
/// fixed counts of completed requests.
class WindowClock {
 public:
  static constexpr std::uint64_t kWindows = 1000;

  WindowClock(Rep& rep, std::uint64_t total_requests)
      : rep_(rep),
        step_(std::max<std::uint64_t>(1, total_requests / kWindows)),
        next_(step_) {
    rep_.window_s.reserve(kWindows);
    start_ = last_ = Clock::now();
  }

  /// Called with the running count of completed requests.
  void At(std::uint64_t done) {
    if (done < next_ || rep_.window_s.size() + 1 >= kWindows) return;
    const Clock::time_point now = Clock::now();
    rep_.window_s.push_back(std::chrono::duration<double>(now - last_).count());
    last_ = now;
    next_ += step_;
  }

  void Finish() {
    const Clock::time_point now = Clock::now();
    rep_.window_s.push_back(std::chrono::duration<double>(now - last_).count());
    rep_.timed_s = std::chrono::duration<double>(now - start_).count();
  }

 private:
  Rep& rep_;
  std::uint64_t step_;
  std::uint64_t next_;
  Clock::time_point start_;
  Clock::time_point last_;
};

// --- web_replay_ppb ----------------------------------------------------------

constexpr std::uint64_t kWebDeviceBytes = 4ull << 30;
constexpr std::uint64_t kWebRequests = 1'200'000;
constexpr double kWebSpeedRatio = 3.0;

ssd::SsdConfig WebConfig(ssd::FtlKind kind) {
  return ssd::ScaledConfig(kind, kWebDeviceBytes, 16 * kKiB, kWebSpeedRatio);
}

std::vector<trace::TraceRecord> WebTrace(std::uint64_t footprint,
                                         std::uint64_t seed) {
  return trace::SyntheticTraceGenerator(
             trace::WebServerWorkload(footprint, kWebRequests, seed))
      .Generate();
}

Rep RunWebReplay(std::uint64_t seed, Mode mode) {
  Rep rep;
  const auto t0 = Clock::now();
  ssd::Ssd ssd(WebConfig(ssd::FtlKind::kPpb));
  const std::uint64_t footprint = ssd.LogicalBytes() / 10 * 8;
  const auto t_gen = Clock::now();
  const std::vector<trace::TraceRecord> records = WebTrace(footprint, seed);
  const double generate_s = SecondsSince(t_gen);
  ssd::ExperimentRunner runner(ssd);
  const auto t_prefill = Clock::now();
  const Us base = runner.Prefill(footprint);
  rep.layers["ssd.prefill_s"] = SecondsSince(t_prefill);
  rep.setup_s = SecondsSince(t0);
  rep.layers["trace.generate_s"] = generate_s;
  rep.layers["trace.generate_share"] = generate_s / rep.setup_s;

  host::LoadStats load;
  load.start_us = base;
  const host::UtilizationProbe probe(ssd.target());
  if (mode == Mode::kReference) {
    const auto t1 = Clock::now();
    const ssd::ExperimentResult r = runner.Replay(records, "web_replay_ppb");
    rep.timed_s = SecondsSince(t1);
    rep.window_s = {rep.timed_s};
    load.read_latency = r.read_latency;
    load.write_latency = r.write_latency;
    load.end_us = r.sim_end_us;
  } else {
    // ExperimentRunner::Replay, record for record.
    const bool traced = mode == Mode::kTraced;
    std::int64_t read_ns = 0;
    std::int64_t write_ns = 0;
    Us clock = base;
    const std::uint64_t logical = ssd.LogicalBytes();
    std::uint64_t done = 0;
    WindowClock timer(rep, records.size());
    for (const trace::TraceRecord& rec : records) {
      timer.At(done++);
      const Us arrival = std::max(base + rec.timestamp_us, clock);
      std::uint64_t offset = rec.offset_bytes;
      std::uint64_t size = rec.size_bytes;
      if (offset >= logical) offset %= logical;
      if (offset + size > logical) size = logical - offset;
      if (size == 0) continue;
      const std::int64_t a = traced ? NowNs() : 0;
      if (rec.op == trace::OpType::kRead) {
        const ftl::RequestResult r = ssd.Read(offset, size, arrival);
        if (traced) read_ns += NowNs() - a;
        load.read_latency.Add(r.LatencyUs());
        clock = std::max(clock, r.completion_us);
      } else {
        const ftl::RequestResult r = ssd.Write(offset, size, arrival);
        if (traced) write_ns += NowNs() - a;
        load.write_latency.Add(r.LatencyUs());
        clock = std::max(clock, r.completion_us);
      }
    }
    timer.Finish();
    load.end_us = clock;
    if (traced) {
      const double reads = static_cast<double>(load.read_latency.count());
      const double writes = static_cast<double>(load.write_latency.count());
      rep.layers["ssd.read_ns"] = reads > 0 ? read_ns / reads : 0.0;
      rep.layers["ssd.write_ns"] = writes > 0 ? write_ns / writes : 0.0;
      rep.layers["ssd.calls"] = reads + writes;
      rep.layers["ssd.call_share"] =
          static_cast<double>(read_ns + write_ns) / 1e9 / rep.timed_s;
    }
  }
  probe.Finish(load);

  // Conservation: every record the replay could place completed once.
  std::uint64_t expect_reads = 0;
  std::uint64_t expect_writes = 0;
  for (const trace::TraceRecord& rec : records) {
    const std::uint64_t offset = rec.offset_bytes % ssd.LogicalBytes();
    if (std::min(rec.size_bytes, ssd.LogicalBytes() - offset) == 0) continue;
    (rec.op == trace::OpType::kRead ? expect_reads : expect_writes)++;
  }
  CheckConserved(rep, "reads", expect_reads, load.read_latency.count());
  CheckConserved(rep, "writes", expect_writes, load.write_latency.count());

  rep.requests = load.read_latency.count() + load.write_latency.count();
  rep.sim.emplace_back("requests", static_cast<double>(rep.requests));
  AddLatency(rep.sim, "read", load.read_latency);
  AddLatency(rep.sim, "write", load.write_latency);
  AddUtilization(rep.sim, load);
  AddDevice(rep.sim, ssd);
  return rep;
}

// --- randread_qd128, mixed_gc_qd16 -------------------------------------------

struct ClosedLoopSpec {
  ssd::FtlKind kind;
  std::uint64_t device_bytes;
  std::uint32_t prefill_pct;
  std::uint32_t footprint_pct;
  ftl::GcRouting gc_routing;
  host::ClosedLoopGenerator::Config load;  ///< seed filled per run
};

ClosedLoopSpec RandReadSpec() {
  ClosedLoopSpec s{ssd::FtlKind::kConventional, 1ull << 30, 80, 80,
                   ftl::GcRouting::kInline, {}};
  s.load.queue_depth = 128;
  s.load.total_requests = 600'000;
  s.load.read_fraction = 1.0;
  s.load.request_bytes = 4 * kKiB;
  return s;
}

ClosedLoopSpec MixedGcSpec() {
  ClosedLoopSpec s{ssd::FtlKind::kPpb, 512ull << 20, 85, 60,
                   ftl::GcRouting::kScheduled, {}};
  s.load.queue_depth = 16;
  s.load.total_requests = 1'000'000;
  s.load.read_fraction = 0.5;
  s.load.request_bytes = 16 * kKiB;
  return s;
}

/// ClosedLoopGenerator, call for call; when traced, with a span around
/// every HostInterface::Submit and EventQueue::Step.
class BenchClosedLoop {
 public:
  BenchClosedLoop(host::HostInterface& host,
                  const host::ClosedLoopGenerator::Config& config, bool traced)
      : host_(host), config_(config), rng_(config.seed), traced_(traced) {}

  host::LoadStats Run(Rep& rep) {
    host_.ResetStats();
    host::LoadStats stats;
    stats.start_us = host_.queue().Now();
    const host::UtilizationProbe probe(host_.ssd().target());
    WindowClock timer(rep, config_.total_requests);
    const std::uint64_t initial = std::min<std::uint64_t>(
        config_.queue_depth, config_.total_requests);
    for (std::uint64_t i = 0; i < initial; ++i) SubmitNext();
    std::int64_t step_ns = 0;
    std::uint64_t events = 0;
    while (true) {
      const std::int64_t a = traced_ ? NowNs() : 0;
      in_step_ = true;
      const bool fired = host_.queue().Step();
      in_step_ = false;
      if (traced_) step_ns += NowNs() - a;
      if (!fired) break;
      ++events;
      timer.At(host_.stats().completed);
    }
    timer.Finish();
    stats.end_us = host_.queue().Now();
    stats.requests = host_.stats().completed;
    stats.read_latency = host_.stats().read_latency;
    stats.write_latency = host_.stats().write_latency;
    probe.Finish(stats);

    if (traced_) {
      const double submits = static_cast<double>(issued_);
      const double step_self_ns = static_cast<double>(step_ns - nested_ns_);
      rep.layers["host.submit_ns"] = submit_ns_ / submits;
      rep.layers["host.submit_s"] = submit_ns_ / 1e9;
      rep.layers["host.submit_share"] = submit_ns_ / 1e9 / rep.timed_s;
      rep.layers["host.ready_depth_mean"] = depth_sum_ / submits;
      rep.layers["sim.events"] = static_cast<double>(events);
      rep.layers["sim.step_self_ns"] =
          events > 0 ? step_self_ns / static_cast<double>(events) : 0.0;
      rep.layers["sim.step_self_share"] = step_self_ns / 1e9 / rep.timed_s;
    }
    return stats;
  }

  std::uint64_t reads() const { return reads_; }
  std::uint64_t writes() const { return issued_ - reads_; }

 private:
  void SubmitNext() {
    if (issued_ >= config_.total_requests) return;
    ++issued_;
    const trace::OpType op = rng_.Bernoulli(config_.read_fraction)
                                 ? trace::OpType::kRead
                                 : trace::OpType::kWrite;
    if (op == trace::OpType::kRead) ++reads_;
    const std::uint64_t slots = config_.footprint_bytes / config_.request_bytes;
    const std::uint64_t offset =
        rng_.UniformBelow(slots) * config_.request_bytes;
    if (!traced_) {
      host_.Submit(op, offset, config_.request_bytes,
                   [this](const host::HostCompletion&) { SubmitNext(); });
      return;
    }
    depth_sum_ += static_cast<double>(host_.scheduler().ReadyCount());
    const std::int64_t a = NowNs();
    host_.Submit(op, offset, config_.request_bytes,
                 [this](const host::HostCompletion&) { SubmitNext(); });
    const std::int64_t d = NowNs() - a;
    submit_ns_ += static_cast<double>(d);
    if (in_step_) nested_ns_ += d;
  }

  host::HostInterface& host_;
  host::ClosedLoopGenerator::Config config_;
  util::Xoshiro256StarStar rng_;
  bool traced_;
  std::uint64_t issued_ = 0;
  std::uint64_t reads_ = 0;
  bool in_step_ = false;
  double submit_ns_ = 0.0;
  std::int64_t nested_ns_ = 0;
  double depth_sum_ = 0.0;
};

Rep RunClosedLoop(const ClosedLoopSpec& spec, std::uint64_t seed,
                  Mode mode) {
  Rep rep;
  const auto t0 = Clock::now();
  ssd::SsdConfig cfg = ssd::ScaledConfig(spec.kind, spec.device_bytes,
                                         16 * kKiB, /*speed_ratio=*/2.0);
  cfg.timing_mode = ftl::TimingMode::kQueued;
  cfg.ftl.gc_routing = spec.gc_routing;
  ssd::Ssd ssd(cfg);
  ssd::ExperimentRunner runner(ssd);
  const auto t_prefill = Clock::now();
  const Us prefill_end =
      runner.Prefill(ssd.LogicalBytes() / 100 * spec.prefill_pct);
  rep.layers["ssd.prefill_s"] = SecondsSince(t_prefill);
  host::HostConfig host_cfg;
  host_cfg.queue_capacity =
      std::max(host_cfg.queue_capacity, spec.load.queue_depth);
  host::HostInterface host(ssd, host_cfg);
  host.AdvanceTo(prefill_end);
  host::ClosedLoopGenerator::Config load_cfg = spec.load;
  load_cfg.footprint_bytes = ssd.LogicalBytes() / 100 * spec.footprint_pct;
  load_cfg.seed = seed;
  rep.setup_s = SecondsSince(t0);
  rep.layers["trace.generate_share"] = 0.0;  // drawn inline while running

  host::LoadStats load;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  if (mode == Mode::kReference) {
    host::ClosedLoopGenerator generator(host, load_cfg);
    const auto t1 = Clock::now();
    load = generator.Run();
    rep.timed_s = SecondsSince(t1);
    rep.window_s = {rep.timed_s};
    for (const trace::TraceRecord& rec : generator.issued()) {
      (rec.op == trace::OpType::kRead ? reads : writes)++;
    }
  } else {
    BenchClosedLoop loop(host, load_cfg, mode == Mode::kTraced);
    load = loop.Run(rep);
    reads = loop.reads();
    writes = loop.writes();
  }
  CheckConserved(rep, "requests", load_cfg.total_requests,
                 host.stats().completed);
  CheckConserved(rep, "reads", reads, load.read_latency.count());
  CheckConserved(rep, "writes", writes, load.write_latency.count());

  rep.requests = load.requests;
  rep.sim.emplace_back("requests", static_cast<double>(load.requests));
  AddLatency(rep.sim, "read", load.read_latency);
  AddLatency(rep.sim, "write", load.write_latency);
  AddUtilization(rep.sim, load);
  rep.sim.emplace_back("host.backlogged", host.stats().backlogged);
  rep.sim.emplace_back("host.txns_dispatched", host.TxnsDispatched());
  rep.sim.emplace_back("host.peak_in_flight", host.PeakDeviceInFlight());
  const host::IoScheduler& sched = host.scheduler();
  rep.sim.emplace_back("sched.gc_dispatched", sched.GcDispatchedCount());
  rep.sim.emplace_back("sched.read_preemptions", sched.ReadPreemptionsOfGc());
  rep.sim.emplace_back("sched.aged_write_dispatches",
                       sched.AgedWriteDispatches());
  AddDevice(rep.sim, ssd);
  return rep;
}

Rep RunRandRead(std::uint64_t seed, Mode mode) {
  return RunClosedLoop(RandReadSpec(), seed, mode);
}

Rep RunMixedGc(std::uint64_t seed, Mode mode) {
  return RunClosedLoop(MixedGcSpec(), seed, mode);
}

// --- cluster_failover --------------------------------------------------------

constexpr std::uint32_t kClusterWorkers = 2;

/// 8 + 1 spare x 64 MiB devices, 1M Zipf(0.9) users, 40k IOPS open loop
/// (90 % 16 KiB reads) over 96 x 250 ms epochs; device 1 is lost at 0.3 s.
/// The seed is set on the parsed spec (spec and router, as Parse would)
/// so all 64 bits survive; JSON numbers are doubles.
constexpr const char* kClusterSpec = R"({
  "cluster": "cluster_failover",
  "workers": 2,
  "fleet": {"devices": 8, "spares": 1},
  "router": {"shards": 128, "replicas": 2, "vnodes": 64, "seed": 17},
  "device": {"device_bytes": 67108864, "prefill_pct": 75},
  "users": {"count": 1000000, "zipf_theta": 0.9},
  "workload": {"rate_iops": 40000, "read_fraction": 0.9,
               "request_bytes": 16384, "epochs": 96, "epoch_us": 250000,
               "timeout_us": 1000000},
  "rebalance": {"policy": "on_observed", "migration_chunk": 16384,
                "rebuild_bytes_per_sec": 8388608},
  "faults": [{"device": 1, "kind": "device", "at_us": 300000}]
})";

Rep RunCluster(std::uint64_t seed, Mode mode) {
  Rep rep;
  const auto t0 = Clock::now();
  cluster::ClusterSpec spec = cluster::ClusterSpec::Parse(kClusterSpec);
  spec.seed = seed;
  cluster::ClusterSim sim(spec);
  rep.setup_s = SecondsSince(t0);
  rep.layers["trace.generate_share"] = 0.0;  // arrivals drawn inside Run

  const double cpu0 = CpuSeconds();
  const auto t1 = Clock::now();
  const cluster::ClusterResult result =
      sim.Run(mode == Mode::kReference ? 1 : 0);
  rep.timed_s = SecondsSince(t1);
  rep.window_s = {rep.timed_s};
  const double cpu_s = CpuSeconds() - cpu0;
  const std::string deterministic = result.DeterministicJson().Dump();

  util::LatencyStats read;
  util::LatencyStats write;
  std::uint64_t arrivals = 0;
  std::uint64_t timeouts = 0;
  for (const cluster::EpochSummary& e : result.epochs) {
    read.Merge(e.read);
    write.Merge(e.write);
    arrivals += e.arrivals;
    timeouts += e.timeouts;
  }
  // Every user arrival ends as exactly one latency sample: served, or
  // charged the SLA timeout.
  CheckConserved(rep, "user requests", arrivals, read.count() + write.count());

  if (mode == Mode::kTraced) {
    rep.layers["cluster.run_s"] = rep.timed_s;
    rep.layers["cluster.cpu_s"] = cpu_s;
    rep.layers["cluster.cpu_util"] = cpu_s / (rep.timed_s * kClusterWorkers);
    cluster::ClusterSim serial(spec);
    const auto t2 = Clock::now();
    const cluster::ClusterResult serial_result = serial.Run(1);
    const double serial_s = SecondsSince(t2);
    rep.layers["cluster.serial_run_s"] = serial_s;
    rep.layers["cluster.parallel_speedup"] = serial_s / rep.timed_s;
    if (serial_result.DeterministicJson().Dump() != deterministic) {
      rep.errors.push_back(
          "DeterministicJson() differs between 1 and 2 workers");
    }
    // The one prefill ClusterSim::Run performs (device 0; the rest of the
    // fleet restores its snapshot), timed on a device of the same shape.
    ssd::Ssd device(spec.device.device);
    ssd::ExperimentRunner prefiller(device);
    const auto t3 = Clock::now();
    prefiller.Prefill(device.LogicalBytes() * spec.device.prefill_pct / 100,
                      spec.device.prefill_chunk_bytes);
    rep.layers["ssd.prefill_s"] = SecondsSince(t3);
  }

  rep.requests = arrivals;
  rep.sim.emplace_back("requests", static_cast<double>(arrivals));
  AddLatency(rep.sim, "read", read);
  AddLatency(rep.sim, "write", write);
  rep.sim.emplace_back(
      "makespan_us", static_cast<double>(spec.epochs) *
                         static_cast<double>(spec.epoch_us));
  rep.sim.emplace_back("cluster.timeouts", static_cast<double>(timeouts));
  rep.sim.emplace_back("cluster.shards_moved",
                       static_cast<double>(result.shards_moved));
  rep.sim.emplace_back("cluster.migration_ops",
                       static_cast<double>(result.migration_ops));
  rep.sim.emplace_back("cluster.devices_failed",
                       static_cast<double>(result.devices_failed));
  AddDigest(rep.sim, "cluster.deterministic_json", deterministic);
  return rep;
}

}  // namespace

const std::vector<WorkloadInfo>& Workloads() {
  static const std::vector<WorkloadInfo> kAll = {
      {"web_replay_ppb", 2, RunWebReplay},
      {"randread_qd128", 1, RunRandRead},
      {"mixed_gc_qd16", 99, RunMixedGc},
      {"cluster_failover", 17, RunCluster},
  };
  return kAll;
}

std::map<std::string, double> ReferenceAccuracy(const std::string& workload,
                                                const SimOutputs& ppb,
                                                std::uint64_t seed) {
  if (workload != "web_replay_ppb") return {};
  ssd::Ssd probe(WebConfig(ssd::FtlKind::kConventional));
  const std::uint64_t footprint = probe.LogicalBytes() / 10 * 8;
  const ssd::ExperimentResult conv =
      ssd::RunExperiment(WebConfig(ssd::FtlKind::kConventional),
                         WebTrace(footprint, seed), footprint, "conventional");
  double ppb_read_us = 0.0;
  double ppb_write_us = 0.0;
  for (const auto& [key, value] : ppb) {
    if (key == "read.total_us") ppb_read_us = value;
    if (key == "write.total_us") ppb_write_us = value;
  }
  return {{"model.read_enhancement",
           ssd::Enhancement(conv.read_latency.total_us(), ppb_read_us)},
          {"model.write_enhancement",
           ssd::Enhancement(conv.write_latency.total_us(), ppb_write_us)}};
}

}  // namespace perfbench
