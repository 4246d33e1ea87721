// Trace-replay experiment harness.
//
// Replays a block trace against an Ssd and aggregates the metrics the
// paper's figures report: cumulative/mean read latency, cumulative/mean
// write latency, and erased-block count.  Replay is closed-loop (a request
// is issued at max(its trace timestamp, previous completion)), which keeps
// per-request latency device-bound and deterministic; open-loop replay
// (timestamps only) is available for queueing studies.  Both run on
// replay::ReplayEngine's direct mode, the loop the campaign runner's
// closed-loop `replay` workloads use too.
//
// The standard protocol, matching trace-driven FTL evaluation practice, is:
//   1. Prefill: sequentially write the trace's footprint so every read hits
//      mapped data and GC pressure is realistic;
//   2. reset all counters;
//   3. replay the trace and report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ssd/ssd.h"
#include "trace/trace.h"
#include "util/stats.h"
#include "util/types.h"

namespace ctflash::ssd {

struct ExperimentResult {
  std::string ftl_name;
  std::string workload_name;
  util::LatencyStats read_latency;
  util::LatencyStats write_latency;
  std::uint64_t erase_count = 0;
  std::uint64_t gc_page_copies = 0;
  std::uint64_t host_read_pages = 0;
  std::uint64_t host_write_pages = 0;
  double waf = 1.0;
  Us sim_end_us = 0;

  double TotalReadSeconds() const { return read_latency.total_seconds(); }
  double TotalWriteSeconds() const { return write_latency.total_seconds(); }
};

/// Relative enhancement of `ours` over `base` on a total-latency metric:
/// (base - ours) / base, i.e. +0.10 means 10 % faster.
double Enhancement(double base_total, double ours_total);

class ExperimentRunner {
 public:
  explicit ExperimentRunner(Ssd& ssd);

  /// Sequentially writes `bytes` (clipped to logical capacity) in
  /// `chunk_bytes` requests, then resets all statistics.  Returns the
  /// simulated time consumed by the prefill.
  Us Prefill(std::uint64_t bytes, std::uint64_t chunk_bytes = 256 * kKiB);

  /// Closed-loop replay.  Requests beyond the logical capacity are clipped
  /// (wrapped traces) — zero-length results are skipped.
  ExperimentResult Replay(const std::vector<trace::TraceRecord>& records,
                          const std::string& workload_name);

  /// Open-loop replay: every request issues at its trace timestamp
  /// regardless of completions.  With TimingMode::kQueued this exposes
  /// queueing delay under bursts (a latency-vs-load study); see
  /// src/replay/replay_engine.h for the host-interface-driven variant that
  /// exposes queueing, scheduling, and QoS.
  ExperimentResult ReplayOpenLoop(const std::vector<trace::TraceRecord>& records,
                                  const std::string& workload_name);

 private:
  ExperimentResult Run(const std::vector<trace::TraceRecord>& records,
                       const std::string& workload_name, bool closed_loop);

  Ssd& ssd_;
  Us clock_us_ = 0;  ///< completion time of the latest request
};

/// Convenience one-shot: build an Ssd from `config`, prefill `footprint`,
/// replay `records`, return the result.
ExperimentResult RunExperiment(const SsdConfig& config,
                               const std::vector<trace::TraceRecord>& records,
                               std::uint64_t footprint_bytes,
                               const std::string& workload_name);

}  // namespace ctflash::ssd
