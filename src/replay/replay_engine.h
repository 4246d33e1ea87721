// ReplayEngine: drives a trace (plan or bare source) against the simulated
// device, with streaming admission and windowed telemetry.
//
// Two drive modes:
//
//  * Host mode — constructed over a host::HostInterface.  Every record
//    becomes an arrival event at its (warped) timestamp and is submitted
//    through HostInterface::SubmitAs / Submit, so queue backpressure,
//    out-of-order page scheduling, scheduled GC, and the multi-tenant QoS
//    engine all apply.  Tenant-tagged records from a ReplayPlan route to
//    their tenant's submission queues (SubmitAtAs semantics); per-tenant
//    results are read back from the qos::TenantTable attribution.  This is
//    the mode the mixed-tenant and open-loop saturation studies run on.
//
//  * Direct mode — constructed over an ssd::Ssd.  Each record issues a
//    synchronous FTL request in record order, open-loop at its timestamp
//    (the seed ExperimentRunner::ReplayOpenLoop semantics) or, with
//    `closed_loop`, at max(its timestamp, the latest completion) — the
//    service-time protocol the paper's figures use
//    (ExperimentRunner::Replay).  ssd::ExperimentRunner runs on this mode.
//
// Either way, records are pulled one at a time: replay memory is
// O(source window), never O(trace).  Records whose timestamps run backward
// (out-of-order MSR arrivals) are clamped to the current simulated time,
// preserving record order.
//
// Telemetry: total and per-window (config.window_us) arrival/completion
// counts, IOPS, read/write p50/p99 and end-of-window queue depth, plus the
// full latency histograms for CDF extraction (latency_cdf.h) and
// conservation counters (pulled == submitted == completed when the run
// drains).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "host/host_interface.h"
#include "replay/replay_plan.h"
#include "replay/trace_source.h"
#include "ssd/ssd.h"
#include "util/stats.h"
#include "util/types.h"

namespace ctflash::replay {

struct ReplayEngineConfig {
  /// Telemetry interval; 0 disables windowed telemetry.
  Us window_us = 0;
  /// Direct mode only: simulated time of trace t=0 (host mode starts at
  /// the host queue's current time).
  Us start_us = 0;
  /// Direct mode only: issue each record at max(its timestamp, the latest
  /// completion) instead of at its timestamp.
  bool closed_loop = false;

  void Validate() const;
};

/// One telemetry interval ([start_us, end_us)).
struct ReplayWindow {
  Us start_us = 0;
  Us end_us = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t completions = 0;
  double iops = 0.0;  ///< completions over the window
  double read_p50_us = 0.0;
  double read_p99_us = 0.0;
  double write_p50_us = 0.0;
  double write_p99_us = 0.0;
  /// Host-mode queue depth (admitted, incomplete) when the window closed.
  std::uint32_t outstanding_end = 0;
};

/// Per-tenant slice of a host-mode replay, read from the QoS engine's
/// attribution (qos::TenantTable::TenantStats).
struct TenantReplayResult {
  qos::TenantId tenant = qos::kNoTenant;
  std::string name;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t throttled = 0;
  util::LatencyStats read_latency;
  util::LatencyStats write_latency;
  Us first_submit_us = 0;
  Us last_completion_us = 0;

  /// Completions per second over the tenant's own active span.
  double Iops() const {
    const Us span = last_completion_us - first_submit_us;
    return span <= 0 ? 0.0
                     : static_cast<double>(completed) * 1e6 /
                           static_cast<double>(span);
  }
};

struct ReplayResult {
  // Conservation: pulled records all submit; a drained run completes all.
  std::uint64_t pulled = 0;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  /// Direct mode: records the seed harness clipped away entirely (no flash
  /// work, not counted in submitted/completed).
  std::uint64_t dropped = 0;

  Us start_us = 0;
  Us end_us = 0;
  Us max_completion_us = 0;
  util::LatencyStats read_latency;
  util::LatencyStats write_latency;
  std::vector<ReplayWindow> windows;
  std::vector<TenantReplayResult> tenants;  ///< host mode with tenants
  std::vector<SourceCounters> sources;      ///< plan runs only

  Us MakespanUs() const { return end_us - start_us; }
  double Iops() const {
    return MakespanUs() <= 0 ? 0.0
                             : static_cast<double>(completed) * 1e6 /
                                   static_cast<double>(MakespanUs());
  }
  util::LatencyStats AllLatency() const {
    util::LatencyStats all = read_latency;
    all.Merge(write_latency);
    return all;
  }
};

class ReplayEngine {
 public:
  /// Host mode; the host interface must be idle at Run().  Run() resets
  /// the host's stats (and tenant stats) like the load generators do.
  ReplayEngine(host::HostInterface& host, const ReplayEngineConfig& config);

  /// Direct mode (synchronous FTL issue, open- or closed-loop).
  ReplayEngine(ssd::Ssd& ssd, const ReplayEngineConfig& config);

  ReplayEngine(const ReplayEngine&) = delete;
  ReplayEngine& operator=(const ReplayEngine&) = delete;

  /// Replays a merged tenant-tagged plan (resets it first).
  ReplayResult Run(ReplayPlan& plan);

  /// Replays a bare source as a single untagged stream (resets it first).
  ReplayResult Run(TraceSource& source);

 private:
  using Puller = std::function<std::optional<TaggedRecord>()>;

  ReplayResult RunPuller(const Puller& pull);
  /// Direct mode: issues every record in order, synchronously; returns the
  /// last arrival time.
  Us RunDirect();
  /// Host-mode arrival event: submit `staged`, pull the next record, chain
  /// the next arrival event.
  void OnArrival(Us now);
  void Submit(const TaggedRecord& record, Us now);
  void OnComplete(const TaggedRecord& record, Us latency_us,
                  Us completion_us);
  /// Closes telemetry windows up to the one containing `now`.
  void WindowAdvance(Us now);
  void FlushWindow(Us close_time);

  host::HostInterface* host_ = nullptr;  ///< null in direct mode
  ssd::Ssd* ssd_ = nullptr;
  ReplayEngineConfig config_;

  // Per-run state.
  Puller pull_;
  std::optional<TaggedRecord> staged_;
  ReplayResult result_;
  util::LatencyStats window_read_;
  util::LatencyStats window_write_;
  std::uint64_t window_arrivals_ = 0;
  std::uint64_t window_completions_ = 0;
  Us window_start_ = 0;
};

}  // namespace ctflash::replay
