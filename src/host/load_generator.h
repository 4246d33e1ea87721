// Load generators driving the host interface.
//
// ClosedLoopGenerator keeps a fixed number of requests in flight (the
// classic fio/MQSim queue-depth-driven closed loop): every completion
// immediately submits the next request, so measured IOPS tracks what the
// device sustains at that concurrency.  MultiTenantGenerator runs several
// such loops (or paced open-loop arrival processes) side by side.  Trace
// arrivals replay open-loop through replay::ReplayEngine.
//
// The generators expect an idle host interface, reset its stats, and
// report per-run aggregates (ClosedLoopGenerator adds per-resource
// utilization: busy-time deltas over the run's makespan).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "host/host_interface.h"
#include "trace/trace.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/types.h"

namespace ctflash::host {

/// Aggregates for one generator run.
struct LoadStats {
  std::uint64_t requests = 0;
  Us start_us = 0;
  Us end_us = 0;
  util::LatencyStats read_latency;
  util::LatencyStats write_latency;
  /// Busy-time share of the run's makespan, averaged over pool members.
  double die_utilization = 0.0;
  double channel_utilization = 0.0;
  /// Cell-op duty summed over each chip's dies (the chip timelines are
  /// busy-time accounting): with multiple dies per chip overlapping, this
  /// exceeds 1.0 — it measures die-parallelism extracted per chip, not a
  /// share of the makespan.
  double chip_utilization = 0.0;

  Us MakespanUs() const { return end_us - start_us; }
  double Iops() const {
    return MakespanUs() == 0
               ? 0.0
               : static_cast<double>(requests) * 1e6 /
                     static_cast<double>(MakespanUs());
  }
  /// Read + write latencies merged (percentile reporting).
  util::LatencyStats AllLatency() const {
    util::LatencyStats all = read_latency;
    all.Merge(write_latency);
    return all;
  }
};

class ClosedLoopGenerator {
 public:
  struct Config {
    std::uint32_t queue_depth = 8;
    std::uint64_t total_requests = 10'000;
    double read_fraction = 1.0;
    std::uint64_t request_bytes = 16 * kKiB;
    /// Address span to draw uniform random request-aligned offsets from;
    /// 0 = the device's whole logical space.
    std::uint64_t footprint_bytes = 0;
    std::uint64_t seed = 1;

    void Validate() const;
  };

  ClosedLoopGenerator(HostInterface& host, const Config& config);

  /// Submits `queue_depth` requests, then one per completion until
  /// `total_requests` have been issued; drains and reports.
  LoadStats Run();

  /// The exact request stream issued (for determinism and sync-path
  /// equivalence checks); timestamps are submission times.
  const std::vector<trace::TraceRecord>& issued() const { return issued_; }

 private:
  void SubmitNext();

  HostInterface& host_;
  Config config_;
  util::Xoshiro256StarStar rng_;
  std::uint64_t issued_count_ = 0;
  std::vector<trace::TraceRecord> issued_;
};

// --- multi-tenant load ------------------------------------------------------

/// One tenant's arrival process for MultiTenantGenerator: either a closed
/// loop at `queue_depth` (interarrival_us == 0) or paced open-loop arrivals
/// every `interarrival_us` (offered load fixed regardless of completions —
/// the shape that exposes noisy-neighbor interference).  Offsets are drawn
/// request-aligned and uniform from the tenant's own working-set range
/// [footprint_base_bytes, footprint_base_bytes + footprint_bytes), so
/// tenants can be given disjoint (or deliberately overlapping) data.
struct TenantWorkload {
  qos::TenantId tenant = 0;
  std::uint32_t queue_depth = 8;   ///< closed-loop arm
  Us interarrival_us = 0;          ///< > 0: paced open-loop arm
  std::uint64_t total_requests = 1'000;
  double read_fraction = 1.0;
  std::uint64_t request_bytes = 16 * kKiB;
  std::uint64_t footprint_base_bytes = 0;
  std::uint64_t footprint_bytes = 0;  ///< 0 = through end of device
  std::uint64_t seed = 1;

  void Validate() const;
};

/// Per-tenant results of one multi-tenant run; `load` carries the tenant's
/// own request latencies (end-to-end, including any rate-limit pacing) and
/// IOPS over the tenant's first-submission..last-completion span.
struct TenantLoadStats {
  qos::TenantId tenant = 0;
  LoadStats load;
};

/// Drives several tenants' arrival processes concurrently through one host
/// interface and reports per-tenant aggregates.  With HostConfig::qos
/// configured every process submits as its tenant; on a tenant-less host
/// the processes share the untagged Submit/SubmitAt path (nothing
/// arbitrates between them — the noisy-neighbor baseline) and
/// TenantWorkload::tenant only labels the result.  The device-wide view
/// (utilization, per-queue breakdown, tenant-table telemetry) stays
/// readable on the host interface afterwards.
class MultiTenantGenerator {
 public:
  MultiTenantGenerator(HostInterface& host,
                       std::vector<TenantWorkload> workloads);

  /// Submits every tenant's process from an idle host, drains, reports in
  /// workload order.
  std::vector<TenantLoadStats> Run();

 private:
  struct TenantRun {
    TenantWorkload workload;
    util::Xoshiro256StarStar rng;
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
    Us first_submit_us = 0;
    Us last_completion_us = 0;
    util::LatencyStats read_latency;
    util::LatencyStats write_latency;
  };

  void SubmitNext(std::size_t idx);         ///< closed-loop chain
  /// Submits one record for runs_[idx] now, or at `at` when given.
  void SubmitRecord(std::size_t idx, const trace::TraceRecord& record,
                    std::optional<Us> at);
  void OnComplete(std::size_t idx, const HostCompletion& completion);
  trace::TraceRecord NextRecord(TenantRun& run);

  HostInterface& host_;
  std::vector<TenantRun> runs_;
};

/// Snapshot/delta helper shared by the generators: utilization of the
/// device's resource pools between two points in simulated time.
struct UtilizationProbe {
  explicit UtilizationProbe(const ftl::FlashTarget& target);

  /// Fills the utilization fields of `stats` for [stats.start_us,
  /// stats.end_us] relative to the construction-time snapshot.
  void Finish(LoadStats& stats) const;

 private:
  const ftl::FlashTarget& target_;
  Us die_busy_0_;
  Us channel_busy_0_;
  Us chip_busy_0_;
};

}  // namespace ctflash::host
