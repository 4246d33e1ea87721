// Shared harness for the figure-regeneration benches.
//
// Every bench replays the same deterministic synthetic traces (media-server
// and web/SQL-server stand-ins, see src/trace/synthetic.h) against a scaled
// device that keeps the paper's Table 1 block shape and timing, once per FTL
// variant, and prints the rows/series the corresponding paper figure reports.
//
// Command-line knobs (all optional):
//   --device <bytes|"4GiB">   device capacity        (default 4 GiB)
//   --requests <n>            trace length           (default per workload)
//   --quick                   1/10th-length traces for smoke runs
//   --media-trace <csv>       replay a real MSR CSV instead of the media
//   --web-trace <csv>         (resp. web) synthetic stand-in; offsets are
//                             wrapped into the device's logical space
//   --trace-file <csv>        one real MSR CSV for BOTH workload slots
//                             (sets --media-trace and --web-trace; also the
//                             sample-smoke input of bench_trace_replay)
//   --tenant-trace <t>=<csv>[@host]
//                             repeatable: tenant t replays this MSR CSV in
//                             the multi-tenant benches (optional @host
//                             keeps only that Hostname's records when one
//                             combined CSV carries several servers)
//   --qd-requests <n>         closed-loop requests (tenant/trace-replay benches)
//   --json <path>             machine-readable results (benches that emit it)
//   --trace-out <path>        Chrome/Perfetto trace JSON (benches that trace)
//   --metrics-out <path>      MetricsRegistry JSON dump (benches that trace)
//   --metrics-epoch-us <n>    tracer time-series epoch length (0 = off)
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "campaign/snapshot.h"
#include "replay/replay_plan.h"
#include "ssd/experiment.h"
#include "trace/synthetic.h"

namespace ctflash::bench {

/// Snapshot-shared prefill for benches that build several same-shape
/// devices (FTL-variant and GC-routing series prefill identically — the
/// snapshot shape key deliberately excludes gc_routing).  The first
/// Prefill() of a shape runs the real sequential prefill and snapshots the
/// device; every later same-shape call restores the snapshot instead.
/// Restored devices are bit-identical to straight-through prefills
/// (bench_campaign asserts this), so series numbers do not change — only
/// the wall clock does.  Single-threaded (benches run series serially).
class PrefillSnapshotCache {
 public:
  /// Prefills `ssd` with `bytes` sequential bytes (restoring a cached
  /// snapshot when this shape+bytes was prefilled before) and returns the
  /// simulated prefill-end time, exactly like ExperimentRunner::Prefill.
  Us Prefill(ssd::Ssd& ssd, std::uint64_t bytes,
             std::uint64_t chunk_bytes = 256 * kKiB);

  std::uint64_t distinct_prefills() const { return distinct_prefills_; }
  std::uint64_t restores() const { return restores_; }
  /// Wall clock actually spent prefilling (the cache misses).
  double prefill_wall_ms() const { return prefill_wall_ms_; }
  /// Wall clock the restores avoided: the cached prefill's cost minus the
  /// restore's own cost, summed over hits.
  double saved_wall_ms() const { return saved_wall_ms_; }

  /// JSON fragment for bench result files:
  /// {"distinct_prefills": n, "restores": n, "prefill_wall_ms": x,
  ///  "saved_wall_ms": x} (no surrounding braces caller concerns).
  std::string JsonObject() const;

 private:
  struct Entry {
    campaign::DeviceState state;
    double wall_ms = 0.0;  ///< cost of the prefill this entry replaces
  };
  std::map<std::string, Entry> cache_;
  std::uint64_t distinct_prefills_ = 0;
  std::uint64_t restores_ = 0;
  double prefill_wall_ms_ = 0.0;
  double saved_wall_ms_ = 0.0;
};

/// One --tenant-trace assignment: tenant `tenant` replays the MSR CSV at
/// `path`, optionally keeping only `hostname`'s records.
struct TenantTraceOption {
  std::uint32_t tenant = 0;
  std::string path;
  std::string hostname;  ///< "" = all records
};

/// Adds one streaming MSR CSV source per --tenant-trace spec to `plan`:
/// wrap-remapped into its own slice of `logical_bytes` (spec i gets slice
/// i of specs.size(), so working sets stay disjoint), hostname-filtered,
/// tagged with its tenant.  Throws std::runtime_error for a tenant id at
/// or beyond `tenant_count`.  Returns the source name chosen for each
/// spec (its hostname, or "tenant<t>") — index-aligned with `specs`, NOT
/// with tenant ids (several specs may feed one tenant).
std::vector<std::string> AddTenantTraceSources(
    replay::ReplayPlan& plan, const std::vector<TenantTraceOption>& specs,
    std::uint64_t logical_bytes, std::size_t tenant_count);

struct BenchOptions {
  std::uint64_t device_bytes = 4ull << 30;
  std::uint64_t web_requests = 1'200'000;
  std::uint64_t media_requests = 600'000;
  std::string media_trace_path;  ///< real MSR CSV overriding the stand-in
  std::string web_trace_path;
  std::string trace_file;        ///< --trace-file (also fills the two above)
  std::vector<TenantTraceOption> tenant_traces;
  std::uint64_t qd_requests = 20'000;
  std::string json_path;              ///< "" = the bench's default file name
  /// --trace-out: where tracing benches write the Chrome/Perfetto trace
  /// JSON ("" = no trace export).  Shared by every bench via the harness.
  std::string trace_out_path;
  /// --metrics-out: where tracing benches dump their obs::MetricsRegistry
  /// as JSON — counters plus histogram summaries with p50/p99/p99.9 ("" =
  /// no metrics export).
  std::string metrics_out_path;
  /// --metrics-epoch-us: tracer epoch length for per-epoch phase rows and
  /// counter tracks (0 = no time series).
  Us metrics_epoch_us = 0;

  static BenchOptions FromArgs(int argc, char** argv);
};

enum class Workload { kMediaServer, kWebServer };

const char* WorkloadName(Workload w);

/// Runs one experiment: build the device, prefill 80 % of the logical space,
/// replay the workload trace.  `ppb_override` customizes the PPB knobs for
/// ablations (ignored for the conventional FTL).
ssd::ExperimentResult RunOne(
    ssd::FtlKind kind, Workload workload, std::uint32_t page_size_bytes,
    double speed_ratio, const BenchOptions& options,
    const std::optional<core::PpbConfig>& ppb_override = std::nullopt);

/// Conventional + PPB pair on identical traces.
struct ComparisonResult {
  ssd::ExperimentResult conventional;
  ssd::ExperimentResult ppb;

  double ReadEnhancement() const {
    return ssd::Enhancement(conventional.TotalReadSeconds(),
                            ppb.TotalReadSeconds());
  }
  double WriteEnhancement() const {
    return ssd::Enhancement(conventional.TotalWriteSeconds(),
                            ppb.TotalWriteSeconds());
  }
};

ComparisonResult RunComparison(
    Workload workload, std::uint32_t page_size_bytes, double speed_ratio,
    const BenchOptions& options,
    const std::optional<core::PpbConfig>& ppb_override = std::nullopt);

/// Prints the standard bench header (device, workload sizes, paper pointer).
void PrintHeader(const std::string& title, const std::string& paper_ref,
                 const BenchOptions& options);

}  // namespace ctflash::bench
