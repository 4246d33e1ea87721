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
//                             (sets --media-trace and --web-trace)
//   --json <path>             machine-readable results (benches that emit it)
//   --trace-out <path>        Chrome/Perfetto trace JSON (benches that trace)
//   --metrics-out <path>      MetricsRegistry JSON dump (benches that trace)
//   --metrics-epoch-us <n>    tracer time-series epoch length (0 = off)
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "ssd/experiment.h"
#include "trace/synthetic.h"

namespace ctflash::bench {

struct BenchOptions {
  std::uint64_t device_bytes = 4ull << 30;
  std::uint64_t web_requests = 1'200'000;
  std::uint64_t media_requests = 600'000;
  std::string media_trace_path;  ///< real MSR CSV overriding the stand-in
  std::string web_trace_path;
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
