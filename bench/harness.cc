#include "harness.h"

#include <iostream>
#include <stdexcept>

#include "trace/trace.h"
#include "util/config.h"

namespace ctflash::bench {

BenchOptions BenchOptions::FromArgs(int argc, char** argv) {
  BenchOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument("missing value after " + arg);
      }
      return argv[++i];
    };
    if (arg == "--device") {
      o.device_bytes = util::ParseByteSize(next());
    } else if (arg == "--requests") {
      const std::uint64_t n = std::stoull(next());
      o.web_requests = n;
      o.media_requests = n;
    } else if (arg == "--quick") {
      o.web_requests /= 10;
      o.media_requests /= 10;
    } else if (arg == "--media-trace") {
      o.media_trace_path = next();
    } else if (arg == "--web-trace") {
      o.web_trace_path = next();
    } else if (arg == "--trace-file") {
      o.media_trace_path = next();
      o.web_trace_path = o.media_trace_path;
    } else if (arg == "--json") {
      o.json_path = next();
    } else if (arg == "--trace-out") {
      o.trace_out_path = next();
    } else if (arg == "--metrics-out") {
      o.metrics_out_path = next();
    } else if (arg == "--metrics-epoch-us") {
      o.metrics_epoch_us = static_cast<Us>(std::stoll(next()));
      if (o.metrics_epoch_us < 0) {
        throw std::invalid_argument("--metrics-epoch-us must be >= 0");
      }
    } else {
      throw std::invalid_argument("unknown bench option: " + arg);
    }
  }
  return o;
}

const char* WorkloadName(Workload w) {
  return w == Workload::kMediaServer ? "Media Server" : "Web SQL";
}

ssd::ExperimentResult RunOne(ssd::FtlKind kind, Workload workload,
                             std::uint32_t page_size_bytes, double speed_ratio,
                             const BenchOptions& options,
                             const std::optional<core::PpbConfig>& ppb_override) {
  auto cfg = ssd::ScaledConfig(kind, options.device_bytes, page_size_bytes,
                               speed_ratio);
  if (ppb_override && kind == ssd::FtlKind::kPpb) cfg.ppb = *ppb_override;
  ssd::Ssd probe(cfg);
  const std::uint64_t footprint = probe.LogicalBytes() / 10 * 8;
  const std::string& real_path = workload == Workload::kMediaServer
                                     ? options.media_trace_path
                                     : options.web_trace_path;
  if (!real_path.empty()) {
    const auto records = trace::ParseMsrCsvFile(real_path);
    return ssd::RunExperiment(cfg, records, footprint, real_path);
  }
  const auto wl = workload == Workload::kMediaServer
                      ? trace::MediaServerWorkload(footprint,
                                                   options.media_requests)
                      : trace::WebServerWorkload(footprint,
                                                 options.web_requests);
  const auto records = trace::SyntheticTraceGenerator(wl).Generate();
  return ssd::RunExperiment(cfg, records, footprint, wl.name);
}

ComparisonResult RunComparison(
    Workload workload, std::uint32_t page_size_bytes, double speed_ratio,
    const BenchOptions& options,
    const std::optional<core::PpbConfig>& ppb_override) {
  ComparisonResult out;
  out.conventional = RunOne(ssd::FtlKind::kConventional, workload,
                            page_size_bytes, speed_ratio, options);
  out.ppb = RunOne(ssd::FtlKind::kPpb, workload, page_size_bytes, speed_ratio,
                   options, ppb_override);
  return out;
}

void PrintHeader(const std::string& title, const std::string& paper_ref,
                 const BenchOptions& options) {
  std::cout << "=== " << title << " ===\n";
  std::cout << "Reproduces: " << paper_ref
            << " (Chen et al., DAC'17, PPB strategy)\n";
  std::cout << "Device: " << (options.device_bytes >> 20)
            << " MiB scaled array, Table 1 timing/shape; traces: media="
            << options.media_requests << " reqs, web=" << options.web_requests
            << " reqs\n\n";
}

}  // namespace ctflash::bench
