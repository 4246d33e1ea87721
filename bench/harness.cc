#include "harness.h"

#include <chrono>
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "replay/trace_source.h"
#include "util/config.h"

namespace ctflash::bench {

Us PrefillSnapshotCache::Prefill(ssd::Ssd& ssd, std::uint64_t bytes,
                                 std::uint64_t chunk_bytes) {
  const std::string key = campaign::SnapshotShapeKey(ssd.config()) +
                          "|bytes=" + std::to_string(bytes) +
                          "|chunk=" + std::to_string(chunk_bytes);
  const auto t0 = std::chrono::steady_clock::now();
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    ssd.Restore(it->second.state);
    const double restore_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    ++restores_;
    saved_wall_ms_ += it->second.wall_ms - restore_ms;
    return static_cast<Us>(it->second.state.clock_us);
  }
  ssd::ExperimentRunner runner(ssd);
  const Us end = runner.Prefill(bytes, chunk_bytes);
  Entry entry{ssd.Snapshot(end), 0.0};
  entry.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  prefill_wall_ms_ += entry.wall_ms;
  ++distinct_prefills_;
  cache_.emplace(key, std::move(entry));
  return end;
}

std::string PrefillSnapshotCache::JsonObject() const {
  std::ostringstream os;
  os << "{\"distinct_prefills\": " << distinct_prefills_
     << ", \"restores\": " << restores_
     << ", \"prefill_wall_ms\": " << prefill_wall_ms_
     << ", \"saved_wall_ms\": " << saved_wall_ms_ << "}";
  return os.str();
}

std::vector<std::string> AddTenantTraceSources(
    replay::ReplayPlan& plan, const std::vector<TenantTraceOption>& specs,
    std::uint64_t logical_bytes, std::size_t tenant_count) {
  std::vector<std::string> names;
  const std::uint64_t slice = logical_bytes / specs.size();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& spec = specs[i];
    if (spec.tenant >= tenant_count) {
      throw std::runtime_error("--tenant-trace: unknown tenant " +
                               std::to_string(spec.tenant));
    }
    replay::StreamingMsrCsvSource::Options source_opts;
    source_opts.hostname_filter = spec.hostname;
    replay::SourceOptions opts;
    opts.name = spec.hostname.empty() ? "tenant" + std::to_string(spec.tenant)
                                      : spec.hostname;
    opts.tenant = spec.tenant;
    opts.remap.policy = replay::RemapPolicy::kWrap;
    opts.remap.footprint_bytes = slice;
    opts.remap.base_bytes = slice * i;
    plan.AddSource(std::make_unique<replay::StreamingMsrCsvSource>(spec.path,
                                                                   source_opts),
                   opts);
    names.push_back(opts.name);
  }
  return names;
}

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
      o.trace_file = next();
      o.media_trace_path = o.trace_file;
      o.web_trace_path = o.trace_file;
    } else if (arg == "--tenant-trace") {
      // <tenant>=<csv>[@hostname]
      const std::string spec = next();
      const auto eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size()) {
        throw std::invalid_argument(
            "--tenant-trace: expected <tenant>=<csv>[@hostname], got '" +
            spec + "'");
      }
      const std::string tenant = util::Trim(spec.substr(0, eq));
      if (tenant.empty() ||
          tenant.find_first_not_of("0123456789") != std::string::npos ||
          tenant.size() > 6) {
        throw std::invalid_argument("--tenant-trace: bad tenant id '" +
                                    tenant + "'");
      }
      TenantTraceOption opt;
      opt.tenant = static_cast<std::uint32_t>(std::stoul(tenant));
      std::string rest = spec.substr(eq + 1);
      // The hostname separator is an '@' in the final path component only,
      // so directory names containing '@' don't silently truncate the path.
      const auto at = rest.rfind('@');
      const auto slash = rest.rfind('/');
      if (at != std::string::npos && at + 1 < rest.size() &&
          (slash == std::string::npos || at > slash)) {
        opt.hostname = rest.substr(at + 1);
        rest = rest.substr(0, at);
      }
      if (rest.empty()) {
        throw std::invalid_argument("--tenant-trace: empty CSV path in '" +
                                    spec + "'");
      }
      opt.path = rest;
      o.tenant_traces.push_back(opt);
    } else if (arg == "--qd-requests") {
      o.qd_requests = std::stoull(next());
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
