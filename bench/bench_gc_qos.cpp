// GC/host QoS trace smoke: the observability contract on a GC-heavy burst.
//
// The inline-vs-scheduled GC routing grid itself is a campaign spec:
//   bench_spec bench/specs/gc_qos.json [--trace-out p] [--metrics-out p]
// This binary keeps the one assertion that has no data form yet:
//
//   bench_gc_qos --trace-smoke [--trace-out p] [--metrics-out p]
//                [--metrics-epoch-us n]
//
// runs a single small scheduled-GC burst (PPB, closed-loop QD 16, 50 %
// reads, 60 % footprint after an 85 % prefill) with full tracing on.  The
// asserted contract is the observability story itself, not the p99 shape:
// phase conservation on every request, read tail time attributed to GC
// holding dies by name (die-busy-gc), no request left pending, and an
// exported Chrome/Perfetto trace that re-parses as JSON (the CI smoke,
// sanitizer-friendly).
#include <cstdint>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "host/host_interface.h"
#include "host/load_generator.h"
#include "obs/export.h"
#include "obs/tracer.h"
#include "ssd/experiment.h"

namespace {

using namespace ctflash;

struct SmokeOptions {
  bool trace_smoke = false;
  std::string trace_out_path;    ///< "" = BENCH_gc_qos_trace.json
  std::string metrics_out_path;  ///< "" = no MetricsRegistry dump
  Us metrics_epoch_us = 0;       ///< 0 = the smoke's 10 ms default
};

SmokeOptions ParseArgs(int argc, char** argv) {
  SmokeOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument("missing value after " + arg);
      }
      return argv[++i];
    };
    if (arg == "--trace-smoke") {
      o.trace_smoke = true;
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

int RunTraceSmoke(const SmokeOptions& options) {
  auto cfg =
      ssd::ScaledConfig(ssd::FtlKind::kPpb, 256ull << 20, 16 * 1024, 2.0);
  cfg.timing_mode = ftl::TimingMode::kQueued;
  cfg.ftl.gc_routing = ftl::GcRouting::kScheduled;
  ssd::Ssd ssd(cfg);
  ssd::ExperimentRunner prefiller(ssd);
  const Us prefill_end = prefiller.Prefill(ssd.LogicalBytes() / 100 * 85);
  ssd.ftl().ResetStats();

  host::HostInterface host(ssd, host::HostConfig{});
  host.AdvanceTo(prefill_end);

  obs::TracerConfig tc;
  tc.record_spans = true;
  tc.record_requests = true;
  tc.metrics_epoch_us =
      options.metrics_epoch_us != 0 ? options.metrics_epoch_us : 10'000;
  tc.epoch_base_us = prefill_end;
  obs::Tracer tracer(tc);
  host.AttachTracer(&tracer);

  host::ClosedLoopGenerator::Config gen;
  gen.queue_depth = 16;
  gen.total_requests = 20'000;
  gen.read_fraction = 0.5;
  gen.footprint_bytes = ssd.LogicalBytes() / 100 * 60;
  gen.seed = 99;
  host::ClosedLoopGenerator(host, gen).Run();

  if (ssd.ftl().stats().gc_erases == 0) {
    throw std::runtime_error("trace-smoke: burst was expected to be GC-heavy");
  }
  if (tracer.requests().empty()) {
    throw std::runtime_error("trace-smoke: no requests recorded");
  }
  for (const obs::PhaseRecord& r : tracer.requests()) {
    if (r.PacedUs() + r.QueuedUs() + r.MediaUs() != r.TotalUs()) {
      throw std::runtime_error(
          "trace-smoke: phase conservation violated on request " +
          std::to_string(r.request_id));
    }
  }
  const auto& read = tracer.phases().read;
  const auto gc_idx = static_cast<std::size_t>(obs::StallCause::kDieBusyGc);
  if (read.stall_us[gc_idx] == 0) {
    throw std::runtime_error(
        "trace-smoke: no die-busy-gc stall attributed to reads");
  }
  if (tracer.PendingRequests() != 0) {
    throw std::runtime_error(
        "trace-smoke: requests left pending after drain");
  }

  const std::string trace = obs::ChromeTraceJson(tracer);
  const campaign::Json parsed = campaign::Json::Parse(trace);
  const campaign::Json* events = parsed.Get("traceEvents");
  if (events == nullptr || events->AsArray().empty()) {
    throw std::runtime_error("trace-smoke: exported trace has no events");
  }
  const std::string path = options.trace_out_path.empty()
                               ? "BENCH_gc_qos_trace.json"
                               : options.trace_out_path;
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << trace;
  if (!options.metrics_out_path.empty()) {
    obs::MetricsRegistry registry;
    obs::ExportPhaseStats(tracer.phases(), "gc_qos", registry);
    registry.AddCounter("gc_qos.spans", tracer.spans().size());
    registry.AddCounter("gc_qos.requests", tracer.requests().size());
    std::ofstream mout(options.metrics_out_path);
    if (!mout) {
      throw std::runtime_error("cannot write " + options.metrics_out_path);
    }
    mout << registry.ToJson().Dump(2) << "\n";
    std::cout << "metrics written to " << options.metrics_out_path << "\n";
  }
  std::cout << "trace-smoke OK: " << events->AsArray().size()
            << " trace events (" << tracer.spans().size() << " spans, "
            << tracer.requests().size() << " requests, digest "
            << obs::TraceDigest(trace) << ")\n"
            << "read die-busy-gc stall: " << read.stall_us[gc_idx]
            << " us over " << read.stall_events[gc_idx] << " events\n"
            << "trace written to " << path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const SmokeOptions options = ParseArgs(argc, argv);
  if (!options.trace_smoke) {
    throw std::invalid_argument(
        "bench_gc_qos runs only --trace-smoke; the routing grid is "
        "bench_spec bench/specs/gc_qos.json");
  }
  return RunTraceSmoke(options);
}
