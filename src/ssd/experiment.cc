#include "ssd/experiment.h"

#include <algorithm>
#include <stdexcept>

#include "replay/replay_engine.h"
#include "replay/trace_source.h"

namespace ctflash::ssd {

double Enhancement(double base_total, double ours_total) {
  if (base_total <= 0.0) return 0.0;
  return (base_total - ours_total) / base_total;
}

ExperimentRunner::ExperimentRunner(Ssd& ssd) : ssd_(ssd) {}

Us ExperimentRunner::Prefill(std::uint64_t bytes, std::uint64_t chunk_bytes) {
  if (chunk_bytes == 0) {
    throw std::invalid_argument("Prefill: chunk_bytes must be > 0");
  }
  const std::uint64_t limit = std::min(bytes, ssd_.LogicalBytes());
  const Us start = clock_us_;
  std::uint64_t offset = 0;
  while (offset < limit) {
    const std::uint64_t len = std::min(chunk_bytes, limit - offset);
    const auto r = ssd_.Write(offset, len, clock_us_);
    clock_us_ = r.completion_us;
    offset += len;
  }
  ssd_.ftl().ResetStats();
  ssd_.target().nand().ResetCounters();
  if (ssd_.ppb() != nullptr) ssd_.ppb()->ResetPpbStats();
  return clock_us_ - start;
}

ExperimentResult ExperimentRunner::Replay(
    const std::vector<trace::TraceRecord>& records,
    const std::string& workload_name) {
  return Run(records, workload_name, /*closed_loop=*/true);
}

ExperimentResult ExperimentRunner::ReplayOpenLoop(
    const std::vector<trace::TraceRecord>& records,
    const std::string& workload_name) {
  return Run(records, workload_name, /*closed_loop=*/false);
}

ExperimentResult ExperimentRunner::Run(
    const std::vector<trace::TraceRecord>& records,
    const std::string& workload_name, bool closed_loop) {
  replay::ReplayEngineConfig cfg;
  cfg.start_us = clock_us_;
  cfg.closed_loop = closed_loop;
  replay::ReplayEngine engine(ssd_, cfg);
  replay::SpanTraceSource source(records);
  const replay::ReplayResult replayed = engine.Run(source);

  ExperimentResult result;
  result.ftl_name = ssd_.FtlName();
  result.workload_name = workload_name;
  result.read_latency = replayed.read_latency;
  result.write_latency = replayed.write_latency;
  const auto& stats = ssd_.ftl().stats();
  result.erase_count = stats.gc_erases;
  result.gc_page_copies = stats.gc_page_copies;
  result.host_read_pages = stats.host_read_pages;
  result.host_write_pages = stats.host_write_pages;
  result.waf = stats.Waf();
  clock_us_ = std::max(clock_us_, replayed.max_completion_us);
  result.sim_end_us = clock_us_;
  return result;
}

ExperimentResult RunExperiment(const SsdConfig& config,
                               const std::vector<trace::TraceRecord>& records,
                               std::uint64_t footprint_bytes,
                               const std::string& workload_name) {
  Ssd ssd(config);
  ExperimentRunner runner(ssd);
  runner.Prefill(footprint_bytes);
  return runner.Replay(records, workload_name);
}

}  // namespace ctflash::ssd
