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

ExperimentRunner::ExperimentRunner(Ssd& ssd, bool closed_loop)
    : ssd_(ssd), closed_loop_(closed_loop) {}

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

bool ExperimentRunner::IssueRecord(const trace::TraceRecord& rec, Us arrival,
                                   ExperimentResult& result) {
  // Clip to the exported logical space.
  std::uint64_t offset = rec.offset_bytes;
  std::uint64_t size = rec.size_bytes;
  const std::uint64_t logical = ssd_.LogicalBytes();
  if (offset >= logical) offset %= logical;
  if (offset + size > logical) size = logical - offset;
  if (size == 0) return false;

  if (rec.op == trace::OpType::kRead) {
    const auto r = ssd_.Read(offset, size, arrival);
    result.read_latency.Add(r.LatencyUs());
    clock_us_ = std::max(clock_us_, r.completion_us);
  } else {
    const auto r = ssd_.Write(offset, size, arrival);
    result.write_latency.Add(r.LatencyUs());
    clock_us_ = std::max(clock_us_, r.completion_us);
  }
  return true;
}

void ExperimentRunner::FinalizeResult(ExperimentResult& result,
                                      const std::string& workload_name) const {
  result.ftl_name = ssd_.FtlName();
  result.workload_name = workload_name;
  const auto& stats = ssd_.ftl().stats();
  result.erase_count = stats.gc_erases;
  result.gc_page_copies = stats.gc_page_copies;
  result.host_read_pages = stats.host_read_pages;
  result.host_write_pages = stats.host_write_pages;
  result.waf = stats.Waf();
  result.sim_end_us = clock_us_;
}

ExperimentResult ExperimentRunner::Replay(
    const std::vector<trace::TraceRecord>& records,
    const std::string& workload_name) {
  ExperimentResult result;
  const Us base = clock_us_;
  for (const auto& rec : records) {
    const Us ts = base + rec.timestamp_us;
    const Us arrival = closed_loop_ ? std::max(ts, clock_us_) : ts;
    IssueRecord(rec, arrival, result);
  }
  FinalizeResult(result, workload_name);
  return result;
}

ExperimentResult ExperimentRunner::ReplayOpenLoop(
    const std::vector<trace::TraceRecord>& records,
    const std::string& workload_name) {
  // Rebased onto the replay engine's direct mode (streaming chained
  // arrivals, O(1) pending events instead of one per record).  For
  // monotone traces the issue order and times — and therefore every
  // latency sample and FTL counter — are identical to the seed
  // event-per-record loop; out-of-order arrivals are clamped to the
  // current simulated time in record order.
  replay::ReplayEngineConfig cfg;
  cfg.start_us = clock_us_;
  replay::ReplayEngine engine(ssd_, cfg);
  replay::VectorTraceSource source(records);
  const replay::ReplayResult replayed = engine.Run(source);

  ExperimentResult result;
  result.read_latency = replayed.read_latency;
  result.write_latency = replayed.write_latency;
  clock_us_ = std::max(clock_us_, replayed.max_completion_us);
  FinalizeResult(result, workload_name);
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
