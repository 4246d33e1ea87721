#include "host/load_generator.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace ctflash::host {

UtilizationProbe::UtilizationProbe(const ftl::FlashTarget& target)
    : target_(target),
      die_busy_0_(target.dies().TotalBusyTime()),
      channel_busy_0_(target.channels().TotalBusyTime()),
      chip_busy_0_(target.chips().TotalBusyTime()) {}

void UtilizationProbe::Finish(LoadStats& stats) const {
  const Us makespan = stats.MakespanUs();
  if (makespan <= 0) return;
  const auto share = [makespan](Us busy, std::size_t members) {
    return static_cast<double>(busy) /
           (static_cast<double>(makespan) * static_cast<double>(members));
  };
  stats.die_utilization =
      share(target_.dies().TotalBusyTime() - die_busy_0_,
            target_.dies().Count());
  stats.channel_utilization =
      share(target_.channels().TotalBusyTime() - channel_busy_0_,
            target_.channels().Count());
  stats.chip_utilization =
      share(target_.chips().TotalBusyTime() - chip_busy_0_,
            target_.chips().Count());
}

void ClosedLoopGenerator::Config::Validate() const {
  if (queue_depth == 0) {
    throw std::invalid_argument("ClosedLoopGenerator: queue_depth must be > 0");
  }
  if (total_requests == 0) {
    throw std::invalid_argument(
        "ClosedLoopGenerator: total_requests must be > 0");
  }
  if (request_bytes == 0) {
    throw std::invalid_argument(
        "ClosedLoopGenerator: request_bytes must be > 0");
  }
  if (read_fraction < 0.0 || read_fraction > 1.0) {
    throw std::invalid_argument(
        "ClosedLoopGenerator: read_fraction must be in [0, 1]");
  }
}

ClosedLoopGenerator::ClosedLoopGenerator(HostInterface& host,
                                         const Config& config)
    : host_(host), config_(config), rng_(config.seed) {
  config_.Validate();
  if (config_.footprint_bytes == 0 ||
      config_.footprint_bytes > host_.ssd().LogicalBytes()) {
    config_.footprint_bytes = host_.ssd().LogicalBytes();
  }
  if (config_.footprint_bytes < config_.request_bytes) {
    throw std::invalid_argument(
        "ClosedLoopGenerator: footprint smaller than one request");
  }
}

void ClosedLoopGenerator::SubmitNext() {
  if (issued_count_ >= config_.total_requests) return;
  issued_count_++;
  const trace::OpType op = rng_.Bernoulli(config_.read_fraction)
                               ? trace::OpType::kRead
                               : trace::OpType::kWrite;
  const std::uint64_t slots =
      config_.footprint_bytes / config_.request_bytes;
  const std::uint64_t offset =
      rng_.UniformBelow(slots) * config_.request_bytes;
  issued_.push_back(
      {host_.queue().Now(), op, offset, config_.request_bytes});
  host_.Submit(op, offset, config_.request_bytes,
               [this](const HostCompletion&) { SubmitNext(); });
}

LoadStats ClosedLoopGenerator::Run() {
  if (host_.Outstanding() != 0) {
    throw std::logic_error("ClosedLoopGenerator: host interface not idle");
  }
  host_.ResetStats();
  issued_count_ = 0;
  issued_.clear();
  LoadStats stats;
  stats.start_us = host_.queue().Now();
  UtilizationProbe probe(host_.ssd().target());

  const std::uint64_t initial =
      std::min<std::uint64_t>(config_.queue_depth, config_.total_requests);
  for (std::uint64_t i = 0; i < initial; ++i) SubmitNext();
  host_.Run();

  stats.end_us = host_.queue().Now();
  stats.requests = host_.stats().completed;
  stats.read_latency = host_.stats().read_latency;
  stats.write_latency = host_.stats().write_latency;
  probe.Finish(stats);
  return stats;
}

void TenantWorkload::Validate() const {
  if (total_requests == 0) {
    throw std::invalid_argument("TenantWorkload: total_requests must be > 0");
  }
  if (request_bytes == 0) {
    throw std::invalid_argument("TenantWorkload: request_bytes must be > 0");
  }
  if (read_fraction < 0.0 || read_fraction > 1.0) {
    throw std::invalid_argument(
        "TenantWorkload: read_fraction must be in [0, 1]");
  }
  if (interarrival_us == 0 && queue_depth == 0) {
    throw std::invalid_argument(
        "TenantWorkload: closed loop needs queue_depth > 0");
  }
}

MultiTenantGenerator::MultiTenantGenerator(HostInterface& host,
                                           std::vector<TenantWorkload> workloads)
    : host_(host) {
  if (workloads.empty()) {
    throw std::invalid_argument("MultiTenantGenerator: no workloads");
  }
  const std::uint64_t logical = host_.ssd().LogicalBytes();
  for (auto& workload : workloads) {
    workload.Validate();
    if (host_.tenants() != nullptr &&
        workload.tenant >= host_.tenants()->TenantCount()) {
      throw std::out_of_range("MultiTenantGenerator: unknown tenant " +
                              std::to_string(workload.tenant));
    }
    if (workload.footprint_base_bytes >= logical) {
      throw std::invalid_argument(
          "MultiTenantGenerator: working set starts beyond the device");
    }
    const std::uint64_t cap = logical - workload.footprint_base_bytes;
    if (workload.footprint_bytes == 0 || workload.footprint_bytes > cap) {
      workload.footprint_bytes = cap;
    }
    if (workload.footprint_bytes < workload.request_bytes) {
      throw std::invalid_argument(
          "MultiTenantGenerator: working set smaller than one request");
    }
    runs_.push_back(TenantRun{workload,
                              util::Xoshiro256StarStar(workload.seed),
                              0,
                              0,
                              0,
                              0,
                              {},
                              {}});
  }
}

trace::TraceRecord MultiTenantGenerator::NextRecord(TenantRun& run) {
  const TenantWorkload& w = run.workload;
  const trace::OpType op = run.rng.Bernoulli(w.read_fraction)
                               ? trace::OpType::kRead
                               : trace::OpType::kWrite;
  const std::uint64_t slots = w.footprint_bytes / w.request_bytes;
  const std::uint64_t offset =
      w.footprint_base_bytes + run.rng.UniformBelow(slots) * w.request_bytes;
  return {host_.queue().Now(), op, offset, w.request_bytes};
}

void MultiTenantGenerator::OnComplete(std::size_t idx,
                                      const HostCompletion& completion) {
  TenantRun& run = runs_[idx];
  run.completed++;
  if (completion.completion_us > run.last_completion_us) {
    run.last_completion_us = completion.completion_us;
  }
  const Us latency = completion.LatencyUs();
  if (completion.request.op == trace::OpType::kRead) {
    run.read_latency.Add(latency);
  } else {
    run.write_latency.Add(latency);
  }
  if (run.workload.interarrival_us == 0) SubmitNext(idx);
}

void MultiTenantGenerator::SubmitNext(std::size_t idx) {
  TenantRun& run = runs_[idx];
  if (run.issued >= run.workload.total_requests) return;
  run.issued++;
  SubmitRecord(idx, NextRecord(run), std::nullopt);
}

void MultiTenantGenerator::SubmitRecord(std::size_t idx,
                                        const trace::TraceRecord& record,
                                        std::optional<Us> at) {
  auto cb = [this, idx](const HostCompletion& c) { OnComplete(idx, c); };
  const qos::TenantId tenant = runs_[idx].workload.tenant;
  if (host_.tenants() == nullptr) {
    if (at) {
      host_.SubmitAt(*at, record.op, record.offset_bytes, record.size_bytes,
                     std::move(cb));
    } else {
      host_.Submit(record.op, record.offset_bytes, record.size_bytes,
                   std::move(cb));
    }
  } else if (at) {
    host_.SubmitAtAs(*at, tenant, record.op, record.offset_bytes,
                     record.size_bytes, std::move(cb));
  } else {
    host_.SubmitAs(tenant, record.op, record.offset_bytes, record.size_bytes,
                   std::move(cb));
  }
}

std::vector<TenantLoadStats> MultiTenantGenerator::Run() {
  if (host_.Outstanding() != 0) {
    throw std::logic_error("MultiTenantGenerator: host interface not idle");
  }
  host_.ResetStats();
  const Us start = host_.queue().Now();
  for (std::size_t idx = 0; idx < runs_.size(); ++idx) {
    TenantRun& run = runs_[idx];
    run.issued = 0;
    run.completed = 0;
    run.first_submit_us = start;
    run.last_completion_us = start;
    run.read_latency.Reset();
    run.write_latency.Reset();
    const TenantWorkload& w = run.workload;
    if (w.interarrival_us == 0) {
      const std::uint64_t initial =
          std::min<std::uint64_t>(w.queue_depth, w.total_requests);
      for (std::uint64_t i = 0; i < initial; ++i) SubmitNext(idx);
    } else {
      // Paced open loop: every arrival is scheduled up front at its fixed
      // cadence; the record stream is drawn here, in arrival order, so the
      // run stays deterministic.
      for (std::uint64_t i = 0; i < w.total_requests; ++i) {
        const trace::TraceRecord record = NextRecord(run);
        run.issued++;
        SubmitRecord(idx, record,
                     start + static_cast<Us>(i) * w.interarrival_us);
      }
    }
  }
  host_.Run();

  std::vector<TenantLoadStats> results;
  results.reserve(runs_.size());
  for (const TenantRun& run : runs_) {
    TenantLoadStats out;
    out.tenant = run.workload.tenant;
    out.load.requests = run.completed;
    out.load.start_us = run.first_submit_us;
    out.load.end_us = run.last_completion_us;
    out.load.read_latency = run.read_latency;
    out.load.write_latency = run.write_latency;
    // Utilization is a device-wide quantity and does not decompose per
    // tenant; read it off the host interface / a UtilizationProbe instead.
    results.push_back(std::move(out));
  }
  return results;
}

}  // namespace ctflash::host
