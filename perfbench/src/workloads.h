// The benchmark's four workloads.  Each one is a function that builds its
// device(s) from a seed, runs one timed phase, and returns what it measured.
// All simulator calls go through public functions of trace, ssd, host, sim
// and cluster; host-time spans are taken around those calls, from here.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Deterministic simulated outputs of one repetition, in a fixed order.
/// Two repetitions with one seed must produce identical values.
using SimOutputs = std::vector<std::pair<std::string, double>>;

/// One repetition of a workload: set-up, then the timed phase.
struct Rep {
  double setup_s = 0.0;  ///< host seconds: build device(s), inputs, prefill
  double timed_s = 0.0;  ///< host seconds of the timed phase
  /// The timed phase cut into a fixed number of equal windows of simulated
  /// requests (host seconds each); the cuts fall at the same requests in
  /// every repetition of one seed.  A single window where the library
  /// driver gives no cut points.
  std::vector<double> window_s;
  std::uint64_t requests = 0;  ///< simulated host requests it completed
  SimOutputs sim;
  /// Host-time layer numbers (traced repetitions only; see README.md).
  std::map<std::string, double> layers;
  /// Failed correctness checks, one line each.
  std::vector<std::string> errors;
};

enum class Mode {
  /// The library's own driver: ExperimentRunner::Replay,
  /// ClosedLoopGenerator::Run, or ClusterSim::Run on one worker.  The
  /// outputs every other repetition must reproduce exactly.
  kReference,
  /// Untraced timed repetition: a benchmark-owned loop that reproduces the
  /// driver call for call and reads the clock only at window cuts
  /// (ClusterSim::Run on the workload's two workers for cluster_failover).
  kTimed,
  /// The same loop with a span around every layer call.
  kTraced,
};

using WorkloadFn = Rep (*)(std::uint64_t seed, Mode mode);

struct WorkloadInfo {
  const char* name;
  std::uint64_t default_seed;
  WorkloadFn run;
};

/// The workloads in BENCHMARK.json order.
const std::vector<WorkloadInfo>& Workloads();

/// Reference accuracy for the traced run: PPB's read and write enhancement
/// over the conventional FTL on the same Web/SQL trace, given the PPB
/// repetition's outputs.  Empty for the other workloads, whose model has
/// no reference results.
std::map<std::string, double> ReferenceAccuracy(const std::string& workload,
                                                const SimOutputs& ppb,
                                                std::uint64_t seed);

}  // namespace perfbench
