// perfbench: the repository benchmark.  See ../README.md for the metrics,
// the workloads and how to run it.
//
//   perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]
//             [--git-describe <text>]
//
// One process runs one workload: a warm-up repetition, then repetitions
// until --seconds have passed.  --trace 0 reports the end-to-end metrics
// from untraced repetitions; --trace 1 alternates untraced and traced
// repetitions and reports the per-layer metrics.  The last line of standard
// output is the JSON result.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kMinReps = 3;

struct Metric {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
const std::vector<Metric> kEndToEnd = {
    {"setup_s", "s"},
    {"requests_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
    {"sim_read_p50_us", "us"},
    {"sim_read_p99_us", "us"},
    {"sim_read_p999_us", "us"},
    {"sim_iops", "1/s"},
};

const std::vector<Metric> kPerLayer = {
    {"trace_overhead_frac", "ratio"},
    {"trace.generate_share", "ratio"},
    {"ssd.prefill_s", "s"},
    {"ssd.call_share", "ratio"},
    {"ssd.calls", "count"},
    {"host.submit_share", "ratio"},
    {"host.ready_depth_mean", "count"},
    {"sim.step_self_share", "ratio"},
    {"sim.events", "count"},
    {"other_share", "ratio"},
    {"host.txns_dispatched", "count"},
    {"host.backlogged", "count"},
    {"host.peak_in_flight", "count"},
    {"sched.gc_dispatched", "count"},
    {"sched.read_preemptions", "count"},
    {"sched.aged_write_dispatches", "count"},
    {"ftl.host_write_pages", "count"},
    {"ftl.gc_page_copies", "count"},
    {"ftl.gc_erases", "count"},
    {"ftl.gc_stale_copies", "count"},
    {"ftl.waf", "ratio"},
    {"core.fast_read_frac", "ratio"},
    {"core.hot_area_writes", "count"},
    {"core.diverted_writes", "count"},
    {"nand.die_util", "ratio"},
    {"nand.channel_util", "ratio"},
    {"nand.retried_reads", "count"},
    {"cluster.cpu_util", "ratio"},
    {"cluster.parallel_speedup", "ratio"},
    {"cluster.shards_moved", "count"},
    {"cluster.migration_ops", "count"},
    {"cluster.timeouts", "count"},
    {"model.read_enhancement", "ratio"},
    {"model.write_enhancement", "ratio"},
};

/// Host-time numbers printed with the traced run but kept out of the JSON
/// result: each exists only on the workloads that call its layer.
const std::vector<Metric> kLayerTimes = {
    {"trace.generate_s", "s"},     {"ssd.read_ns", "ns"},
    {"ssd.write_ns", "ns"},        {"host.submit_ns", "ns"},
    {"host.submit_s", "s"},        {"sim.step_self_ns", "ns"},
    {"cluster.run_s", "s"},        {"cluster.cpu_s", "s"},
    {"cluster.serial_run_s", "s"},
};

struct Args {
  std::string workload;
  std::optional<std::uint64_t> seed;
  double seconds = 10.0;
  bool trace = false;
  std::string git_describe = "unknown";
  std::vector<std::string> argv;
};

std::uint64_t ParseUint(const std::string& flag, const std::string& text) {
  if (text.empty() || text.size() > 20 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    throw std::invalid_argument(flag + ": expected a non-negative integer");
  }
  return std::stoull(text);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 0; i < argc; ++i) a.argv.emplace_back(argv[i]);
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + ": missing value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = ParseUint(flag, value);
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(ParseUint(flag, value));
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace: expected 0 or 1");
      }
      a.trace = value == "1";
    } else if (flag == "--git-describe") {
      a.git_describe = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Host seconds of the timed phase: each window's fastest time over the
/// repetitions, summed over the windows.  The simulation is deterministic,
/// so every repetition does the same work in a window; other processes on
/// the machine only ever add time to it.
double FastestSeconds(const std::vector<Rep>& reps) {
  double total = 0.0;
  for (std::size_t w = 0; w < reps.front().window_s.size(); ++w) {
    double fastest = reps.front().window_s.at(w);
    for (const Rep& r : reps) fastest = std::min(fastest, r.window_s.at(w));
    total += fastest;
  }
  return total;
}

/// The calibration kernel's host seconds on the reference machine: a round
/// figure near its fastest time on the 4-core VM of README.md.
constexpr double kCalibrationReferenceS = 0.2;

/// A fixed discrete-event kernel with the simulator's host-time profile
/// and none of its code: a heap of std::function events, a hash-map
/// update and a 96-entry linear scan per event.  It runs after every
/// timed repetition; the machine's speed drifts by tens of percent over
/// minutes (README.md, Measurement), and the host-time metrics are scaled
/// by this kernel's fastest time in the run.  Returns host seconds.
double CalibrationSeconds() {
  struct Event {
    std::uint64_t at;
    std::uint64_t seq;
    std::function<void()> fire;
    bool operator>(const Event& o) const {
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };
  constexpr std::uint64_t kEvents = 400'000;
  const auto t0 = Clock::now();
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  std::vector<std::uint64_t> ready(96, 0);
  std::uint64_t x = 12345;
  std::uint64_t now = 0;
  std::uint64_t seq = 0;
  std::uint64_t fired = 0;
  std::function<void()> step = [&] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    table[(x >> 20) % (1u << 20)] += now;
    const auto best = std::min_element(ready.begin(), ready.end());
    *best = x >> 40;
    if (++fired < kEvents) queue.push(Event{now + (x >> 54), seq++, step});
  };
  for (std::uint64_t i = 0; i < 64; ++i) queue.push(Event{i, seq++, step});
  while (!queue.empty()) {
    Event e = std::move(const_cast<Event&>(queue.top()));
    queue.pop();
    now = e.at;
    e.fire();
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  static volatile std::uint64_t sink;  // keeps the work observable
  sink = table.size() + ready[0];
  return seconds;
}

double Sim(const SimOutputs& sim, const std::string& key) {
  for (const auto& [k, v] : sim) {
    if (k == key) return v;
  }
  return 0.0;
}

bool HasSim(const SimOutputs& sim, const std::string& key) {
  return std::any_of(sim.begin(), sim.end(),
                     [&](const auto& kv) { return kv.first == key; });
}

std::string Digest(const SimOutputs& sim) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  char line[160];
  for (const auto& [key, value] : sim) {
    std::snprintf(line, sizeof line, "%s=%.17g\n", key.c_str(), value);
    for (const char* c = line; *c != '\0'; ++c) {
      h ^= static_cast<unsigned char>(*c);
      h *= 0x100000001b3ull;
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string Provenance(const Args& args, std::uint64_t seed,
                       std::size_t reference, std::size_t plain,
                       std::size_t traced) {
  std::ostringstream os;
  os << "{\"argv\": [";
  for (std::size_t i = 0; i < args.argv.size(); ++i) {
    os << (i ? ", " : "") << JsonString(args.argv[i]);
  }
  os << "], \"git_describe\": " << JsonString(args.git_describe)
     << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
     << ", \"compiler\": "
     << JsonString(std::string(PERFBENCH_COMPILER_ID) + " " + __VERSION__)
     << ", \"ndebug\": true, \"sanitizers\": false"
     << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ", \"seed\": " << seed << ", \"seconds\": " << args.seconds
     << ", \"repeats\": {\"reference\": " << reference << ", \"untraced\": " << plain
     << ", \"traced\": " << traced << "}}";
  return os.str();
}

int Run(const Args& args) {
  const WorkloadInfo* workload = nullptr;
  for (const WorkloadInfo& w : Workloads()) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  const std::uint64_t seed = args.seed.value_or(workload->default_seed);

  // The first repetition, a warm-up, runs the library's own driver: every
  // other repetition must reproduce its simulated outputs.  Peak RSS is read
  // right after it, the first repetition in a fresh process; later
  // repetitions reuse its freed heap, and how much more they grow it depends
  // on how many fit in --seconds.
  std::vector<Rep> reference;
  std::vector<Rep> plain;
  std::vector<Rep> traced;
  reference.push_back(workload->run(seed, Mode::kReference));
  const double peak_rss_mb = PeakRssMb();
  const auto start = Clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  std::vector<double> calibration;
  do {
    if (args.trace) traced.push_back(workload->run(seed, Mode::kTraced));
    plain.push_back(workload->run(seed, Mode::kTimed));
    calibration.push_back(CalibrationSeconds());
  } while (elapsed() < args.seconds || plain.size() < kMinReps);
  // How much slower than the reference machine this run found the host.
  const double slowdown =
      *std::min_element(calibration.begin(), calibration.end()) /
      kCalibrationReferenceS;

  // --- correctness ----------------------------------------------------------
  std::vector<const Rep*> all;
  for (const auto* reps : {&reference, &plain, &traced}) {
    for (const Rep& r : *reps) all.push_back(&r);
  }
  const std::string digest = Digest(all.front()->sim);
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Rep& r = *all[i];
    attempted += r.requests;
    std::vector<std::string> rep_errors = r.errors;
    if (i > 0 && r.window_s.size() != plain.front().window_s.size()) {
      rep_errors.push_back("timed phase cut into a different window count");
    }
    if (Digest(r.sim) != digest) {
      rep_errors.push_back("simulated outputs differ from repetition 0");
    }
    if (!rep_errors.empty()) failed += r.requests;
    for (const std::string& e : rep_errors) {
      errors.push_back("repetition " + std::to_string(i) + ": " + e);
    }
  }
  const SimOutputs& sim = all.front()->sim;

  // --- end-to-end -----------------------------------------------------------
  std::map<std::string, double> e2e;
  {
    std::vector<double> setup;
    for (const Rep& r : plain) setup.push_back(r.setup_s);
    const double makespan_s = Sim(sim, "makespan_us") / 1e6;
    const double served = Sim(sim, "requests") - Sim(sim, "cluster.timeouts");
    e2e = {{"setup_s", Median(setup) / slowdown},
           {"requests_per_s",
            Sim(sim, "requests") / FastestSeconds(plain) * slowdown},
           {"peak_rss_mb", peak_rss_mb},
           {"sim_read_p50_us", Sim(sim, "read.p50_us")},
           {"sim_read_p99_us", Sim(sim, "read.p99_us")},
           {"sim_read_p999_us", Sim(sim, "read.p999_us")},
           {"sim_iops", served / makespan_s}};
  }

  // --- per-layer (traced) ---------------------------------------------------
  std::map<std::string, double> layer;
  if (args.trace) {
    std::map<std::string, std::vector<double>> samples;
    for (const Rep& r : traced) {
      for (const auto& [k, v] : r.layers) samples[k].push_back(v);
    }
    for (const auto& [k, v] : samples) layer[k] = Median(v);
    layer["trace_overhead_frac"] =
        FastestSeconds(traced) / FastestSeconds(plain) - 1.0;
    double covered = layer["ssd.call_share"] + layer["host.submit_share"] +
                     layer["sim.step_self_share"];
    if (layer.count("cluster.run_s")) covered = 1.0;  // the whole phase
    layer["other_share"] = 1.0 - covered;
    for (const char* key :
         {"host.txns_dispatched", "host.backlogged", "host.peak_in_flight",
          "sched.gc_dispatched", "sched.read_preemptions",
          "sched.aged_write_dispatches", "ftl.host_write_pages",
          "ftl.gc_page_copies", "ftl.gc_erases", "ftl.gc_stale_copies",
          "ftl.waf", "core.hot_area_writes", "core.diverted_writes",
          "nand.die_util", "nand.channel_util", "nand.retried_reads",
          "cluster.shards_moved", "cluster.migration_ops",
          "cluster.timeouts"}) {
      if (HasSim(sim, key)) layer[key] = Sim(sim, key);
    }
    const double fast = Sim(sim, "core.fast_reads");
    const double slow = Sim(sim, "core.slow_reads");
    if (fast + slow > 0) layer["core.fast_read_frac"] = fast / (fast + slow);
    for (const auto& [k, v] : ReferenceAccuracy(workload->name, sim, seed)) {
      layer[k] = v;
    }
  }

  // --- report ---------------------------------------------------------------
  const std::vector<Metric>& reported = args.trace ? kPerLayer : kEndToEnd;
  const std::map<std::string, double>& values = args.trace ? layer : e2e;
  for (const Metric& m : reported) {
    const auto it = values.find(m.name);
    if (it != values.end() && !std::isfinite(it->second)) {
      errors.push_back(std::string(m.name) + " is not finite");
    }
  }
  const bool correct = errors.empty();

  std::cout << "perfbench " << workload->name << " seed=" << seed
            << " trace=" << (args.trace ? 1 : 0) << "\n"
            << "provenance "
            << Provenance(args, seed, reference.size(), plain.size(),
                          traced.size())
            << "\n"
            << "simulated outputs: digest " << digest << " over "
            << all.size() << " repetitions, " << sim.size() << " values\n";
  for (const std::string& e : errors) std::cout << "CHECK FAILED " << e << "\n";

  const auto list = [](const char* name, const std::vector<Rep>& reps,
                       double Rep::*field) {
    std::cout << "  " << name << ":";
    for (const Rep& r : reps) std::cout << " " << Number(r.*field);
    std::cout << "\n";
  };
  std::cout << "repetitions (host s):\n";
  list("reference timed_s", reference, &Rep::timed_s);
  list("untraced setup_s", plain, &Rep::setup_s);
  list("untraced timed_s", plain, &Rep::timed_s);
  if (args.trace) list("traced timed_s", traced, &Rep::timed_s);
  std::cout << "  calibration_s:";
  for (const double c : calibration) std::cout << " " << Number(c);
  std::cout << "\n";
  std::cout << "end-to-end (host time from untraced repetitions, scaled by "
               "the calibration slowdown "
            << Number(slowdown) << "; unscaled: setup_s "
            << Number(e2e["setup_s"] * slowdown) << " s, requests_per_s "
            << Number(e2e["requests_per_s"] / slowdown) << " 1/s):\n";
  const auto line = [](const std::string& name, const std::string& value,
                       const std::string& unit) {
    std::cout << "  " << name << " = " << value << " " << unit << "\n";
  };
  for (const Metric& m : kEndToEnd) line(m.name, Number(e2e[m.name]), m.unit);
  std::cout << "  read samples = " << Sim(sim, "read.count") << "\n";
  if (Sim(sim, "write.count") > 0) {
    line("sim_write_p99_us", Number(Sim(sim, "write.p99_us")), "us");
  } else {
    line("sim_write_p99_us", "n/a", "(no writes)");
  }
  if (HasSim(sim, "ftl.waf")) {
    line("sim_waf", Number(Sim(sim, "ftl.waf")), "ratio");
  } else {
    line("sim_waf", "n/a", "(ClusterResult exposes no FTL counters)");
  }
  line("failed_frac",
       Number((static_cast<double>(failed) +
               Sim(sim, "cluster.timeouts") * static_cast<double>(all.size())) /
              static_cast<double>(attempted)),
       "ratio (failed or timed out / attempted)");

  if (args.trace) {
    std::cout << "per-layer (traced repetitions; shares are of the traced "
                 "timed phase):\n";
    for (const Metric& m : kPerLayer) {
      const auto it = layer.find(m.name);
      line(m.name, it == layer.end() ? "0 (layer not exercised)"
                                     : Number(it->second),
           m.unit);
    }
    for (const Metric& m : kLayerTimes) {
      const auto it = layer.find(m.name);
      line(m.name, it == layer.end() ? "n/a" : Number(it->second), m.unit);
    }
    if (std::string(workload->name) == "web_replay_ppb") {
      std::cout << "reference accuracy (not a gate): PPB read enhancement "
                << Number(layer["model.read_enhancement"])
                << " vs the paper's ~0.10 average over 2x-5x (Fig. 14); "
                   "write enhancement "
                << Number(layer["model.write_enhancement"])
                << " vs the paper's ~0 (Fig. 17, curves coincide)\n";
    } else {
      std::cout << "reference accuracy: none; this workload's model is "
                   "unvalidated\n";
    }
  }

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    const auto it = values.find(reported[i].name);
    const double v =
        it == values.end() || !std::isfinite(it->second) ? 0.0 : it->second;
    std::cout << (i ? ", " : "") << JsonString(reported[i].name)
              << ": {\"value\": " << Number(v)
              << ", \"unit\": " << JsonString(reported[i].unit) << "}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  (void)argc;
  (void)argv;
  std::cerr << "perfbench: refusing to report host-time metrics from a build "
               "with assertions or sanitizers on; build Release\n";
  return 3;
#else
  try {
    return perfbench::Run(perfbench::ParseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
#endif
}
