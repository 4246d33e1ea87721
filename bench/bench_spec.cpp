// bench_spec: runs a checked-in campaign spec (bench/specs/*.json) and
// gates on the spec's own checks.
//
//   bench_spec <spec.json> [--set dot.path=<json>]... [--workers n]
//              [--json out] [--trace-out p] [--metrics-out p]
//
//   --set         overrides one spec field before parsing; the value is
//                 JSON and the path indexes arrays by number, e.g.
//                   --set defaults.workload.requests=20000
//                   --set 'defaults.device_bytes="4GiB"'
//                   --set arms.1.write_frontiers=1
//                 grid axes are dotted keys ("workload.queue_depth"), so
//                 replace the whole grid to change one:
//                   --set 'grid={"workload.queue_depth":[1,8]}'
//   --workers     replaces the spec's worker count (the deterministic
//                 report section is byte-identical for any count)
//   --json        report path (default BENCH_<campaign>.json)
//   --trace-out   records timeline spans on every arm and writes one
//                 Chrome/Perfetto trace, one process per arm
//   --metrics-out dumps a MetricsRegistry of every arm's phase breakdown
//
// Prints CampaignResult::Csv(), writes CampaignResult::Report(), then
// evaluates the spec's "checks" against that report (campaign/checks.h).
// Exit 0 when every check passes, 1 when a check fails or an arm errors
// (fault-injection arms classified as data loss are results, not errors),
// 2 on a usage, spec or I/O error.
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "campaign/checks.h"
#include "campaign/json.h"
#include "campaign/runner.h"
#include "campaign/spec.h"
#include "obs/export.h"
#include "obs/metrics.h"

namespace {

using namespace ctflash;

struct Options {
  std::string spec_path;
  std::vector<std::pair<std::string, std::string>> sets;
  std::uint32_t workers = 0;  ///< 0 = the spec's count
  std::string json_path;
  std::string trace_out_path;
  std::string metrics_out_path;
};

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument("missing value after " + arg);
      }
      return argv[++i];
    };
    if (arg == "--set") {
      const std::string assignment = next();
      const auto eq = assignment.find('=');
      if (eq == std::string::npos || eq == 0) {
        throw std::invalid_argument("--set: expected dot.path=<json>, got '" +
                                    assignment + "'");
      }
      o.sets.emplace_back(assignment.substr(0, eq), assignment.substr(eq + 1));
    } else if (arg == "--workers") {
      o.workers = static_cast<std::uint32_t>(std::stoul(next()));
      if (o.workers == 0) throw std::invalid_argument("--workers must be >= 1");
    } else if (arg == "--json") {
      o.json_path = next();
    } else if (arg == "--trace-out") {
      o.trace_out_path = next();
    } else if (arg == "--metrics-out") {
      o.metrics_out_path = next();
    } else if (o.spec_path.empty() && arg.rfind("--", 0) != 0) {
      o.spec_path = arg;
    } else {
      throw std::invalid_argument("unknown bench option: " + arg);
    }
  }
  if (o.spec_path.empty()) throw std::invalid_argument("no spec file given");
  return o;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << bytes;
}

int Run(const Options& options) {
  campaign::Json root = campaign::Json::Parse(ReadFile(options.spec_path));
  for (const auto& [path, value] : options.sets) {
    // The spec parser ignores keys it does not know, so a misspelled
    // override would otherwise vanish without a trace.
    if (campaign::LookupJsonPath(root, path) == nullptr) {
      std::cout << "note: --set " << path
                << " adds a field the spec did not have\n";
    }
    campaign::SetJsonPath(root, path, campaign::Json::Parse(value));
  }
  // Both exports need every arm's tracer; spans imply phase tracing.
  if (!options.trace_out_path.empty() || !options.metrics_out_path.empty()) {
    campaign::SetJsonPath(root, "defaults.observability.spans", true);
  }
  campaign::CampaignSpec spec = campaign::CampaignSpec::Parse(root);
  const std::vector<campaign::Check> checks = spec.checks;
  const std::size_t arm_count = spec.arms.size();

  std::cout << "=== " << spec.name << " (" << options.spec_path << ", "
            << arm_count << " arms) ===\n";
  const campaign::CampaignResult result =
      campaign::CampaignRunner(std::move(spec)).Run(options.workers);
  std::cout << result.Csv() << "\n";

  const campaign::Json report = result.Report();
  const std::string json_path = options.json_path.empty()
                                    ? "BENCH_" + result.campaign + ".json"
                                    : options.json_path;
  WriteFile(json_path, report.Dump(2) + "\n");
  std::cout << "report written to " << json_path << " ("
            << result.prefill_groups << " prefills, "
            << result.total_wall_ms << " ms)\n";

  if (!options.trace_out_path.empty()) {
    std::vector<std::pair<std::string, const obs::Tracer*>> fleet;
    for (const campaign::ArmResult& arm : result.arms) {
      fleet.emplace_back(arm.name, arm.tracer.get());
    }
    const std::string trace = obs::ChromeTraceJson(fleet);
    WriteFile(options.trace_out_path, trace);
    std::cout << "trace written to " << options.trace_out_path << " ("
              << trace.size() << " bytes, digest " << obs::TraceDigest(trace)
              << ")\n";
  }
  if (!options.metrics_out_path.empty()) {
    obs::MetricsRegistry registry;
    for (const campaign::ArmResult& arm : result.arms) {
      if (arm.tracer == nullptr) continue;
      obs::ExportPhaseStats(arm.tracer->phases(), arm.name, registry);
    }
    WriteFile(options.metrics_out_path, registry.ToJson().Dump(2) + "\n");
    std::cout << "metrics written to " << options.metrics_out_path << "\n";
  }

  bool failed = false;
  for (const campaign::ArmResult& arm : result.arms) {
    if (!arm.ok && arm.outcome.empty()) {
      std::cout << "arm " << arm.name << " failed: " << arm.error << "\n";
      failed = true;
    }
  }
  const std::vector<campaign::CheckVerdict> verdicts =
      campaign::EvaluateChecks(checks, report);
  std::cout << "\n" << campaign::FormatVerdicts(verdicts);
  for (const campaign::CheckVerdict& v : verdicts) failed = failed || v.failed();
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(ParseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "bench_spec: " << e.what() << "\n"
              << "usage: bench_spec <spec.json> [--set dot.path=<json>]... "
                 "[--workers n] [--json out] [--trace-out p] "
                 "[--metrics-out p]\n";
    return 2;
  }
}
