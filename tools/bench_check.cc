// bench_check: diff BENCH_*.json bench reports against checked-in
// baselines with tolerance bands, as a CI gate.
//
// The benches self-assert their own invariants (determinism, SLA bounds,
// policy orderings) but nothing pins their headline NUMBERS release to
// release — a change that doubles the healthy cluster's read p99 while
// staying under every self-assert bound sails through CI silently.  This
// tool closes that gap: a small JSON spec lists metrics (dot-paths into
// the bench reports), each with either a baseline +/- tolerance band or
// explicit min/max bounds, and the tool fails if any lands outside.
//
// Every baselined metric is SIMULATED-time derived and byte-deterministic
// for a given bench invocation (the same property the benches' own
// worker-count determinism asserts stand on), so bands can be tight
// without flaking on machine speed.  Wall-clock fields are deliberately
// not baselined.
//
// Spec format (see tools/bench_baselines.json; the check schema and its
// evaluator live in src/campaign/checks.h, shared with campaign specs):
//   {"checks": [
//     {"file": "BENCH_cluster.json",
//      "metric": "self_check.cluster_read_p99_us",
//      "baseline": 1868.48, "tolerance_pct": 25},
//     {"file": "BENCH_cluster.json",
//      "metric": "self_check.wear_drain_epoch", "max": 5},
//     {"file": "BENCH_gc_qos.json", "metric": "...", "min": 1,
//      "optional": true}
//   ]}
// Every check here needs a "file"; `optional: true` skips the check when
// that report file is missing (benches gated off some CI legs).
//
// Usage: bench_check <spec.json> [--dir <report-dir>]
// Exit 0 when every check passes, 1 otherwise.
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/checks.h"
#include "campaign/json.h"

namespace {

using ctflash::campaign::Check;
using ctflash::campaign::CheckVerdict;
using ctflash::campaign::Json;

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("bench_check: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

CheckVerdict RunCheck(const Json& raw, const std::string& dir,
                      std::map<std::string, Json>& report_cache) {
  Check check;
  try {
    check = Check::Parse(raw);
    if (check.file.empty()) {
      throw std::runtime_error("check needs both \"file\" and \"metric\"");
    }
  } catch (const std::exception& e) {
    return {raw.GetStringOr("file", "") + " : " + raw.GetStringOr("metric", ""),
            "FAIL", e.what()};
  }
  const std::string path = dir.empty() ? check.file : dir + "/" + check.file;
  auto cached = report_cache.find(path);
  if (cached == report_cache.end()) {
    if (!std::ifstream(path)) return EvaluateCheck(check, nullptr);
    cached =
        report_cache.emplace(path, Json::Parse(ReadWholeFile(path))).first;
  }
  return EvaluateCheck(check, &cached->second);
}

}  // namespace

int main(int argc, char** argv) {
  std::string spec_path;
  std::string dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--dir" && i + 1 < argc) {
      dir = argv[++i];
    } else if (spec_path.empty()) {
      spec_path = arg;
    } else {
      std::cerr << "usage: bench_check <spec.json> [--dir <report-dir>]\n";
      return 2;
    }
  }
  if (spec_path.empty()) {
    std::cerr << "usage: bench_check <spec.json> [--dir <report-dir>]\n";
    return 2;
  }

  try {
    const Json spec = Json::Parse(ReadWholeFile(spec_path));
    const Json* checks = spec.Get("checks");
    if (checks == nullptr || checks->AsArray().empty()) {
      std::cerr << "bench_check: spec has no checks\n";
      return 2;
    }

    std::map<std::string, Json> report_cache;
    std::vector<CheckVerdict> verdicts;
    bool failed = false;
    for (const Json& check : checks->AsArray()) {
      verdicts.push_back(RunCheck(check, dir, report_cache));
      failed = failed || verdicts.back().failed();
    }
    std::cout << ctflash::campaign::FormatVerdicts(verdicts);
    return failed ? 1 : 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
}
