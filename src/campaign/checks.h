// Report checks: numeric assertions over JSON reports, as data.
//
// One evaluator serves two callers: tools/bench_check (CI baselines over
// BENCH_*.json files) and a campaign spec's "checks" array (a bench's own
// shape assertions over its campaign report).  A check names a metric by
// dot-path into the report; an all-digit hop indexes an array
// ("arms.1.metrics.read_latency.p99_us").  Optionally it divides that
// metric by a second path ("over") — the one relational form the benches
// need ("scheduled p99 strictly below inline" is p99_sched / p99_inline
// below 1).  The value must land inside every bound the check gives:
//
//   {"metric": "...", "baseline": 9210.53, "tolerance_pct": 50}
//       -> [baseline*(1-t), baseline*(1+t)]
//   {"metric": "...", "min": 1}                 inclusive lower bound
//   {"metric": "...", "max": 5}                 inclusive upper bound
//   {"metric": "...", "over": "...", "exclusive_max": 1}   strict bounds
//   {"metric": "...", "over": "...", "exclusive_min": 1}
//
// Bounds compose (the tightest wins).  The ordering form instead compares
// a series of such values with each other, listed largest first:
//
//   {"series": [{"metric": "...", "over": "..."}, {"metric": "..."}, ...],
//    "order": "nonincreasing"}      (or "decreasing", strictly)
//
// A check without any bound, with an unknown key, with tolerance_pct but
// no baseline, mixing "series" with "metric" or bounds, or with a series
// of fewer than two entries is malformed and is rejected at parse time.  A
// metric path that does not resolve to a number FAILS — it is never
// skipped; "optional": true only skips a check whose report FILE is
// missing (bench_check, for benches gated off some CI legs).
// "name" labels the verdict line (default: "<file> : <metric>[ / <over>]").
#pragma once

#include <limits>
#include <string>
#include <vector>

#include "campaign/json.h"

namespace ctflash::campaign {

/// Walks a dot-separated path into nested objects; an all-digit hop
/// indexes an array.  Returns nullptr when any hop is missing.
const Json* LookupJsonPath(const Json& root, const std::string& path);

/// One checked value: a metric, optionally divided by a second path.
struct CheckTerm {
  std::string metric;  ///< dot-path of the checked number
  std::string over;    ///< dot-path of the divisor ("" = absolute value)
};

struct Check {
  std::string name;    ///< verdict label override ("" = derived)
  std::string file;    ///< report file (bench_check); "" = the caller's report
  std::string metric;  ///< dot-path of the checked number ("" with a series)
  std::string over;    ///< dot-path of the divisor ("" = absolute value)
  /// Ordering form: the terms' values must follow `order` pairwise.
  std::vector<CheckTerm> series;
  std::string order;  ///< "nonincreasing" | "decreasing" ("" = bounds)
  bool optional = false;  ///< skip when the report file is missing
  /// Inclusive and strict bounds; +-inf when absent.
  double min = -std::numeric_limits<double>::infinity();
  double max = std::numeric_limits<double>::infinity();
  double exclusive_min = -std::numeric_limits<double>::infinity();
  double exclusive_max = std::numeric_limits<double>::infinity();

  /// Parses one check object; throws std::runtime_error when malformed.
  static Check Parse(const Json& check);

  std::string Label() const;
};

struct CheckVerdict {
  std::string label;
  std::string verdict;  ///< "pass" | "FAIL" | "skip"
  std::string detail;

  bool failed() const { return verdict == "FAIL"; }
};

/// Evaluates `check` against `report`; nullptr means the report file is
/// missing (skip when optional, FAIL otherwise).
CheckVerdict EvaluateCheck(const Check& check, const Json* report);

/// Evaluates every check against one report (a campaign spec's checks over
/// its CampaignResult::Report()).
std::vector<CheckVerdict> EvaluateChecks(const std::vector<Check>& checks,
                                         const Json& report);

/// Aligned verdict lines plus a "<n> checks, <m> failed" summary line.
std::string FormatVerdicts(const std::vector<CheckVerdict>& verdicts);

}  // namespace ctflash::campaign
