#include "campaign/checks.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>

namespace ctflash::campaign {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::string FormatNumber(double v) {
  std::ostringstream out;
  out << std::setprecision(10) << v;
  return out.str();
}

/// Resolves `path` to a number or explains why it does not.
const Json* NumberAt(const Json& report, const std::string& path,
                     const char* what, std::string& error) {
  const Json* node = LookupJsonPath(report, path);
  if (node == nullptr) {
    error = std::string(what) + " path not found";
  } else if (!node->IsNumber()) {
    error = std::string(what) + " is not a number";
    node = nullptr;
  }
  return node;
}

/// Resolves `term` to metric (/ over), with `shown` set to "m / o = " for
/// a ratio; nullopt with `error` set when a path does not resolve to a
/// number or the divisor is zero.
std::optional<double> TermValue(const Json& report, const CheckTerm& term,
                                std::string& shown, std::string& error) {
  const Json* num = NumberAt(report, term.metric, "metric", error);
  if (num == nullptr) return std::nullopt;
  double value = num->AsDouble();
  if (!term.over.empty()) {
    const Json* den = NumberAt(report, term.over, "over", error);
    if (den == nullptr) return std::nullopt;
    if (den->AsDouble() == 0.0) {
      error = "over is zero";
      return std::nullopt;
    }
    shown = FormatNumber(value) + " / " + FormatNumber(den->AsDouble()) +
            " = ";
    value /= den->AsDouble();
  }
  return value;
}

/// The ordering forms: name, relation symbol, and whether (a, b) holds.
struct Order {
  const char* name;
  const char* symbol;
  bool (*holds)(double a, double b);
};
constexpr Order kOrders[] = {
    {"decreasing", ">", [](double a, double b) { return a > b; }},
    {"nonincreasing", ">=", [](double a, double b) { return a >= b; }},
};

const Order* FindOrder(const std::string& name) {
  for (const Order& order : kOrders) {
    if (name == order.name) return &order;
  }
  return nullptr;
}

CheckTerm ParseTerm(const Json& term) {
  if (!term.IsObject()) {
    throw std::runtime_error("\"series\" entries must be objects");
  }
  for (const auto& [key, value] : term.AsObject()) {
    if (key != "metric" && key != "over") {
      throw std::runtime_error("series entry has unknown key \"" + key + "\"");
    }
  }
  CheckTerm t{term.GetStringOr("metric", ""), term.GetStringOr("over", "")};
  if (t.metric.empty()) {
    throw std::runtime_error("series entry needs a \"metric\"");
  }
  return t;
}

}  // namespace

const Json* LookupJsonPath(const Json& root, const std::string& path) {
  const Json* node = &root;
  std::size_t start = 0;
  while (start <= path.size()) {
    const std::size_t dot = path.find('.', start);
    const std::string key = path.substr(
        start, dot == std::string::npos ? std::string::npos : dot - start);
    if (node->IsArray()) {
      if (key.empty() || key.size() > 9 ||
          key.find_first_not_of("0123456789") != std::string::npos) {
        return nullptr;
      }
      const std::size_t index = std::stoull(key);
      if (index >= node->AsArray().size()) return nullptr;
      node = &node->AsArray()[index];
    } else {
      node = node->Get(key);
      if (node == nullptr) return nullptr;
    }
    if (dot == std::string::npos) break;
    start = dot + 1;
  }
  return node;
}

Check Check::Parse(const Json& check) {
  static const std::set<std::string> kKeys = {
      "name", "file", "metric", "over", "optional", "baseline",
      "tolerance_pct", "min", "max", "exclusive_min", "exclusive_max",
      "series", "order"};
  if (!check.IsObject()) throw std::runtime_error("check must be an object");
  for (const auto& [key, value] : check.AsObject()) {
    if (kKeys.count(key) == 0) {
      throw std::runtime_error("check has unknown key \"" + key + "\"");
    }
  }
  Check c;
  c.name = check.GetStringOr("name", "");
  c.file = check.GetStringOr("file", "");
  c.metric = check.GetStringOr("metric", "");
  c.over = check.GetStringOr("over", "");
  c.optional = check.GetBoolOr("optional", false);
  if (const Json* series = check.Get("series")) {
    for (const auto& [key, value] : check.AsObject()) {
      if (key != "name" && key != "file" && key != "optional" &&
          key != "series" && key != "order") {
        throw std::runtime_error("check mixes \"series\" with \"" + key +
                                 "\"");
      }
    }
    if (!series->IsArray() || series->AsArray().size() < 2) {
      throw std::runtime_error("\"series\" needs at least two entries");
    }
    for (const Json& term : series->AsArray()) {
      c.series.push_back(ParseTerm(term));
    }
    c.order = check.GetStringOr("order", "");
    if (FindOrder(c.order) == nullptr) {
      throw std::runtime_error(
          "check \"order\" must be \"decreasing\" or \"nonincreasing\"");
    }
    return c;
  }
  if (check.Get("order") != nullptr) {
    throw std::runtime_error("check has \"order\" but no \"series\"");
  }
  if (c.metric.empty()) throw std::runtime_error("check needs a \"metric\"");

  // Assemble the band: baseline +/- tolerance, clipped by explicit bounds.
  if (const Json* base = check.Get("baseline"); base != nullptr) {
    const double b = base->AsDouble();
    const double tol = check.GetDoubleOr("tolerance_pct", 0.0) / 100.0;
    c.min = b - std::abs(b) * tol;
    c.max = b + std::abs(b) * tol;
  } else if (check.Get("tolerance_pct") != nullptr) {
    throw std::runtime_error("check has tolerance_pct but no baseline");
  }
  if (const Json* mn = check.Get("min")) c.min = std::max(c.min, mn->AsDouble());
  if (const Json* mx = check.Get("max")) c.max = std::min(c.max, mx->AsDouble());
  c.exclusive_min = check.GetDoubleOr("exclusive_min", -kInf);
  c.exclusive_max = check.GetDoubleOr("exclusive_max", kInf);
  if (c.min == -kInf && c.max == kInf && c.exclusive_min == -kInf &&
      c.exclusive_max == kInf) {
    throw std::runtime_error(
        "check has no bound (baseline or min/max required)");
  }
  return c;
}

std::string Check::Label() const {
  if (!name.empty()) return name;
  const std::string head =
      series.empty() ? metric
                     : order + " series from " + series.front().metric;
  std::string label = file.empty() ? head : file + " : " + head;
  if (!over.empty()) label += " / " + over;
  return label;
}

CheckVerdict EvaluateCheck(const Check& check, const Json* report) {
  CheckVerdict out;
  out.label = check.Label();
  if (report == nullptr) {
    out.verdict = check.optional ? "skip" : "FAIL";
    out.detail = check.optional ? "report missing (optional)"
                                : "report file missing: " + check.file;
    return out;
  }
  out.verdict = "FAIL";
  if (!check.series.empty()) {
    const Order& order = *FindOrder(check.order);
    std::vector<double> values;
    for (std::size_t i = 0; i < check.series.size(); ++i) {
      std::string shown;
      std::string error;
      const std::optional<double> v =
          TermValue(*report, check.series[i], shown, error);
      if (!v) {
        out.detail = "series[" + std::to_string(i) + "]: " + error;
        return out;
      }
      values.push_back(*v);
    }
    std::string chain = FormatNumber(values[0]);
    std::string broken;
    for (std::size_t i = 1; i < values.size(); ++i) {
      chain += std::string(" ") + order.symbol + " " + FormatNumber(values[i]);
      if (broken.empty() && !order.holds(values[i - 1], values[i])) {
        broken = " (series[" + std::to_string(i - 1) + "] -> series[" +
                 std::to_string(i) + "] breaks " + order.name + ")";
      }
    }
    out.verdict = broken.empty() ? "pass" : "FAIL";
    out.detail = chain + broken;
    return out;
  }
  std::string prefix;
  const std::optional<double> term =
      TermValue(*report, CheckTerm{check.metric, check.over}, prefix,
                out.detail);
  if (!term) return out;
  const double value = *term;

  const bool ok = value >= check.min && value <= check.max &&
                  value > check.exclusive_min && value < check.exclusive_max;
  out.verdict = ok ? "pass" : "FAIL";
  // The effective interval: a strict bound shows as ( or ) when it is at
  // least as tight as the inclusive one.
  const bool open_lo =
      check.exclusive_min != -kInf && check.exclusive_min >= check.min;
  const bool open_hi =
      check.exclusive_max != kInf && check.exclusive_max <= check.max;
  out.detail = prefix + FormatNumber(value) + " in " + (open_lo ? "(" : "[") +
               FormatNumber(open_lo ? check.exclusive_min : check.min) + ", " +
               FormatNumber(open_hi ? check.exclusive_max : check.max) +
               (open_hi ? ")" : "]");
  return out;
}

std::vector<CheckVerdict> EvaluateChecks(const std::vector<Check>& checks,
                                         const Json& report) {
  std::vector<CheckVerdict> verdicts;
  for (const Check& check : checks) {
    verdicts.push_back(EvaluateCheck(check, &report));
  }
  return verdicts;
}

std::string FormatVerdicts(const std::vector<CheckVerdict>& verdicts) {
  std::size_t width = 0;
  std::size_t failures = 0;
  for (const CheckVerdict& v : verdicts) {
    width = std::max(width, v.label.size());
  }
  std::ostringstream out;
  for (const CheckVerdict& v : verdicts) {
    if (v.failed()) ++failures;
    out << std::left << std::setw(static_cast<int>(width) + 2) << v.label
        << std::setw(6) << v.verdict << v.detail << "\n";
  }
  out << verdicts.size() << " checks, " << failures << " failed\n";
  return out.str();
}

}  // namespace ctflash::campaign
