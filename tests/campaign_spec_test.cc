// Campaign JSON module, spec expansion and report-check tests.
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/checks.h"
#include "campaign/json.h"
#include "campaign/runner.h"
#include "campaign/spec.h"
#include "ssd/ssd.h"

namespace ctflash::campaign {
namespace {

// --- Json ------------------------------------------------------------------

TEST(CampaignJson, ParsesScalarsAndContainers) {
  const Json v = Json::Parse(
      R"({"a": 1, "b": -2.5, "c": "sA", "d": [true, false, null], "e": {}})");
  EXPECT_EQ(v.Get("a")->AsUint(), 1u);
  EXPECT_DOUBLE_EQ(v.Get("b")->AsDouble(), -2.5);
  EXPECT_EQ(v.Get("c")->AsString(), "sA");
  ASSERT_TRUE(v.Get("d")->IsArray());
  EXPECT_EQ(v.Get("d")->AsArray().size(), 3u);
  EXPECT_TRUE(v.Get("d")->AsArray()[2].IsNull());
  EXPECT_TRUE(v.Get("e")->IsObject());
}

TEST(CampaignJson, DumpIsDeterministicSortedKeys) {
  Json v;
  v["zebra"] = 1;
  v["alpha"] = 2;
  v["mid"] = Json(JsonArray{Json(1), Json(2)});
  EXPECT_EQ(v.Dump(), R"({"alpha":2,"mid":[1,2],"zebra":1})");
}

TEST(CampaignJson, NumbersRoundTripThroughDump) {
  // Integers up to 2^53 print as integers; doubles print round-trippably.
  Json v;
  v["big"] = std::uint64_t{9'007'199'254'740'991};  // 2^53 - 1
  v["frac"] = 0.1;
  v["neg"] = -17;
  const Json back = Json::Parse(v.Dump());
  EXPECT_EQ(back.Get("big")->AsUint(), 9'007'199'254'740'991u);
  EXPECT_DOUBLE_EQ(back.Get("frac")->AsDouble(), 0.1);
  EXPECT_EQ(back.Get("neg")->AsInt(), -17);
  EXPECT_EQ(Json::Parse(back.Dump()).Dump(), back.Dump());
}

TEST(CampaignJson, RejectsMalformedInputWithPosition) {
  try {
    Json::Parse("{\n  \"a\": 1,\n  \"a\": 2\n}");
    FAIL() << "duplicate key accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos);
  }
  try {
    Json::Parse("{\"a\": }");
    FAIL() << "malformed value accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line"), std::string::npos);
  }
  EXPECT_THROW(Json::Parse("{\"a\": 1} trailing"), std::runtime_error);
  EXPECT_THROW(Json::Parse(""), std::runtime_error);
}

TEST(CampaignJson, MergePatchFollowsRfc7386) {
  const Json base = Json::Parse(R"({"a": {"x": 1, "y": 2}, "b": 3, "c": 4})");
  const Json patch = Json::Parse(R"({"a": {"y": 9}, "b": null, "d": 5})");
  const Json merged = MergePatch(base, patch);
  EXPECT_EQ(merged.Get("a")->Get("x")->AsUint(), 1u);  // untouched sibling
  EXPECT_EQ(merged.Get("a")->Get("y")->AsUint(), 9u);  // recursed override
  EXPECT_EQ(merged.Get("b"), nullptr);                 // null deletes
  EXPECT_EQ(merged.Get("c")->AsUint(), 4u);
  EXPECT_EQ(merged.Get("d")->AsUint(), 5u);
}

TEST(CampaignJson, SetJsonPathCreatesIntermediates) {
  Json root;
  SetJsonPath(root, "workload.queue_depth", Json(std::uint64_t{16}));
  SetJsonPath(root, "workload.read_fraction", Json(0.5));
  EXPECT_EQ(root.Get("workload")->Get("queue_depth")->AsUint(), 16u);
  EXPECT_DOUBLE_EQ(root.Get("workload")->Get("read_fraction")->AsDouble(), 0.5);
  EXPECT_THROW(SetJsonPath(root, "a..b", Json(1)), std::runtime_error);
}

TEST(CampaignJson, SetJsonPathRejectsAnIndexIntoANonArray) {
  // The reproducer: arm 1 has no "qos" list, so "0" cannot index one.  It
  // used to build {"qos": {"0": {...}}}, which failed later in the spec
  // parser with a bare kind error naming no field.
  Json root = Json::Parse(
      R"({"arms": [{"name": "a", "qos": [{"weight": 2}]}, {"name": "b"}]})");
  try {
    SetJsonPath(root, "arms.1.qos.0.weight", Json(1));
    FAIL() << "index into an absent field accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("\"arms.1.qos\""), std::string::npos) << what;
    EXPECT_NE(what.find("not an array"), std::string::npos) << what;
  }
  // An existing list still indexes; an object or a scalar does not.
  SetJsonPath(root, "arms.0.qos.0.weight", Json(1));
  EXPECT_EQ(LookupJsonPath(root, "arms.0.qos.0.weight")->AsUint(), 1u);
  EXPECT_THROW(SetJsonPath(root, "arms.0.0", Json(1)), std::runtime_error);
  EXPECT_THROW(SetJsonPath(root, "arms.0.name.0", Json(1)),
               std::runtime_error);
}

TEST(CampaignJson, SetJsonPathIndexesExistingArrays) {
  Json root = Json::Parse(R"({"arms": [{"seed": 1}, {"seed": 2}]})");
  SetJsonPath(root, "arms.1.write_frontiers", Json(std::uint64_t{1}));
  EXPECT_EQ(root.Get("arms")->AsArray()[1].Get("write_frontiers")->AsUint(),
            1u);
  EXPECT_EQ(root.Get("arms")->AsArray()[0].Get("write_frontiers"), nullptr);
  // Out-of-range and non-numeric hops into an array are errors, never a
  // silently created object.
  EXPECT_THROW(SetJsonPath(root, "arms.2.seed", Json(1)), std::runtime_error);
  EXPECT_THROW(SetJsonPath(root, "arms.x.seed", Json(1)), std::runtime_error);
  EXPECT_THROW(SetJsonPath(root, "arms.99999999999999999999.seed", Json(1)),
               std::runtime_error);
}

// --- CampaignSpec ----------------------------------------------------------

constexpr const char* kBaseSpec = R"({
  "campaign": "test",
  "workers": 3,
  "defaults": {
    "device_bytes": "32MiB",
    "seed": 100,
    "workload": {"kind": "closed_loop", "requests": 50}
  },
  "grid": {
    "ftl": ["conventional", "ppb"],
    "workload.queue_depth": [2, 8]
  }
})";

TEST(CampaignSpec, ExpandsGridInSortedOdometerOrder) {
  const CampaignSpec spec = CampaignSpec::Parse(kBaseSpec);
  EXPECT_EQ(spec.name, "test");
  EXPECT_EQ(spec.workers, 3u);
  ASSERT_EQ(spec.arms.size(), 4u);
  // Sorted grid keys: "ftl" varies slowest, "workload.queue_depth" fastest.
  EXPECT_EQ(spec.arms[0].name, "ftl=conventional,workload.queue_depth=2");
  EXPECT_EQ(spec.arms[1].name, "ftl=conventional,workload.queue_depth=8");
  EXPECT_EQ(spec.arms[2].name, "ftl=ppb,workload.queue_depth=2");
  EXPECT_EQ(spec.arms[3].name, "ftl=ppb,workload.queue_depth=8");
  EXPECT_EQ(spec.arms[0].device.kind, ssd::FtlKind::kConventional);
  EXPECT_EQ(spec.arms[2].device.kind, ssd::FtlKind::kPpb);
  EXPECT_EQ(spec.arms[1].merged.Get("workload")->Get("queue_depth")->AsUint(),
            8u);
}

TEST(CampaignSpec, AutoSeedDecorrelatesArms) {
  const CampaignSpec spec = CampaignSpec::Parse(kBaseSpec);
  EXPECT_EQ(spec.arms[0].seed, 100u);
  EXPECT_EQ(spec.arms[1].seed, 101u);
  EXPECT_EQ(spec.arms[3].seed, 103u);
}

TEST(CampaignSpec, ExplicitSeedOverridePinsArm) {
  const CampaignSpec spec = CampaignSpec::Parse(R"({
    "defaults": {"seed": 7, "workload": {"kind": "closed_loop"}},
    "grid": {"seed": [41, 42]}
  })");
  ASSERT_EQ(spec.arms.size(), 2u);
  EXPECT_EQ(spec.arms[0].seed, 41u);
  EXPECT_EQ(spec.arms[1].seed, 42u);
}

TEST(CampaignSpec, ExplicitArmsCrossWithGrid) {
  const CampaignSpec spec = CampaignSpec::Parse(R"({
    "defaults": {"workload": {"kind": "closed_loop"}},
    "grid": {"ftl": ["conventional", "ppb"]},
    "arms": [{"name": "base"}, {"name": "deep", "workload": {"queue_depth": 32}}]
  })");
  ASSERT_EQ(spec.arms.size(), 4u);
  EXPECT_EQ(spec.arms[0].name, "base:ftl=conventional");
  EXPECT_EQ(spec.arms[1].name, "deep:ftl=conventional");
  EXPECT_EQ(spec.arms[1].merged.Get("workload")->Get("queue_depth")->AsUint(),
            32u);
  EXPECT_EQ(spec.arms[3].name, "deep:ftl=ppb");
}

TEST(CampaignSpec, RejectsBadFields) {
  EXPECT_THROW(CampaignSpec::Parse(R"({"workers": 0})"), std::runtime_error);
  EXPECT_THROW(
      CampaignSpec::Parse(
          R"({"defaults": {"ftl": "nvm", "workload": {"kind": "closed_loop"}}})"),
      std::runtime_error);
  EXPECT_THROW(
      CampaignSpec::Parse(
          R"({"defaults": {"prefill_pct": 101, "workload": {"kind": "closed_loop"}}})"),
      std::runtime_error);
  // Workload object is mandatory per arm.
  EXPECT_THROW(CampaignSpec::Parse(R"({"defaults": {}})"), std::runtime_error);
  // Grid axes must be non-empty arrays.
  EXPECT_THROW(
      CampaignSpec::Parse(
          R"({"defaults": {"workload": {"kind": "closed_loop"}}, "grid": {"ftl": []}})"),
      std::runtime_error);
}

TEST(CampaignSpec, MalformedQosNamesTheFieldAndTheArm) {
  for (const char* qos : {"5", R"("weighted")", R"({"0": {"weight": 1}})",
                          "[3]"}) {
    try {
      CampaignSpec::Parse(std::string(R"({"arms": [{"name": "noisy", "qos": )") +
                          qos + R"(}], "defaults": {"workload": {}}})");
      FAIL() << "qos " << qos << " accepted";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("qos"), std::string::npos) << what;
      EXPECT_NE(what.find("\"noisy\""), std::string::npos) << what;
    }
  }
}

TEST(CampaignSpec, ByteSizesAcceptStringsAndNumbers) {
  const CampaignSpec spec = CampaignSpec::Parse(R"({
    "defaults": {"device_bytes": "64MiB", "page_size": 16384,
                  "workload": {"kind": "closed_loop"}}
  })");
  ASSERT_EQ(spec.arms.size(), 1u);
  EXPECT_EQ(spec.arms[0].merged.Get("device_bytes")->AsString(), "64MiB");
  EXPECT_EQ(spec.arms[0].device.geometry.page_size_bytes, 16384u);

  // The shared accessor behind every byte-size field.
  const Json v = Json::Parse(
      R"({"n": 4096, "s": "64MiB", "z": null, "bad": "64XB", "neg": -1,
          "flag": true})");
  EXPECT_EQ(v.GetBytesOr("n", 1), 4096u);
  EXPECT_EQ(v.GetBytesOr("s", 1), 64ull << 20);
  EXPECT_EQ(v.GetBytesOr("z", 7), 7u);        // null -> fallback
  EXPECT_EQ(v.GetBytesOr("absent", 7), 7u);
  EXPECT_THROW(v.GetBytesOr("bad", 1), std::invalid_argument);
  EXPECT_THROW(v.GetBytesOr("neg", 1), std::runtime_error);
  EXPECT_THROW(v.GetBytesOr("flag", 1), std::runtime_error);
}

TEST(CampaignSpec, SparePoolFloorFollowsWriteFrontiers) {
  // One frontier keeps ScaledConfig's floor (gc_threshold_high + 16 spare
  // blocks); eight need gc_threshold_high + 2 x 8 + 8.
  const CampaignSpec spec = CampaignSpec::Parse(R"({
    "defaults": {"device_bytes": "1GiB", "workload": {"kind": "closed_loop"}},
    "grid": {"write_frontiers": [1, 8]}
  })");
  const ssd::SsdConfig scaled = ssd::ScaledConfig(
      ssd::FtlKind::kConventional, 1ull << 30, 16 * 1024, 2.0);
  EXPECT_EQ(spec.arms[0].device.ftl.op_ratio, scaled.ftl.op_ratio);
  const ssd::SsdConfig& striped = spec.arms[1].device;
  EXPECT_EQ(striped.ftl.op_ratio,
            (striped.ftl.gc_threshold_high + 24.0) /
                static_cast<double>(striped.geometry.TotalBlocks()));
  EXPECT_GT(striped.ftl.op_ratio, scaled.ftl.op_ratio);
}

// --- Checks ----------------------------------------------------------------

const Json& CheckReport() {
  static const Json report = Json::Parse(R"({"arms": [
    {"metrics": {"p99": 200, "mean": 50, "zero": 0, "label": "x"}},
    {"metrics": {"p99": 100, "mean": 50}}]})");
  return report;
}

CheckVerdict Eval(const char* check) {
  return EvaluateCheck(Check::Parse(Json::Parse(check)), &CheckReport());
}

TEST(CampaignChecks, BaselineBandAndMinMax) {
  EXPECT_EQ(Eval(R"({"metric": "arms.1.metrics.p99", "baseline": 105,
                     "tolerance_pct": 10})").verdict, "pass");
  const CheckVerdict out = Eval(R"({"metric": "arms.1.metrics.p99",
                                    "baseline": 150, "tolerance_pct": 10})");
  EXPECT_EQ(out.verdict, "FAIL");
  EXPECT_EQ(out.detail, "100 in [135, 165]");
  EXPECT_EQ(Eval(R"({"metric": "arms.0.metrics.p99", "min": 200})").verdict,
            "pass");
  EXPECT_EQ(Eval(R"({"metric": "arms.0.metrics.p99", "min": 201})").verdict,
            "FAIL");
  EXPECT_EQ(Eval(R"({"metric": "arms.0.metrics.p99", "max": 199})").verdict,
            "FAIL");
  // Explicit bounds clip the band; the tightest wins.
  const CheckVerdict clipped = Eval(R"({"metric": "arms.0.metrics.p99",
      "baseline": 200, "tolerance_pct": 50, "max": 180})");
  EXPECT_EQ(clipped.verdict, "FAIL");
  EXPECT_EQ(clipped.detail, "200 in [100, 180]");
}

TEST(CampaignChecks, RatioStrictVersusInclusiveBounds) {
  // mean ratio is exactly 1: inclusive bounds admit it, strict ones do not.
  const char* kMean = R"("metric": "arms.1.metrics.mean",
                         "over": "arms.0.metrics.mean")";
  const auto with = [&](const std::string& bound) {
    return Eval(("{" + std::string(kMean) + ", " + bound + "}").c_str());
  };
  EXPECT_EQ(with(R"("max": 1)").verdict, "pass");
  EXPECT_EQ(with(R"("min": 1)").verdict, "pass");
  EXPECT_EQ(with(R"("exclusive_max": 1)").verdict, "FAIL");
  EXPECT_EQ(with(R"("exclusive_min": 1)").verdict, "FAIL");
  const CheckVerdict half = Eval(R"({"metric": "arms.1.metrics.p99",
      "over": "arms.0.metrics.p99", "exclusive_max": 1})");
  EXPECT_EQ(half.verdict, "pass");
  EXPECT_EQ(half.detail, "100 / 200 = 0.5 in [-inf, 1)");
  EXPECT_EQ(half.label, "arms.1.metrics.p99 / arms.0.metrics.p99");
  EXPECT_EQ(Eval(R"({"metric": "arms.0.metrics.p99",
                     "over": "arms.0.metrics.zero", "min": 0})").detail,
            "over is zero");
}

TEST(CampaignChecks, MissingPathFailsAndIsNeverSkipped) {
  for (const char* check :
       {R"({"metric": "arms.0.metrics.p50", "min": 0, "optional": true})",
        R"({"metric": "arms.2.metrics.p99", "min": 0})",
        R"({"metric": "arms.0.metrics.p99", "over": "arms.1.metrics.nope",
            "min": 0})",
        R"({"metric": "arms.0.metrics.label", "min": 0})"}) {
    EXPECT_EQ(Eval(check).verdict, "FAIL") << check;
  }
}

TEST(CampaignChecks, OptionalOnlySkipsAMissingReportFile) {
  const Check optional = Check::Parse(Json::Parse(
      R"({"file": "BENCH_x.json", "metric": "a", "min": 0,
          "optional": true})"));
  EXPECT_EQ(EvaluateCheck(optional, nullptr).verdict, "skip");
  Check required = optional;
  required.optional = false;
  const CheckVerdict missing = EvaluateCheck(required, nullptr);
  EXPECT_EQ(missing.verdict, "FAIL");
  EXPECT_EQ(missing.detail, "report file missing: BENCH_x.json");
  EXPECT_EQ(missing.label, "BENCH_x.json : a");
  // The report exists but the path does not: optional does not help.
  EXPECT_EQ(EvaluateCheck(optional, &CheckReport()).verdict, "FAIL");
}

TEST(CampaignChecks, MalformedChecksRejectedAtParse) {
  for (const char* check :
       {R"({"metric": "a"})",                              // no bound
        R"({"metric": "a", "tolerance_pct": 5})",          // tolerance alone
        R"({"metric": "a", "minimum": 1})",                // unknown key
        R"({"min": 1})",                                   // no metric
        R"({"metric": "a", "max": "big"})"}) {             // bad bound type
    EXPECT_THROW(Check::Parse(Json::Parse(check)), std::runtime_error)
        << check;
  }
  // In a spec, a malformed check fails the parse, before any arm can run;
  // so does a "file" (spec checks read the campaign's own report).
  const std::string spec_head =
      R"({"defaults": {"workload": {"kind": "closed_loop"}}, "checks": [)";
  try {
    CampaignSpec::Parse(spec_head + R"({"metric": "arms.0.ok"}]})");
    FAIL() << "bound-less check accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checks[0]"), std::string::npos);
  }
  EXPECT_THROW(CampaignSpec::Parse(spec_head +
                   R"({"file": "r.json", "metric": "a", "min": 1}]})"),
               std::runtime_error);
  EXPECT_EQ(CampaignSpec::Parse(spec_head +
                R"({"metric": "arms.0.metrics.iops", "min": 1}]})")
                .checks.size(),
            1u);
}

TEST(CampaignChecks, OrderingSeriesComparesValuesPairwise) {
  const auto with = [](const std::string& series, const char* order) {
    return Eval(("{\"series\": " + series + ", \"order\": \"" + order +
                 "\"}").c_str());
  };
  const std::string down = R"([{"metric": "arms.0.metrics.p99"},
                                {"metric": "arms.1.metrics.p99"}])";
  const std::string up = R"([{"metric": "arms.1.metrics.p99"},
                              {"metric": "arms.0.metrics.p99"}])";
  const CheckVerdict pass = with(down, "decreasing");
  EXPECT_EQ(pass.verdict, "pass");
  EXPECT_EQ(pass.detail, "200 > 100");
  EXPECT_EQ(pass.label, "decreasing series from arms.0.metrics.p99");
  EXPECT_EQ(with(down, "nonincreasing").verdict, "pass");
  // The wrong order fails, naming the first pair that breaks it.
  const CheckVerdict fail = with(up, "nonincreasing");
  EXPECT_EQ(fail.verdict, "FAIL");
  EXPECT_EQ(fail.detail,
            "100 >= 200 (series[0] -> series[1] breaks nonincreasing)");
  // Ties pass the non-strict order only.
  const char* kMeans = R"([{"metric": "arms.0.metrics.mean"},
                           {"metric": "arms.1.metrics.mean"}])";
  EXPECT_EQ(with(kMeans, "nonincreasing").verdict, "pass");
  EXPECT_EQ(with(kMeans, "decreasing").verdict, "FAIL");
  // Terms may be ratios: 50/50 = 1, then 100/200 = 0.5.
  EXPECT_EQ(with(R"([{"metric": "arms.1.metrics.mean", "over": "arms.0.metrics.mean"},
                     {"metric": "arms.1.metrics.p99", "over": "arms.0.metrics.p99"}])",
                 "decreasing")
                .detail,
            "1 > 0.5");
  // A missing path or a zero divisor fails, naming the term.
  const CheckVerdict missing =
      with(R"([{"metric": "arms.0.metrics.p99"}, {"metric": "arms.2.metrics.p99"}])",
           "decreasing");
  EXPECT_EQ(missing.verdict, "FAIL");
  EXPECT_EQ(missing.detail, "series[1]: metric path not found");
  const CheckVerdict zero =
      with(R"([{"metric": "arms.0.metrics.p99", "over": "arms.0.metrics.zero"},
               {"metric": "arms.1.metrics.p99"}])",
           "decreasing");
  EXPECT_EQ(zero.verdict, "FAIL");
  EXPECT_EQ(zero.detail, "series[0]: over is zero");
}

TEST(CampaignChecks, MalformedOrderingSeriesRejectedAtParse) {
  for (const char* check : {
           R"({"series": [{"metric": "a"}], "order": "decreasing"})",
           R"({"series": [{"metric": "a"}, {"metric": "b"}]})",
           R"({"series": [{"metric": "a"}, {"metric": "b"}], "order": "increasing"})",
           R"({"series": [{"metric": "a"}, {"over": "b"}], "order": "decreasing"})",
           R"({"series": [{"metric": "a"}, {"metric": "b", "max": 1}],
               "order": "decreasing"})",
           R"({"series": [{"metric": "a"}, "b"], "order": "decreasing"})",
           R"({"series": {"metric": "a"}, "order": "decreasing"})",
           R"({"series": [{"metric": "a"}, {"metric": "b"}],
               "order": "decreasing", "metric": "c"})",
           R"({"series": [{"metric": "a"}, {"metric": "b"}],
               "order": "decreasing", "max": 1})",
           R"({"metric": "a", "order": "decreasing", "max": 1})"}) {
    EXPECT_THROW(Check::Parse(Json::Parse(check)), std::runtime_error)
        << check;
  }
  // In a spec the malformed series fails the parse before any arm runs.
  EXPECT_THROW(
      CampaignSpec::Parse(
          R"({"defaults": {"workload": {"kind": "closed_loop"}}, "checks": [
              {"series": [{"metric": "a"}], "order": "decreasing"}]})"),
      std::runtime_error);
  // bench_check's form: a report file, which optional may skip.
  const Check gated = Check::Parse(Json::Parse(
      R"({"file": "BENCH_paper.json", "optional": true, "order": "decreasing",
          "series": [{"metric": "arms.0.x"}, {"metric": "arms.1.x"}]})"));
  EXPECT_EQ(gated.Label(), "BENCH_paper.json : decreasing series from arms.0.x");
  EXPECT_EQ(EvaluateCheck(gated, nullptr).verdict, "skip");
}

TEST(CampaignChecks, FailingCheckFailsASpecRun) {
  // What bench_spec does: apply a --set override to the spec root, parse,
  // run, then evaluate the spec's checks against the report.
  Json root = Json::Parse(R"({
    "campaign": "gate",
    "defaults": {"device_bytes": "64MiB", "prefill_pct": 50,
                 "workload": {"kind": "closed_loop", "requests": 200}},
    "checks": [{"name": "served", "metric": "arms.0.metrics.requests",
                "min": 200}]
  })");
  const auto run = [](const Json& spec_root) {
    const CampaignSpec spec = CampaignSpec::Parse(spec_root);
    const CampaignResult result = CampaignRunner(spec).Run();
    return EvaluateChecks(spec.checks, result.Report());
  };
  const std::vector<CheckVerdict> passing = run(root);
  ASSERT_EQ(passing.size(), 1u);
  EXPECT_EQ(passing[0].verdict, "pass") << passing[0].detail;

  SetJsonPath(root, "defaults.workload.requests", Json(std::uint64_t{100}));
  const std::vector<CheckVerdict> failing = run(root);
  ASSERT_EQ(failing.size(), 1u);
  EXPECT_TRUE(failing[0].failed());
  EXPECT_EQ(failing[0].detail, "100 in [200, inf]");
  const std::string table = FormatVerdicts(failing);
  EXPECT_NE(table.find("served  FAIL  100 in [200, inf]"), std::string::npos)
      << table;
  EXPECT_NE(table.find("1 checks, 1 failed"), std::string::npos) << table;
}

}  // namespace
}  // namespace ctflash::campaign
