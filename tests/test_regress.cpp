// PR 5: the perf/memory regression gate (tools/mn_regress). Covers the
// mini JSON reader against the exact documents bench::Reporter writes, the
// name-driven rule classification, and the gate semantics the CI target
// relies on: identical runs pass, >10% latency drift fails naming the
// metric, byte metrics fail on any drift, r^2 metrics are lower-bounded.
#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>

#include "bench_util.hpp"
#include "mini_json.hpp"
#include "regress_core.hpp"

namespace mn {
namespace {

using tools::JsonParser;
using tools::JsonValue;
using tools::RegressConfig;
using tools::RegressResult;
using tools::Rule;

JsonValue parse_ok(const std::string& text) {
  JsonParser p;
  JsonValue v;
  EXPECT_TRUE(p.parse(text, &v)) << p.error();
  return v;
}

TEST(MiniJson, ParsesScalarsArraysObjects) {
  const JsonValue v = parse_ok(
      R"({"s": "a\"b\nc", "n": -12.5e2, "t": true, "f": false, "z": null,)"
      R"( "arr": [1, 2, 3], "obj": {"k": 1}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("s")->str, "a\"b\nc");
  EXPECT_DOUBLE_EQ(v.find("n")->number, -1250.0);
  EXPECT_TRUE(v.find("t")->boolean);
  EXPECT_FALSE(v.find("f")->boolean);
  EXPECT_EQ(v.find("z")->kind, JsonValue::Kind::kNull);
  ASSERT_EQ(v.find("arr")->array.size(), 3u);
  EXPECT_DOUBLE_EQ(v.find("arr")->array[1].number, 2.0);
  EXPECT_DOUBLE_EQ(v.find("obj")->find("k")->number, 1.0);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(MiniJson, RejectsMalformedInput) {
  JsonParser p;
  JsonValue v;
  EXPECT_FALSE(p.parse("{\"a\": 1", &v));       // unterminated object
  EXPECT_FALSE(p.parse("{\"a\": }", &v));       // missing value
  EXPECT_FALSE(p.parse("[1, 2,]", &v));         // trailing comma
  EXPECT_FALSE(p.parse("\"unterminated", &v));  // unterminated string
  EXPECT_FALSE(p.parse("{} trailing", &v));     // garbage after document
  EXPECT_FALSE(p.error().empty());
}

TEST(MiniJson, RoundTripsReporterOutput) {
  // The reader must accept exactly what bench::Reporter writes.
  bench::BenchOptions opt;
  bench::Reporter r("gate_selftest", opt);
  r.phase("work");
  r.metric("arena_bytes", 40000.0);
  r.metric("latency_us", 177.25);
  r.metric("device", "STM32F746ZG");
  r.series("occupancy", {1.0, 2.0, 3.0});
  const JsonValue doc = parse_ok(r.json());
  EXPECT_EQ(doc.find("bench")->str, "gate_selftest");
  const JsonValue* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_DOUBLE_EQ(metrics->find("arena_bytes")->number, 40000.0);
  EXPECT_DOUBLE_EQ(metrics->find("latency_us")->number, 177.25);
  EXPECT_EQ(metrics->find("device")->str, "STM32F746ZG");
  ASSERT_EQ(doc.find("series")->find("occupancy")->array.size(), 3u);
  // Reporter::finish() would also write BENCH_gate_selftest.json; json()
  // alone does not touch the filesystem, so nothing to clean up.
}

TEST(RegressRules, ClassifiesByMetricName) {
  EXPECT_EQ(tools::classify_metric("kws_arena_bytes"), Rule::kExact);
  EXPECT_EQ(tools::classify_metric("total_flash_bytes"), Rule::kExact);
  EXPECT_EQ(tools::classify_metric("layer_samples"), Rule::kExact);
  EXPECT_EQ(tools::classify_metric("kws_profile_invokes"), Rule::kExact);
  EXPECT_EQ(tools::classify_metric("pareto_size"), Rule::kExact);
  EXPECT_EQ(tools::classify_metric("r2_host_vs_predicted"),
            Rule::kR2LowerBound);
  EXPECT_EQ(tools::classify_metric("f446re_energy_r2"), Rule::kR2LowerBound);
  EXPECT_EQ(tools::classify_metric("kws_predicted_us_per_invoke"),
            Rule::kRelative);
  EXPECT_EQ(tools::classify_metric("kws_energy_uj_per_invoke"),
            Rule::kRelative);
  EXPECT_EQ(tools::classify_metric("anomaly_speedup"), Rule::kRelative);
  // Serving-gate rules (PR 6). Deterministic virtual-time metrics are exact;
  // host-clock tails, shed rates, and throughput get one-sided bounds.
  EXPECT_EQ(tools::classify_metric("baseline_p99_ticks"), Rule::kExact);
  EXPECT_EQ(tools::classify_metric("baseline_deadline_violations"),
            Rule::kExact);
  EXPECT_EQ(tools::classify_metric("chaos_quarantines_count"), Rule::kExact);
  EXPECT_EQ(tools::classify_metric("baseline_p99_host_us"),
            Rule::kTailUpperBound);
  EXPECT_EQ(tools::classify_metric("chaos_p50_host_us"),
            Rule::kTailUpperBound);
  EXPECT_EQ(tools::classify_metric("chaos_shed_rate"), Rule::kShedUpperBound);
  EXPECT_EQ(tools::classify_metric("baseline_streams_per_min"),
            Rule::kThroughputLowerBound);
  EXPECT_EQ(tools::classify_metric("requests_per_sec"),
            Rule::kThroughputLowerBound);
  // Backend-gate rules (PR 8). Only the "backend_speedup" marker selects the
  // absolute floor; fig3's simulated "anomaly_speedup" (asserted kRelative
  // above) must never be captured by it. Mismatch/shape counts stay exact.
  EXPECT_EQ(tools::classify_metric("kws_body_25x5x64_backend_speedup"),
            Rule::kSpeedupLowerBound);
  EXPECT_EQ(tools::classify_metric("conv_backend_speedup_min"),
            Rule::kSpeedupLowerBound);
  EXPECT_EQ(tools::classify_metric("fc_1024x128_backend_speedup"),
            Rule::kSpeedupLowerBound);
  EXPECT_EQ(tools::classify_metric("ab_mismatch_count"), Rule::kExact);
  EXPECT_EQ(tools::classify_metric("conv_shapes_count"), Rule::kExact);
  EXPECT_EQ(tools::classify_metric("img_conv_20x20x64_fast_us_p50"),
            Rule::kTailUpperBound);
  // Flight-recorder rules (PR 10). "accounting" wins over everything (the
  // exactly-one-terminal invariant must be zero); "p999" in virtual ticks
  // stays exact via the "ticks" marker, while host-clock p999 gets its own
  // wider headroom (the extreme tail is noisier than p99); "p999" must be
  // checked before "p99" (substring!).
  EXPECT_EQ(tools::classify_metric("chaos_accounting_unterminated"),
            Rule::kZeroExact);
  EXPECT_EQ(tools::classify_metric("chaos_accounting_multi_terminal"),
            Rule::kZeroExact);
  EXPECT_EQ(tools::classify_metric("chaos_t0_p999_ticks"), Rule::kExact);
  EXPECT_EQ(tools::classify_metric("chaos_fleet_p999_ticks"), Rule::kExact);
  EXPECT_EQ(tools::classify_metric("chaos_p999_host_us"),
            Rule::kP999UpperBound);
  EXPECT_EQ(tools::classify_metric("baseline_p999_host_us"),
            Rule::kP999UpperBound);
  EXPECT_EQ(tools::classify_metric("chaos_event_count"), Rule::kExact);
  EXPECT_EQ(tools::classify_metric("chaos_events_dropped_count"),
            Rule::kExact);
  EXPECT_EQ(tools::classify_metric("chaos_postmortem_count"), Rule::kExact);
}

std::string report_doc(const std::string& metrics) {
  return R"({"bench": "unit", "mode": "fast", "threads": 1, "phases": [],)"
         R"( "metrics": {)" + metrics + R"(}, "series": {}})";
}

RegressResult diff(const std::string& base_metrics,
                   const std::string& cur_metrics,
                   const RegressConfig& cfg = {}) {
  const JsonValue b = parse_ok(report_doc(base_metrics));
  const JsonValue c = parse_ok(report_doc(cur_metrics));
  return tools::compare_reports(b, c, cfg);
}

TEST(RegressGate, IdenticalRunsPass) {
  const std::string m =
      R"("arena_bytes": 40000, "latency_us": 177.2, "r2_fit": 0.85)";
  const RegressResult r = diff(m, m);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.failures(), 0);
  EXPECT_EQ(r.bench, "unit");
}

TEST(RegressGate, LatencyDriftBeyondTolFailsNamingMetric) {
  // +15% drift on a relative metric with the default 10% tolerance.
  const RegressResult r =
      diff(R"("latency_us": 100.0)", R"("latency_us": 115.0)");
  EXPECT_FALSE(r.ok());
  ASSERT_EQ(r.checks.size(), 1u);
  EXPECT_EQ(r.checks[0].name, "latency_us");
  EXPECT_FALSE(r.checks[0].pass);
  EXPECT_NE(tools::render_table(r).find("latency_us"), std::string::npos);
  EXPECT_NE(tools::render_table(r).find("FAIL"), std::string::npos);
  // +9% stays inside the default tolerance; a tightened tolerance catches it.
  EXPECT_TRUE(diff(R"("latency_us": 100.0)", R"("latency_us": 109.0)").ok());
  RegressConfig tight;
  tight.rel_tol = 0.05;
  EXPECT_FALSE(
      diff(R"("latency_us": 100.0)", R"("latency_us": 109.0)", tight).ok());
}

TEST(RegressGate, ByteMetricsFailOnAnyDrift) {
  EXPECT_TRUE(diff(R"("arena_bytes": 40000)", R"("arena_bytes": 40000)").ok());
  // One byte of drift on an exact metric fails, even though it is far
  // inside any relative tolerance.
  const RegressResult r =
      diff(R"("arena_bytes": 40000)", R"("arena_bytes": 40001)");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.checks[0].rule, Rule::kExact);
}

TEST(RegressGate, R2IsLowerBoundedOnly) {
  // Improving r^2 always passes; dropping more than r2_drop fails.
  EXPECT_TRUE(diff(R"("r2_fit": 0.85)", R"("r2_fit": 0.99)").ok());
  EXPECT_TRUE(diff(R"("r2_fit": 0.85)", R"("r2_fit": 0.60)").ok());
  const RegressResult r = diff(R"("r2_fit": 0.85)", R"("r2_fit": 0.50)");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.checks[0].rule, Rule::kR2LowerBound);
}

TEST(RegressGate, TailMetricsAreUpperBoundedWithHeadroom) {
  // Host-clock tail latencies may improve freely; they regress only past
  // baseline * (1 + tail_headroom). Default headroom 1.0 allows 2x.
  EXPECT_TRUE(diff(R"("p99_host_us": 100.0)", R"("p99_host_us": 5.0)").ok());
  EXPECT_TRUE(diff(R"("p99_host_us": 100.0)", R"("p99_host_us": 199.0)").ok());
  const RegressResult r =
      diff(R"("p99_host_us": 100.0)", R"("p99_host_us": 201.0)");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.checks[0].rule, Rule::kTailUpperBound);
  RegressConfig tight;
  tight.tail_headroom = 0.10;
  EXPECT_FALSE(
      diff(R"("p99_host_us": 100.0)", R"("p99_host_us": 115.0)", tight).ok());
}

TEST(RegressGate, P999HasItsOwnWiderHeadroom) {
  // The extreme tail may improve freely and gets a wider default headroom
  // than p99 (default 3.0 allows 4x baseline); past that it fails.
  EXPECT_TRUE(
      diff(R"("p999_host_us": 100.0)", R"("p999_host_us": 10.0)").ok());
  EXPECT_TRUE(
      diff(R"("p999_host_us": 100.0)", R"("p999_host_us": 399.0)").ok());
  const RegressResult r =
      diff(R"("p999_host_us": 100.0)", R"("p999_host_us": 401.0)");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.checks[0].rule, Rule::kP999UpperBound);
  RegressConfig tight;
  tight.p999_headroom = 0.50;
  EXPECT_FALSE(
      diff(R"("p999_host_us": 100.0)", R"("p999_host_us": 160.0)", tight)
          .ok());
}

TEST(RegressGate, AccountingInvariantsMustBeZero) {
  // Zero-exact metrics ignore the baseline value entirely: the current value
  // must be 0, so the invariant holds even if a bad baseline was committed.
  EXPECT_TRUE(diff(R"("chaos_accounting_unterminated": 0)",
                   R"("chaos_accounting_unterminated": 0)")
                  .ok());
  const RegressResult r = diff(R"("chaos_accounting_unterminated": 0)",
                               R"("chaos_accounting_unterminated": 1)");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.checks[0].rule, Rule::kZeroExact);
  // Even a nonzero baseline does not excuse a nonzero current value.
  EXPECT_FALSE(diff(R"("chaos_accounting_orphan_terminal": 2)",
                    R"("chaos_accounting_orphan_terminal": 2)")
                   .ok());
}

TEST(RegressGate, ShedRateIsUpperBoundedWithAbsoluteSlack) {
  // Shedding less than baseline is always fine; exceeding baseline by more
  // than the absolute shed_slack (default 0.02) fails.
  EXPECT_TRUE(diff(R"("chaos_shed_rate": 0.10)", R"("chaos_shed_rate": 0.0)")
                  .ok());
  EXPECT_TRUE(diff(R"("chaos_shed_rate": 0.10)", R"("chaos_shed_rate": 0.11)")
                  .ok());
  const RegressResult r =
      diff(R"("chaos_shed_rate": 0.10)", R"("chaos_shed_rate": 0.13)");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.checks[0].rule, Rule::kShedUpperBound);
  RegressConfig loose;
  loose.shed_slack = 0.05;
  EXPECT_TRUE(
      diff(R"("chaos_shed_rate": 0.10)", R"("chaos_shed_rate": 0.13)", loose)
          .ok());
}

TEST(RegressGate, ThroughputIsLowerBoundedOnly) {
  // Faster is always a pass; a drop beyond throughput_drop (default 60%,
  // sized for CI-runner variance on wall-clock throughput) fails.
  EXPECT_TRUE(
      diff(R"("streams_per_min": 1e6)", R"("streams_per_min": 9e6)").ok());
  EXPECT_TRUE(
      diff(R"("streams_per_min": 1e6)", R"("streams_per_min": 5e5)").ok());
  const RegressResult r =
      diff(R"("streams_per_min": 1e6)", R"("streams_per_min": 3e5)");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.checks[0].rule, Rule::kThroughputLowerBound);
  RegressConfig strict;
  strict.throughput_drop = 0.10;
  EXPECT_FALSE(
      diff(R"("streams_per_min": 1e6)", R"("streams_per_min": 8.5e5)", strict)
          .ok());
}

TEST(RegressFlags, ToleranceValuesParseStrictly) {
  // mn_regress exits 2 with its usage text whenever this returns nullopt.
  using tools::parse_tolerance;
  EXPECT_EQ(parse_tolerance("0.1"), 0.1);
  EXPECT_EQ(parse_tolerance("0"), 0.0);
  EXPECT_EQ(parse_tolerance("3"), 3.0);
  EXPECT_EQ(parse_tolerance("2.5e-1"), 0.25);
  // Garbage and empty text.
  EXPECT_EQ(parse_tolerance("abc"), std::nullopt);
  EXPECT_EQ(parse_tolerance(""), std::nullopt);
  EXPECT_EQ(parse_tolerance("."), std::nullopt);
  // A number with anything around it.
  EXPECT_EQ(parse_tolerance("0.1x"), std::nullopt);
  EXPECT_EQ(parse_tolerance("0.1 "), std::nullopt);
  EXPECT_EQ(parse_tolerance(" 0.1"), std::nullopt);
  EXPECT_EQ(parse_tolerance("1,5"), std::nullopt);
  // Non-finite and out of range.
  EXPECT_EQ(parse_tolerance("nan"), std::nullopt);
  EXPECT_EQ(parse_tolerance("NAN"), std::nullopt);
  EXPECT_EQ(parse_tolerance("inf"), std::nullopt);
  EXPECT_EQ(parse_tolerance("infinity"), std::nullopt);
  EXPECT_EQ(parse_tolerance("1e999"), std::nullopt);
  // Negative.
  EXPECT_EQ(parse_tolerance("-0.1"), std::nullopt);
  EXPECT_EQ(parse_tolerance("-inf"), std::nullopt);
}

TEST(RegressGate, BackendSpeedupIsAnAbsoluteFloorNotBaselineRelative) {
  // The fast backend must clear the floor on the gate's machine regardless
  // of what the committed baseline measured: a 4.5x baseline with a 2.1x
  // current run still passes (the floor is 2.0, not 4.5 - 10%), while a
  // 1.9x current run fails even if the baseline itself was marginal.
  EXPECT_TRUE(diff(R"("conv_backend_speedup_min": 4.5)",
                   R"("conv_backend_speedup_min": 2.1)")
                  .ok());
  EXPECT_TRUE(diff(R"("conv_backend_speedup_min": 2.1)",
                   R"("conv_backend_speedup_min": 6.0)")
                  .ok());
  const RegressResult r = diff(R"("conv_backend_speedup_min": 2.1)",
                               R"("conv_backend_speedup_min": 1.9)");
  EXPECT_FALSE(r.ok());
  ASSERT_EQ(r.checks.size(), 1u);
  EXPECT_EQ(r.checks[0].rule, Rule::kSpeedupLowerBound);
  EXPECT_NE(r.checks[0].detail.find("floor"), std::string::npos);
  RegressConfig strict;
  strict.speedup_floor = 3.0;
  EXPECT_FALSE(diff(R"("conv_backend_speedup_min": 4.0)",
                    R"("conv_backend_speedup_min": 2.5)", strict)
                   .ok());
}

TEST(ChaosSpec, ParsesWellFormedSpecs) {
  const bench::ChaosOptions a = bench::parse_chaos_spec("7:0.05");
  EXPECT_TRUE(a.enabled);
  EXPECT_EQ(a.seed, 7u);
  EXPECT_DOUBLE_EQ(a.rate, 0.05);
  EXPECT_DOUBLE_EQ(bench::parse_chaos_spec("0:0").rate, 0.0);
  EXPECT_DOUBLE_EQ(bench::parse_chaos_spec("123456789:1.0").rate, 1.0);
}

TEST(ChaosSpec, RejectsMalformedSpecs) {
  // Each of these used to either throw an unhelpful std::stoull/std::stod
  // exception or silently parse to something the invoker did not ask for.
  EXPECT_THROW(bench::parse_chaos_spec(""), std::invalid_argument);
  EXPECT_THROW(bench::parse_chaos_spec("7"), std::invalid_argument);
  EXPECT_THROW(bench::parse_chaos_spec(":0.5"), std::invalid_argument);
  EXPECT_THROW(bench::parse_chaos_spec("7:"), std::invalid_argument);
  // Negative seed: stoull would silently wrap -1 to 2^64-1.
  EXPECT_THROW(bench::parse_chaos_spec("-1:0.5"), std::invalid_argument);
  EXPECT_THROW(bench::parse_chaos_spec("abc:0.5"), std::invalid_argument);
  EXPECT_THROW(bench::parse_chaos_spec("7x:0.5"), std::invalid_argument);
  // Rate: non-numeric, trailing garbage, out of range, or non-finite (NaN
  // compares false against both bounds, so it used to slip through).
  EXPECT_THROW(bench::parse_chaos_spec("7:abc"), std::invalid_argument);
  EXPECT_THROW(bench::parse_chaos_spec("7:0.5x"), std::invalid_argument);
  EXPECT_THROW(bench::parse_chaos_spec("7:-0.1"), std::invalid_argument);
  EXPECT_THROW(bench::parse_chaos_spec("7:1.5"), std::invalid_argument);
  EXPECT_THROW(bench::parse_chaos_spec("7:nan"), std::invalid_argument);
  EXPECT_THROW(bench::parse_chaos_spec("7:inf"), std::invalid_argument);
  EXPECT_THROW(bench::parse_chaos_spec("7: 0.5"), std::invalid_argument);
}

TEST(RegressGate, MissingAndStructuralCasesFail) {
  // Baseline metric absent from the current run: fail.
  const RegressResult missing = diff(R"("arena_bytes": 40000)", "");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.checks[0].detail, "missing from current run");
  // Metric only in the current run: informational pass.
  const RegressResult extra = diff("", R"("new_metric": 1.0)");
  EXPECT_TRUE(extra.ok());
  ASSERT_EQ(extra.checks.size(), 1u);
  EXPECT_EQ(extra.checks[0].baseline_str, "(new)");
  // String metrics compare exactly.
  EXPECT_TRUE(diff(R"("device": "F746ZG")", R"("device": "F746ZG")").ok());
  EXPECT_FALSE(diff(R"("device": "F746ZG")", R"("device": "F446RE")").ok());
  // A document without "metrics" is a structural error, not a crash.
  const JsonValue no_metrics = parse_ok(R"({"bench": "x"})");
  const JsonValue ok_doc = parse_ok(report_doc(""));
  RegressConfig cfg;
  EXPECT_FALSE(tools::compare_reports(no_metrics, ok_doc, cfg).ok());
  EXPECT_FALSE(tools::compare_reports(ok_doc, no_metrics, cfg).ok());
}

}  // namespace
}  // namespace mn
