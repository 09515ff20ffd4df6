// Comparison logic for the perf/memory regression gate (tools/mn_regress).
//
// A bench run writes BENCH_<name>.json (see bench::Reporter). The gate diffs
// the scalar "metrics" object of a fresh run against a committed baseline in
// bench/baselines/. Rules are chosen per metric NAME, because the name says
// what kind of quantity it is:
//
//   - byte/count metrics (arena, flash, sram, samples, invokes, ...) are
//     products of the deterministic planner/converter/sampler: any drift is
//     a real change, so they must match EXACTLY.
//   - r2 metrics involve host wall-clock measurements, so they only have to
//     stay above baseline - r2_drop (a lower bound; improving is fine).
//   - tail-latency metrics (p50/p95/p99 measured in host time) gate upward
//     only: getting faster is never a regression, and host timing varies
//     across machines, so the headroom is generous (default 2x baseline).
//     Virtual-tick tails ("..._ticks") are deterministic and stay EXACT.
//   - shed-rate metrics gate upward with a small absolute slack: a serving
//     change that silently sheds more traffic is a regression even when the
//     totals still look healthy.
//   - throughput metrics ("per_min"/"per_sec") gate downward only, with a
//     wide margin for machine variance.
//   - everything else (latency, energy, accuracy proxies) gets a symmetric
//     relative tolerance (default +-10%).
//
// Phases (wall-clock) and "series" arrays are informational and never gated.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "mini_json.hpp"

namespace mn::tools {

struct RegressConfig {
  double rel_tol = 0.10;  // relative tolerance for latency/energy-like metrics
  double r2_drop = 0.30;  // allowed absolute drop for r2 metrics
  // Serving-gate rules (see bench_serving): host-time tails may grow up to
  // (1 + tail_headroom) x baseline; shed rates may exceed baseline by at
  // most shed_slack (absolute); throughput may drop to
  // (1 - throughput_drop) x baseline.
  double tail_headroom = 1.0;
  double shed_slack = 0.02;
  double throughput_drop = 0.60;
  // Backend-gate rule: a "backend_speedup" metric (fast-over-reference ratio
  // measured by bench_kernels_micro) must stay at or above this absolute
  // floor, independent of what the committed baseline recorded — the fast
  // backend has to *earn* its place on every machine the gate runs on.
  double speedup_floor = 2.0;
  // Flight-recorder gate rule: a "p999" metric measured in host time gets a
  // wider one-sided headroom than p50/p95/p99 — a 1-in-1000 host-time tail
  // is the noisiest quantity the gate sees. ("..._p999_ticks" percentiles
  // are deterministic and stay exact via the tick marker, like every other
  // virtual-time tail.)
  double p999_headroom = 3.0;
};

// Parses one tolerance flag value. The whole text must be a single finite,
// non-negative number: empty text, leading blanks, trailing characters
// ("0.1x"), nan, inf, out-of-range and negative values all yield nullopt,
// so a typo can never silently become some other tolerance.
inline std::optional<double> parse_tolerance(const std::string& text) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])))
    return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || errno == ERANGE ||
      !std::isfinite(v) || v < 0.0)
    return std::nullopt;
  return v;
}

enum class Rule {
  kExact,
  kRelative,
  kR2LowerBound,
  kTailUpperBound,
  kShedUpperBound,
  kThroughputLowerBound,
  kSpeedupLowerBound,
  kP999UpperBound,
  kZeroExact,
  kStringEqual,
};

inline const char* rule_name(Rule r) {
  switch (r) {
    case Rule::kExact: return "exact";
    case Rule::kRelative: return "relative";
    case Rule::kR2LowerBound: return "r2-lower-bound";
    case Rule::kTailUpperBound: return "tail-upper-bound";
    case Rule::kShedUpperBound: return "shed-upper-bound";
    case Rule::kThroughputLowerBound: return "throughput-lower";
    case Rule::kSpeedupLowerBound: return "speedup-floor";
    case Rule::kP999UpperBound: return "p999-upper-bound";
    case Rule::kZeroExact: return "zero-exact";
    case Rule::kStringEqual: return "string";
  }
  return "?";
}

// Substring match helper (metric names are lowercase snake_case by
// convention, so no case folding needed).
inline bool contains(const std::string& s, const char* sub) {
  return s.find(sub) != std::string::npos;
}

// Picks the comparison rule from the metric name alone, so adding a metric
// to a bench automatically gates it with sensible semantics.
inline Rule classify_metric(const std::string& name) {
  // Event-accounting invariants ("every admitted request reaches exactly one
  // terminal event") are absolute: the metric must be zero regardless of
  // what the baseline recorded. Checked first so no other marker (e.g. a
  // "..._count" suffix) can soften the rule.
  if (contains(name, "accounting")) return Rule::kZeroExact;
  if (contains(name, "r2")) return Rule::kR2LowerBound;
  // Deliberately "backend_speedup", not "speedup": fig3's "anomaly_speedup"
  // is an unrelated simulated ratio that must keep its relative rule.
  if (contains(name, "backend_speedup")) return Rule::kSpeedupLowerBound;
  static const char* kExactMarkers[] = {
      "bytes", "flash", "sram", "arena",  "samples", "invokes",
      "layers", "models", "count", "pareto", "size", "epochs",
      "ticks", "violations",
  };
  for (const char* m : kExactMarkers)
    if (contains(name, m)) return Rule::kExact;
  // Host-time order statistics: only growing is a regression. Checked after
  // the exact markers so deterministic "..._ticks" percentiles stay exact.
  // p999 before p99 (substring!) so the extreme tail gets its wider headroom.
  if (contains(name, "p999")) return Rule::kP999UpperBound;
  if (contains(name, "p50") || contains(name, "p95") || contains(name, "p99"))
    return Rule::kTailUpperBound;
  if (contains(name, "shed_rate")) return Rule::kShedUpperBound;
  if (contains(name, "per_min") || contains(name, "per_sec"))
    return Rule::kThroughputLowerBound;
  return Rule::kRelative;
}

struct MetricCheck {
  std::string name;
  Rule rule = Rule::kRelative;
  bool pass = false;
  std::string baseline_str, current_str;
  std::string detail;  // human-readable "why" for failures
};

struct RegressResult {
  std::string bench;  // from the baseline's "bench" field
  std::vector<MetricCheck> checks;
  std::string error;  // non-empty = structural failure (bad file, missing key)

  bool ok() const {
    if (!error.empty()) return false;
    for (const MetricCheck& c : checks)
      if (!c.pass) return false;
    return true;
  }
  int failures() const {
    int n = 0;
    for (const MetricCheck& c : checks) n += c.pass ? 0 : 1;
    return n;
  }
};

inline std::string num_str(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

inline MetricCheck check_metric(const std::string& name, const JsonValue& base,
                                const JsonValue* cur, const RegressConfig& cfg) {
  MetricCheck c;
  c.name = name;
  if (base.kind == JsonValue::Kind::kString) {
    c.rule = Rule::kStringEqual;
    c.baseline_str = base.str;
    if (!cur) {
      c.detail = "missing from current run";
      return c;
    }
    c.current_str = cur->str;
    c.pass = cur->kind == JsonValue::Kind::kString && cur->str == base.str;
    if (!c.pass) c.detail = "string changed";
    return c;
  }
  c.rule = classify_metric(name);
  c.baseline_str = num_str(base.number);
  if (!cur) {
    c.detail = "missing from current run";
    return c;
  }
  if (!cur->is_number()) {
    c.detail = "current value is not a number";
    return c;
  }
  c.current_str = num_str(cur->number);
  const double b = base.number, v = cur->number;
  switch (c.rule) {
    case Rule::kExact:
      c.pass = v == b;
      if (!c.pass) c.detail = "exact-match metric changed";
      break;
    case Rule::kR2LowerBound:
      c.pass = v >= b - cfg.r2_drop;
      if (!c.pass)
        c.detail = "r2 dropped below baseline - " + num_str(cfg.r2_drop);
      break;
    case Rule::kTailUpperBound:
      c.pass = v <= b * (1.0 + cfg.tail_headroom);
      if (!c.pass)
        c.detail = "tail latency grew past baseline x " +
                   num_str(1.0 + cfg.tail_headroom);
      break;
    case Rule::kShedUpperBound:
      c.pass = v <= b + cfg.shed_slack;
      if (!c.pass)
        c.detail = "shed rate exceeds baseline + " + num_str(cfg.shed_slack);
      break;
    case Rule::kThroughputLowerBound:
      c.pass = v >= b * (1.0 - cfg.throughput_drop);
      if (!c.pass)
        c.detail = "throughput fell below baseline x " +
                   num_str(1.0 - cfg.throughput_drop);
      break;
    case Rule::kSpeedupLowerBound:
      // Absolute floor, not baseline-relative: the fast backend must deliver
      // at least speedup_floor x on the machine the gate runs on.
      c.pass = v >= cfg.speedup_floor;
      if (!c.pass)
        c.detail = "backend speedup below floor " + num_str(cfg.speedup_floor);
      break;
    case Rule::kP999UpperBound:
      c.pass = v <= b * (1.0 + cfg.p999_headroom);
      if (!c.pass)
        c.detail = "p999 tail grew past baseline x " +
                   num_str(1.0 + cfg.p999_headroom);
      break;
    case Rule::kZeroExact:
      // Absolute invariant, baseline-independent: any non-zero value means a
      // request was lost or double-terminated by the serving engine.
      c.pass = v == 0.0;
      if (!c.pass) c.detail = "accounting invariant violated (must be 0)";
      break;
    case Rule::kRelative: {
      const double denom = std::fabs(b) > 0 ? std::fabs(b) : 1.0;
      const double rel = std::fabs(v - b) / denom;
      c.pass = rel <= cfg.rel_tol;
      c.detail = "rel-delta " + num_str(rel) +
                 (c.pass ? "" : " exceeds tol " + num_str(cfg.rel_tol));
      break;
    }
    case Rule::kStringEqual: break;  // handled above
  }
  return c;
}

// Diffs current against baseline. Both must be parsed BENCH_*.json documents
// with a "metrics" object. Every baseline metric must be present and within
// rule in the current run; metrics only present in the current run are
// reported as informational passes (they become gated once the baseline is
// regenerated).
inline RegressResult compare_reports(const JsonValue& baseline,
                                     const JsonValue& current,
                                     const RegressConfig& cfg) {
  RegressResult r;
  if (const JsonValue* b = baseline.find("bench")) r.bench = b->str;
  const JsonValue* bm = baseline.find("metrics");
  const JsonValue* cm = current.find("metrics");
  if (!bm || !bm->is_object()) {
    r.error = "baseline has no \"metrics\" object";
    return r;
  }
  if (!cm || !cm->is_object()) {
    r.error = "current run has no \"metrics\" object";
    return r;
  }
  for (const auto& [name, base] : bm->object)
    r.checks.push_back(check_metric(name, base, cm->find(name), cfg));
  for (const auto& [name, cur] : cm->object) {
    if (bm->find(name)) continue;
    MetricCheck c;
    c.name = name;
    c.rule = classify_metric(name);
    c.pass = true;
    c.baseline_str = "(new)";
    c.current_str = cur.is_number() ? num_str(cur.number) : cur.str;
    c.detail = "not in baseline; informational";
    r.checks.push_back(std::move(c));
  }
  return r;
}

// Renders the per-metric table mn_regress prints for one bench pair.
inline std::string render_table(const RegressResult& r) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "== %s ==\n",
                r.bench.empty() ? "(unnamed bench)" : r.bench.c_str());
  out += line;
  if (!r.error.empty()) {
    out += "  ERROR: " + r.error + "\n";
    return out;
  }
  std::snprintf(line, sizeof(line), "  %-34s %-15s %13s %13s  %s\n", "metric",
                "rule", "baseline", "current", "result");
  out += line;
  for (const MetricCheck& c : r.checks) {
    std::snprintf(line, sizeof(line), "  %-34s %-15s %13s %13s  %s%s%s\n",
                  c.name.c_str(), rule_name(c.rule), c.baseline_str.c_str(),
                  c.current_str.c_str(), c.pass ? "PASS" : "FAIL",
                  c.detail.empty() ? "" : " - ", c.detail.c_str());
    out += line;
  }
  return out;
}

}  // namespace mn::tools
