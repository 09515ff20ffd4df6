// mn_regress: the CI perf/memory regression gate.
//
// Usage:
//   mn_regress [--rel-tol F] [--r2-drop F] [--tail-headroom F]
//              [--shed-slack F] [--throughput-drop F] [--speedup-floor F]
//              [--p999-headroom F]
//              BASELINE CURRENT [BASELINE CURRENT]...
//
// Every F must be a whole, finite, non-negative number; anything else (a
// missing value, "abc", "0.1x", nan, -1) prints the usage and exits 2.
//
// Each (BASELINE, CURRENT) pair is a committed bench/baselines/BENCH_*.json
// and the BENCH_*.json a fresh bench run just wrote. For every pair the gate
// prints a per-metric PASS/FAIL table (rule chosen by metric name — see
// regress_core.hpp) and exits nonzero if any metric fails, naming the
// offenders so the CI log says exactly what regressed.
//
// Wired up as `cmake --build build --target check-regression`, which runs
// the fig2/fig3/fig4/fig5 benches into build/regress/ and then this tool.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "mini_json.hpp"
#include "regress_core.hpp"

namespace {

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage: mn_regress [--rel-tol F] [--r2-drop F] "
               "[--tail-headroom F] [--shed-slack F] [--throughput-drop F] "
               "[--speedup-floor F] [--p999-headroom F] "
               "BASELINE CURRENT [BASELINE CURRENT]...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  mn::tools::RegressConfig cfg;
  const struct {
    const char* flag;
    double* value;
  } kFlags[] = {
      {"--rel-tol", &cfg.rel_tol},
      {"--r2-drop", &cfg.r2_drop},
      {"--tail-headroom", &cfg.tail_headroom},
      {"--shed-slack", &cfg.shed_slack},
      {"--throughput-drop", &cfg.throughput_drop},
      {"--speedup-floor", &cfg.speedup_floor},
      {"--p999-headroom", &cfg.p999_headroom},
  };
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] != '-') {
      paths.push_back(argv[i]);
      continue;
    }
    double* value = nullptr;
    for (const auto& f : kFlags)
      if (std::strcmp(argv[i], f.flag) == 0) value = f.value;
    if (value == nullptr || i + 1 >= argc) return usage();
    const std::optional<double> v = mn::tools::parse_tolerance(argv[++i]);
    if (!v) return usage();
    *value = *v;
  }
  if (paths.empty() || paths.size() % 2 != 0) return usage();

  std::printf("mn_regress: rel-tol %.3f, r2-drop %.3f, %zu pair(s)\n",
              cfg.rel_tol, cfg.r2_drop, paths.size() / 2);

  int total_failures = 0;
  std::vector<std::string> failed_metrics;
  for (size_t i = 0; i + 1 < paths.size(); i += 2) {
    const std::string& base_path = paths[i];
    const std::string& cur_path = paths[i + 1];
    std::string base_text, cur_text;
    mn::tools::RegressResult result;
    mn::tools::JsonValue base_doc, cur_doc;
    mn::tools::JsonParser parser;
    if (!read_file(base_path, &base_text)) {
      result.error = "cannot read baseline " + base_path;
    } else if (!read_file(cur_path, &cur_text)) {
      result.error = "cannot read current " + cur_path;
    } else if (!parser.parse(base_text, &base_doc)) {
      result.error = "baseline " + base_path + ": " + parser.error();
    } else if (!parser.parse(cur_text, &cur_doc)) {
      result.error = "current " + cur_path + ": " + parser.error();
    } else {
      result = mn::tools::compare_reports(base_doc, cur_doc, cfg);
    }
    std::printf("%s", mn::tools::render_table(result).c_str());
    if (!result.error.empty()) {
      ++total_failures;
      failed_metrics.push_back(base_path + " (structural)");
      continue;
    }
    total_failures += result.failures();
    for (const mn::tools::MetricCheck& c : result.checks)
      if (!c.pass) failed_metrics.push_back(result.bench + "/" + c.name);
  }

  if (total_failures == 0) {
    std::printf("mn_regress: all metrics within tolerance\n");
    return 0;
  }
  std::printf("mn_regress: %d metric(s) REGRESSED:\n", total_failures);
  for (const std::string& m : failed_metrics)
    std::printf("  - %s\n", m.c_str());
  return 1;
}
