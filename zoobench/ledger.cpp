#include "ledger.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace zb {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// --- Ledger -----------------------------------------------------------------

void Ledger::set(const std::string& name, double value, const std::string& unit) {
  values_[name] = Entry{value, unit};
}

void Ledger::print_table(const std::vector<std::string>& names) const {
  auto row = [](const std::string& n, const Entry& e) {
    std::printf("  %-44s %16.6g %s\n", n.c_str(), e.value, e.unit.c_str());
  };
  if (names.empty()) {
    for (const auto& [n, e] : values_) row(n, e);
    return;
  }
  for (const std::string& n : names) row(n, values_.at(n));
}

std::string Ledger::json(const std::vector<std::string>& names) const {
  std::string out = "{";
  for (size_t i = 0; i < names.size(); ++i) {
    const Entry& e = values_.at(names[i]);
    char num[64];
    // %.17g keeps every digit; JSON has no NaN/Inf, so those become 0.
    std::snprintf(num, sizeof(num), "%.17g", std::isfinite(e.value) ? e.value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + names[i] + "\": {\"value\": " + num + ", \"unit\": \"" +
           e.unit + "\"}";
  }
  return out + "}";
}

}  // namespace zb
