// Measurement plumbing shared by the zoo and fleet phases: order
// statistics and the metric ledger that prints the result.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>


namespace zb {

using Clock = std::chrono::steady_clock;

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// Linear-interpolation quantile (Python's statistics "inclusive" method);
// 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double geomean(const std::vector<double>& v);
double mean(const std::vector<double>& v);

// Named metrics with units, printed as a table and as the result's
// "metrics" object.
class Ledger {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  // Prints "  name  value unit" rows for `names` (all metrics when empty).
  void print_table(const std::vector<std::string>& names) const;
  // {"name": {"value": v, "unit": "u"}, ...} for `names`, in that order.
  std::string json(const std::vector<std::string>& names) const;

 private:
  struct Entry {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Entry> values_;
};

}  // namespace zb
