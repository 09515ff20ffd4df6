#include "runtime/profile.hpp"

#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace mn::rt {

namespace {

std::string fmt(const char* format, ...) {
  char buf[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

}  // namespace

int64_t ProfileReport::total_wall_ns() const {
  int64_t n = 0;
  for (const OpProfile& op : ops) n += op.wall_ns;
  return n;
}

double ProfileReport::total_predicted_s() const {
  double s = 0.0;
  for (const OpProfile& op : ops) s += op.predicted_s;
  return s;
}

int64_t ProfileReport::predicted_cycles(size_t i) const {
  if (!has_predictions() || i >= ops.size()) return 0;
  return static_cast<int64_t>(std::llround(ops[i].predicted_s * clock_mhz * 1e6));
}

std::string ProfileReport::table() const {
  std::string out;
  out += fmt("profile '%s': %lld invoke(s), %s kernels", model_name.c_str(),
             static_cast<long long>(invocations), kernel_isa);
  if (has_predictions())
    out += fmt(", predictions for %s @ %.0f MHz", device_name.c_str(), clock_mhz);
  out += "\n";
  out += fmt("%-4s %-20s %-24s %-10s %12s %12s %12s %14s\n", "#", "op",
             "output", "backend", "MACs", "host us", "pred us", "pred cycles");
  for (size_t i = 0; i < ops.size(); ++i) {
    const OpProfile& op = ops[i];
    std::string pred_us = "-", pred_cyc = "-";
    if (has_predictions()) {
      pred_us = fmt("%.1f", op.predicted_us());
      pred_cyc = fmt("%lld", static_cast<long long>(predicted_cycles(i)));
    }
    out += fmt("%-4d %-20s %-24s %-10s %12lld %12.1f %12s %14s\n", op.op_index,
               op_type_name(op.type), op.output_name.c_str(), op.backend,
               static_cast<long long>(op.macs), op.measured_us(),
               pred_us.c_str(), pred_cyc.c_str());
  }
  const double host_us = invocations > 0
                             ? static_cast<double>(total_wall_ns()) /
                                   (1e3 * static_cast<double>(invocations))
                             : 0.0;
  out += fmt("totals: host %.1f us/invoke", host_us);
  if (has_predictions())
    out += fmt(", predicted %.1f us/invoke", total_predicted_s() * 1e6);
  out += "\n";
  return out;
}

}  // namespace mn::rt
