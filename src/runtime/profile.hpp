// Per-op profiling report (tentpole of the observability subsystem).
//
// The Interpreter accumulates host wall-clock per op when set_profiling(true);
// profile_report() snapshots that into a ProfileReport. The report carries a
// `predicted_s` slot per op that mcu::annotate_profile() fills from the
// analytical perf model (runtime cannot depend on mcu — the dependency runs
// the other way), giving the side-by-side predicted-vs-measured table the
// paper's Fig. 3 methodology is built on. The report is a snapshot of the
// interpreter's per-op ledger, the one place per-op cost is recorded: its
// clock (obs::now_ns) runs in MN_OBS=OFF builds too, where only span/counter
// emission collapses. With tracing on, each op's kernel span is cut from the
// same clock pair, so a trace and this report never disagree.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/model.hpp"

namespace mn::rt {

struct OpProfile {
  int op_index = 0;
  OpType type{};
  std::string output_name;   // output tensor name (layer identity)
  const char* backend = "reference";  // kernel backend that served this op
  int64_t macs = 0;
  int64_t invocations = 0;   // profiled invokes this op participated in
  int64_t wall_ns = 0;       // accumulated host wall-clock across invokes
  double predicted_s = 0.0;  // per-invoke analytical latency (0 = unannotated)
  double predicted_uj = 0.0; // per-invoke predicted energy, microjoules
                             // (power × predicted_s; 0 = unannotated)

  // Mean measured host latency per invoke, microseconds.
  double measured_us() const {
    return invocations > 0
               ? static_cast<double>(wall_ns) / (1e3 * static_cast<double>(invocations))
               : 0.0;
  }
  double predicted_us() const { return predicted_s * 1e6; }
};

struct ProfileReport {
  std::string model_name;
  // Instruction set of the fast conv/depthwise/FC kernels that served it
  // ("scalar", "sse2", "avx2" or "avx512vnni"; see
  // Interpreter::kernel_isa()).
  const char* kernel_isa = "scalar";
  std::vector<OpProfile> ops;
  int64_t invocations = 0;   // profiled invokes captured in this report
  // Filled by mcu::annotate_profile() alongside predicted_s.
  std::string device_name;
  double clock_mhz = 0.0;

  int64_t total_wall_ns() const;
  double total_predicted_s() const;
  bool has_predictions() const { return clock_mhz > 0.0; }
  // Predicted device cycles for one invoke of op i (0 if unannotated).
  int64_t predicted_cycles(size_t i) const;

  // Human-readable per-op table: measured wall-clock next to predicted
  // latency/cycles, plus totals. Renders "-" columns when unannotated.
  std::string table() const;
};

}  // namespace mn::rt
