// The zoo: the paper's nine deployable MicroNets (KWS S/M/L int8, KWS int4,
// VWW S/M, AD S/M/L) invoked round-robin by one closed-loop caller.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "calib.hpp"
#include "ledger.hpp"
#include "pins.hpp"
#include "runtime/interpreter.hpp"
#include "setup.hpp"
#include "tensor/tensor.hpp"

namespace zb {

struct ZooModel {
  std::string name;  // "kws_m", "vww_s", ...
  int burst = 1;     // invokes per round, back to back
  CalibKind calib = CalibKind::kStreaming;  // calib.hpp: matched to the kernels
  mn::rt::ModelDef model;
  mn::rt::MemoryPlan plan;
  std::unique_ptr<mn::rt::Interpreter> interp;
  std::vector<mn::TensorI8> inputs;  // quantized, generated from the seed
};

struct Zoo {
  std::vector<ZooModel> models;
  SetupCost cost;
};

// Builds, plans, packs and constructs every zoo model (timed into
// zoo.cost) and generates `inputs_per_model` inputs from `seed`.
Zoo build_zoo(const Program& program, uint64_t seed, int inputs_per_model);

// Per-model samples. One sample per round: statistics of the model's burst,
// calibrated (calib.hpp) with the calibration passes either side of it;
// burst_raw_p50_us is the uncalibrated p50. In a profiled run the burst is
// the traced one, and `pairs` holds every traced invoke with its paired
// untraced invoke and its Σ per-op self time (calibrated).
struct ZooModelStats {
  struct Pair {
    double traced_us, base_us, ops_us;
  };
  std::vector<double> burst_p50_us, burst_p90_us, burst_mean_us, burst_wall_us;
  std::vector<double> burst_raw_p50_us;
  std::vector<Pair> pairs;
  double ops_ns_seen = 0.0;      // profile total after the last traced invoke
  int64_t invokes = 0;           // invokes of the (traced) bursts
  int64_t errors = 0;
  double invoke_ns_total = 0.0;  // Σ raw host time of those invokes
  mn::rt::ProfileReport profile;  // filled by end_zoo_run when profiling
};

struct ZooRun {
  std::vector<ZooModelStats> per_model;  // index-aligned with Zoo::models
  // First output seen for every (model, input), for the reference check.
  std::vector<std::vector<mn::TensorI8>> outputs;
  bool profile = false;
  int rounds = 0;
  double wall_s = 0.0;  // Σ round wall time
  int64_t invokes = 0;
  int64_t errors = 0;
};

// A run is begin_zoo_run (untimed warm-up: every input once, recording the
// outputs the timed invokes must reproduce), any number of zoo_round calls
// (each model's burst, in order, timed), then end_zoo_run. `profile` runs
// each burst twice, untraced and traced (obs tracing on, which the caller
// sets, plus Interpreter::set_profiling for per-op self time).
ZooRun begin_zoo_run(Zoo& zoo, bool profile);
void zoo_round(Zoo& zoo, ZooRun* run);
void end_zoo_run(Zoo& zoo, ZooRun* run);

// Compares every recorded output against the reference kernels on the same
// input. `corrupt` flips one reference byte first (the self-test's proof
// that a mismatch is caught). Returns the number of mismatching outputs.
int64_t check_zoo_outputs(const Program& program, const Zoo& zoo,
                          const ZooRun& run, bool corrupt);

// End-to-end zoo metrics (zoo_* and the per-model p50s) into `out`.
void report_zoo(const Zoo& zoo, const ZooRun& run, Ledger* out);

// Per-layer kernel/runtime metrics from a profiled run, and the accounting
// check: for every model, Σ per-op self time plus the reported
// runtime.dispatch_us_per_invoke must land within the reported
// obs.trace_overhead_share (plus the model's own traced-vs-untraced spread)
// of its untraced invoke time, with a non-negative dispatch residual.
// Returns false when any model fails it.
bool report_zoo_layers(const Zoo& zoo, const ZooRun& traced, Ledger* out);

}  // namespace zb
