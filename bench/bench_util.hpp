// Shared helpers for the per-table/per-figure benchmark binaries.
//
// Every bench supports --fast (default) and --full. Fast mode shrinks
// dataset sizes and training epochs so the complete harness runs on one CPU
// core in minutes while exercising identical code paths; footprint and
// latency numbers come from the full-size architectures either way.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "datasets/dataset.hpp"
#include "mcu/perf_model.hpp"
#include "models/backbones.hpp"
#include "nn/trainer.hpp"
#include "runtime/converter.hpp"
#include "runtime/interpreter.hpp"

namespace mn::bench {

// Shared chaos-campaign flag: --chaos=<seed>:<rate> (or --chaos <seed>:<rate>)
// selects the deterministic fault schedule a bench injects. Every bench that
// supports chaos parses the flag through parse_args, so
// `bench_fault_tolerance --chaos=7:0.05` and `bench_serving --chaos=7:0.05`
// agree on what seed 7 at rate 0.05 means.
struct ChaosOptions {
  bool enabled = false;
  uint64_t seed = 0;
  double rate = 0.0;  // per-event fault probability in [0, 1]
};

struct BenchOptions {
  bool full = false;
  uint64_t seed = 1;
  // --trace-out=PATH (or --trace-out PATH): record obs spans + counter
  // tracks for the whole run and write a chrome://tracing JSON there.
  // Empty = tracing stays off (benches may install a default path).
  std::string trace_out;
  // --events-out=PATH (or --events-out PATH): write the flight-recorder
  // dump — {"log": <event ring + fingerprint>, "postmortem": <latest
  // capture>} — at the end of the run. The event ring records regardless of
  // this flag (it must already be running when an incident happens); the
  // flag only selects a dump destination. Empty = no dump.
  std::string events_out;
  ChaosOptions chaos;
};
// Parses the shared flags. A malformed or valueless flag (`--chaos` with no
// spec, `--chaos=-1:0.5`, `--chaos=7:nan`, trailing garbage) prints a clear
// error to stderr and exits with status 2 — never silently runs with
// defaults the invoker did not ask for.
BenchOptions parse_args(int argc, char** argv);

// Parses "<seed>:<rate>" (e.g. "7:0.05"). Throws std::invalid_argument on a
// malformed spec: missing ':', negative or non-integer seed, non-finite or
// out-of-[0,1] rate, or trailing garbage on either field.
ChaosOptions parse_chaos_spec(const std::string& spec);

// Shared --trace-out implementation. start_trace_if_requested arms span
// recording (reserving `capacity` ring slots) when opt.trace_out is set;
// write_trace_if_requested stops recording and writes the chrome trace JSON
// to opt.trace_out. Both are no-ops when the flag was not given (and in
// -DMN_OBS=OFF builds the written trace is valid but empty).
void start_trace_if_requested(const BenchOptions& opt,
                              std::size_t capacity = 16384);
void write_trace_if_requested(const BenchOptions& opt);

// Shared --events-out implementation (mirroring --trace-out): writes the
// flight-recorder event log + latest postmortem capture as JSON to
// opt.events_out. No-op when the flag was not given; in -DMN_OBS=OFF builds
// the written dump is valid but empty.
void write_events_if_requested(const BenchOptions& opt);

// Pretty-printers.
void print_header(const std::string& title);
void print_subheader(const std::string& title);
// Prints a row of fixed-width columns.
void print_row(const std::vector<std::string>& cells,
               const std::vector<int>& widths);
std::string fmt(double v, int precision = 2);
std::string fmt_kb(int64_t bytes);
std::string fmt_bool(bool deployable);

// Builds a graph with random weights, calibrates activation ranges on random
// data, and converts it: exact footprints/latency without training.
rt::Interpreter calibrated_interpreter(nn::Graph& graph, Shape input,
                                       const std::string& name,
                                       int weight_bits = 8, int act_bits = 8);
// Same calibration + conversion, but hands back the ModelDef itself — for
// callers (serve::InterpreterPool) that plan and replicate instances
// themselves rather than wanting a single ready interpreter.
rt::ModelDef calibrated_model(nn::Graph& graph, Shape input,
                              const std::string& name, int weight_bits = 8,
                              int act_bits = 8);

// Scales a DS-CNN / MobileNetV2 config's channel counts by 1/divisor
// (rounded to multiples of 4): the trainable fast-mode proxies used for the
// accuracy axis of the result benches.
models::DsCnnConfig scale_ds_cnn(models::DsCnnConfig cfg, int divisor);
models::MobileNetV2Config scale_mbv2(models::MobileNetV2Config cfg, int divisor);

// Trains a graph on the dataset (QAT) and reports test accuracy of the
// *converted int8 model* run on the interpreter — the deployment accuracy
// the paper reports.
struct TrainedResult {
  double float_accuracy = 0.0;
  double quant_accuracy = 0.0;
};
TrainedResult train_and_measure(nn::Graph& graph, const data::Dataset& train,
                                const data::Dataset& test,
                                const nn::TrainConfig& cfg, int weight_bits = 8,
                                int act_bits = 8);

// Summary line comparing a measured value against the paper's reported one.
void print_vs_paper(const std::string& metric, double measured, double paper,
                    const std::string& unit);

// Shards n independent evaluations across the worker pool (respecting
// MN_THREADS / parallel::set_threads). fn(i) must write only into slot i of
// the caller's result storage, so the shard is deterministic: slot i holds
// evaluation i's result at any thread count. Exceptions from any shard are
// rethrown in the caller.
void shard(int64_t n, const std::function<void(int64_t)>& fn);

// Per-phase wall-clock accounting plus machine-readable output for a bench
// run. phase() closes the previous phase and opens a new one; finish()
// (or the destructor) closes the last phase, prints a JSON block to stdout,
// and atomically writes BENCH_<name>.json — write-tmp-fsync-rename, like the
// trainer's checkpoints, so a killed bench can never leave a truncated file.
class Reporter {
 public:
  Reporter(std::string bench_name, const BenchOptions& opt);
  ~Reporter();
  Reporter(const Reporter&) = delete;
  Reporter& operator=(const Reporter&) = delete;

  void phase(const std::string& name);
  void metric(const std::string& key, double value);
  void metric(const std::string& key, const std::string& value);
  // Named array of samples (e.g. the per-op arena-occupancy timeline or an
  // energy sweep), rendered under a top-level "series" object. Series are
  // informational: the regression gate (tools/mn_regress) only diffs the
  // scalar "metrics".
  void series(const std::string& key, const std::vector<double>& values);
  void finish();

  std::string json() const;  // the document finish() writes

 private:
  void close_phase();

  std::string name_;
  bool full_ = false;
  bool finished_ = false;
  bool phase_open_ = false;
  std::chrono::steady_clock::time_point phase_start_;
  std::vector<std::pair<std::string, double>> phases_;
  // Values stored pre-rendered as JSON literals (number or quoted string).
  std::vector<std::pair<std::string, std::string>> metrics_;
  std::vector<std::pair<std::string, std::vector<double>>> series_;
};

}  // namespace mn::bench
