#include "bench_util.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "kernels/backend.hpp"
#include "nn/loss.hpp"
#include "nn/snapshot.hpp"
#include "obs/eventlog.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "parallel/pool.hpp"
#include "tensor/rng.hpp"

namespace mn::bench {

ChaosOptions parse_chaos_spec(const std::string& spec) {
  const size_t colon = spec.find(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= spec.size())
    throw std::invalid_argument("--chaos expects <seed>:<rate>, got '" + spec +
                                "'");
  const std::string seed_str = spec.substr(0, colon);
  const std::string rate_str = spec.substr(colon + 1);
  // stoull silently wraps negatives (-1 -> 2^64-1) and skips leading
  // whitespace, so require a bare unsigned decimal before parsing.
  if (seed_str.find_first_not_of("0123456789") != std::string::npos)
    throw std::invalid_argument(
        "--chaos seed must be a non-negative integer: '" + spec + "'");
  ChaosOptions chaos;
  size_t used = 0;
  try {
    chaos.seed = std::stoull(seed_str, &used);
  } catch (const std::exception&) {
    throw std::invalid_argument("--chaos seed is not an integer: '" + spec +
                                "'");
  }
  if (used != seed_str.size())
    throw std::invalid_argument("--chaos seed is not an integer: '" + spec +
                                "'");
  if (rate_str.find_first_of(" \t") != std::string::npos)
    throw std::invalid_argument("--chaos rate is not a number: '" + spec + "'");
  try {
    chaos.rate = std::stod(rate_str, &used);
  } catch (const std::exception&) {
    throw std::invalid_argument("--chaos rate is not a number: '" + spec + "'");
  }
  // used != size catches trailing garbage ("0.5x"); !isfinite catches "nan",
  // which compares false against both range bounds and used to slip through.
  if (used != rate_str.size() || !std::isfinite(chaos.rate) ||
      chaos.rate < 0.0 || chaos.rate > 1.0)
    throw std::invalid_argument(
        "--chaos rate must be a finite number in [0,1]: '" + spec + "'");
  chaos.enabled = true;
  return chaos;
}

namespace {

// Unifies the `--flag=value` and `--flag value` argv spellings. Returns true
// when argv[*i] names `flag` (advancing *i past a separate value). A
// valueless `--flag` is an error — the old parser silently ignored it, so
// e.g. a trailing `--chaos` ran the bench with chaos off while the invoker
// believed chaos was on.
bool flag_value(int argc, char** argv, int* i, const char* flag,
                std::string* out) {
  const std::string arg = argv[*i];
  const std::string prefix = std::string(flag) + "=";
  if (arg.compare(0, prefix.size(), prefix) == 0) {
    *out = arg.substr(prefix.size());
    return true;
  }
  if (arg == flag) {
    if (*i + 1 >= argc)
      throw std::invalid_argument(std::string(flag) + " requires a value");
    *out = argv[++*i];
    return true;
  }
  return false;
}

}  // namespace

BenchOptions parse_args(int argc, char** argv) {
  BenchOptions opt;
  try {
    for (int i = 1; i < argc; ++i) {
      std::string v;
      if (std::strcmp(argv[i], "--full") == 0) {
        opt.full = true;
      } else if (std::strcmp(argv[i], "--fast") == 0) {
        opt.full = false;
      } else if (flag_value(argc, argv, &i, "--trace-out", &v)) {
        opt.trace_out = v;
      } else if (flag_value(argc, argv, &i, "--events-out", &v)) {
        opt.events_out = v;
      } else if (flag_value(argc, argv, &i, "--chaos", &v)) {
        opt.chaos = parse_chaos_spec(v);
      }
      // Unknown flags are left for the bench's own parser (e.g.
      // bench_serving's --skip-throughput-floor).
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench: %s\n", e.what());
    std::exit(2);
  }
  return opt;
}

void start_trace_if_requested(const BenchOptions& opt, std::size_t capacity) {
  if (opt.trace_out.empty()) return;
  obs::trace_reserve(capacity);
  obs::set_tracing(true);
}

void write_trace_if_requested(const BenchOptions& opt) {
  if (opt.trace_out.empty()) return;
  obs::set_tracing(false);
  if (obs::write_text_file(opt.trace_out, obs::chrome_trace_json()))
    std::printf("  chrome trace (%zu events) -> %s\n", obs::trace_size(),
                opt.trace_out.c_str());
  else
    std::printf("  [failed to write trace %s]\n", opt.trace_out.c_str());
}

void write_events_if_requested(const BenchOptions& opt) {
  if (opt.events_out.empty()) return;
  const std::string dump = "{\"log\": " + obs::event_log_json() +
                           ", \"postmortem\": " + obs::postmortem_json() +
                           "}\n";
  if (obs::write_text_file(opt.events_out, dump))
    std::printf("  flight recorder (%zu events, %lld postmortem(s)) -> %s\n",
                obs::event_size(),
                static_cast<long long>(obs::postmortem_count()),
                opt.events_out.c_str());
  else
    std::printf("  [failed to write events %s]\n", opt.events_out.c_str());
}

void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

void print_subheader(const std::string& title) {
  std::printf("\n--- %s ---\n", title.c_str());
}

void print_row(const std::vector<std::string>& cells,
               const std::vector<int>& widths) {
  for (size_t i = 0; i < cells.size(); ++i) {
    const int w = i < widths.size() ? widths[i] : 12;
    std::printf("%-*s", w, cells[i].c_str());
  }
  std::printf("\n");
}

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string fmt_kb(int64_t bytes) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%lldKB", static_cast<long long>((bytes + 512) / 1024));
  return buf;
}

std::string fmt_bool(bool deployable) { return deployable ? "yes" : "ND"; }

rt::ModelDef calibrated_model(nn::Graph& graph, Shape input,
                              const std::string& name, int weight_bits,
                              int act_bits) {
  Rng rng(0xCA11B);
  TensorF batch = input.rank() == 1
                      ? TensorF(Shape{2, input.dim(0)})
                      : TensorF(Shape{2, input.dim(0), input.dim(1), input.dim(2)});
  for (int64_t i = 0; i < batch.size(); ++i)
    batch[i] = static_cast<float>(rng.normal(0.0, 0.5));
  const rt::RangeMap ranges = rt::calibrate_ranges(graph, batch);
  rt::ConvertOptions co;
  co.name = name;
  co.weight_bits = weight_bits;
  co.act_bits = act_bits;
  return rt::convert(graph, co, &ranges);
}

rt::Interpreter calibrated_interpreter(nn::Graph& graph, Shape input,
                                       const std::string& name, int weight_bits,
                                       int act_bits) {
  return rt::Interpreter(
      calibrated_model(graph, input, name, weight_bits, act_bits));
}

namespace {
int64_t scaled4(int64_t c, int divisor) {
  return std::max<int64_t>(4, (c / divisor + 3) / 4 * 4);
}
}  // namespace

models::DsCnnConfig scale_ds_cnn(models::DsCnnConfig cfg, int divisor) {
  cfg.stem_channels = scaled4(cfg.stem_channels, divisor);
  for (auto& blk : cfg.blocks) blk.channels = scaled4(blk.channels, divisor);
  return cfg;
}

models::MobileNetV2Config scale_mbv2(models::MobileNetV2Config cfg, int divisor) {
  cfg.stem_channels = scaled4(cfg.stem_channels, divisor);
  int64_t prev = cfg.stem_channels;
  for (auto& blk : cfg.blocks) {
    // Preserve expand-ratio-1 blocks (expansion == previous stage width).
    const bool t1 = blk.expansion_channels == prev || blk.expansion_channels == 0;
    prev = blk.out_channels;
    blk.out_channels = scaled4(blk.out_channels, divisor);
    blk.expansion_channels =
        t1 ? blk.out_channels : scaled4(blk.expansion_channels, divisor);
  }
  // Re-link t=1 blocks to the scaled previous width.
  int64_t in_ch = cfg.stem_channels;
  for (auto& blk : cfg.blocks) {
    if (blk.expansion_channels <= in_ch) blk.expansion_channels = in_ch;
    in_ch = blk.out_channels;
  }
  if (cfg.head_channels > 0) cfg.head_channels = scaled4(cfg.head_channels, divisor);
  return cfg;
}

TrainedResult train_and_measure(nn::Graph& graph, const data::Dataset& train,
                                const data::Dataset& test,
                                const nn::TrainConfig& cfg, int weight_bits,
                                int act_bits) {
  nn::fit(graph, train, cfg);
  TrainedResult r;
  r.float_accuracy = nn::evaluate(graph, test);
  rt::ConvertOptions co;
  co.name = "trained";
  co.weight_bits = weight_bits;
  co.act_bits = act_bits;
  rt::Interpreter interp(rt::convert(graph, co));
  int64_t correct = 0;
  for (const data::Example& e : test.examples) {
    const TensorF out = interp.invoke(e.input);
    int64_t best = 0;
    for (int64_t c = 1; c < out.size(); ++c)
      if (out[c] > out[best]) best = c;
    if (best == e.label) ++correct;
  }
  r.quant_accuracy = static_cast<double>(correct) / static_cast<double>(test.size());
  return r;
}

void print_vs_paper(const std::string& metric, double measured, double paper,
                    const std::string& unit) {
  std::printf("  %-38s measured %10.4f %-6s paper %10.4f %-6s\n", metric.c_str(),
              measured, unit.c_str(), paper, unit.c_str());
}

void shard(int64_t n, const std::function<void(int64_t)>& fn) {
  parallel::parallel_for(0, n, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) fn(i);
  });
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace

Reporter::Reporter(std::string bench_name, const BenchOptions& opt)
    : name_(std::move(bench_name)), full_(opt.full) {}

Reporter::~Reporter() {
  // Best effort on unwind paths; finish() is a no-op if already called.
  try {
    finish();
  } catch (...) {
  }
}

void Reporter::close_phase() {
  if (!phase_open_) return;
  const double s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - phase_start_)
                       .count();
  phases_.back().second = s;
  phase_open_ = false;
}

void Reporter::phase(const std::string& name) {
  close_phase();
  phases_.emplace_back(name, 0.0);
  phase_open_ = true;
  phase_start_ = std::chrono::steady_clock::now();
}

void Reporter::metric(const std::string& key, double value) {
  metrics_.emplace_back(key, json_number(value));
}

void Reporter::metric(const std::string& key, const std::string& value) {
  std::string quoted = "\"";
  quoted += json_escape(value);
  quoted += '"';
  metrics_.emplace_back(key, std::move(quoted));
}

void Reporter::series(const std::string& key, const std::vector<double>& values) {
  series_.emplace_back(key, values);
}

std::string Reporter::json() const {
  std::string j = "{\"bench\": \"" + json_escape(name_) + "\"";
  j += ", \"mode\": \"" + std::string(full_ ? "full" : "fast") + "\"";
  j += ", \"threads\": " + std::to_string(parallel::max_threads());
  // Which kernel variant produced every timing below.
  j += ", \"kernel_isa\": \"" +
       std::string(kernels::kernel_isa_name(kernels::active_kernel_isa())) +
       "\"";
  j += ", \"phases\": [";
  for (size_t i = 0; i < phases_.size(); ++i) {
    if (i > 0) j += ", ";
    j += "{\"name\": \"";
    j += json_escape(phases_[i].first);
    j += "\", \"seconds\": ";
    j += json_number(phases_[i].second);
    j += '}';
  }
  j += "], \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) j += ", ";
    j += '"';
    j += json_escape(metrics_[i].first);
    j += "\": ";
    j += metrics_[i].second;
  }
  j += "}, \"series\": {";
  for (size_t i = 0; i < series_.size(); ++i) {
    if (i > 0) j += ", ";
    j += '"';
    j += json_escape(series_[i].first);
    j += "\": [";
    for (size_t k = 0; k < series_[i].second.size(); ++k) {
      if (k > 0) j += ", ";
      j += json_number(series_[i].second[k]);
    }
    j += "]";
  }
  j += "}}";
  return j;
}

void Reporter::finish() {
  if (finished_) return;
  close_phase();
  finished_ = true;
  const std::string doc = json() + "\n";
  std::printf("\n--- JSON ---\n%s", doc.c_str());
  const std::string path = "BENCH_" + name_ + ".json";
  const auto res = nn::write_file_atomic(
      path, std::span<const uint8_t>(
                reinterpret_cast<const uint8_t*>(doc.data()), doc.size()));
  if (res.ok())
    std::printf("[wrote %s]\n", path.c_str());
  else
    std::printf("[failed to write %s]\n", path.c_str());
}

}  // namespace mn::bench
