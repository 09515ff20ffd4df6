#include "zoo.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "calib.hpp"
#include "models/backbones.hpp"
#include "obs/obs.hpp"
#include "quant/quant.hpp"
#include "runtime/planner.hpp"
#include "tensor/rng.hpp"

namespace zb {

namespace {

using mn::models::ModelSize;

struct Spec {
  const char* name;
  int burst;
  int bits;
  std::function<mn::nn::Graph(const mn::models::BuildOptions&)> build;
  mn::Shape input;
};

std::vector<Spec> zoo_specs() {
  using namespace mn::models;
  auto kws = [](ModelSize s) {
    return [s](const BuildOptions& bo) { return build_ds_cnn(micronet_kws(s), bo); };
  };
  auto vww = [](ModelSize s) {
    return [s](const BuildOptions& bo) { return build_mobilenet_v2(micronet_vww(s), bo); };
  };
  auto ad = [](ModelSize s) {
    return [s](const BuildOptions& bo) { return build_ds_cnn(micronet_ad(s), bo); };
  };
  // Bursts keep each model's share of a round between ~30 and ~150 ms on
  // one thread; KWS int4 (~0.5 s per invoke) runs once per round.
  return {
      {"kws_s", 8, 8, kws(ModelSize::kS), micronet_kws(ModelSize::kS).input},
      {"kws_m", 8, 8, kws(ModelSize::kM), micronet_kws(ModelSize::kM).input},
      {"kws_l", 8, 8, kws(ModelSize::kL), micronet_kws(ModelSize::kL).input},
      {"kws_int4", 1, 4,
       [](const BuildOptions& bo) { return build_ds_cnn(micronet_kws_int4(), bo); },
       micronet_kws_int4().input},
      {"vww_s", 8, 8, vww(ModelSize::kS), micronet_vww(ModelSize::kS).input},
      {"vww_m", 4, 8, vww(ModelSize::kM), micronet_vww(ModelSize::kM).input},
      {"ad_s", 8, 8, ad(ModelSize::kS), micronet_ad(ModelSize::kS).input},
      {"ad_m", 8, 8, ad(ModelSize::kM), micronet_ad(ModelSize::kM).input},
      {"ad_l", 8, 8, ad(ModelSize::kL), micronet_ad(ModelSize::kL).input},
  };
}

double us_since(int64_t t0) { return static_cast<double>(now_ns() - t0) / 1e3; }

bool same_bytes(const mn::TensorI8& a, const mn::TensorI8& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), static_cast<size_t>(a.size())) == 0;
}

// Kernel family of an op: "<op>_s8" / "<op>_s4" as reported per layer.
std::string kernel_of(const mn::rt::ModelDef& m, const mn::rt::OpDef& op) {
  using mn::rt::OpType;
  const bool s4 = m.tensors[static_cast<size_t>(op.inputs[0])].bits == 4;
  switch (op.type) {
    case OpType::kConv2D: return s4 ? "conv2d_s4" : "conv2d_s8";
    case OpType::kDepthwiseConv2D: return s4 ? "depthwise_s4" : "depthwise_s8";
    case OpType::kFullyConnected: return s4 ? "other_s4" : "fc_s8";
    case OpType::kAvgPool2D:
    case OpType::kMaxPool2D: return s4 ? "other_s4" : "pool_s8";
    case OpType::kAdd: return s4 ? "other_s4" : "add_s8";
    case OpType::kSoftmax: return s4 ? "other_s4" : "softmax_s8";
    case OpType::kOpTypeCount: break;
  }
  return s4 ? "other_s4" : "other_s8";
}

// Bytes an op streams, from tensor sizes: every input (activations, weights,
// bias) read once plus the output written once.
int64_t op_bytes(const mn::rt::ModelDef& m, const mn::rt::OpDef& op) {
  int64_t b = m.tensors[static_cast<size_t>(op.output)].storage_bytes();
  for (int t : op.inputs)
    if (t >= 0) b += m.tensors[static_cast<size_t>(t)].storage_bytes();
  return b;
}

}  // namespace

Zoo build_zoo(const Program& program, uint64_t seed, int inputs_per_model) {
  Zoo zoo;
  const int64_t t_all = now_ns();
  mn::models::BuildOptions bo;
  bo.seed = 1;
  bo.qat = false;
  uint64_t stream = 0;
  for (const Spec& s : zoo_specs()) {
    ZooModel zm;
    zm.name = s.name;
    zm.burst = s.burst;
    zm.calib = s.bits == 4 ? CalibKind::kCompute : CalibKind::kStreaming;
    zm.model = convert_model([&] { return s.build(bo); }, s.input, s.name, s.bits,
                             &zoo.cost);
    int64_t t = now_ns();
    {
      const mn::obs::SpanScope span("runtime.plan", mn::obs::Cat::kBench);
      zm.plan = mn::rt::plan_memory(zm.model);
    }
    zoo.cost.plan_us += us_since(t);
    t = now_ns();
    std::shared_ptr<const mn::rt::PackedModel> packed;
    {
      const mn::obs::SpanScope span("runtime.pack", mn::obs::Cat::kBench);
      packed = program.pack(zm.model);
    }
    zoo.cost.pack_us += us_since(t);
    t = now_ns();
    {
      const mn::obs::SpanScope span("runtime.ctor", mn::obs::Cat::kBench);
      zm.interp = program.interpreter(zm.model, zm.plan, std::move(packed));
    }
    zoo.cost.ctor_us += us_since(t);

    const mn::rt::TensorDef& in_t =
        zm.model.tensors[static_cast<size_t>(zm.model.input_tensor)];
    mn::Rng rng(seed * 0x9E3779B97F4A7C15ULL + ++stream);
    for (int k = 0; k < inputs_per_model; ++k) {
      mn::TensorF x(s.input);
      for (int64_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(rng.normal(0.0, 0.5));
      const mn::obs::SpanScope span("quant.quantize", mn::obs::Cat::kBench);
      zm.inputs.push_back(mn::quant::quantize(x, in_t.qp, in_t.bits));
    }
    zoo.models.push_back(std::move(zm));
  }
  zoo.cost.total_s = static_cast<double>(now_ns() - t_all) / 1e9;
  return zoo;
}

ZooRun begin_zoo_run(Zoo& zoo, bool profile) {
  ZooRun run;
  const size_t n = zoo.models.size();
  run.profile = profile;
  run.per_model.resize(n);
  run.outputs.resize(n);
  for (size_t i = 0; i < n; ++i) {
    ZooModel& zm = zoo.models[i];
    for (const mn::TensorI8& x : zm.inputs) {
      auto out = zm.interp->try_invoke_quantized(x);
      ++run.invokes;
      if (!out.ok()) {
        std::fprintf(stderr, "zoobench: %s invoke failed: %s\n", zm.name.c_str(),
                     out.error().message.c_str());
        ++run.errors;
        run.outputs[i].emplace_back();
        continue;
      }
      run.outputs[i].push_back(std::move(out).value());
    }
    if (profile) zm.interp->reset_profile();
  }
  return run;
}

namespace {

double profiled_ns(const mn::rt::Interpreter& interp) {
  double ns = 0.0;
  for (const mn::rt::OpProfile& op : interp.profile_report().ops)
    ns += static_cast<double>(op.wall_ns);
  return ns;
}

// One back-to-back burst of `zm`: raw per-invoke host times in us, into
// `times`. Every output is compared with the run's recorded output for the
// same input. In a profiled run each invoke is traced (obs tracing +
// profiling) and paired with an untraced invoke of the same input right
// before or after it, alternating, so host drift hits both alike; the
// untraced times go to `base` and each traced invoke's Σ op self time to
// `ops`.
void time_burst(ZooModel& zm, size_t i, ZooRun* run, std::vector<double>* times,
                std::vector<double>* base, std::vector<double>* ops) {
  auto invoke = [&](size_t idx) {
    const int64_t t0 = now_ns();
    mn::rt::Expected<mn::TensorI8> out = [&] {
      const mn::obs::SpanScope span("runtime.invoke", mn::obs::Cat::kBench);
      return zm.interp->try_invoke_quantized(zm.inputs[idx]);
    }();
    const double us = static_cast<double>(now_ns() - t0) / 1e3;
    ++run->invokes;
    if (!out.ok() || !same_bytes(out.value(), run->outputs[i][idx])) {
      ++run->per_model[i].errors;
      ++run->errors;
    }
    return us;
  };
  times->clear();
  base->clear();
  ops->clear();
  const bool tracing = mn::obs::tracing_enabled();
  for (int k = 0; k < zm.burst; ++k) {
    const size_t idx =
        static_cast<size_t>(run->rounds * zm.burst + k) % zm.inputs.size();
    if (!run->profile) {
      times->push_back(invoke(idx));
      continue;
    }
    const bool base_first = (run->rounds + k) % 2 == 0;
    for (int pass = 0; pass < 2; ++pass) {
      const bool traced = (pass == 1) == base_first;
      mn::obs::set_tracing(traced && tracing);
      zm.interp->set_profiling(traced);
      (traced ? times : base)->push_back(invoke(idx));
      if (traced) {
        const double ns = profiled_ns(*zm.interp);
        ops->push_back((ns - run->per_model[i].ops_ns_seen) / 1e3);
        run->per_model[i].ops_ns_seen = ns;
      }
    }
    zm.interp->set_profiling(false);
    mn::obs::set_tracing(tracing);
  }
}

}  // namespace

void zoo_round(Zoo& zoo, ZooRun* run) {
  const int64_t t_round = now_ns();
  std::vector<double> burst, base, ops;
  Calib calib_before = calibrate();
  for (size_t i = 0; i < zoo.models.size(); ++i) {
    ZooModel& zm = zoo.models[i];
    ZooModelStats& st = run->per_model[i];
    time_burst(zm, i, run, &burst, &base, &ops);
    for (double us : burst) st.invoke_ns_total += us * 1e3;
    st.invokes += static_cast<int64_t>(burst.size());
    const Calib calib_after = calibrate();
    const double scale = calib_before.scale(zm.calib, calib_after);
    calib_before = calib_after;
    double wall = 0.0;
    for (double b : burst) wall += b;
    st.burst_raw_p50_us.push_back(quantile(burst, 0.5));
    st.burst_p50_us.push_back(scale * quantile(burst, 0.5));
    st.burst_p90_us.push_back(scale * quantile(burst, 0.9));
    st.burst_mean_us.push_back(scale * mean(burst));
    st.burst_wall_us.push_back(scale * wall);
    for (size_t k = 0; k < base.size(); ++k)
      st.pairs.push_back({scale * burst[k], scale * base[k], scale * ops[k]});
  }
  ++run->rounds;
  run->wall_s += static_cast<double>(now_ns() - t_round) / 1e9;
}

void end_zoo_run(Zoo& zoo, ZooRun* run) {
  if (!run->profile) return;
  for (size_t i = 0; i < zoo.models.size(); ++i)
    run->per_model[i].profile = zoo.models[i].interp->profile_report();
}

int64_t check_zoo_outputs(const Program& program, const Zoo& zoo,
                          const ZooRun& run, bool corrupt) {
  int64_t mismatches = 0;
  for (size_t i = 0; i < zoo.models.size(); ++i) {
    const ZooModel& zm = zoo.models[i];
    std::unique_ptr<mn::rt::Interpreter> ref = program.reference(zm.model);
    for (size_t k = 0; k < zm.inputs.size(); ++k) {
      auto expected = ref->try_invoke_quantized(zm.inputs[k]);
      if (!expected.ok()) {
        ++mismatches;
        continue;
      }
      mn::TensorI8 want = std::move(expected).value();
      if (corrupt && i == 0 && k == 0) want[0] = static_cast<int8_t>(want[0] ^ 1);
      if (!same_bytes(want, run.outputs[i][k])) {
        std::fprintf(stderr, "zoobench: %s input %zu differs from the reference kernels\n",
                     zm.name.c_str(), k);
        ++mismatches;
      }
    }
  }
  return mismatches;
}

void report_zoo(const Zoo& zoo, const ZooRun& run, Ledger* out) {
  std::vector<double> p50s, p90s;
  double pass_macs = 0.0, pass_wall_us = 0.0;
  std::printf("  %-9s %6s %10s %10s %11s %9s %8s\n", "model", "rounds", "p50_us",
              "p90_us", "raw_p50_us", "MMAC", "GMAC/s");
  for (size_t i = 0; i < zoo.models.size(); ++i) {
    const ZooModel& zm = zoo.models[i];
    const ZooModelStats& st = run.per_model[i];
    const double p50 = median(st.burst_p50_us);
    const double p90 = median(st.burst_p90_us);
    const double macs = static_cast<double>(zm.model.total_macs());
    p50s.push_back(p50);
    p90s.push_back(p90);
    pass_macs += macs * zm.burst;
    pass_wall_us += median(st.burst_wall_us);
    std::printf("  %-9s %6zu %10.1f %10.1f %11.1f %9.2f %8.3f\n", zm.name.c_str(),
                st.burst_p50_us.size(), p50, p90, median(st.burst_raw_p50_us),
                macs / 1e6, macs / p50 / 1e3);
    if (zm.name == "kws_m" || zm.name == "vww_s" || zm.name == "vww_m" ||
        zm.name == "kws_int4")
      out->set(zm.name + "_p50_us", p50, "us");
  }
  out->set("zoo_geomean_p50_us", geomean(p50s), "us");
  out->set("zoo_geomean_p90_us", geomean(p90s), "us");
  out->set("zoo_gmac_per_s", pass_macs / pass_wall_us / 1e3, "GMAC/s");
}

bool report_zoo_layers(const Zoo& zoo, const ZooRun& traced, Ledger* out) {
  struct Kernel {
    double self_us = 0.0;  // per zoo pass (one invoke of every model)
    double macs = 0.0;
    double bytes = 0.0;
  };
  std::map<std::string, Kernel> kernels;
  for (const char* k : {"conv2d_s8", "depthwise_s8", "fc_s8", "add_s8", "pool_s8",
                        "softmax_s8", "conv2d_s4", "depthwise_s4", "other_s4"})
    kernels[k] = Kernel{};
  struct Account {
    double base_us, ops_us, dispatch_us, overhead, spread;
    const ZooModelStats* st;
  };
  std::vector<Account> acc;
  for (size_t i = 0; i < zoo.models.size(); ++i) {
    const ZooModel& zm = zoo.models[i];
    const ZooModelStats& st = traced.per_model[i];
    const mn::rt::ProfileReport& prof = st.profile;
    const double inv = static_cast<double>(std::max<int64_t>(prof.invocations, 1));
    // The profile only holds raw totals over the traced invokes. Scale it to
    // the median over rounds of the calibrated traced burst mean, so that
    // Σ op self + dispatch is that median.
    const double traced_us = median(st.burst_mean_us);
    const double scale = traced_us * static_cast<double>(st.invokes) /
                         (st.invoke_ns_total / 1e3);
    double ops_us = 0.0, dw_us = 0.0;
    std::vector<double> host_us, op_counts;
    for (size_t o = 0; o < prof.ops.size(); ++o) {
      const mn::rt::OpDef& op = zm.model.ops[o];
      const double us = scale * static_cast<double>(prof.ops[o].wall_ns) / 1e3 / inv;
      Kernel& k = kernels[kernel_of(zm.model, op)];
      k.self_us += us;
      k.macs += static_cast<double>(op.macs(zm.model.tensors));
      k.bytes += static_cast<double>(op_bytes(zm.model, op));
      ops_us += us;
      if (kernel_of(zm.model, op) == "depthwise_s8") dw_us += us;
      host_us.push_back(us);
      op_counts.push_back(static_cast<double>(op.op_count(zm.model.tensors)));
    }
    // Traced vs untraced invoke, pair by pair: median ratio and its IQR
    // (the model's noise).
    std::vector<double> ratio, base;
    for (const ZooModelStats::Pair& p : st.pairs) {
      ratio.push_back(p.traced_us / p.base_us);
      base.push_back(p.base_us);
    }
    // Interpreter time outside the kernels: the traced invoke minus the
    // per-op self time it contains.
    acc.push_back(Account{median(base), ops_us, traced_us - ops_us,
                          quantile(ratio, 0.5) - 1.0,
                          quantile(ratio, 0.75) - quantile(ratio, 0.25), &st});
    if (zm.name == "kws_m" || zm.name == "vww_s")
      out->set("kernels.depthwise_s8.share." + zm.name, dw_us / ops_us, "share");
    if (zm.name == "kws_m") {
      // r² of the per-layer host time against the per-layer op count: how
      // well op count predicts latency (the paper's Figs. 3-4 premise).
      const double mx = mean(op_counts), my = mean(host_us);
      double sxy = 0.0, sxx = 0.0, syy = 0.0;
      for (size_t o = 0; o < host_us.size(); ++o) {
        sxy += (op_counts[o] - mx) * (host_us[o] - my);
        sxx += (op_counts[o] - mx) * (op_counts[o] - mx);
        syy += (host_us[o] - my) * (host_us[o] - my);
      }
      out->set("kernels.r2_host_vs_ops.kws_m",
               sxx > 0 && syy > 0 ? sxy * sxy / (sxx * syy) : 0.0, "r2");
    }
  }
  for (const auto& [name, k] : kernels) {
    out->set("kernels." + name + ".self_us", k.self_us, "us");
    if (name == "conv2d_s8" || name == "depthwise_s8" || name == "fc_s8" ||
        name == "conv2d_s4" || name == "depthwise_s4") {
      out->set("kernels." + name + ".gmac_per_s",
               k.self_us > 0 ? k.macs / k.self_us / 1e3 : 0.0, "GMAC/s");
      out->set("kernels." + name + ".bytes_per_invoke", k.bytes, "B");
    }
  }
  std::vector<double> dispatch, overhead, spreads;
  for (const Account& a : acc) {
    dispatch.push_back(a.dispatch_us);
    overhead.push_back(1.0 + a.overhead);
    spreads.push_back(a.spread);
  }
  const double typical_spread = median(spreads);
  const double dispatch_us = mean(dispatch);
  const double share = geomean(overhead) - 1.0;
  out->set("runtime.dispatch_us_per_invoke", dispatch_us, "us");
  out->set("obs.trace_overhead_share", share, "share");

  // The accounting check. `error` is the median over pairs of how far a
  // traced invoke's Σ op self + the one reported dispatch figure lands from
  // the paired untraced invoke, as a share of it. It may exceed the
  // reported overhead share by twice the noise: the model's IQR of the
  // traced/untraced ratio, or the median IQR over models when larger (a
  // few pairs can show a small IQR by chance; neighbouring invokes differ
  // by up to ±20% on a noisy host). The dispatch residual of every model
  // must be non-negative: Σ op self lies within the traced invoke.
  bool ok = true;
  std::printf("  %-9s %12s %12s %12s %10s %10s %10s  %s\n", "model", "untraced_us",
              "op_self_us", "dispatch_us", "error", "overhead", "noise", "check");
  for (size_t i = 0; i < acc.size(); ++i) {
    const Account& a = acc[i];
    std::vector<double> errors;
    for (const ZooModelStats::Pair& p : a.st->pairs)
      errors.push_back((p.ops_us + dispatch_us) / p.base_us - 1.0);
    const double error = median(errors);
    const double noise = std::max(a.spread, typical_spread);
    const bool pass =
        a.dispatch_us >= 0.0 && std::abs(error) <= std::abs(share) + 2.0 * noise;
    ok = ok && pass;
    std::printf("  %-9s %12.1f %12.1f %12.2f %10.4f %10.4f %10.4f  %s\n",
                zoo.models[i].name.c_str(), a.base_us, a.ops_us, a.dispatch_us, error,
                a.overhead, noise, pass ? "ok" : "FAIL");
  }
  return ok;
}

}  // namespace zb
