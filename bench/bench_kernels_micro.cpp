// bench_kernels_micro: backend A/B microbenchmark of the integer kernels.
//
// For each fig2-class conv shape (DS-CNN / MobileNetV2-style layers), two
// zoo depthwise layers and the classifier FC shape, the bench times the
// reference path (what a reference interpreter actually dispatches: the
// conv2d_s8 / depthwise_conv2d_s8 / fully_connected_s8 oracles) against the
// fast backend (kernels_fast.cpp: packed panels + cache-blocked SIMD GEMM,
// channel-vectorized depthwise), verifies the two outputs byte-for-byte, and
// reports
//
//   <shape>_reference_us_p50 / <shape>_fast_us_p50   median per-call latency
//   <shape>_backend_speedup                           reference / fast ratio
//   conv_backend_speedup_min                          worst gated-shape ratio
//   ab_mismatch_count                                 bytes that differed (0)
//
// The regression gate (tools/mn_regress) holds every *_backend_speedup
// metric to an ABSOLUTE floor (default 2.0, --speedup-floor): the fast
// backend must earn >=2x on the machine the gate runs on, not merely match a
// committed baseline. ab_mismatch_count is an exact-match metric — one
// differing byte fails CI. Every kernel is serial, so the ratio measures the
// kernel alone whatever MN_THREADS says.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "kernels/backend.hpp"
#include "kernels/kernels.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace mn {
namespace {

struct ConvCase {
  const char* name;
  kernels::ConvGeometry g;
  // Shapes with in_ch == 1 (the KWS stem) are gather-bound, not GEMM-bound:
  // their ratio hovers right at the floor and would flake the gate on slower
  // machines, so they are timed and printed but not held to the floor.
  bool gate = true;
};

kernels::ConvGeometry geom(int32_t in_h, int32_t in_w, int32_t in_ch,
                           int32_t out_ch, int32_t kh, int32_t kw,
                           int32_t stride, int32_t pad_h, int32_t pad_w) {
  kernels::ConvGeometry g;
  g.in_h = in_h;
  g.in_w = in_w;
  g.in_ch = in_ch;
  g.out_ch = out_ch;
  g.kh = kh;
  g.kw = kw;
  g.stride = stride;
  g.pad_h = pad_h;
  g.pad_w = pad_w;
  g.out_h = (in_h + 2 * pad_h - kh) / stride + 1;
  g.out_w = (in_w + 2 * pad_w - kw) / stride + 1;
  return g;
}

kernels::RequantParams default_rq() {
  kernels::RequantParams rq;
  rq.input_zp = -3;
  rq.output_zp = 4;
  rq.mult = quant::quantize_multiplier(0.01);
  const quant::QRange r = quant::qrange(8);
  rq.act_min = r.qmin;
  rq.act_max = r.qmax;
  return rq;
}

void fill_s8(TensorI8& t, Rng& rng) {
  for (int64_t i = 0; i < t.size(); ++i)
    t[i] = static_cast<int8_t>(rng.uniform_int(-127, 127));
}

// Median per-call latency in microseconds: `reps` timed repetitions of
// `iters` back-to-back calls each, so one cold rep cannot skew the number.
template <typename Fn>
double median_us_per_call(int reps, int iters, Fn&& fn) {
  std::vector<double> us;
  us.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) fn();
    const auto t1 = std::chrono::steady_clock::now();
    us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count() / iters);
  }
  std::sort(us.begin(), us.end());
  return us[us.size() / 2];
}

}  // namespace
}  // namespace mn

int main(int argc, char** argv) {
  using namespace mn;
  bench::BenchOptions opt = bench::parse_args(argc, argv);
  bench::print_header("kernel backend A/B microbench (reference vs fast)");
  bench::Reporter report("kernels_micro", opt);

  const int reps = opt.full ? 9 : 5;
  const int iters = opt.full ? 40 : 12;

  // Fig. 2-class shapes: DS-CNN KWS stem (non-square 10x4 kernel, stride 2,
  // asymmetric padding), its 3x3 body conv, a MobileNetV2-style VWW
  // pointwise, a channel-expanding 3x3, and a larger-image 3x3.
  const std::vector<ConvCase> conv_cases = {
      {"kws_stem_49x10x1", geom(49, 10, 1, 64, 10, 4, 2, 4, 1), false},
      {"kws_body_25x5x64", geom(25, 5, 64, 64, 3, 3, 1, 1, 1)},
      {"vww_pw_10x10x64", geom(10, 10, 64, 64, 1, 1, 1, 0, 0)},
      {"vww_expand_10x10x32", geom(10, 10, 32, 64, 3, 3, 1, 1, 1)},
      {"img_conv_20x20x64", geom(20, 20, 64, 64, 3, 3, 1, 1, 1)},
  };

  int64_t mismatches = 0;
  double min_conv_speedup = 1e30;

  report.phase("conv_ab");
  for (const ConvCase& c : conv_cases) {
    const kernels::ConvGeometry& g = c.g;
    Rng rng(opt.seed);
    TensorI8 x(Shape{g.in_h, g.in_w, g.in_ch});
    TensorI8 w(Shape{g.out_ch, g.kh, g.kw, g.in_ch});
    TensorI8 y_ref(Shape{g.out_h, g.out_w, g.out_ch});
    TensorI8 y_fast(Shape{g.out_h, g.out_w, g.out_ch});
    fill_s8(x, rng);
    fill_s8(w, rng);
    std::vector<int32_t> bias(static_cast<size_t>(g.out_ch));
    for (auto& b : bias) b = static_cast<int32_t>(rng.uniform_int(-4096, 4096));
    const kernels::RequantParams rq = default_rq();

    const kernels::PackedOpWeights packed = kernels::pack_rows_s8(
        w.span(), g.out_ch, int64_t{g.kh} * g.kw * g.in_ch);
    std::vector<int8_t> fast_scratch(
        static_cast<size_t>(kernels::conv2d_fast_scratch_bytes(g)));

    // A/B correctness first: the ratio below is only meaningful if the two
    // paths agree on every byte.
    kernels::conv2d_s8(x.span(), w.span(), bias, y_ref.span(), g, rq);
    kernels::conv2d_s8_fast(x.span(), packed, bias, y_fast.span(), fast_scratch,
                            g, rq);
    for (int64_t i = 0; i < y_ref.size(); ++i)
      if (y_ref[i] != y_fast[i]) ++mismatches;

    const double ref_us = median_us_per_call(reps, iters, [&] {
      kernels::conv2d_s8(x.span(), w.span(), bias, y_ref.span(), g, rq);
    });
    const double fast_us = median_us_per_call(reps, iters, [&] {
      kernels::conv2d_s8_fast(x.span(), packed, bias, y_fast.span(),
                              fast_scratch, g, rq);
    });
    const double speedup = ref_us / fast_us;
    if (c.gate) min_conv_speedup = std::min(min_conv_speedup, speedup);
    std::printf("  %-22s ref %8.2f us  fast %8.2f us  speedup %5.2fx%s\n",
                c.name, ref_us, fast_us, speedup,
                c.gate ? "" : "  (ungated)");
    report.metric(std::string(c.name) + "_reference_us_p50", ref_us);
    report.metric(std::string(c.name) + "_fast_us_p50", fast_us);
    if (c.gate) report.metric(std::string(c.name) + "_backend_speedup", speedup);
  }
  report.metric("conv_backend_speedup_min", min_conv_speedup);

  // Depthwise shapes: the KWS-M body (25x5, 3x3, stride 1) and a VWW-S
  // stride-2 3x3 expansion layer (24 channels: one 16-lane pass plus an
  // 8-lane pass). The reference side is depthwise_conv2d_s8, what a
  // reference interpreter dispatches.
  const std::vector<ConvCase> dw_cases = {
      {"kws_m_dw_25x5x144", geom(25, 5, 144, 144, 3, 3, 1, 1, 1)},
      {"vww_dw_s2_50x50x24", geom(50, 50, 24, 24, 3, 3, 2, 0, 0)},
  };

  report.phase("depthwise_ab");
  for (const ConvCase& c : dw_cases) {
    const kernels::ConvGeometry& g = c.g;
    Rng rng(opt.seed + 2);
    TensorI8 x(Shape{g.in_h, g.in_w, g.in_ch});
    TensorI8 w(Shape{g.kh, g.kw, g.in_ch});
    TensorI8 y_ref(Shape{g.out_h, g.out_w, g.out_ch});
    TensorI8 y_fast(Shape{g.out_h, g.out_w, g.out_ch});
    fill_s8(x, rng);
    fill_s8(w, rng);
    std::vector<int32_t> bias(static_cast<size_t>(g.out_ch));
    for (auto& b : bias) b = static_cast<int32_t>(rng.uniform_int(-4096, 4096));
    const kernels::RequantParams rq = default_rq();

    kernels::depthwise_conv2d_s8(x.span(), w.span(), bias, y_ref.span(), g, rq);
    kernels::depthwise_conv2d_s8_fast(x.span(), w.span(), bias, y_fast.span(),
                                      g, rq);
    for (int64_t i = 0; i < y_ref.size(); ++i)
      if (y_ref[i] != y_fast[i]) ++mismatches;

    const double ref_us = median_us_per_call(reps, iters, [&] {
      kernels::depthwise_conv2d_s8(x.span(), w.span(), bias, y_ref.span(), g,
                                   rq);
    });
    const double fast_us = median_us_per_call(reps, iters, [&] {
      kernels::depthwise_conv2d_s8_fast(x.span(), w.span(), bias,
                                        y_fast.span(), g, rq);
    });
    const double speedup = ref_us / fast_us;
    std::printf("  %-22s ref %8.2f us  fast %8.2f us  speedup %5.2fx\n",
                c.name, ref_us, fast_us, speedup);
    report.metric(std::string(c.name) + "_reference_us_p50", ref_us);
    report.metric(std::string(c.name) + "_fast_us_p50", fast_us);
    report.metric(std::string(c.name) + "_backend_speedup", speedup);
  }

  report.phase("fc_ab");
  {
    const int32_t in_f = 1024, out_f = 128;
    Rng rng(opt.seed + 1);
    TensorI8 x(Shape{in_f}), w(Shape{out_f, in_f});
    TensorI8 y_ref(Shape{out_f}), y_fast(Shape{out_f});
    fill_s8(x, rng);
    fill_s8(w, rng);
    const kernels::RequantParams rq = default_rq();
    const kernels::PackedOpWeights packed =
        kernels::pack_rows_s8(w.span(), out_f, in_f);

    kernels::fully_connected_s8(x.span(), w.span(), {}, y_ref.span(), in_f,
                                out_f, rq);
    kernels::fully_connected_s8_fast(x.span(), packed, {}, y_fast.span(), in_f,
                                     out_f, rq);
    for (int64_t i = 0; i < y_ref.size(); ++i)
      if (y_ref[i] != y_fast[i]) ++mismatches;

    const double ref_us = median_us_per_call(reps, iters * 4, [&] {
      kernels::fully_connected_s8(x.span(), w.span(), {}, y_ref.span(), in_f,
                                  out_f, rq);
    });
    const double fast_us = median_us_per_call(reps, iters * 4, [&] {
      kernels::fully_connected_s8_fast(x.span(), packed, {}, y_fast.span(),
                                       in_f, out_f, rq);
    });
    const double speedup = ref_us / fast_us;
    std::printf("  %-22s ref %8.2f us  fast %8.2f us  speedup %5.2fx\n",
                "fc_1024x128", ref_us, fast_us, speedup);
    report.metric("fc_1024x128_reference_us_p50", ref_us);
    report.metric("fc_1024x128_fast_us_p50", fast_us);
    report.metric("fc_1024x128_backend_speedup", speedup);
  }

  report.metric("ab_mismatch_count", static_cast<double>(mismatches));
  report.metric("conv_shapes_count", static_cast<double>(conv_cases.size()));
  std::printf("  min conv speedup %.2fx, mismatched bytes %lld\n",
              min_conv_speedup, static_cast<long long>(mismatches));

  report.finish();
  return mismatches == 0 ? 0 : 1;
}
