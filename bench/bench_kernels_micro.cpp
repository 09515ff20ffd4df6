// bench_kernels_micro: backend A/B microbenchmark of the integer kernels.
//
// For each fig2-class conv shape (DS-CNN / MobileNetV2-style layers), VWW-S's
// 50x50 small-K layers, the VWW-M and AD 1-channel stems, three zoo
// depthwise layers, the classifier FC shape
// and two VWW residual adds, the bench times the reference path (what a
// reference interpreter actually dispatches: the conv2d_s8 /
// depthwise_conv2d_s8 / fully_connected_s8 / add_s8 oracles) against the
// fast backend (packed panels + the register-tiled conv micro-kernel, which
// FC shares; tap-paired depthwise; 16-lane add), verifies the two outputs
// byte-for-byte, and reports
//
//   <shape>_reference_us_p50 / <shape>_fast_us_p50   median per-call latency
//   <shape>_backend_speedup                           reference / fast ratio
//   <shape>_fast_<isa>_us_p50   the same fast kernel called directly on each
//                               SIMD variant this host runs (sse2, avx2,
//                               avx512vnni; conv, FC on a panel packed for
//                               that variant, depthwise and add), each output
//                               byte-checked too; the committed baseline
//                               holds no
//                               avx512vnni key, since a baseline key missing
//                               from a run fails the gate and a runner need
//                               not have AVX512-VNNI
//   conv_backend_speedup_min                          worst conv-shape ratio
//   ab_mismatch_count                                 bytes that differed (0)
//
// <shape>_fast_us_p50 is the time of the variant the interpreter runs
// (kernels::active_kernel_isa(), named by the JSON's "kernel_isa"); a host
// without a SIMD variant has no fast kernels, and the bench exits 1.
// The regression gate (tools/mn_regress) holds every *_backend_speedup
// metric to an ABSOLUTE floor (default 2.0, --speedup-floor): the fast
// backend must earn >=2x on the machine the gate runs on, not merely match a
// committed baseline. ab_mismatch_count is an exact-match metric — one
// differing byte fails CI. Every kernel is serial, so the ratio measures the
// kernel alone whatever MN_THREADS says.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <span>
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

// Every variant of the fast kernels this host runs (kScalar has none).
std::vector<kernels::KernelIsa> available_isas() {
  std::vector<kernels::KernelIsa> isas;
  for (const auto isa : {kernels::KernelIsa::kSse2, kernels::KernelIsa::kAvx2,
                         kernels::KernelIsa::kAvx512Vnni})
    if (kernels::kernel_isa_available(isa)) isas.push_back(isa);
  return isas;
}

// One panel per available variant, each in that variant's form, indexed by
// KernelIsa.
struct PanelPerIsa {
  kernels::PackedOpWeights by_isa[4];

  PanelPerIsa(std::span<const int8_t> w, int32_t out_ch, int64_t k,
              int32_t rows) {
    for (const kernels::KernelIsa isa : available_isas())
      by_isa[static_cast<int>(isa)] =
          kernels::pack_conv_panel(w, out_ch, k, rows, isa);
  }
  const kernels::PackedOpWeights& operator[](kernels::KernelIsa isa) const {
    return by_isa[static_cast<int>(isa)];
  }
};

// Runs run(isa) once per available variant, counting the bytes that differ
// from `expected` (the reference output) in `out` into *mismatches, then
// times it and reports <shape>_fast_<isa>_us_p50. Reports the reference
// time `ref_us`, the active variant's as <shape>_fast_us_p50 and their
// ratio, <shape>_backend_speedup, which it returns.
template <typename Run>
double time_every_isa(bench::Reporter& report, const std::string& shape,
                      double ref_us, const TensorI8& expected, TensorI8& out,
                      int reps, int iters, int64_t* mismatches, Run&& run) {
  double fast_us = 0.0;
  for (const kernels::KernelIsa isa : available_isas()) {
    run(isa);
    for (int64_t i = 0; i < expected.size(); ++i)
      if (expected[i] != out[i]) ++*mismatches;
    const double us = median_us_per_call(reps, iters, [&] { run(isa); });
    std::printf("  %-22s   %-6s %8.2f us\n", shape.c_str(),
                kernels::kernel_isa_name(isa), us);
    report.metric(shape + "_fast_" + kernels::kernel_isa_name(isa) +
                      "_us_p50",
                  us);
    if (isa == kernels::active_kernel_isa()) fast_us = us;
  }
  const double speedup = ref_us / fast_us;
  std::printf("  %-22s ref %8.2f us  fast %8.2f us  speedup %5.2fx\n",
              shape.c_str(), ref_us, fast_us, speedup);
  report.metric(shape + "_reference_us_p50", ref_us);
  report.metric(shape + "_fast_us_p50", fast_us);
  report.metric(shape + "_backend_speedup", speedup);
  return speedup;
}

}  // namespace
}  // namespace mn

int main(int argc, char** argv) {
  using namespace mn;
  bench::BenchOptions opt = bench::parse_args(argc, argv);
  bench::print_header("kernel backend A/B microbench (reference vs fast)");
  bench::Reporter report("kernels_micro", opt);
  if (!kernels::fast_kernels_run()) {
    std::fprintf(stderr, "no SIMD variant: the fast kernels do not run\n");
    return 1;
  }
  std::printf("fast kernels run on %s\n",
              kernels::kernel_isa_name(kernels::active_kernel_isa()));

  const int reps = opt.full ? 9 : 5;
  const int iters = opt.full ? 40 : 12;

  // Fig. 2-class shapes: DS-CNN KWS stem (non-square 10x4 kernel, stride 2,
  // asymmetric padding), its 3x3 body conv, a MobileNetV2-style pointwise,
  // a channel-expanding 3x3 (K = 288), and a larger-image 3x3. Then VWW-S's
  // own small-K layers: its 50x50 3x3 stem, the 1x1 expansions of its first
  // two blocks (K = 4 and 8) and its 50x50 1x1 projection 8 -> 4, whose tile
  // is one half-filled group. Last, the other zoo stems: VWW-M's 160x160
  // 3x3 stride 2 -> 12 and AD's 32x32 3x3 -> 128, both 1-channel, whose
  // 3-tap kernel rows each end in a padded tap.
  const std::vector<ConvCase> conv_cases = {
      {"kws_stem_49x10x1", geom(49, 10, 1, 64, 10, 4, 2, 4, 1)},
      {"kws_body_25x5x64", geom(25, 5, 64, 64, 3, 3, 1, 1, 1)},
      {"vww_pw_10x10x64", geom(10, 10, 64, 64, 1, 1, 1, 0, 0)},
      {"conv3x3_10x10x32", geom(10, 10, 32, 64, 3, 3, 1, 1, 1)},
      {"img_conv_20x20x64", geom(20, 20, 64, 64, 3, 3, 1, 1, 1)},
      {"vww_stem_50x50x1", geom(50, 50, 1, 8, 3, 3, 1, 1, 1)},
      {"vww_expand_50x50x4", geom(50, 50, 4, 24, 1, 1, 1, 0, 0)},
      {"vww_expand_25x25x8", geom(25, 25, 8, 48, 1, 1, 1, 0, 0)},
      {"vww_project_50x50x8", geom(50, 50, 8, 4, 1, 1, 1, 0, 0)},
      {"vww_m_stem_160x160x1", geom(160, 160, 1, 12, 3, 3, 2, 1, 1)},
      {"ad_stem_32x32x1", geom(32, 32, 1, 128, 3, 3, 1, 1, 1)},
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

    const PanelPerIsa panels(w.span(), g.out_ch,
                             int64_t{g.kh} * g.kw * g.in_ch, g.kh);
    std::vector<int8_t> fast_scratch(
        static_cast<size_t>(kernels::conv2d_fast_scratch_bytes(g)));
    const kernels::RequantTable consts = kernels::prepare_requant(rq, g.out_ch);

    // The timed reference calls write y_ref, which every variant must match
    // byte for byte: the ratio is only meaningful if the two paths agree.
    const double ref_us = median_us_per_call(reps, iters, [&] {
      kernels::conv2d_s8(x.span(), w.span(), bias, y_ref.span(), g, rq);
    });
    const double speedup = time_every_isa(
        report, c.name, ref_us, y_ref, y_fast, reps, iters, &mismatches,
        [&](kernels::KernelIsa isa) {
          kernels::conv2d_s8_fast(x.span(), panels[isa], bias, y_fast.span(),
                                  fast_scratch, g, consts, isa);
        });
    min_conv_speedup = std::min(min_conv_speedup, speedup);
  }
  report.metric("conv_backend_speedup_min", min_conv_speedup);

  // Depthwise shapes: the KWS-M body (25x5, 3x3, stride 1), a VWW-S
  // stride-2 3x3 expansion layer (24 channels: one 16-lane pass plus an
  // 8-lane pass) and VWW-S's first 50x50 layer (8 channels: one 8-lane pass
  // per pixel). The reference side is depthwise_conv2d_s8, what a reference
  // interpreter dispatches.
  const std::vector<ConvCase> dw_cases = {
      {"kws_m_dw_25x5x144", geom(25, 5, 144, 144, 3, 3, 1, 1, 1)},
      {"vww_dw_s2_50x50x24", geom(50, 50, 24, 24, 3, 3, 2, 0, 0)},
      {"vww_dw_50x50x8", geom(50, 50, 8, 8, 3, 3, 1, 1, 1)},
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
    const kernels::RequantTable consts = kernels::prepare_requant(rq, g.out_ch);

    const double ref_us = median_us_per_call(reps, iters, [&] {
      kernels::depthwise_conv2d_s8(x.span(), w.span(), bias, y_ref.span(), g,
                                   rq);
    });
    time_every_isa(report, c.name, ref_us, y_ref, y_fast, reps, iters,
                   &mismatches, [&](kernels::KernelIsa isa) {
                     kernels::depthwise_conv2d_s8_fast(x.span(), w.span(),
                                                       bias, y_fast.span(), g,
                                                       consts, isa);
                   });
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
    const PanelPerIsa panels(w.span(), out_f, in_f, 1);
    std::vector<int8_t> fast_scratch(
        static_cast<size_t>(kernels::conv2d_fast_scratch_bytes(
            kernels::fully_connected_geometry(in_f, out_f))));
    const kernels::RequantTable consts = kernels::prepare_requant(rq, out_f);

    const double ref_us = median_us_per_call(reps, iters * 4, [&] {
      kernels::fully_connected_s8(x.span(), w.span(), {}, y_ref.span(), in_f,
                                  out_f, rq);
    });
    time_every_isa(report, "fc_1024x128", ref_us, y_ref, y_fast, reps,
                   iters * 4, &mismatches, [&](kernels::KernelIsa isa) {
                     kernels::fully_connected_s8_fast(x.span(), panels[isa],
                                                      {}, y_fast.span(),
                                                      fast_scratch, in_f,
                                                      out_f, consts, isa);
                   });
  }

  // Residual adds: VWW-S's 25x25x8 and VWW-M's 20x20x56, with the
  // parameters the interpreter derives from three tensor scales (left
  // shift 20). The reference side is add_s8.
  const struct {
    const char* name;
    int64_t elements;
  } add_cases[] = {{"vww_s_25x25x8_add", 25 * 25 * 8},
                   {"vww_m_20x20x56_add", 20 * 20 * 56}};

  report.phase("add_ab");
  for (const auto& c : add_cases) {
    Rng rng(opt.seed + 3);
    TensorI8 a(Shape{c.elements}), b(Shape{c.elements});
    TensorI8 y_ref(Shape{c.elements}), y_fast(Shape{c.elements});
    fill_s8(a, rng);
    fill_s8(b, rng);
    kernels::AddParams p;
    const double a_scale = 0.031, b_scale = 0.047, out_scale = 0.062;
    const double twice_max = 2.0 * std::max(a_scale, b_scale);
    p.a_zp = -5;
    p.b_zp = 3;
    p.out_zp = -2;
    p.a_mult = quant::quantize_multiplier(a_scale / twice_max);
    p.b_mult = quant::quantize_multiplier(b_scale / twice_max);
    p.out_mult = quant::quantize_multiplier(
        twice_max / ((1 << p.left_shift) * out_scale));
    const kernels::AddRequantTable consts = kernels::prepare_add_requant(p);

    const double ref_us = median_us_per_call(reps, iters, [&] {
      kernels::add_s8(a.span(), b.span(), y_ref.span(), p);
    });
    time_every_isa(report, c.name, ref_us, y_ref, y_fast, reps, iters,
                   &mismatches, [&](kernels::KernelIsa isa) {
                     kernels::add_s8_fast(a.span(), b.span(), y_fast.span(),
                                          consts, isa);
                   });
  }

  report.metric("ab_mismatch_count", static_cast<double>(mismatches));
  report.metric("conv_shapes_count", static_cast<double>(conv_cases.size()));
  std::printf("  min conv speedup %.2fx, mismatched bytes %lld\n",
              min_conv_speedup, static_cast<long long>(mismatches));

  report.finish();
  return mismatches == 0 ? 0 : 1;
}
