// Kernel-backend suite (ctest label "backends"): the cross-backend
// differential contract. The fast backend (packed panels + register-tiled
// SIMD micro-kernel) must produce BYTE-IDENTICAL outputs to the reference
// kernels over randomized conv/depthwise/FC geometries — odd sizes, stride
// 2, symmetric and asymmetric padding, per-channel requant, channel counts
// that are not multiples of the pack/tile width — on every SIMD variant the
// host runs, and at MN_THREADS 1/2/8; for conv, FC and depthwise also the
// requantization's edge multipliers and accumulators, and for depthwise the
// int16 product bound. A call outside the SIMD kernels' domain must be
// refused with its output untouched. Plus:
// backend names and the fast default, panel-packing invariants, a seeded
// >=500-case geometry fuzzer cross-checking ConvGeometry::macs() against a
// per-output-pixel counting oracle, an asymmetric-padding golden vector
// computed by an independent naive loop, the interpreter/pool-facing
// claim-or-fall-back behavior, and serial inference (no pool regions).
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <functional>
#include <set>
#include <vector>

#include "kernels/backend.hpp"
#include "kernels/kernels.hpp"
#include "obs/obs.hpp"
#include "parallel/pool.hpp"
#include "runtime/converter.hpp"
#include "runtime/interpreter.hpp"
#include "runtime/summary.hpp"
#include "models/backbones.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

using namespace mn;

namespace {

kernels::ConvGeometry make_geom(int32_t in_h, int32_t in_w, int32_t in_ch,
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

kernels::RequantParams random_rq(Rng& rng, int32_t out_ch, bool per_channel) {
  kernels::RequantParams rq;
  rq.input_zp = static_cast<int32_t>(rng.uniform_int(-20, 20));
  rq.output_zp = static_cast<int32_t>(rng.uniform_int(-20, 20));
  if (per_channel) {
    for (int32_t oc = 0; oc < out_ch; ++oc)
      rq.per_channel.push_back(
          quant::quantize_multiplier(0.002 + 0.01 * rng.uniform()));
    // One deliberately different channel so a kernel that applies channel
    // 0's multiplier everywhere cannot pass by luck.
    rq.per_channel.back() = quant::quantize_multiplier(0.05);
  } else {
    rq.mult = quant::quantize_multiplier(0.002 + 0.01 * rng.uniform());
  }
  rq.act_min = -128;
  rq.act_max = 127;
  if (rng.uniform() < 0.5) rq.act_min = rq.output_zp;  // fused relu
  return rq;
}

std::vector<int8_t> random_s8(Rng& rng, int64_t n) {
  std::vector<int8_t> v(static_cast<size_t>(n));
  for (auto& x : v) x = static_cast<int8_t>(rng.uniform_int(-127, 127));
  return v;
}

std::vector<int32_t> random_bias(Rng& rng, int64_t n) {
  std::vector<int32_t> v(static_cast<size_t>(n));
  for (auto& b : v) b = static_cast<int32_t>(rng.uniform_int(-8192, 8192));
  return v;
}

// Every SIMD variant of the fast kernels this build carries and this CPU
// runs; none in a non-x86 or -U__SSE2__ build, where the fast backend claims
// no op.
std::vector<kernels::KernelIsa> available_isas() {
  std::vector<kernels::KernelIsa> isas;
  for (const auto isa : {kernels::KernelIsa::kSse2, kernels::KernelIsa::kAvx2,
                         kernels::KernelIsa::kAvx512Vnni})
    if (kernels::kernel_isa_available(isa)) isas.push_back(isa);
  return isas;
}

// Why a test that calls the fast kernels on the active variant is skipped.
constexpr const char* kNoSimd =
    "no SIMD variant in this build or on this CPU: the fast kernels do not run";

// Expects `run` to throw std::invalid_argument and to leave `y` as it was.
template <typename Run>
void expect_refused(std::vector<int8_t>& y, Run&& run) {
  std::fill(y.begin(), y.end(), int8_t{7});
  EXPECT_THROW(run(), std::invalid_argument);
  EXPECT_TRUE(std::all_of(y.begin(), y.end(), [](int8_t v) { return v == 7; }))
      << "a refused call wrote its output";
}

// Runs conv2d_s8 once and conv2d_s8_fast on every available variant, each
// on a panel packed for it, and fully_connected_s8 against
// fully_connected_s8_fast when `fc` (g is then fully_connected_geometry),
// asserting every byte agrees. An input zero point outside int8 is outside
// the kernels' domain: each variant must refuse it instead.
void check_conv_every_isa(const kernels::ConvGeometry& g,
                          const kernels::RequantParams& rq,
                          const std::vector<int8_t>& x,
                          const std::vector<int8_t>& w,
                          const std::vector<int32_t>& bias, bool fc = false) {
  std::vector<int8_t> y_ref(static_cast<size_t>(g.output_elements()));
  if (fc)
    kernels::fully_connected_s8(x, w, bias, y_ref, g.in_ch, g.out_ch, rq);
  else
    kernels::conv2d_s8(x, w, bias, y_ref, g, rq);
  std::vector<int8_t> scratch(
      static_cast<size_t>(kernels::conv2d_fast_scratch_bytes(g)));
  const kernels::RequantTable t = kernels::prepare_requant(rq, g.out_ch);
  for (const kernels::KernelIsa isa : available_isas()) {
    const auto packed = kernels::pack_conv_panel(
        w, g.out_ch, int64_t{g.kh} * g.kw * g.in_ch, g.kh, isa);
    std::vector<int8_t> y(y_ref.size(), int8_t{1});
    const auto run = [&] {
      if (fc)
        kernels::fully_connected_s8_fast(x, packed, bias, y, scratch, g.in_ch,
                                         g.out_ch, t, isa);
      else
        kernels::conv2d_s8_fast(x, packed, bias, y, scratch, g, t, isa);
    };
    if (rq.input_zp < -128 || rq.input_zp > 127) {
      expect_refused(y, run);
      continue;
    }
    run();
    ASSERT_EQ(y, y_ref) << (fc ? "FC" : "conv") << " on "
                        << kernels::kernel_isa_name(isa)
                        << " diverged from the oracle";
  }
}

// The same for depthwise, whose domain also bounds the window to 1..128
// taps.
void check_depthwise_every_isa(const kernels::ConvGeometry& g,
                               const kernels::RequantParams& rq,
                               const std::vector<int8_t>& x,
                               const std::vector<int8_t>& w,
                               const std::vector<int32_t>& bias) {
  std::vector<int8_t> y_ref(static_cast<size_t>(g.output_elements()));
  kernels::depthwise_conv2d_s8(x, w, bias, y_ref, g, rq);
  const kernels::RequantTable t = kernels::prepare_requant(rq, g.out_ch);
  const int64_t taps = int64_t{g.kh} * g.kw;
  for (const kernels::KernelIsa isa : available_isas()) {
    std::vector<int8_t> y(y_ref.size(), int8_t{1});
    const auto run = [&] {
      kernels::depthwise_conv2d_s8_fast(x, w, bias, y, g, t, isa);
    };
    if (taps < 1 || taps > 128) {
      expect_refused(y, run);
      continue;
    }
    run();
    ASSERT_EQ(y, y_ref) << "depthwise on " << kernels::kernel_isa_name(isa)
                        << " diverged from the oracle";
  }
}

// check_conv_every_isa on random operands.
void check_conv_all_backends(const kernels::ConvGeometry& g,
                             const kernels::RequantParams& rq, Rng& rng,
                             bool with_bias) {
  const auto x = random_s8(rng, g.input_elements());
  const auto w = random_s8(rng, int64_t{g.out_ch} * g.kh * g.kw * g.in_ch);
  std::vector<int32_t> bias;
  if (with_bias) bias = random_bias(rng, g.out_ch);
  check_conv_every_isa(g, rq, x, w, bias);
}

}  // namespace

// --- registry ----------------------------------------------------------------

TEST(BackendRegistry, NamesRoundTrip) {
  EXPECT_STREQ(kernels::backend_name(kernels::BackendKind::kReference),
               "reference");
  EXPECT_STREQ(kernels::backend_name(kernels::BackendKind::kFast), "fast");
}

TEST(BackendRegistry, DefaultConfigIsFast) {
  EXPECT_EQ(kernels::BackendConfig{}.kind, kernels::BackendKind::kFast);
  EXPECT_EQ(kernels::BackendConfig::fast().kind, kernels::BackendKind::kFast);
  EXPECT_EQ(kernels::BackendConfig::reference().kind,
            kernels::BackendKind::kReference);
}

// --- panel packing -----------------------------------------------------------

TEST(BackendPacking, PanelInterleavesEightChannelsPerTapPair) {
  // The pair form (every variant but AVX512-VNNI), 11 channels (a full
  // group and a 3-channel one) of 19 taps (odd): every weight lands at
  // [group][tap pair][channel][tap parity], every other byte is a zero
  // weight, and the form holds no sums.
  Rng rng(7);
  const int32_t out_ch = 11;
  const int64_t k = 19;
  const auto w = random_s8(rng, out_ch * k);
  const kernels::PackedOpWeights p =
      kernels::pack_conv_panel(w, out_ch, k, 1, kernels::KernelIsa::kAvx2);
  EXPECT_EQ(p.out_ch, out_ch);
  EXPECT_EQ(p.k, k);
  EXPECT_EQ(p.taps, 2);
  EXPECT_TRUE(p.sums.empty());
  ASSERT_EQ(p.bytes(), 2 * 10 * 16);
  ASSERT_EQ(kernels::conv_panel_bytes(out_ch, k, 1, 2), p.bytes());
  std::vector<bool> placed(p.values.size(), false);
  for (int32_t oc = 0; oc < out_ch; ++oc)
    for (int64_t t = 0; t < k; ++t) {
      const size_t at =
          static_cast<size_t>((oc / 8) * 10 * 16 + (t / 2) * 16 +
                              (oc % 8) * 2 + t % 2);
      EXPECT_EQ(p.values[at], w[static_cast<size_t>(oc * k + t)]);
      placed[at] = true;
    }
  for (size_t b = 0; b < placed.size(); ++b) {
    if (!placed[b]) {
      EXPECT_EQ(p.values[b], 0) << "padding byte " << b;
    }
  }
}

TEST(BackendPacking, WholeGroupsOfEvenLengthGetNoPadding) {
  // VWW-S's 1x1 expand 4 -> 24 packs to exactly its 96 weights in the pair
  // form, and to them plus 24 sums in the quad form.
  Rng rng(8);
  const auto w = random_s8(rng, 24 * 4);
  EXPECT_EQ(kernels::pack_conv_panel(w, 24, 4, 1, kernels::KernelIsa::kAvx2)
                .bytes(),
            24 * 4);
  EXPECT_EQ(
      kernels::pack_conv_panel(w, 24, 4, 1, kernels::KernelIsa::kAvx512Vnni)
          .bytes(),
      24 * 4 + 24 * 4);
}

TEST(BackendPacking, OddKernelRowsEachStartAPair) {
  // A 3x3 1-channel stem, 9 output channels, packed in its 3 kernel rows in
  // the pair form: each 3-tap row fills 2 pairs, the last with a zero
  // weight, so weight (oc, ky, kx) lands in pair 2 * ky + kx / 2. Rows must
  // divide k (and be at least 1).
  Rng rng(9);
  const int32_t out_ch = 9;
  const auto w = random_s8(rng, out_ch * 9);
  const kernels::PackedOpWeights p =
      kernels::pack_conv_panel(w, out_ch, 9, 3, kernels::KernelIsa::kAvx2);
  EXPECT_EQ(p.rows, 3);
  EXPECT_EQ(kernels::conv_panel_steps(9, 3, 2), 6);
  EXPECT_EQ(kernels::conv_panel_steps(9, 1, 2), 5);
  ASSERT_EQ(p.bytes(), 2 * 6 * 16);
  ASSERT_EQ(kernels::conv_panel_bytes(out_ch, 9, 3, 2), p.bytes());
  std::vector<bool> placed(p.values.size(), false);
  for (int32_t oc = 0; oc < out_ch; ++oc)
    for (int32_t ky = 0; ky < 3; ++ky)
      for (int32_t kx = 0; kx < 3; ++kx) {
        const size_t at = static_cast<size_t>(
            (oc / 8) * 6 * 16 + (2 * ky + kx / 2) * 16 + (oc % 8) * 2 + kx % 2);
        EXPECT_EQ(p.values[at], w[static_cast<size_t>(oc * 9 + ky * 3 + kx)]);
        placed[at] = true;
      }
  for (size_t b = 0; b < placed.size(); ++b) {
    if (!placed[b]) {
      EXPECT_EQ(p.values[b], 0) << "padding byte " << b;
    }
  }
  EXPECT_THROW(kernels::pack_conv_panel(w, out_ch, 9, 2),
               std::invalid_argument);
  EXPECT_THROW(kernels::conv_panel_bytes(out_ch, 9, 0, 2),
               std::invalid_argument);
}

TEST(BackendPacking, QuadPanelStartsEachRowAQuadAndSumsItsWeights) {
  // The quad form (AVX512-VNNI): weight (oc, ky, t) of a kernel row of
  // row_len taps lands at [group][quad ky * ceil(row_len / 4) + t / 4]
  // [channel][t % 4], every other byte is a zero weight, and sums[oc] is
  // the channel's weight sum (zero past out_ch, to a whole group). Rows of
  // 3 taps (a 1-channel 3x3 stem), of 5 and 6 taps (kw * in_ch = 1 and
  // 2 mod 4) and of 8 (no padding), under 1-11 channels.
  const struct {
    int32_t out_ch, rows, row_len;
  } cases[] = {{9, 3, 3}, {11, 2, 5}, {3, 3, 6}, {1, 10, 6}, {8, 1, 8},
               {16, 3, 1}, {5, 1, 1027}};
  Rng rng(10);
  for (const auto& c : cases) {
    SCOPED_TRACE(testing::Message() << c.out_ch << " channels, " << c.rows
                                    << " rows of " << c.row_len);
    const int64_t k = int64_t{c.rows} * c.row_len;
    const auto w = random_s8(rng, c.out_ch * k);
    const kernels::PackedOpWeights p = kernels::pack_conv_panel(
        w, c.out_ch, k, c.rows, kernels::KernelIsa::kAvx512Vnni);
    const int64_t row_quads = (c.row_len + 3) / 4;
    const int64_t quads = c.rows * row_quads;
    const int64_t groups = (c.out_ch + 7) / 8;
    EXPECT_EQ(p.taps, 4);
    EXPECT_EQ(kernels::conv_panel_steps(k, c.rows, 4), quads);
    ASSERT_EQ(p.values.size(), static_cast<size_t>(groups * quads * 32));
    ASSERT_EQ(p.sums.size(), static_cast<size_t>(groups * 8));
    EXPECT_EQ(p.bytes(), groups * quads * 32 + groups * 8 * 4);
    EXPECT_EQ(kernels::conv_panel_bytes(c.out_ch, k, c.rows, 4), p.bytes());
    std::vector<bool> placed(p.values.size(), false);
    for (int32_t oc = 0; oc < c.out_ch; ++oc) {
      int32_t sum = 0;
      for (int32_t ky = 0; ky < c.rows; ++ky)
        for (int32_t t = 0; t < c.row_len; ++t) {
          const size_t at = static_cast<size_t>(
              (oc / 8) * quads * 32 + (ky * row_quads + t / 4) * 32 +
              (oc % 8) * 4 + t % 4);
          const int8_t v = w[static_cast<size_t>(oc * k + ky * c.row_len + t)];
          EXPECT_EQ(p.values[at], v);
          placed[at] = true;
          sum += v;
        }
      EXPECT_EQ(p.sums[static_cast<size_t>(oc)], sum);
    }
    for (size_t b = 0; b < placed.size(); ++b) {
      if (!placed[b]) {
        EXPECT_EQ(p.values[b], 0) << "padding byte " << b;
      }
    }
    for (size_t oc = static_cast<size_t>(c.out_ch); oc < p.sums.size(); ++oc)
      EXPECT_EQ(p.sums[oc], 0);
  }
}

TEST(BackendPacking, KernelsRefuseAPanelOfAnotherFormOrRowLayout) {
  // A conv or FC panel is read only by a variant of its form: a pair panel
  // on the quad variant, or a quad panel on a pair variant, throws before
  // an output byte is written, and so does a conv panel packed in other
  // rows than kh.
  Rng rng(11);
  const int32_t out_ch = 9;
  const auto g = make_geom(5, 5, 1, out_ch, 3, 3, 1, 1, 1);
  const auto w = random_s8(rng, out_ch * 9);
  const std::vector<int8_t> x(static_cast<size_t>(g.input_elements()));
  std::vector<int8_t> y(static_cast<size_t>(g.output_elements()), int8_t{7});
  const auto untouched = y;
  std::vector<int8_t> scratch(
      static_cast<size_t>(kernels::conv2d_fast_scratch_bytes(g)));
  const auto t = kernels::prepare_requant(kernels::RequantParams{}, out_ch);
  const auto fg = kernels::fully_connected_geometry(9, out_ch);
  std::vector<int8_t> fscratch(
      static_cast<size_t>(kernels::conv2d_fast_scratch_bytes(fg)));
  for (const kernels::KernelIsa isa : available_isas()) {
    SCOPED_TRACE(kernels::kernel_isa_name(isa));
    const kernels::KernelIsa other = kernels::panel_taps(isa) == 4
                                         ? kernels::KernelIsa::kAvx2
                                         : kernels::KernelIsa::kAvx512Vnni;
    const auto own = kernels::pack_conv_panel(w, out_ch, 9, 3, isa);
    const auto foreign = kernels::pack_conv_panel(w, out_ch, 9, 3, other);
    const auto one_row = kernels::pack_conv_panel(w, out_ch, 9, 1, isa);
    EXPECT_NO_THROW(kernels::conv2d_s8_fast(x, own, {}, y, scratch, g, t, isa));
    y = untouched;
    EXPECT_THROW(
        kernels::conv2d_s8_fast(x, foreign, {}, y, scratch, g, t, isa),
        std::invalid_argument);
    EXPECT_THROW(
        kernels::conv2d_s8_fast(x, one_row, {}, y, scratch, g, t, isa),
        std::invalid_argument);
    EXPECT_EQ(y, untouched);
    const auto fown = kernels::pack_conv_panel(w, out_ch, 9, 1, isa);
    const auto fforeign = kernels::pack_conv_panel(w, out_ch, 9, 1, other);
    std::vector<int8_t> fy(static_cast<size_t>(out_ch), int8_t{7});
    const auto funtouched = fy;
    const auto fx = std::span(x).first(9);
    EXPECT_THROW(kernels::fully_connected_s8_fast(fx, fforeign, {}, fy,
                                                  fscratch, 9, out_ch, t, isa),
                 std::invalid_argument);
    EXPECT_EQ(fy, funtouched);
    EXPECT_NO_THROW(kernels::fully_connected_s8_fast(fx, fown, {}, fy, fscratch,
                                                     9, out_ch, t, isa));
  }
}

// --- differential sweeps -----------------------------------------------------

TEST(BackendDifferential, ConvGeometrySweep) {
  // Odd sizes, stride 2, no/symmetric/asymmetric padding, 1x1 pointwise,
  // non-square kernels, output channel counts straddling the 8-channel
  // group, odd kernel sizes, in_ch not a multiple of 4 (taps straddling tap
  // pairs), and pixel counts that leave a partial 4-pixel tile.
  const struct {
    int32_t in_h, in_w, in_ch, out_ch, kh, kw, stride, pad_h, pad_w;
  } cases[] = {
      {7, 7, 3, 5, 3, 3, 1, 1, 1},     {9, 13, 8, 16, 3, 3, 2, 1, 1},
      {8, 8, 16, 16, 1, 1, 1, 0, 0},   {11, 5, 17, 9, 3, 3, 1, 1, 1},
      {10, 10, 4, 12, 5, 5, 2, 2, 2},  {12, 9, 6, 10, 3, 5, 1, 1, 2},
      {25, 5, 64, 64, 3, 3, 1, 1, 1},  {13, 13, 1, 8, 7, 7, 2, 3, 3},
      {49, 10, 1, 8, 10, 4, 2, 4, 1},  {6, 21, 2, 3, 3, 1, 1, 1, 0},
  };
  uint64_t seed = 100;
  for (const auto& c : cases) {
    for (const bool per_channel : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "in " << c.in_h << "x" << c.in_w << "x" << c.in_ch
                   << " k " << c.kh << "x" << c.kw << " stride " << c.stride
                   << " pad " << c.pad_h << "/" << c.pad_w << " out_ch "
                   << c.out_ch << " per_channel " << per_channel);
      Rng rng(seed++);
      const auto g = make_geom(c.in_h, c.in_w, c.in_ch, c.out_ch, c.kh, c.kw,
                               c.stride, c.pad_h, c.pad_w);
      const auto rq = random_rq(rng, g.out_ch, per_channel);
      check_conv_all_backends(g, rq, rng, /*with_bias=*/per_channel);
    }
  }
}

TEST(BackendDifferential, RandomizedConvFuzz) {
  Rng meta(42);
  for (int it = 0; it < 60; ++it) {
    kernels::ConvGeometry g = make_geom(
        static_cast<int32_t>(meta.uniform_int(3, 18)),
        static_cast<int32_t>(meta.uniform_int(3, 18)),
        static_cast<int32_t>(meta.uniform_int(1, 24)),
        static_cast<int32_t>(meta.uniform_int(1, 24)),
        static_cast<int32_t>(meta.uniform_int(1, 5)),
        static_cast<int32_t>(meta.uniform_int(1, 5)),
        static_cast<int32_t>(meta.uniform_int(1, 2)),
        static_cast<int32_t>(meta.uniform_int(0, 3)),
        static_cast<int32_t>(meta.uniform_int(0, 3)));
    if (g.kh > g.in_h + 2 * g.pad_h || g.kw > g.in_w + 2 * g.pad_w) continue;
    if (g.out_h < 1 || g.out_w < 1) continue;
    SCOPED_TRACE(testing::Message() << "fuzz case " << it);
    Rng rng(static_cast<uint64_t>(1000 + it));
    const auto rq = random_rq(rng, g.out_ch, it % 3 == 0);
    check_conv_all_backends(g, rq, rng, /*with_bias=*/it % 2 == 0);
  }
}

TEST(BackendDifferential, FullyConnectedSweep) {
  // FC runs the conv micro-kernel as a 1x1 conv on one pixel: in_features
  // odd and even, below, at and beyond one 8-channel load, out_features
  // filling and straddling 8-channel groups.
  const struct {
    int32_t in_f, out_f;
  } cases[] = {{1, 1}, {15, 3}, {16, 8}, {17, 5}, {130, 9}, {256, 64}};
  uint64_t seed = 500;
  for (const auto& c : cases) {
    for (const bool per_channel : {false, true}) {
      SCOPED_TRACE(testing::Message() << "fc " << c.in_f << "->" << c.out_f
                                      << " per_channel " << per_channel);
      Rng rng(seed++);
      const auto rq = random_rq(rng, c.out_f, per_channel);
      const auto x = random_s8(rng, c.in_f);
      const auto w = random_s8(rng, int64_t{c.in_f} * c.out_f);
      check_conv_every_isa(kernels::fully_connected_geometry(c.in_f, c.out_f),
                           rq, x, w, random_bias(rng, c.out_f), /*fc=*/true);
    }
  }
}

namespace {

// check_depthwise_every_isa at MN_THREADS 1, 2 and 8.
void check_depthwise_fast(const kernels::ConvGeometry& g,
                          const kernels::RequantParams& rq,
                          const std::vector<int8_t>& x,
                          const std::vector<int8_t>& w,
                          const std::vector<int32_t>& bias) {
  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    parallel::set_threads(threads);
    check_depthwise_every_isa(g, rq, x, w, bias);
  }
  parallel::set_threads(0);
}

}  // namespace

TEST(BackendDifferential, DepthwiseFastMatchesOracleSweep) {
  // Channel counts around the 16-lane pass and its 8-lane half pass
  // (1, 8, 15, 16, 17, 48, 100), stride 1 and 2, the 3x3 zoo kernel plus
  // 1x1 / 5x5 / 3x1 windows, pad_h != pad_w (including pads as wide as the
  // kernel, whose border windows are all padding), per-tensor and
  // per-channel multipliers, fused-relu clamps, with and without bias.
  const struct {
    int32_t kh, kw;
  } kernel_shapes[] = {{3, 3}, {1, 1}, {5, 5}, {3, 1}};
  uint64_t seed = 4000;
  int cases = 0;
  for (const int32_t ch : {1, 8, 15, 16, 17, 48, 100}) {
    for (const int32_t stride : {1, 2}) {
      for (const auto& k : kernel_shapes) {
        const int variant = cases++;
        const int32_t pad_h = k.kh / 2 + variant % 2;
        const int32_t pad_w = k.kw / 2;
        const auto g =
            make_geom(7, 6, ch, ch, k.kh, k.kw, stride, pad_h, pad_w);
        SCOPED_TRACE(testing::Message()
                     << "ch " << ch << " stride " << stride << " k " << k.kh
                     << "x" << k.kw << " pad " << pad_h << "/" << pad_w);
        Rng rng(seed++);
        const auto rq =
            random_rq(rng, ch, /*per_channel=*/(variant / 2) % 2 == 0);
        const auto x = random_s8(rng, g.input_elements());
        const auto w = random_s8(rng, int64_t{g.kh} * g.kw * ch);
        std::vector<int32_t> bias;
        if (variant % 3 != 0) bias = random_bias(rng, ch);
        check_depthwise_fast(g, rq, x, w, bias);
      }
    }
  }
  EXPECT_EQ(cases, 56);
}

TEST(BackendDifferential, DepthwiseFastInt16ProductBound) {
  // The fast kernel forms (x - zp) in int16 and multiplies by the int16
  // weight: all -128 inputs and weights at zp 127 give (-255) * (-128) =
  // 32640, the largest product, and zp -128 / 0 the other corners. 24 and
  // 17 channels run the 8-lane pass and the scalar tail on the same data.
  for (const int32_t zp : {-128, 0, 127}) {
    for (const int32_t ch : {48, 24, 17}) {
      for (const bool per_channel : {false, true}) {
        SCOPED_TRACE(testing::Message() << "zp " << zp << " ch " << ch
                                        << " per_channel " << per_channel);
        const auto g = make_geom(5, 5, ch, ch, 3, 3, 1, 1, 1);
        Rng rng(static_cast<uint64_t>(6000 + zp + ch));
        kernels::RequantParams rq = random_rq(rng, ch, per_channel);
        rq.input_zp = zp;
        const std::vector<int8_t> x(static_cast<size_t>(g.input_elements()),
                                    int8_t{-128});
        const std::vector<int8_t> w(static_cast<size_t>(9 * ch), int8_t{-128});
        check_depthwise_fast(g, rq, x, w, random_bias(rng, ch));
      }
    }
  }
}

TEST(BackendDifferential, DepthwiseFastRequantEdgeCases) {
  // A 1x1 layer whose input equals the zero point contributes nothing, so
  // each accumulator is its bias: the requantization then sees the whole
  // int32 range. Multipliers cover shifts 0 to -31 (the SIMD requant
  // domain) and the cases outside it that must take the scalar path: a
  // left shift, a right shift beyond 31, a zero and a negative multiplier.
  const int32_t ch = 24;
  const auto g = make_geom(2, 3, ch, ch, 1, 1, 1, 0, 0);
  const std::vector<int32_t> accs = {
      0,           1,          -1,         2,          -2,
      1 << 30,     -(1 << 30), 2147483647, -2147483647 - 1,
      123456789,   -987654321, 65535,      -65536,     (1 << 30) + 1,
      -(1 << 30) - 1, 1 << 20, -(1 << 20), 7,          -7,
      1000000000,  -1000000000, 3,         -3,         2147483646};
  ASSERT_EQ(static_cast<int32_t>(accs.size()), ch);
  const std::vector<quant::FixedMultiplier> mults = {
      quant::quantize_multiplier(0.999), quant::quantize_multiplier(0.5),
      quant::quantize_multiplier(0.3),   quant::quantize_multiplier(1e-3),
      quant::quantize_multiplier(1e-9),  quant::FixedMultiplier{1 << 30, -31},
      quant::FixedMultiplier{2147483647, 0},
      quant::FixedMultiplier{1 << 30, 0},
      quant::quantize_multiplier(1.5),   quant::quantize_multiplier(3.0),
      quant::FixedMultiplier{1 << 30, -40},
      quant::FixedMultiplier{0, -3},
      quant::FixedMultiplier{-(1 << 30), -2}};
  for (const int32_t zp : {-128, 5}) {
    const std::vector<int8_t> x(static_cast<size_t>(g.input_elements()),
                                static_cast<int8_t>(zp));
    Rng rng(static_cast<uint64_t>(7000 + zp));
    const auto w = random_s8(rng, ch);
    for (size_t mi = 0; mi < mults.size(); ++mi) {
      SCOPED_TRACE(testing::Message() << "zp " << zp << " multiplier #" << mi);
      // output_zp stays 0: a saturated requant result plus any other zero
      // point overflows int32 (the other sweeps cover nonzero ones).
      kernels::RequantParams rq;
      rq.input_zp = zp;
      rq.mult = mults[mi];
      check_depthwise_fast(g, rq, x, w, accs);
      // Per channel: every multiplier in every lane position, so one lane
      // outside the SIMD domain sends just its group to the scalar path.
      for (int32_t c = 0; c < ch; ++c)
        rq.per_channel.push_back(mults[(mi + static_cast<size_t>(c)) %
                                       mults.size()]);
      rq.act_min = -100;
      rq.act_max = 90;
      check_depthwise_fast(g, rq, x, w, accs);
    }
  }
}

TEST(BackendDifferential, ConvFastRequantEdgeCases) {
  // Requantization: a 1x1 conv (and an FC) whose input equals the zero
  // point contributes nothing, so each accumulator is its bias and the
  // requantization sees the whole int32 range. Multipliers cover every
  // shift from 0 to -31 (the SIMD requant domain) and the cases outside it
  // that must send their group to the scalar path: a left shift, a right
  // shift beyond 31, a zero and a negative multiplier. Per channel, every
  // multiplier visits every lane position of the 8-channel groups; the
  // clamps are the full int8 range, relu, relu6 and one wider than int8.
  const int32_t ch = 24;
  const auto g = make_geom(2, 3, 5, ch, 1, 1, 1, 0, 0);
  const std::vector<int32_t> accs = {
      0,           1,          -1,         2,          -2,
      1 << 30,     -(1 << 30), 2147483647, -2147483647 - 1,
      123456789,   -987654321, 65535,      -65536,     (1 << 30) + 1,
      -(1 << 30) - 1, 1 << 20, -(1 << 20), 7,          -7,
      1000000000,  -1000000000, 3,         -3,         2147483646};
  ASSERT_EQ(static_cast<int32_t>(accs.size()), ch);
  std::vector<quant::FixedMultiplier> mults = {
      quant::quantize_multiplier(0.999), quant::quantize_multiplier(1e-9),
      quant::FixedMultiplier{2147483647, 0},
      quant::quantize_multiplier(1.5),   quant::quantize_multiplier(3.0),
      quant::FixedMultiplier{1 << 30, -40},
      quant::FixedMultiplier{0, -3},
      quant::FixedMultiplier{-(1 << 30), -2}};
  for (int shift = 0; shift <= 31; ++shift)
    mults.push_back({(1 << 30) + 7919 * shift, -shift});
  const struct {
    int32_t lo, hi;
  } clamps[] = {{-128, 127}, {0, 127}, {0, 90}, {-300, 300}};
  for (const int32_t zp : {-128, 127}) {
    const std::vector<int8_t> x(static_cast<size_t>(g.input_elements()),
                                static_cast<int8_t>(zp));
    const std::vector<int8_t> fx(static_cast<size_t>(g.in_ch),
                                 static_cast<int8_t>(zp));
    Rng rng(static_cast<uint64_t>(7100 + zp));
    const auto w = random_s8(rng, int64_t{ch} * g.in_ch);
    for (size_t mi = 0; mi < mults.size(); ++mi) {
      // output_zp stays 0: a saturated requant result plus any other zero
      // point overflows int32 (the other sweeps cover nonzero ones).
      kernels::RequantParams rq;
      rq.input_zp = zp;
      rq.mult = mults[mi];
      const auto& clamp = clamps[mi % 4];
      rq.act_min = clamp.lo;
      rq.act_max = clamp.hi;
      SCOPED_TRACE(testing::Message() << "zp " << zp << " multiplier #" << mi
                                      << " clamp " << clamp.lo << ".."
                                      << clamp.hi);
      check_conv_every_isa(g, rq, x, w, accs);
      check_conv_every_isa(kernels::fully_connected_geometry(g.in_ch, ch), rq,
                           fx, w, accs, /*fc=*/true);
      for (int32_t c = 0; c < ch; ++c)
        rq.per_channel.push_back(mults[(mi + static_cast<size_t>(c)) %
                                       mults.size()]);
      check_conv_every_isa(g, rq, x, w, accs);
      check_conv_every_isa(kernels::fully_connected_geometry(g.in_ch, ch), rq,
                           fx, w, accs, /*fc=*/true);
    }
  }
}

TEST(BackendDifferential, ConvFastTileAndGatherEdges) {
  // Geometry: every out_ch from 1 to 17 (each tail of the 8-channel
  // group), odd K, in_ch 1 (the stems), in_ch 12 (an 8-channel and a
  // 4-channel gather step), stride 2 with padding, and pixel counts that
  // end mid-tile. Operands: random ones, ones at the int16 corner (all -128
  // inputs and weights at input_zp 127, the largest |x - zp| * |w|, and at
  // -128), and zero points outside int8 range, which every variant must
  // refuse (ModelDef::check refuses them at load).
  // Fused relu and relu6 clamps ride along. FC runs the same out_ch sweep.
  const struct {
    int32_t in_h, in_w, in_ch, kh, kw, stride, pad;
  } shapes[] = {{7, 6, 3, 3, 3, 2, 1},  {9, 5, 1, 3, 3, 2, 1},
                {5, 5, 12, 3, 3, 1, 1}, {4, 7, 4, 1, 1, 1, 0},
                {6, 6, 8, 2, 2, 2, 1}};
  uint64_t seed = 7300;
  for (int32_t out_ch = 1; out_ch <= 17; ++out_ch) {
    for (const auto& s : shapes) {
      const auto g = make_geom(s.in_h, s.in_w, s.in_ch, out_ch, s.kh, s.kw,
                               s.stride, s.pad, s.pad);
      const int64_t k = int64_t{g.kh} * g.kw * g.in_ch;
      for (const int32_t zp : {5, 127, -128, 300, -1000}) {
        SCOPED_TRACE(testing::Message()
                     << "out_ch " << out_ch << " in " << s.in_h << "x"
                     << s.in_w << "x" << s.in_ch << " k " << s.kh << "x"
                     << s.kw << " stride " << s.stride << " zp " << zp);
        Rng rng(seed++);
        kernels::RequantParams rq = random_rq(rng, out_ch, zp < 0);
        rq.input_zp = zp;
        rq.output_zp = 0;
        rq.act_min = zp % 2 == 0 ? 0 : -128;  // relu, or none
        rq.act_max = zp == 127 ? 96 : 127;    // relu6 at zp 127
        std::vector<int8_t> x, w;
        if (zp == 127 || zp == -128) {
          x.assign(static_cast<size_t>(g.input_elements()), int8_t{-128});
          w.assign(static_cast<size_t>(out_ch * k), int8_t{-128});
        } else {
          x = random_s8(rng, g.input_elements());
          w = random_s8(rng, out_ch * k);
        }
        const auto bias = random_bias(rng, out_ch);
        check_conv_every_isa(g, rq, x, w, bias);
        check_conv_every_isa(
            kernels::fully_connected_geometry(
                static_cast<int32_t>(g.input_elements()), out_ch),
            rq, x, random_s8(rng, out_ch * g.input_elements()), bias,
            /*fc=*/true);
      }
    }
  }
}

// --- add ------------------------------------------------------------------

namespace {

// Runs add_s8 (the oracle) and add_s8_fast on every available variant on
// the same operands and asserts every byte agrees.
void check_add_fast(const std::vector<int8_t>& a, const std::vector<int8_t>& b,
                    const kernels::AddParams& p) {
  std::vector<int8_t> y_ref(a.size());
  kernels::add_s8(a, b, y_ref, p);
  const kernels::AddRequantTable t = kernels::prepare_add_requant(p);
  for (const kernels::KernelIsa isa : available_isas()) {
    std::vector<int8_t> y_fast(a.size(), int8_t{1});
    kernels::add_s8_fast(a, b, y_fast, t, isa);
    ASSERT_EQ(y_fast, y_ref) << "fast add on " << kernels::kernel_isa_name(isa)
                             << " diverged from the oracle";
  }
}

// add_s8's parameters the way the interpreter derives them from three
// tensor scales.
kernels::AddParams add_params(double a_scale, double b_scale,
                              double out_scale, int32_t left_shift) {
  kernels::AddParams p;
  const double twice_max = 2.0 * std::max(a_scale, b_scale);
  p.left_shift = left_shift;
  p.a_mult = quant::quantize_multiplier(a_scale / twice_max);
  p.b_mult = quant::quantize_multiplier(b_scale / twice_max);
  p.out_mult = quant::quantize_multiplier(
      twice_max / (static_cast<double>(int64_t{1} << left_shift) * out_scale));
  return p;
}

}  // namespace

TEST(BackendDifferential, AddFastMatchesOracleSweep) {
  // Lengths 0-40 cross the 16-element pass and its tail; zero points -128,
  // 0 and 127 on each side; left_shift 20 (the interpreter's) and 0; clamps
  // full, relu, relu6 and one wider than int8 (which must take the oracle).
  const int32_t zps[] = {-128, 0, 127};
  Rng rng(8100);
  int cases = 0;
  for (int32_t n = 0; n <= 40; ++n) {
    for (const int32_t left_shift : {20, 0}) {
      const int variant = cases++;
      // With no left shift the sum's multiplier must stay below 1 to keep
      // the SIMD domain, so the output scale grows to match.
      const double a_scale = 0.01 + 0.05 * rng.uniform();
      const double b_scale = 0.01 + 0.05 * rng.uniform();
      const double out_scale =
          (left_shift == 0 ? 4.0 : 0.5) * (a_scale + b_scale) *
          (0.5 + rng.uniform());
      kernels::AddParams p = add_params(a_scale, b_scale, out_scale,
                                        left_shift);
      p.a_zp = zps[variant % 3];
      p.b_zp = zps[(variant / 3) % 3];
      p.out_zp = zps[(variant + 1) % 3];
      // Full range, relu, relu6 (6.0 at a 0.1 scale) and wider than int8.
      const int clamp = n % 4;
      p.act_min = clamp == 0 ? -128 : clamp == 3 ? -300 : p.out_zp;
      p.act_max = clamp == 2 ? std::min(127, p.out_zp + 60)
                  : clamp == 3 ? 300
                               : 127;
      SCOPED_TRACE(testing::Message()
                   << "n " << n << " left_shift " << left_shift << " zp "
                   << p.a_zp << "/" << p.b_zp << "/" << p.out_zp << " clamp "
                   << p.act_min << ".." << p.act_max);
      EXPECT_EQ(kernels::prepare_add_requant(p).groups[0].simd, clamp != 3)
          << "only the wide clamp leaves SIMD";
      std::vector<int8_t> a(static_cast<size_t>(n)), b(a.size());
      for (size_t i = 0; i < a.size(); ++i) {
        a[i] = static_cast<int8_t>(rng.uniform_int(-128, 127));
        b[i] = static_cast<int8_t>(rng.uniform_int(-128, 127));
      }
      check_add_fast(a, b, p);
    }
  }
  EXPECT_EQ(cases, 82);
}

TEST(BackendDifferential, AddFastRequantEdgeCases) {
  // Each of add's three multipliers in turn takes an edge value while the
  // others stay ordinary: shift 0 (INT32_MAX and 2^30 + 12345), shift -31,
  // and the values outside the SIMD domain, which must send the whole call
  // to the oracle loop: a left shift, a shift of -40, a zero and a negative
  // multiplier. Operands sit at the int8 extremes against zero points at
  // the other end, so |x - zp| reaches 255 and the rescaled inputs reach
  // 255 << 22, the largest the domain admits.
  const struct {
    quant::FixedMultiplier m;
    bool in_domain;
  } edges[] = {
      {{2147483647, 0}, true},          {{(1 << 30) + 12345, 0}, true},
      {{1 << 30, -31}, true},           {{2147483647, -31}, true},
      {quant::quantize_multiplier(1.5), false},
      {{1 << 30, -40}, false},          {{0, -3}, false},
      {{-(1 << 30), -2}, false}};
  const size_t n = 37;  // two 16-element passes and a 5-element tail
  Rng rng(8200);
  for (const int32_t zp : {-128, 127}) {
    std::vector<int8_t> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = i % 3 == 0 ? static_cast<int8_t>(-1 - zp)
                        : static_cast<int8_t>(rng.uniform_int(-128, 127));
      b[i] = i % 4 == 1 ? static_cast<int8_t>(-1 - zp)
                        : static_cast<int8_t>(rng.uniform_int(-128, 127));
    }
    for (int which = 0; which < 3; ++which) {
      for (size_t e = 0; e < std::size(edges); ++e) {
        for (const int32_t left_shift : {22, 20, 0}) {
          // A left-shifted rescale of 255 << 22 would overflow the sum of
          // the two inputs in the oracle itself.
          if (!edges[e].in_domain && left_shift == 22) continue;
          kernels::AddParams p = add_params(0.02, 0.03, 0.04, 20);
          p.left_shift = left_shift;
          p.a_zp = p.b_zp = zp;
          p.out_zp = -zp / 2;
          (which == 0   ? p.a_mult
           : which == 1 ? p.b_mult
                        : p.out_mult) = edges[e].m;
          // The sum's own multiplier is below 1 unless it is the edge.
          if (which != 2) p.out_mult = {1 << 30, -2};
          SCOPED_TRACE(testing::Message()
                       << "zp " << zp << " multiplier " << which << " edge #"
                       << e << " left_shift " << left_shift);
          const kernels::AddRequantTable t = kernels::prepare_add_requant(p);
          EXPECT_EQ(t.groups[0].simd, edges[e].in_domain);
          check_add_fast(a, b, p);
        }
      }
    }
  }
}

// --- instruction-set variants -------------------------------------------

namespace {

// The requantization variants the ISA sweep cycles through: per-tensor,
// per-channel with shifts spread over several octaves (so a group's lanes
// rarely share one), a clamp wider than int8 and one multiplier <= 0 (both
// send groups to the scalar path).
kernels::RequantParams sweep_rq(Rng& rng, int32_t out_ch, int variant,
                                int32_t input_zp) {
  kernels::RequantParams rq;
  rq.input_zp = input_zp;
  rq.output_zp = static_cast<int32_t>(rng.uniform_int(-10, 10));
  const auto mixed = [&] {
    return quant::quantize_multiplier(
        0.0005 * static_cast<double>(1 << rng.uniform_int(0, 7)) *
        (1.0 + rng.uniform()));
  };
  switch (variant % 4) {
    case 0:
      rq.mult = mixed();
      break;
    case 1:
      for (int32_t oc = 0; oc < out_ch; ++oc) rq.per_channel.push_back(mixed());
      break;
    case 2:
      rq.mult = mixed();
      rq.output_zp = 0;  // a wide clamp keeps int32 headroom this way
      rq.act_min = -300;
      rq.act_max = 300;
      break;
    default:
      for (int32_t oc = 0; oc < out_ch; ++oc) rq.per_channel.push_back(mixed());
      rq.per_channel[static_cast<size_t>(rng.uniform_int(0, out_ch - 1))] =
          variant % 8 == 3 ? quant::FixedMultiplier{0, -3}
                           : quant::FixedMultiplier{-(1 << 30), -2};
      break;
  }
  if (variant % 4 != 2 && rng.uniform() < 0.3) rq.act_min = rq.output_zp;
  return rq;
}

}  // namespace

TEST(BackendIsa, NamesAndAvailability) {
  EXPECT_STREQ(kernels::kernel_isa_name(kernels::KernelIsa::kScalar), "scalar");
  EXPECT_STREQ(kernels::kernel_isa_name(kernels::KernelIsa::kSse2), "sse2");
  EXPECT_STREQ(kernels::kernel_isa_name(kernels::KernelIsa::kAvx2), "avx2");
  EXPECT_STREQ(kernels::kernel_isa_name(kernels::KernelIsa::kAvx512Vnni),
               "avx512vnni");
  // kScalar names "no SIMD variant" and has no kernels.
  EXPECT_FALSE(kernels::kernel_isa_available(kernels::KernelIsa::kScalar));
  // The active variant is the widest available one (kScalar when there is
  // none) and stays put; the fast kernels run only where there is one.
  const std::vector<kernels::KernelIsa> isas = available_isas();
  EXPECT_EQ(kernels::active_kernel_isa(),
            isas.empty() ? kernels::KernelIsa::kScalar : isas.back());
  EXPECT_EQ(kernels::active_kernel_isa(), kernels::active_kernel_isa());
  EXPECT_EQ(kernels::fast_kernels_run(), !isas.empty());
  // A variant the build or the CPU lacks, and kScalar always, is refused
  // before a byte is written, not silently replaced; so is packing a panel
  // for kScalar.
  const auto g = make_geom(4, 4, 4, 8, 3, 3, 1, 1, 1);
  const std::vector<int8_t> x(static_cast<size_t>(g.input_elements()));
  const std::vector<int8_t> w(static_cast<size_t>(8 * 9 * 4));
  EXPECT_THROW(
      kernels::pack_conv_panel(w, 8, 9 * 4, 3, kernels::KernelIsa::kScalar),
      std::invalid_argument);
  const auto packed =
      kernels::pack_conv_panel(w, 8, 9 * 4, 3, kernels::KernelIsa::kAvx2);
  std::vector<int8_t> scratch(
      static_cast<size_t>(kernels::conv2d_fast_scratch_bytes(g)));
  std::vector<int8_t> y(static_cast<size_t>(g.output_elements()));
  const auto t = kernels::prepare_requant(kernels::RequantParams{}, 8);
  const auto dw_g = make_geom(4, 4, 4, 4, 3, 3, 1, 1, 1);
  std::vector<int8_t> dw_y(static_cast<size_t>(dw_g.output_elements()));
  for (const auto isa :
       {kernels::KernelIsa::kScalar, kernels::KernelIsa::kSse2,
        kernels::KernelIsa::kAvx2, kernels::KernelIsa::kAvx512Vnni}) {
    if (kernels::kernel_isa_available(isa)) continue;
    SCOPED_TRACE(kernels::kernel_isa_name(isa));
    expect_refused(y, [&] {
      kernels::conv2d_s8_fast(x, packed, {}, y, scratch, g, t, isa);
    });
    expect_refused(dw_y, [&] {
      kernels::depthwise_conv2d_s8_fast(x, std::span(w).first(9 * 4), {},
                                        dw_y, dw_g,
                                        kernels::prepare_requant({}, 4), isa);
    });
    expect_refused(dw_y, [&] {
      kernels::add_s8_fast(x, x, dw_y,
                           kernels::prepare_add_requant(kernels::AddParams{}),
                           isa);
    });
  }
}

TEST(BackendIsa, Avx2CompiledInAndSelectedWhereCpuHasIt) {
  // A build that drops the AVX2 unit's -mavx2 (or the unit itself) must
  // fail here on an AVX2 host rather than quietly run the SSE2 variant. A
  // -U__SSE2__ build (CI leg portable-kernels) compiles neither variant.
#if defined(__x86_64__) || defined(__i386__)
#if defined(__SSE2__)
  EXPECT_TRUE(kernels::kernel_isa_available(kernels::KernelIsa::kSse2));
  if (__builtin_cpu_supports("avx2")) {
    EXPECT_TRUE(kernels::kernel_isa_available(kernels::KernelIsa::kAvx2))
        << "this CPU has AVX2 but the AVX2 kernels were not compiled in";
    // Only the AVX512-VNNI variant (its own test) outranks AVX2.
    if (!kernels::kernel_isa_available(kernels::KernelIsa::kAvx512Vnni)) {
      EXPECT_EQ(kernels::active_kernel_isa(), kernels::KernelIsa::kAvx2);
    }
  } else {
    EXPECT_FALSE(kernels::kernel_isa_available(kernels::KernelIsa::kAvx2));
    EXPECT_EQ(kernels::active_kernel_isa(), kernels::KernelIsa::kSse2);
  }
#else
  EXPECT_FALSE(kernels::kernel_isa_available(kernels::KernelIsa::kSse2));
  EXPECT_FALSE(kernels::kernel_isa_available(kernels::KernelIsa::kAvx2));
  EXPECT_EQ(kernels::active_kernel_isa(), kernels::KernelIsa::kScalar);
#endif
#else
  EXPECT_EQ(kernels::active_kernel_isa(), kernels::KernelIsa::kScalar);
#endif
}

TEST(BackendIsa, Avx512VnniCompiledInAndSelectedWhereCpuHasIt) {
  // The same for the AVX512-VNNI unit (-mavx512vl -mavx512vnni): a host
  // whose CPU has both features must run it; any other keeps AVX2 (or
  // SSE2) as the active variant. -U__SSE2__ compiles it to a stub too.
#if (defined(__x86_64__) || defined(__i386__)) && defined(__SSE2__)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("avx512vl") &&
      __builtin_cpu_supports("avx512vnni")) {
    EXPECT_TRUE(kernels::kernel_isa_available(kernels::KernelIsa::kAvx512Vnni))
        << "this CPU has AVX512-VNNI and AVX512VL but the AVX512-VNNI kernels "
           "were not compiled in";
    EXPECT_EQ(kernels::active_kernel_isa(), kernels::KernelIsa::kAvx512Vnni);
  } else {
    EXPECT_FALSE(
        kernels::kernel_isa_available(kernels::KernelIsa::kAvx512Vnni));
    EXPECT_NE(kernels::active_kernel_isa(), kernels::KernelIsa::kAvx512Vnni);
  }
#else
  EXPECT_FALSE(kernels::kernel_isa_available(kernels::KernelIsa::kAvx512Vnni));
  EXPECT_EQ(kernels::active_kernel_isa(), kernels::KernelIsa::kScalar);
#endif
}

TEST(BackendIsa, ConvAndFcSweepEveryVariant) {
  // Geometry: every output width 1-9 and height 1-3 under each of the 1x1,
  // 3x3 and 10x4 kernels at stride 1 and 2 and pad 0 and 1, with in_ch and
  // out_ch cycling through 1-17 (every tail of the 4-channel gather step
  // and of the 8- and 16-channel groups) plus KWS's 116 / 132 and, for
  // out_ch, 24-72 (the remainders after 2- and 4-group tiles).
  // Operands: per-tensor and mixed-shift per-channel multipliers, groups
  // outside the SIMD domain, input zero points -128 and 127 (at the int16
  // corner: all -128 inputs and weights) and random ones, with and without
  // bias.
  std::vector<int32_t> in_chs, out_chs;
  for (int32_t c = 1; c <= 17; ++c) {
    in_chs.push_back(c);
    out_chs.push_back(c);
  }
  in_chs.insert(in_chs.end(), {116, 132});
  // Past 17: whole 4-group tiles (32, 64) and every remainder after them
  // (33, 40 and 72: 1 group; 48: 2; 56: 3).
  out_chs.insert(out_chs.end(), {24, 32, 33, 40, 48, 56, 64, 72});
  const struct {
    int32_t kh, kw;
  } kernel_shapes[] = {{1, 1}, {3, 3}, {10, 4}};
  Rng rng(9100);
  int cases = 0, checked = 0;
  for (const auto& k : kernel_shapes) {
    for (const int32_t stride : {1, 2}) {
      for (const int32_t pad : {0, 1}) {
        for (int32_t out_h = 1; out_h <= 3; ++out_h) {
          for (int32_t out_w = 1; out_w <= 9; ++out_w) {
            const int variant = cases++;
            const int32_t in_ch = in_chs[static_cast<size_t>(variant) % in_chs.size()];
            const int32_t out_ch =
                out_chs[static_cast<size_t>(variant * 7) % out_chs.size()];
            const auto g = make_geom((out_h - 1) * stride + k.kh - 2 * pad,
                                     (out_w - 1) * stride + k.kw - 2 * pad,
                                     in_ch, out_ch, k.kh, k.kw, stride, pad,
                                     pad);
            if (g.in_h < 1 || g.in_w < 1) continue;
            const int32_t zp = variant % 3 == 0   ? -128
                               : variant % 3 == 1 ? 127
                                                  : static_cast<int32_t>(
                                                        rng.uniform_int(-20, 20));
            const kernels::RequantParams rq = sweep_rq(rng, out_ch, variant, zp);
            SCOPED_TRACE(testing::Message()
                         << "case " << variant << ": in " << g.in_h << "x"
                         << g.in_w << "x" << in_ch << " k " << k.kh << "x"
                         << k.kw << " stride " << stride << " pad " << pad
                         << " out " << out_h << "x" << out_w << "x" << out_ch
                         << " zp " << zp << " rq variant " << variant % 4);
            const int64_t ksize = int64_t{k.kh} * k.kw * in_ch;
            std::vector<int8_t> x, w;
            if (zp != -128 && zp != 127) {
              x = random_s8(rng, g.input_elements());
              w = random_s8(rng, out_ch * ksize);
            } else {
              x.assign(static_cast<size_t>(g.input_elements()), int8_t{-128});
              w.assign(static_cast<size_t>(out_ch * ksize), int8_t{-128});
            }
            std::vector<int32_t> bias;
            if (variant % 5 != 0) bias = random_bias(rng, out_ch);
            check_conv_every_isa(g, rq, x, w, bias);
            ++checked;
          }
        }
      }
    }
  }
  // 1x1 windows at pad 1 need 3 pixels at stride 1 and 2 at stride 2.
  EXPECT_EQ(cases, 324);
  EXPECT_EQ(checked, 293);
  // Every (in_ch, out_ch) pair on one 3x3 layer and as an FC layer.
  for (const int32_t in_ch : in_chs) {
    for (const int32_t out_ch : out_chs) {
      SCOPED_TRACE(testing::Message() << "in_ch " << in_ch << " out_ch "
                                      << out_ch);
      const int variant = in_ch + out_ch;
      const kernels::RequantParams rq = sweep_rq(
          rng, out_ch, variant, static_cast<int32_t>(rng.uniform_int(-128, 127)));
      const auto g = make_geom(3, 5, in_ch, out_ch, 3, 3, 1, 1, 1);
      const auto bias = random_bias(rng, out_ch);
      check_conv_every_isa(g, rq, random_s8(rng, g.input_elements()),
                           random_s8(rng, out_ch * 9 * in_ch), bias);
      check_conv_every_isa(kernels::fully_connected_geometry(in_ch, out_ch),
                           rq, random_s8(rng, in_ch),
                           random_s8(rng, out_ch * in_ch),
                           variant % 2 == 0 ? bias : std::vector<int32_t>{},
                           /*fc=*/true);
    }
  }
  // Rows longer than two 4-pixel tiles: output widths 8-13 (every tile
  // remainder) under 1x1, 3x3, 1x3 and 10x4 kernels at stride 1 and 2 and
  // pads 0-2, so that the interior run of a row starts and ends mid-tile and
  // tiles span rows. in_ch 1-8 gives kernel rows of every length mod 8 (the
  // row gather's 8- and 4-byte loads and a row's padded odd tap).
  const auto operands = [&rng](int32_t zp, int64_t n) {
    return zp == -128 || zp == 127 ? std::vector<int8_t>(static_cast<size_t>(n),
                                                         int8_t{-128})
                                   : random_s8(rng, n);
  };
  const struct {
    int32_t kh, kw;
  } row_kernels[] = {{1, 1}, {3, 3}, {1, 3}, {10, 4}};
  const int32_t row_out_chs[] = {1, 4, 8, 12, 24, 33};
  int rows_checked = 0;
  for (const auto& k : row_kernels) {
    for (const int32_t stride : {1, 2}) {
      for (const int32_t pad : {0, 1, 2}) {
        for (int32_t out_h = 1; out_h <= 2; ++out_h) {
          for (int32_t out_w = 8; out_w <= 13; ++out_w) {
            const int variant = cases++;
            const int32_t in_ch = 1 + variant % 8;
            const int32_t out_ch = row_out_chs[variant % 6];
            const auto g = make_geom((out_h - 1) * stride + k.kh - 2 * pad,
                                     (out_w - 1) * stride + k.kw - 2 * pad,
                                     in_ch, out_ch, k.kh, k.kw, stride, pad,
                                     pad);
            if (g.in_h < 1 || g.in_w < 1) continue;
            const int32_t zp = variant % 3 == 0   ? -128
                               : variant % 3 == 1 ? 127
                                                  : static_cast<int32_t>(
                                                        rng.uniform_int(-20, 20));
            SCOPED_TRACE(testing::Message()
                         << "row case " << variant << ": in " << g.in_h << "x"
                         << g.in_w << "x" << in_ch << " k " << k.kh << "x"
                         << k.kw << " stride " << stride << " pad " << pad
                         << " out " << out_h << "x" << out_w << "x" << out_ch
                         << " zp " << zp);
            check_conv_every_isa(
                g, sweep_rq(rng, out_ch, variant, zp),
                operands(zp, g.input_elements()),
                operands(zp, int64_t{out_ch} * k.kh * k.kw * in_ch),
                variant % 5 != 0 ? random_bias(rng, out_ch)
                                 : std::vector<int32_t>{});
            ++rows_checked;
          }
        }
      }
    }
  }
  // Pad 2 leaves no input under some narrow windows.
  EXPECT_EQ(rows_checked, 186);
  // The zoo's stems (KWS 10x4 stride 2, VWW-S 50x50 -> 8, VWW-M 160x160
  // stride 2 -> 12, AD 32x32 -> 128), VWW-S's 1x1 4 -> 24 and 8 -> 4, and a
  // 2-channel 3x3, each at the int16 corner (zero point -128 or 127, all
  // -128 operands) and with random operands; at zero point 127 without
  // bias, so that the quad form's folded bias starts from zero.
  const struct {
    int32_t in_h, in_w, in_ch, out_ch, kh, kw, stride, pad_h, pad_w;
  } zoo[] = {{49, 10, 1, 64, 10, 4, 2, 4, 1}, {50, 50, 1, 8, 3, 3, 1, 1, 1},
             {160, 160, 1, 12, 3, 3, 2, 1, 1}, {32, 32, 1, 128, 3, 3, 1, 1, 1},
             {50, 50, 4, 24, 1, 1, 1, 0, 0},  {50, 50, 8, 4, 1, 1, 1, 0, 0},
             {9, 11, 2, 16, 3, 3, 1, 1, 1}};
  for (const auto& z : zoo) {
    for (const int32_t zp : {-128, 127, -5}) {
      SCOPED_TRACE(testing::Message()
                   << "zoo shape " << z.in_h << "x" << z.in_w << "x" << z.in_ch
                   << " -> " << z.out_ch << " k " << z.kh << "x" << z.kw
                   << " stride " << z.stride << " zp " << zp);
      const auto g = make_geom(z.in_h, z.in_w, z.in_ch, z.out_ch, z.kh, z.kw,
                               z.stride, z.pad_h, z.pad_w);
      check_conv_every_isa(
          g, sweep_rq(rng, z.out_ch, zp == -5 ? 1 : 0, zp),
          operands(zp, g.input_elements()),
          operands(zp, int64_t{z.out_ch} * z.kh * z.kw * z.in_ch),
          zp == 127 ? std::vector<int32_t>{} : random_bias(rng, z.out_ch));
    }
  }
}

TEST(BackendIsa, QuadProductBoundEveryVariant) {
  // Every tap at the quad form's largest product: x = 127, so u = x + 128 =
  // 255, against w = -128, over K >= 1024 taps (a 1x1 conv of 1024
  // channels, a 3x3 of 116 and an FC of 1027 features), so that every
  // vpdpbusd adds 4 * 255 * -128 and the sum reaches -32640 * K. At zero
  // point -128 the fold is 0 and x - zp = 255; at 127 x - zp = 0 and the
  // fold takes back 255 * sum(w). With bias and without, on every variant.
  Rng rng(9300);
  const kernels::ConvGeometry geoms[] = {
      make_geom(3, 3, 1024, 12, 1, 1, 1, 0, 0),
      make_geom(4, 5, 116, 9, 3, 3, 1, 1, 1),
      kernels::fully_connected_geometry(1027, 20)};
  for (size_t i = 0; i < std::size(geoms); ++i) {
    const kernels::ConvGeometry& g = geoms[i];
    for (const int32_t zp : {-128, 127}) {
      for (const bool with_bias : {true, false}) {
        SCOPED_TRACE(testing::Message() << "geometry #" << i << " zp " << zp
                                        << " bias " << with_bias);
        kernels::RequantParams rq;
        rq.input_zp = zp;
        rq.output_zp = 3;
        // Scales -32640 * 1044 (about -3.4e7) into int8 range.
        rq.mult = quant::quantize_multiplier(1.0 / (1 << 19));
        const std::vector<int8_t> x(static_cast<size_t>(g.input_elements()),
                                    int8_t{127});
        const std::vector<int8_t> w(
            static_cast<size_t>(int64_t{g.out_ch} * g.kh * g.kw * g.in_ch),
            int8_t{-128});
        check_conv_every_isa(
            g, rq, x, w,
            with_bias ? random_bias(rng, g.out_ch) : std::vector<int32_t>{},
            /*fc=*/i == 2);
      }
    }
  }
}

TEST(BackendIsa, DepthwiseSweepEveryVariant) {
  // The same geometry sweep for depthwise, with channels 1-17 (16-, 8- and
  // 4-channel passes and the scalar tail after them) plus 116 and 132
  // (the KWS 4-channel tail); then windows that shrink the weight chunk
  // (11x11: 32 channels per chunk), a layer of more than 256 channels (two
  // chunks), and a 12x11 window past the 128-tap bound and a window of no
  // taps, which every variant must refuse (the fast backend claims neither).
  std::vector<int32_t> chs;
  for (int32_t c = 1; c <= 17; ++c) chs.push_back(c);
  chs.insert(chs.end(), {116, 132});
  const struct {
    int32_t kh, kw;
  } kernel_shapes[] = {{1, 1}, {3, 3}, {10, 4}};
  Rng rng(9200);
  int cases = 0, checked = 0;
  for (const auto& k : kernel_shapes) {
    for (const int32_t stride : {1, 2}) {
      for (const int32_t pad : {0, 1}) {
        for (int32_t out_h = 1; out_h <= 3; ++out_h) {
          for (int32_t out_w = 1; out_w <= 9; ++out_w) {
            const int variant = cases++;
            const int32_t ch = chs[static_cast<size_t>(variant) % chs.size()];
            const auto g = make_geom((out_h - 1) * stride + k.kh - 2 * pad,
                                     (out_w - 1) * stride + k.kw - 2 * pad, ch,
                                     ch, k.kh, k.kw, stride, pad, pad);
            if (g.in_h < 1 || g.in_w < 1) continue;
            const int32_t zp = variant % 3 == 0   ? -128
                               : variant % 3 == 1 ? 127
                                                  : static_cast<int32_t>(
                                                        rng.uniform_int(-20, 20));
            const kernels::RequantParams rq = sweep_rq(rng, ch, variant, zp);
            SCOPED_TRACE(testing::Message()
                         << "case " << variant << ": in " << g.in_h << "x"
                         << g.in_w << "x" << ch << " k " << k.kh << "x" << k.kw
                         << " stride " << stride << " pad " << pad << " out "
                         << out_h << "x" << out_w << " zp " << zp
                         << " rq variant " << variant % 4);
            std::vector<int8_t> x, w;
            if (zp != -128 && zp != 127) {
              x = random_s8(rng, g.input_elements());
              w = random_s8(rng, int64_t{k.kh} * k.kw * ch);
            } else {
              x.assign(static_cast<size_t>(g.input_elements()), int8_t{-128});
              w.assign(static_cast<size_t>(k.kh * k.kw * ch), int8_t{-128});
            }
            std::vector<int32_t> bias;
            if (variant % 5 != 0) bias = random_bias(rng, ch);
            check_depthwise_every_isa(g, rq, x, w, bias);
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 324);
  EXPECT_EQ(checked, 293);
  const struct {
    int32_t in_h, in_w, ch, kh, kw, stride, pad;
  } big[] = {{13, 12, 132, 11, 11, 1, 1}, {14, 13, 116, 11, 11, 2, 5},
             {7, 6, 276, 3, 3, 1, 1},     {6, 9, 300, 3, 3, 2, 1},
             {13, 12, 20, 12, 11, 1, 1},  {3, 4, 8, 0, 3, 1, 0}};
  for (const auto& b : big) {
    for (const int variant : {0, 1, 3}) {
      SCOPED_TRACE(testing::Message() << "ch " << b.ch << " k " << b.kh << "x"
                                      << b.kw << " rq variant " << variant);
      const auto g = make_geom(b.in_h, b.in_w, b.ch, b.ch, b.kh, b.kw,
                               b.stride, b.pad, b.pad);
      const kernels::RequantParams rq = sweep_rq(rng, b.ch, variant, 7);
      check_depthwise_every_isa(g, rq, random_s8(rng, g.input_elements()),
                                random_s8(rng, int64_t{b.kh} * b.kw * b.ch),
                                random_bias(rng, b.ch));
    }
  }
  // Rows longer than two x-tiles: output widths 8-13 under the 3-wide
  // kernels the x-tile unrolls (3x3, and 2x3, 4x3 and 5x3 for even and odd
  // row-pair counts) at stride 1 and 2 and pads 0-2, so that interior runs
  // start and end mid-tile; plus 1x1 and 5x5 (one pixel at a time).
  // Channels cycle through every pass mix and the scalar tail.
  const auto operands = [&rng](int32_t zp, int64_t n) {
    return zp == -128 || zp == 127 ? std::vector<int8_t>(static_cast<size_t>(n),
                                                         int8_t{-128})
                                   : random_s8(rng, n);
  };
  const struct {
    int32_t kh, kw;
  } row_kernels[] = {{3, 3}, {2, 3}, {4, 3}, {5, 3}, {1, 1}, {5, 5}};
  const int32_t row_chs[] = {4, 8, 12, 16, 20, 24, 28, 6, 19};
  int rows_checked = 0;
  for (const auto& k : row_kernels) {
    for (const int32_t stride : {1, 2}) {
      for (const int32_t pad : {0, 1, 2}) {
        for (int32_t out_w = 8; out_w <= 13; ++out_w) {
          const int variant = cases++;
          const int32_t ch = row_chs[variant % 9];
          const int32_t out_h = 1 + variant % 3;
          const auto g = make_geom((out_h - 1) * stride + k.kh - 2 * pad,
                                   (out_w - 1) * stride + k.kw - 2 * pad, ch,
                                   ch, k.kh, k.kw, stride, pad, pad);
          if (g.in_h < 1 || g.in_w < 1) continue;
          const int32_t zp = variant % 3 == 0   ? -128
                             : variant % 3 == 1 ? 127
                                                : static_cast<int32_t>(
                                                      rng.uniform_int(-20, 20));
          SCOPED_TRACE(testing::Message()
                       << "row case " << variant << ": in " << g.in_h << "x"
                       << g.in_w << "x" << ch << " k " << k.kh << "x" << k.kw
                       << " stride " << stride << " pad " << pad << " out "
                       << g.out_h << "x" << out_w << " zp " << zp);
          check_depthwise_every_isa(
              g, sweep_rq(rng, ch, variant, zp),
              operands(zp, g.input_elements()),
              operands(zp, int64_t{k.kh} * k.kw * ch),
              variant % 5 != 0 ? random_bias(rng, ch) : std::vector<int32_t>{});
          ++rows_checked;
        }
      }
    }
  }
  // Pad 2 leaves no input under some narrow windows.
  EXPECT_EQ(rows_checked, 176);
  // The zoo's depthwise shapes: VWW-S's 50x50x8, KWS-M's 25x5x144 and a
  // stride-2 50x50x24, at the int16 corner and with random operands.
  const struct {
    int32_t in_h, in_w, ch, stride, pad;
  } zoo[] = {{50, 50, 8, 1, 1}, {25, 5, 144, 1, 1}, {50, 50, 24, 2, 0},
             {25, 25, 48, 2, 1}};
  for (const auto& z : zoo) {
    for (const int32_t zp : {-128, 127, -5}) {
      SCOPED_TRACE(testing::Message() << "zoo shape " << z.in_h << "x"
                                      << z.in_w << "x" << z.ch << " stride "
                                      << z.stride << " zp " << zp);
      const auto g = make_geom(z.in_h, z.in_w, z.ch, z.ch, 3, 3, z.stride,
                               z.pad, z.pad);
      check_depthwise_every_isa(g, sweep_rq(rng, z.ch, zp == -5 ? 1 : 0, zp),
                                operands(zp, g.input_elements()),
                                operands(zp, 9 * z.ch), random_bias(rng, z.ch));
    }
  }
}

TEST(BackendIsa, RequantIsExactOnEveryVariant) {
  // A 1x1 conv with zero weights leaves each accumulator at its bias, so
  // each variant's requantization sees the int32 extremes, 0, +-1 and
  // random values directly. Every shift in [-31, 0] runs per tensor (one
  // shared count) and per channel with the lanes' shifts rotating through
  // all 32 (each lane shifted by its own count), against multipliers at
  // the bottom, middle and top of [2^30, 2^31).
  const int32_t ch = 24;
  const auto g = make_geom(2, 2, 3, ch, 1, 1, 1, 0, 0);
  Rng rng(9300);
  std::vector<int32_t> bias = {INT32_MIN, INT32_MAX, 0, 1, -1,
                               INT32_MIN + 1, INT32_MAX - 1};
  while (static_cast<int32_t>(bias.size()) < ch)
    bias.push_back(static_cast<int32_t>(rng.next_u64()));
  const std::vector<int8_t> x = random_s8(rng, g.input_elements());
  const std::vector<int8_t> w(static_cast<size_t>(ch * g.in_ch), int8_t{0});
  const int32_t multipliers[] = {1 << 30, (1 << 30) + 123456789, INT32_MAX};
  for (const int32_t m : multipliers) {
    for (int shift = 0; shift <= 31; ++shift) {
      SCOPED_TRACE(testing::Message() << "multiplier " << m << " shift -"
                                      << shift);
      kernels::RequantParams rq;
      rq.input_zp = static_cast<int32_t>(rng.uniform_int(-128, 127));
      rq.mult = {m, -shift};
      check_conv_every_isa(g, rq, x, w, bias);
      for (int32_t c = 0; c < ch; ++c)
        rq.per_channel.push_back({m, -((shift + c) % 32)});
      check_conv_every_isa(g, rq, x, w, bias);
    }
  }
}

// --- asymmetric-padding golden vector ---------------------------------------

// Independent per-output-pixel oracle: the naive direct convolution written
// from the definition, sharing no code with kernels_s8/fast. Guards the
// pad_h != pad_w regression the im2col family is prone to (transposed pads).
TEST(BackendGolden, AsymmetricPaddingOracle) {
  const auto g = make_geom(5, 4, 3, 4, 3, 3, 1, 2, 1);  // pad_h=2, pad_w=1
  Rng rng(11);
  const auto x = random_s8(rng, g.input_elements());
  const auto w = random_s8(rng, int64_t{g.out_ch} * g.kh * g.kw * g.in_ch);
  const auto bias = random_bias(rng, g.out_ch);
  kernels::RequantParams rq = random_rq(rng, g.out_ch, true);

  std::vector<int8_t> oracle(static_cast<size_t>(g.output_elements()));
  for (int32_t oy = 0; oy < g.out_h; ++oy)
    for (int32_t ox = 0; ox < g.out_w; ++ox)
      for (int32_t oc = 0; oc < g.out_ch; ++oc) {
        int32_t acc = bias[static_cast<size_t>(oc)];
        for (int32_t ky = 0; ky < g.kh; ++ky)
          for (int32_t kx = 0; kx < g.kw; ++kx)
            for (int32_t c = 0; c < g.in_ch; ++c) {
              const int32_t iy = oy * g.stride - g.pad_h + ky;
              const int32_t ix = ox * g.stride - g.pad_w + kx;
              if (iy < 0 || iy >= g.in_h || ix < 0 || ix >= g.in_w) continue;
              const int32_t xv =
                  x[static_cast<size_t>((int64_t{iy} * g.in_w + ix) * g.in_ch + c)];
              const int32_t wv = w[static_cast<size_t>(
                  ((int64_t{oc} * g.kh + ky) * g.kw + kx) * g.in_ch + c)];
              acc += (xv - rq.input_zp) * wv;
            }
        int32_t v = quant::multiply_by_quantized_multiplier(
                        acc, rq.channel_mult(oc)) +
                    rq.output_zp;
        v = std::clamp(v, rq.act_min, rq.act_max);
        oracle[static_cast<size_t>((int64_t{oy} * g.out_w + ox) * g.out_ch +
                                   oc)] = static_cast<int8_t>(v);
      }

  std::vector<int8_t> y(oracle.size());
  kernels::conv2d_s8(x, w, bias, y, g, rq);
  EXPECT_EQ(y, oracle) << "reference conv disagrees with the naive oracle";
  // Every fast variant must match the reference conv, and so the oracle.
  check_conv_every_isa(g, rq, x, w, bias);
}

// --- geometry fuzzer ---------------------------------------------------------

TEST(BackendGeometryFuzz, MacsMatchPerPixelCountingOracle) {
  // >= 500 seeded random geometries: macs() must equal the count produced by
  // walking every output pixel and summing its kernel taps — the oracle a
  // tile-boundary over/under-compute in a blocked kernel would disagree
  // with. Also pins the out_h/out_w closed form to the walk.
  Rng rng(20260808);
  int checked = 0;
  while (checked < 500) {
    kernels::ConvGeometry g;
    g.in_h = static_cast<int32_t>(rng.uniform_int(1, 40));
    g.in_w = static_cast<int32_t>(rng.uniform_int(1, 40));
    g.in_ch = static_cast<int32_t>(rng.uniform_int(1, 64));
    g.out_ch = static_cast<int32_t>(rng.uniform_int(1, 64));
    g.kh = static_cast<int32_t>(rng.uniform_int(1, 7));
    g.kw = static_cast<int32_t>(rng.uniform_int(1, 7));
    g.stride = static_cast<int32_t>(rng.uniform_int(1, 3));
    g.pad_h = static_cast<int32_t>(rng.uniform_int(0, 4));
    g.pad_w = static_cast<int32_t>(rng.uniform_int(0, 4));
    if (g.in_h + 2 * g.pad_h < g.kh || g.in_w + 2 * g.pad_w < g.kw) continue;
    g.out_h = (g.in_h + 2 * g.pad_h - g.kh) / g.stride + 1;
    g.out_w = (g.in_w + 2 * g.pad_w - g.kw) / g.stride + 1;
    ASSERT_GE(g.out_h, 1);
    ASSERT_GE(g.out_w, 1);
    int64_t oracle_conv = 0, oracle_dw = 0, pixels = 0;
    for (int32_t oy = 0; oy < g.out_h; ++oy) {
      // When padding is smaller than the kernel (the only case real layers
      // use), every window overlaps the input; with pad >= kernel the closed
      // form legitimately emits all-padding windows, so don't assert there.
      if (g.pad_h < g.kh) {
        ASSERT_LT(oy * g.stride - g.pad_h, g.in_h);
      }
      for (int32_t ox = 0; ox < g.out_w; ++ox) {
        if (g.pad_w < g.kw) {
          ASSERT_LT(ox * g.stride - g.pad_w, g.in_w);
        }
        ++pixels;
        oracle_conv += int64_t{g.out_ch} * g.kh * g.kw * g.in_ch;
        oracle_dw += int64_t{g.in_ch} * g.kh * g.kw;
      }
    }
    EXPECT_EQ(g.macs(false), oracle_conv);
    g.out_ch = g.in_ch;  // depthwise convention: out_ch == in_ch
    EXPECT_EQ(g.macs(true), oracle_dw);
    EXPECT_EQ(pixels, int64_t{g.out_h} * g.out_w);
    ++checked;
  }
  EXPECT_GE(checked, 500);
}

// --- thread invariance -------------------------------------------------------

TEST(BackendThreads, FastConvBitIdenticalAcrossThreadCounts) {
  // Every variant matches the oracle, and so each other, at 1, 2 and 8
  // threads.
  const auto g = make_geom(23, 9, 13, 21, 3, 3, 1, 1, 2);
  Rng rng(55);
  const auto rq = random_rq(rng, g.out_ch, true);
  const auto x = random_s8(rng, g.input_elements());
  const auto w = random_s8(rng, int64_t{g.out_ch} * g.kh * g.kw * g.in_ch);
  const auto bias = random_bias(rng, g.out_ch);
  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    parallel::set_threads(threads);
    check_conv_every_isa(g, rq, x, w, bias);
  }
  parallel::set_threads(0);
}

// --- interpreter integration -------------------------------------------------

namespace {

// `graph` calibrated on two N(0, 0.5) inputs drawn from `seed` and
// converted at `bits` (weights and activations) as `name`.
rt::ModelDef convert_at(nn::Graph graph, const Shape& input, uint64_t seed,
                        int bits, const std::string& name,
                        bool softmax = false) {
  Rng rng(seed);
  TensorF batch(Shape{2, input.dim(0), input.dim(1), input.dim(2)});
  for (int64_t i = 0; i < batch.size(); ++i)
    batch[i] = static_cast<float>(rng.normal(0.0, 0.5));
  const rt::RangeMap ranges = rt::calibrate_ranges(graph, batch);
  rt::ConvertOptions co;
  co.name = bits == 8 ? name : name + "_s4";
  co.append_softmax = softmax;
  co.weight_bits = bits;
  co.act_bits = bits;
  return rt::convert(graph, co, &ranges);
}

rt::ModelDef tiny_model(uint64_t seed = 1, int bits = 8) {
  models::DsCnnConfig cfg;
  cfg.input = Shape{12, 8, 1};
  cfg.num_classes = 4;
  cfg.stem_channels = 8;
  cfg.stem_kh = 3;
  cfg.stem_kw = 3;
  cfg.blocks = {{8, 1}};
  models::BuildOptions opt;
  opt.seed = seed;
  opt.qat = false;
  return convert_at(models::build_ds_cnn(cfg, opt), cfg.input, seed + 1, bits,
                    "backend_tiny");
}

// A residual MobileNetV2: conv, depthwise, FC, pool and add ops, plus a
// softmax at int8 (int4 has none).
rt::ModelDef residual_model(int bits) {
  models::MobileNetV2Config cfg;
  cfg.input = Shape{12, 12, 1};
  cfg.num_classes = 2;
  cfg.stem_channels = 8;
  cfg.blocks = {{8, 8, 1}, {48, 8, 1}};
  cfg.head_channels = 16;
  models::BuildOptions opt;
  opt.seed = 3;
  opt.qat = false;
  return convert_at(models::build_mobilenet_v2(cfg, opt), cfg.input, 4, bits,
                    "backend_resid", /*softmax=*/bits == 8);
}

// A KWS-int4-shaped DS-CNN at int4: the 49x10 input and 10x4 stride-2 stem
// of micronet_kws_int4(), with odd channel and class counts so activations
// and the logits end mid-byte. Weights carry per-channel scales.
rt::ModelDef kws_int4_shaped_model() {
  models::DsCnnConfig cfg = models::micronet_kws_int4();
  cfg.num_classes = 11;
  cfg.stem_channels = 21;
  cfg.blocks = {{23, 1}, {27, 2}};
  models::BuildOptions opt;
  opt.seed = 11;
  opt.qat = false;
  return convert_at(models::build_ds_cnn(cfg, opt), cfg.input, 12, 4,
                    "backend_kws");
}

// A 3x3 stem, one 12x11 depthwise (132 taps, past the fast depthwise
// kernel's 128), a 1x1 conv and the pool + FC head.
rt::ModelDef wide_depthwise_model(int bits) {
  nn::GraphBuilder b(21);
  const Shape input{14, 12, 1};
  nn::Conv2DOptions stem;
  stem.out_channels = 8;
  stem.kh = stem.kw = 3;
  nn::DepthwiseConv2DOptions dw;
  dw.kh = 12;
  dw.kw = 11;
  nn::Conv2DOptions pw;
  pw.out_channels = 12;
  pw.kh = pw.kw = 1;
  const int x = b.conv_bn_relu(
      b.dwconv_bn_relu(b.conv_bn_relu(b.input(input), stem), dw), pw);
  return convert_at(b.build(b.dense(b.global_avg_pool(x), 3)), input, 22,
                    bits, "backend_wide_dw");
}

// Uniform over the input tensor's full range: [-127, 127] at int8, every
// nibble value [-8, 7] at int4.
TensorI8 random_input(const rt::ModelDef& m, uint64_t seed) {
  const rt::TensorDef& in =
      m.tensors[static_cast<size_t>(m.input_tensor)];
  const int lo = in.bits == 8 ? -127 : -8, hi = in.bits == 8 ? 127 : 7;
  TensorI8 t(in.shape);
  Rng rng(seed);
  for (int64_t i = 0; i < t.size(); ++i)
    t[i] = static_cast<int8_t>(rng.uniform_int(lo, hi));
  return t;
}

}  // namespace

TEST(BackendInterpreter, FastInvokeIsByteIdenticalToReference) {
  // Also with a depthwise the fast backend leaves to the reference kernels
  // between two convs it claims.
  for (const rt::ModelDef& m : {tiny_model(3), wide_depthwise_model(8)}) {
    SCOPED_TRACE(m.name);
    const rt::MemoryPlan plan = rt::plan_memory(m);
    rt::Interpreter ref(m, plan, kernels::BackendConfig::reference());
    rt::Interpreter fast(m, plan, kernels::BackendConfig::fast());
    EXPECT_EQ(ref.backend(), kernels::BackendKind::kReference);
    EXPECT_EQ(fast.backend(), kernels::BackendKind::kFast);
    // Claim-or-fall-back: the DS-CNN has conv, depthwise and FC (claimed
    // where a SIMD variant runs) and pool / softmax (reference fallback).
    int fast_ops = 0, ref_ops = 0;
    for (size_t i = 0; i < m.ops.size(); ++i)
      (fast.op_backend(i) == kernels::BackendKind::kFast ? fast_ops
                                                         : ref_ops)++;
    EXPECT_EQ(fast_ops > 0, !available_isas().empty());
    EXPECT_GT(ref_ops, 0);
    for (const auto kind : ref.op_backends())
      EXPECT_EQ(kind, kernels::BackendKind::kReference);
    for (int trial = 0; trial < 4; ++trial) {
      const TensorI8 in = random_input(m, 700 + static_cast<uint64_t>(trial));
      const TensorI8 out_ref = ref.invoke_quantized(in);
      const TensorI8 out_fast = fast.invoke_quantized(in);
      ASSERT_EQ(out_ref.size(), out_fast.size());
      for (int64_t i = 0; i < out_ref.size(); ++i)
        ASSERT_EQ(out_ref[i], out_fast[i])
            << "output byte " << i << " differs";
    }
  }
}

TEST(BackendInterpreter, FastClaimsConvDepthwiseFcAtInt8AndInt4) {
  // An op is fast-served if and only if a SIMD variant is active and the op
  // is in the fast kernels' domain: every int8 and int4 conv / FC / add, and
  // depthwise with a window of 1..128 taps. Pool and softmax fall back, and
  // so does a 12x11 depthwise (132 taps) between two fast convs. The
  // residual MobileNetV2 carries the add ops.
  const bool simd = !available_isas().empty();
  for (const int bits : {8, 4}) {
    for (const rt::ModelDef& m :
         {residual_model(bits), wide_depthwise_model(bits)}) {
      SCOPED_TRACE(m.name);
      rt::Interpreter fast(m, rt::plan_memory(m),
                           kernels::BackendConfig::fast());
      std::set<rt::OpType> fast_types, ref_types;
      bool wide_dw = false;
      for (size_t i = 0; i < m.ops.size(); ++i) {
        const rt::OpType t = m.ops[i].type;
        bool in_domain = t == rt::OpType::kConv2D ||
                         t == rt::OpType::kFullyConnected ||
                         t == rt::OpType::kAdd;
        if (t == rt::OpType::kDepthwiseConv2D) {
          // Weights [1][kh][kw][ch].
          const Shape& ws =
              m.tensors[static_cast<size_t>(m.ops[i].inputs[1])].shape;
          in_domain = ws.dim(1) * ws.dim(2) <= 128;
          wide_dw = wide_dw || !in_domain;
        }
        const bool claimed = simd && in_domain;
        EXPECT_EQ(fast.op_backend(i), claimed
                                          ? kernels::BackendKind::kFast
                                          : kernels::BackendKind::kReference)
            << "op " << i;
        (claimed ? fast_types : ref_types).insert(t);
        // Every claimed op has its fast data and no other op does. Add has
        // no weights and int8 depthwise reads its weights in place; every
        // other claimed op holds its weights (unpacked at int4) in a panel.
        const auto& data = fast.packed_model()->per_op[i];
        ASSERT_EQ(data != nullptr, claimed) << "op " << i;
        if (!claimed) continue;
        const kernels::PackedOpWeights* panel = &data->weights;
        if (t == rt::OpType::kAdd) {
          EXPECT_EQ(data->add.groups.size(), 3u);
          EXPECT_EQ(panel->bytes(), 0);
        } else if (t == rt::OpType::kDepthwiseConv2D && bits == 8) {
          EXPECT_FALSE(data->requant.groups.empty());
          EXPECT_EQ(panel->bytes(), 0);
        } else {
          EXPECT_FALSE(data->requant.groups.empty());
          EXPECT_GT(panel->bytes(), 0);
          const rt::TensorDef& w =
              m.tensors[static_cast<size_t>(m.ops[i].inputs[1])];
          if (t == rt::OpType::kDepthwiseConv2D) {
            EXPECT_EQ(panel->bytes(), w.elements());
          } else {
            EXPECT_EQ(int64_t{panel->out_ch} * panel->k, w.elements());
            EXPECT_EQ(panel->rows,
                      t == rt::OpType::kConv2D ? w.shape.dim(1) : 1);
            EXPECT_EQ(panel->taps,
                      kernels::panel_taps(kernels::active_kernel_isa()));
            EXPECT_EQ(panel->bytes(),
                      kernels::conv_panel_bytes(panel->out_ch, panel->k,
                                                panel->rows, panel->taps));
          }
        }
      }
      EXPECT_EQ(ref_types.count(rt::OpType::kAvgPool2D), 1u);
      if (wide_dw) continue;
      for (const rt::OpType t :
           {rt::OpType::kConv2D, rt::OpType::kDepthwiseConv2D,
            rt::OpType::kFullyConnected, rt::OpType::kAdd})
        EXPECT_EQ(fast_types.count(t), simd ? 1u : 0u) << rt::op_type_name(t);
      EXPECT_EQ(ref_types.count(rt::OpType::kSoftmax), bits == 8 ? 1u : 0u);
    }
  }
}

// Int4 runs the int8 kernels on unpacked operands, so the fast backend must
// match the reference backend byte for byte on int4 models too: a plain
// DS-CNN, a residual MobileNetV2 (add runs add_s8_fast; avg pool falls back
// to the int8 oracle), a KWS-int4-shaped model with a stride-2 10x4 stem,
// per-channel multipliers and odd element counts, and the unclaimed 12x11
// depthwise. Inputs cover every nibble value.
TEST(BackendInterpreter, FastInt4InvokeIsByteIdenticalToReference) {
  for (const rt::ModelDef& m :
       {tiny_model(8, /*bits=*/4), residual_model(4), kws_int4_shaped_model(),
        wide_depthwise_model(4)}) {
    SCOPED_TRACE(m.name);
    const rt::TensorDef& out_t = m.tensors[static_cast<size_t>(m.output_tensor)];
    if (m.name == "backend_kws_s4") {
      EXPECT_EQ(out_t.elements() % 2, 1);
      const rt::OpDef& stem = m.ops.front();
      EXPECT_EQ(stem.type, rt::OpType::kConv2D);
      EXPECT_EQ(stem.stride, 2);
      EXPECT_FALSE(
          m.tensors[static_cast<size_t>(stem.inputs[1])].channel_scales.empty());
    }
    const rt::MemoryPlan plan = rt::plan_memory(m);
    obs::reset_counters();
    rt::Interpreter ref(m, plan, kernels::BackendConfig::reference());
#if !defined(MN_OBS_DISABLED)
    // The staging buffers count as scratch: at least the stem's unpacked
    // input and int8 result.
    const rt::OpDef& stem = m.ops.front();
    EXPECT_GE(obs::gauge_value(obs::Gauge::kScratchPeakBytes),
              m.tensors[static_cast<size_t>(stem.inputs[0])].elements() +
                  m.tensors[static_cast<size_t>(stem.output)].elements());
#endif
    rt::Interpreter fast(m, plan, kernels::BackendConfig::fast());
    int claimed = 0;
    for (size_t i = 0; i < m.ops.size(); ++i)
      claimed += fast.op_backend(i) == kernels::BackendKind::kFast;
    EXPECT_EQ(claimed > 0, !available_isas().empty());
    std::set<int> seen;
    for (int trial = 0; trial < 3; ++trial) {
      const TensorI8 in = random_input(m, 1300 + static_cast<uint64_t>(trial));
      for (int64_t i = 0; i < in.size(); ++i) seen.insert(in[i]);
      const TensorI8 out_ref = ref.invoke_quantized(in);
      const TensorI8 out_fast = fast.invoke_quantized(in);
      ASSERT_EQ(out_ref.size(), out_fast.size());
      for (int64_t i = 0; i < out_ref.size(); ++i)
        ASSERT_EQ(out_ref[i], out_fast[i]) << "output element " << i;
    }
    EXPECT_EQ(seen.size(), 16u);
  }
}

TEST(BackendInterpreter, FastInvokeThreadInvariant) {
  for (const rt::ModelDef& m : {tiny_model(4), tiny_model(4, /*bits=*/4)}) {
    SCOPED_TRACE(m.name);
    rt::Interpreter fast(m, rt::plan_memory(m), kernels::BackendConfig::fast());
    const TensorI8 in = random_input(m, 900);
    TensorI8 baseline;
    for (const int threads : {1, 2, 8}) {
      parallel::set_threads(threads);
      const TensorI8 out = fast.invoke_quantized(in);
      if (baseline.size() == 0) {
        baseline = out;
      } else {
        ASSERT_EQ(out.size(), baseline.size());
        for (int64_t i = 0; i < out.size(); ++i)
          ASSERT_EQ(out[i], baseline[i]) << "thread count " << threads;
      }
    }
  }
  parallel::set_threads(0);
}

TEST(BackendInterpreter, InvokeOpensNoPoolRegion) {
#if defined(MN_OBS_DISABLED)
  GTEST_SKIP() << "pool counters are compiled out";
#else
  // Inference kernels are serial on every backend and bit width: even with
  // a 4-thread pool available, an invoke never enters a parallel region.
  const rt::ModelDef m8 = residual_model(8);
  std::set<rt::OpType> types;
  for (const rt::OpDef& op : m8.ops) types.insert(op.type);
  for (const rt::OpType t :
       {rt::OpType::kConv2D, rt::OpType::kDepthwiseConv2D,
        rt::OpType::kFullyConnected, rt::OpType::kAvgPool2D, rt::OpType::kAdd,
        rt::OpType::kSoftmax})
    EXPECT_EQ(types.count(t), 1u) << rt::op_type_name(t);
  const rt::ModelDef m4 = tiny_model(7, /*bits=*/4);
  rt::Interpreter by_default(m8);
  EXPECT_EQ(by_default.backend(), kernels::BackendKind::kFast);
  rt::Interpreter reference(m8, rt::plan_memory(m8),
                            kernels::BackendConfig::reference());
  rt::Interpreter int4(m4);
  parallel::set_threads(4);
  for (rt::Interpreter* interp : {&by_default, &reference, &int4}) {
    SCOPED_TRACE(interp->model().name + " on " +
                 kernels::backend_name(interp->backend()));
    const int64_t before = obs::counter_value(obs::Counter::kPoolRegions);
    interp->invoke_quantized(random_input(interp->model(), 77));
    EXPECT_EQ(obs::counter_value(obs::Counter::kPoolRegions), before);
  }
  parallel::set_threads(0);
#endif
}

TEST(BackendInterpreter, DispatchCountersAndProfileReportBackend) {
  const rt::ModelDef m = tiny_model(5);
  rt::Interpreter fast(m, rt::plan_memory(m), kernels::BackendConfig::fast());
  fast.set_profiling(true);
  fast.invoke_quantized(random_input(m, 42));
  // The interpreter's own per-op record says which backend ran each op, in
  // every MN_OBS configuration.
  const auto& backends = fast.op_backends();
  ASSERT_EQ(backends.size(), m.ops.size());
  const auto fast_ops = std::count(backends.begin(), backends.end(),
                                   kernels::BackendKind::kFast);
  const auto ref_ops = std::count(backends.begin(), backends.end(),
                                  kernels::BackendKind::kReference);
  const bool simd = !available_isas().empty();
  EXPECT_EQ(fast_ops > 0, simd);
  EXPECT_GT(ref_ops, 0);
  EXPECT_EQ(fast_ops + ref_ops, static_cast<std::ptrdiff_t>(m.ops.size()));
  const rt::ProfileReport rep = fast.profile_report();
  bool saw_fast = false, saw_ref = false;
  for (size_t i = 0; i < rep.ops.size(); ++i) {
    EXPECT_STREQ(rep.ops[i].backend,
                 kernels::backend_name(fast.op_backend(i)));
    if (std::string(rep.ops[i].backend) == "fast") saw_fast = true;
    if (std::string(rep.ops[i].backend) == "reference") saw_ref = true;
  }
  EXPECT_EQ(saw_fast, simd);
  EXPECT_TRUE(saw_ref);
  EXPECT_NE(rep.table().find("backend"), std::string::npos);
}

TEST(BackendInterpreter, SummaryAndProfileNameTheKernelIsa) {
  // Which kernel produced a number: the fast backend runs the process's
  // active variant, the reference backend the naive (scalar) loops, and the
  // summary counts the ops the fast kernels serve.
  const rt::ModelDef m = tiny_model(5);
  const std::string active =
      kernels::kernel_isa_name(kernels::active_kernel_isa());
  rt::Interpreter fast(m, rt::plan_memory(m), kernels::BackendConfig::fast());
  rt::Interpreter ref(m, rt::plan_memory(m),
                      kernels::BackendConfig::reference());
  EXPECT_EQ(fast.kernel_isa(), kernels::active_kernel_isa());
  EXPECT_EQ(ref.kernel_isa(), kernels::KernelIsa::kScalar);
  EXPECT_NE(rt::deployment_summary(fast).find("kernels: fast backend, " +
                                              active + " ISA"),
            std::string::npos);
  EXPECT_NE(rt::deployment_summary(ref).find(
                "kernels: reference backend, scalar ISA"),
            std::string::npos);
  // All of its five ops but the pool where a SIMD variant runs.
  ASSERT_EQ(m.ops.size(), 5u);
  EXPECT_NE(rt::deployment_summary(fast).find(
                (available_isas().empty() ? ", 0" : ", 4") +
                std::string("/5 ops on the fast kernels\n")),
            std::string::npos);
  EXPECT_NE(rt::deployment_summary(ref).find(", 0/5 ops on the fast kernels"),
            std::string::npos);
  fast.set_profiling(true);
  fast.invoke_quantized(random_input(m, 43));
  const rt::ProfileReport rep = fast.profile_report();
  EXPECT_EQ(rep.kernel_isa, active);
  EXPECT_NE(rep.table().find(", " + active + " kernels"), std::string::npos);
}

TEST(BackendInterpreter, SharedPackedModelIsReusedAndValidated) {
  const rt::ModelDef m = tiny_model(6);
  const rt::MemoryPlan plan = rt::plan_memory(m);
  const auto packed =
      rt::pack_model_weights(m, kernels::BackendConfig::fast());
  EXPECT_EQ(packed->kind, kernels::BackendKind::kFast);
  EXPECT_EQ(packed->per_op.size(), m.ops.size());
  if (available_isas().empty()) {
    EXPECT_EQ(packed->bytes(), 0);
    GTEST_SKIP() << "no SIMD variant: the fast backend claims and packs no op";
  }
  EXPECT_GT(packed->bytes(), 0);
  bool any_claimed = false, any_fallback = false;
  for (const auto& p : packed->per_op) (p ? any_claimed : any_fallback) = true;
  EXPECT_TRUE(any_claimed);
  EXPECT_TRUE(any_fallback);
  // Two replicas over the same panels alias the exact objects (no re-pack).
  rt::Interpreter a(m, plan, kernels::BackendConfig::fast(), packed);
  rt::Interpreter b(m, plan, kernels::BackendConfig::fast(), packed);
  EXPECT_EQ(a.packed_model().get(), packed.get());
  EXPECT_EQ(b.packed_model().get(), packed.get());
  const TensorI8 in = random_input(m, 31);
  const TensorI8 oa = a.invoke_quantized(in);
  const TensorI8 ob = b.invoke_quantized(in);
  for (int64_t i = 0; i < oa.size(); ++i) ASSERT_EQ(oa[i], ob[i]);
  // A reference-kind panel set under a fast config is a hard error, not a
  // silent re-pack.
  const auto ref_packed =
      rt::pack_model_weights(m, kernels::BackendConfig::reference());
  EXPECT_EQ(ref_packed->bytes(), 0);
  EXPECT_THROW(
      rt::Interpreter(m, plan, kernels::BackendConfig::fast(), ref_packed),
      std::runtime_error);
  // So is a fast-kind set missing a claimed op's data (the op's backend
  // comes from the claim, not from the data's presence).
  auto holed = std::make_shared<rt::PackedModel>(*packed);
  for (auto& p : holed->per_op)
    if (p) {
      p = nullptr;
      break;
    }
  EXPECT_THROW(rt::Interpreter(m, plan, kernels::BackendConfig::fast(), holed),
               std::runtime_error);
}

// --- hardened kernel validation --------------------------------------------

TEST(BackendValidation, KernelsRejectUndersizedBuffers) {
  if (available_isas().empty()) GTEST_SKIP() << kNoSimd;
  const auto g = make_geom(6, 6, 4, 4, 3, 3, 1, 1, 1);
  Rng rng(13);
  const auto rq = random_rq(rng, g.out_ch, false);
  const auto x = random_s8(rng, g.input_elements());
  const auto w = random_s8(rng, int64_t{g.out_ch} * g.kh * g.kw * g.in_ch);
  const auto bias = random_bias(rng, g.out_ch);
  std::vector<int8_t> y(static_cast<size_t>(g.output_elements()));

  // Each oracle and its fast kernel reject the same short input, non-empty
  // bias and output, before touching any buffer.
  const auto expect_span_checks = [](const auto& run,
                                     std::span<const int8_t> in,
                                     std::span<const int32_t> b,
                                     std::span<int8_t> out) {
    EXPECT_NO_THROW(run(in, b, out));
    EXPECT_NO_THROW(run(in, std::span<const int32_t>{}, out));
    EXPECT_THROW(run(in.first(in.size() - 1), b, out), std::invalid_argument);
    EXPECT_THROW(run(in, b.first(b.size() - 1), out), std::invalid_argument);
    EXPECT_THROW(run(in, b, out.first(out.size() - 1)), std::invalid_argument);
  };

  // Conv: plus a short weights span (oracle), a short scratch, and a panel
  // packed for another geometry or cut short (fast).
  const int64_t ksize = int64_t{g.kh} * g.kw * g.in_ch;
  const auto packed = kernels::pack_conv_panel(w, g.out_ch, ksize, g.kh);
  std::vector<int8_t> scratch(
      static_cast<size_t>(kernels::conv2d_fast_scratch_bytes(g)));
  const auto consts = kernels::prepare_requant(rq, g.out_ch);
  const auto conv_fast = [&](const kernels::PackedOpWeights& panel,
                             std::span<int8_t> scr) {
    return [&g, &consts, p = &panel, scr](std::span<const int8_t> in,
                                          std::span<const int32_t> b,
                                          std::span<int8_t> out) {
      kernels::conv2d_s8_fast(in, *p, b, out, scr, g, consts);
    };
  };
  expect_span_checks(
      [&](std::span<const int8_t> in, std::span<const int32_t> b,
          std::span<int8_t> out) { kernels::conv2d_s8(in, w, b, out, g, rq); },
      x, bias, y);
  expect_span_checks(conv_fast(packed, scratch), x, bias, y);
  EXPECT_THROW(kernels::conv2d_s8(x, std::span(w).first(w.size() - 1), bias,
                                  y, g, rq),
               std::invalid_argument);
  EXPECT_THROW(conv_fast(packed, std::span(scratch).first(scratch.size() - 1))(
                   x, bias, y),
               std::invalid_argument);
  const auto wrong = kernels::pack_conv_panel(w, g.out_ch * 2, ksize / 2);
  EXPECT_THROW(conv_fast(wrong, scratch)(x, bias, y), std::invalid_argument);
  auto truncated = packed;
  truncated.values.pop_back();
  EXPECT_THROW(conv_fast(truncated, scratch)(x, bias, y),
               std::invalid_argument);

  // Fully connected: the same contract over [out, in] weights.
  const int32_t in_f = 19, out_f = 5;
  const auto fx = random_s8(rng, in_f);
  const auto fw = random_s8(rng, int64_t{in_f} * out_f);
  const auto fb = random_bias(rng, out_f);
  const auto fpacked = kernels::pack_conv_panel(fw, out_f, in_f);
  std::vector<int8_t> fscratch(static_cast<size_t>(
      kernels::conv2d_fast_scratch_bytes(
          kernels::fully_connected_geometry(in_f, out_f))));
  std::vector<int8_t> fy(static_cast<size_t>(out_f));
  const auto fconsts = kernels::prepare_requant(rq, out_f);
  expect_span_checks(
      [&](std::span<const int8_t> in, std::span<const int32_t> b,
          std::span<int8_t> out) {
        kernels::fully_connected_s8(in, fw, b, out, in_f, out_f, rq);
      },
      fx, fb, fy);
  expect_span_checks(
      [&](std::span<const int8_t> in, std::span<const int32_t> b,
          std::span<int8_t> out) {
        kernels::fully_connected_s8_fast(in, fpacked, b, out, fscratch, in_f,
                                         out_f, fconsts);
      },
      fx, fb, fy);
  EXPECT_THROW(kernels::fully_connected_s8(fx, std::span(fw).first(fw.size() - 1),
                                           fb, fy, in_f, out_f, rq),
               std::invalid_argument);
  EXPECT_THROW(kernels::fully_connected_s8_fast(fx, fpacked, fb, fy, fscratch,
                                                in_f + 1, out_f, fconsts),
               std::invalid_argument);
  EXPECT_THROW(kernels::fully_connected_s8_fast(
                   fx, fpacked, fb, fy,
                   std::span(fscratch).first(fscratch.size() - 1), in_f,
                   out_f, fconsts),
               std::invalid_argument);

  // Depthwise: also a short [kh, kw, ch] weights span and a channel
  // multiplier other than 1.
  const auto dw_w = random_s8(rng, int64_t{g.kh} * g.kw * g.in_ch);
  const std::span<const int8_t> short_w(dw_w.data(), dw_w.size() - 1);
  auto grown = g;
  grown.out_ch = g.in_ch + 1;
  using DwKernel = std::function<void(
      std::span<const int8_t>, std::span<const int8_t>,
      std::span<const int32_t>, std::span<int8_t>,
      const kernels::ConvGeometry&)>;
  const DwKernel dw_kernels[] = {
      [&rq](auto in, auto w, auto b, auto out, const auto& geom) {
        kernels::depthwise_conv2d_s8(in, w, b, out, geom, rq);
      },
      [&consts](auto in, auto w, auto b, auto out, const auto& geom) {
        kernels::depthwise_conv2d_s8_fast(in, w, b, out, geom, consts);
      }};
  for (const DwKernel& dw : dw_kernels) {
    expect_span_checks(
        [&](std::span<const int8_t> in, std::span<const int32_t> b,
            std::span<int8_t> out) { dw(in, dw_w, b, out, g); },
        x, bias, y);
    EXPECT_THROW(dw(x, short_w, bias, y, g), std::invalid_argument);
    EXPECT_THROW(dw(x, dw_w, bias, y, grown), std::invalid_argument);
  }

  // Pools: a short input, and an output slot sized for fewer channels than
  // the input has (a 1x1 pool from 4x4x8 into a 4x4x1 slot).
  kernels::PoolGeometry pg;
  pg.in_h = pg.in_w = pg.out_h = pg.out_w = 4;
  pg.ch = 8;
  pg.kh = pg.kw = 1;
  const auto px = random_s8(rng, 4 * 4 * 8);
  std::vector<int8_t> py(px.size());
  using PoolKernel = void (*)(std::span<const int8_t>, std::span<int8_t>,
                              const kernels::PoolGeometry&, int32_t, int32_t);
  for (const PoolKernel pool : {static_cast<PoolKernel>(kernels::avg_pool_s8),
                                static_cast<PoolKernel>(kernels::max_pool_s8)}) {
    EXPECT_NO_THROW(pool(px, py, pg, -128, 127));
    EXPECT_THROW(pool(std::span(px).first(px.size() - 1), py, pg, -128, 127),
                 std::invalid_argument);
    EXPECT_THROW(pool(px, std::span(py).first(4 * 4), pg, -128, 127),
                 std::invalid_argument);
  }

  // Softmax: rows x cols on both sides.
  const auto sx = random_s8(rng, 2 * 5);
  std::vector<int8_t> sy(sx.size());
  EXPECT_NO_THROW(kernels::softmax_s8(sx, sy, 2, 5, 0.1f));
  EXPECT_THROW(kernels::softmax_s8(std::span(sx).first(sx.size() - 1), sy, 2,
                                   5, 0.1f),
               std::invalid_argument);
  EXPECT_THROW(kernels::softmax_s8(sx, std::span(sy).first(5), 2, 5, 0.1f),
               std::invalid_argument);
}

TEST(BackendValidation, KernelsRejectMismatchedRequantTables) {
  if (available_isas().empty()) GTEST_SKIP() << kNoSimd;
  // A requant table prepared for another channel count, or cut short, is
  // refused with invalid_argument before any output byte is written.
  const auto g = make_geom(5, 5, 12, 12, 3, 3, 1, 1, 1);
  Rng rng(17);
  const auto rq = random_rq(rng, g.out_ch, true);
  const auto x = random_s8(rng, g.input_elements());
  const auto w = random_s8(rng, int64_t{g.out_ch} * g.kh * g.kw * g.in_ch);
  const auto dw_w = random_s8(rng, int64_t{g.kh} * g.kw * g.in_ch);
  const auto bias = random_bias(rng, g.out_ch);
  const auto packed = kernels::pack_conv_panel(
      w, g.out_ch, int64_t{g.kh} * g.kw * g.in_ch, g.kh);
  std::vector<int8_t> scratch(
      static_cast<size_t>(kernels::conv2d_fast_scratch_bytes(g)));
  const auto fpacked = kernels::pack_conv_panel(w, g.out_ch, g.in_ch);
  std::vector<int8_t> y(static_cast<size_t>(g.output_elements()), int8_t{7});
  const auto untouched = y;

  auto truncated = kernels::prepare_requant(rq, g.out_ch);
  truncated.groups.pop_back();
  std::vector<kernels::RequantTable> wrong;
  wrong.push_back(kernels::prepare_requant(rq, g.out_ch - 1));
  wrong.push_back(kernels::prepare_requant(rq, g.out_ch - 4));
  wrong.push_back(kernels::RequantTable{});
  wrong.push_back(truncated);
  for (size_t i = 0; i < wrong.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "table #" << i);
    const kernels::RequantTable& t = wrong[i];
    EXPECT_THROW(
        kernels::conv2d_s8_fast(x, packed, bias, y, scratch, g, t),
        std::invalid_argument);
    EXPECT_THROW(kernels::depthwise_conv2d_s8_fast(x, dw_w, bias, y, g, t),
                 std::invalid_argument);
    EXPECT_THROW(kernels::fully_connected_s8_fast(x, fpacked, bias, y, scratch,
                                                  g.in_ch, g.out_ch, t),
                 std::invalid_argument);
    EXPECT_EQ(y, untouched);
  }
  // An add table that was not prepared is refused too.
  EXPECT_THROW(kernels::add_s8_fast(x, x, std::span(y).first(x.size()),
                                    kernels::AddRequantTable{}),
               std::invalid_argument);
  EXPECT_EQ(y, untouched);
  // The matching tables run.
  EXPECT_NO_THROW(kernels::conv2d_s8_fast(
      x, packed, bias, y, scratch, g, kernels::prepare_requant(rq, g.out_ch)));
  EXPECT_NO_THROW(kernels::add_s8_fast(
      x, x, std::span(y).first(x.size()),
      kernels::prepare_add_requant(kernels::AddParams{})));
  // A table cannot be prepared for more channels than multipliers.
  EXPECT_THROW(kernels::prepare_requant(rq, g.out_ch + 1),
               std::invalid_argument);
}
