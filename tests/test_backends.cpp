// Kernel-backend suite (ctest label "backends"): the cross-backend
// differential contract. The fast backend (packed panels + cache-blocked
// SIMD GEMM) must produce BYTE-IDENTICAL outputs to the reference kernels
// over randomized conv/depthwise/FC geometries — odd sizes, stride 2,
// symmetric and asymmetric padding, per-channel requant, channel counts that
// are not multiples of the pack/tile width — and at MN_THREADS 1/2/8; for
// depthwise also the int16 product bound and the requantization's edge
// multipliers and accumulators. Plus:
// backend names and the fast default, panel-packing invariants, a seeded
// >=500-case geometry fuzzer cross-checking ConvGeometry::macs() against a
// per-output-pixel counting oracle, an asymmetric-padding golden vector
// computed by an independent naive loop, the interpreter/pool-facing
// claim-or-fall-back behavior, and serial inference (no pool regions).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "kernels/backend.hpp"
#include "kernels/kernels.hpp"
#include "obs/obs.hpp"
#include "parallel/pool.hpp"
#include "runtime/converter.hpp"
#include "runtime/interpreter.hpp"
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

// Runs conv2d_s8 (ground truth) and conv2d_s8_fast on the same inputs and
// asserts they agree on every byte.
void check_conv_all_backends(const kernels::ConvGeometry& g,
                             const kernels::RequantParams& rq, Rng& rng,
                             bool with_bias) {
  const auto x = random_s8(rng, g.input_elements());
  const auto w = random_s8(rng, int64_t{g.out_ch} * g.kh * g.kw * g.in_ch);
  std::vector<int32_t> bias;
  if (with_bias) bias = random_bias(rng, g.out_ch);
  std::vector<int8_t> y_ref(static_cast<size_t>(g.output_elements()));
  std::vector<int8_t> y_fast(y_ref.size());
  kernels::conv2d_s8(x, w, bias, y_ref, g, rq);
  const kernels::PackedOpWeights packed = kernels::pack_rows_s8(
      w, g.out_ch, int64_t{g.kh} * g.kw * g.in_ch);
  std::vector<int8_t> fast_scratch(
      static_cast<size_t>(kernels::conv2d_fast_scratch_bytes(g)));
  kernels::conv2d_s8_fast(x, packed, bias, y_fast, fast_scratch, g, rq);
  ASSERT_EQ(y_fast, y_ref) << "fast backend diverged from reference";
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

TEST(BackendPacking, RowsPadToAlignWithZeroTailsAndSums) {
  Rng rng(7);
  const int64_t rows = 5, row_len = 19;  // deliberately not a multiple of 16
  const auto w = random_s8(rng, rows * row_len);
  const kernels::PackedOpWeights p = kernels::pack_rows_s8(w, rows, row_len);
  EXPECT_EQ(p.num_rows, rows);
  EXPECT_EQ(p.row_len, row_len);
  EXPECT_EQ(p.row_stride, 32);  // 19 rounded up to kPackAlign
  EXPECT_EQ(p.row_stride % kernels::kPackAlign, 0);
  ASSERT_EQ(static_cast<int64_t>(p.rows.size()), rows * p.row_stride);
  for (int64_t r = 0; r < rows; ++r) {
    int32_t sum = 0;
    for (int64_t k = 0; k < row_len; ++k) {
      EXPECT_EQ(p.rows[static_cast<size_t>(r * p.row_stride + k)],
                w[static_cast<size_t>(r * row_len + k)]);
      sum += w[static_cast<size_t>(r * row_len + k)];
    }
    EXPECT_EQ(p.sum_w[static_cast<size_t>(r)], sum);
    for (int64_t k = row_len; k < p.row_stride; ++k)
      EXPECT_EQ(p.rows[static_cast<size_t>(r * p.row_stride + k)], 0)
          << "tail byte not zeroed";
  }
  EXPECT_EQ(p.bytes(),
            static_cast<int64_t>(p.rows.size()) + 4 * rows);
}

TEST(BackendPacking, AlignedRowLenGetsNoPadding) {
  Rng rng(8);
  const auto w = random_s8(rng, 3 * 32);
  const kernels::PackedOpWeights p = kernels::pack_rows_s8(w, 3, 32);
  EXPECT_EQ(p.row_stride, 32);
}

// --- differential sweeps -----------------------------------------------------

TEST(BackendDifferential, ConvGeometrySweep) {
  // Odd sizes, stride 2, no/symmetric/asymmetric padding, 1x1 pointwise,
  // non-square kernels, channel counts straddling the 16-byte pack width and
  // the 8-pixel block width (out_w 5, 7, 8, 9, 13).
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
  // in_features straddling the 16-wide SIMD chunk (scalar tail coverage).
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
      const auto bias = random_bias(rng, c.out_f);
      std::vector<int8_t> y_ref(static_cast<size_t>(c.out_f));
      std::vector<int8_t> y_fast(y_ref.size());
      kernels::fully_connected_s8(x, w, bias, y_ref, c.in_f, c.out_f, rq);
      const auto packed = kernels::pack_rows_s8(w, c.out_f, c.in_f);
      kernels::fully_connected_s8_fast(x, packed, bias, y_fast, c.in_f,
                                       c.out_f, rq);
      ASSERT_EQ(y_fast, y_ref);
    }
  }
}

namespace {

// Runs depthwise_conv2d_s8 (the oracle) and depthwise_conv2d_s8_fast on the
// same inputs at MN_THREADS 1, 2 and 8 and asserts every byte agrees.
void check_depthwise_fast(const kernels::ConvGeometry& g,
                          const kernels::RequantParams& rq,
                          const std::vector<int8_t>& x,
                          const std::vector<int8_t>& w,
                          const std::vector<int32_t>& bias) {
  std::vector<int8_t> y_ref(static_cast<size_t>(g.output_elements()));
  std::vector<int8_t> y_fast(y_ref.size());
  for (const int threads : {1, 2, 8}) {
    parallel::set_threads(threads);
    std::fill(y_ref.begin(), y_ref.end(), int8_t{0});
    std::fill(y_fast.begin(), y_fast.end(), int8_t{1});
    kernels::depthwise_conv2d_s8(x, w, bias, y_ref, g, rq);
    kernels::depthwise_conv2d_s8_fast(x, w, bias, y_fast, g, rq);
    ASSERT_EQ(y_fast, y_ref) << "fast depthwise diverged at " << threads
                             << " threads";
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
  const auto packed = kernels::pack_rows_s8(
      w, g.out_ch, int64_t{g.kh} * g.kw * g.in_ch);
  std::vector<int8_t> fast_scratch(
      static_cast<size_t>(kernels::conv2d_fast_scratch_bytes(g)));
  std::fill(y.begin(), y.end(), int8_t{0});
  kernels::conv2d_s8_fast(x, packed, bias, y, fast_scratch, g, rq);
  EXPECT_EQ(y, oracle) << "fast conv disagrees with the naive oracle";
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
      if (g.pad_h < g.kh) ASSERT_LT(oy * g.stride - g.pad_h, g.in_h);
      for (int32_t ox = 0; ox < g.out_w; ++ox) {
        if (g.pad_w < g.kw) ASSERT_LT(ox * g.stride - g.pad_w, g.in_w);
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
  const auto g = make_geom(23, 9, 13, 21, 3, 3, 1, 1, 2);
  Rng rng(55);
  const auto rq = random_rq(rng, g.out_ch, true);
  const auto x = random_s8(rng, g.input_elements());
  const auto w = random_s8(rng, int64_t{g.out_ch} * g.kh * g.kw * g.in_ch);
  const auto bias = random_bias(rng, g.out_ch);
  const auto packed = kernels::pack_rows_s8(
      w, g.out_ch, int64_t{g.kh} * g.kw * g.in_ch);
  std::vector<int8_t> scratch(
      static_cast<size_t>(kernels::conv2d_fast_scratch_bytes(g)));
  std::vector<int8_t> baseline;
  for (const int threads : {1, 2, 8}) {
    parallel::set_threads(threads);
    std::vector<int8_t> y(static_cast<size_t>(g.output_elements()));
    kernels::conv2d_s8_fast(x, packed, bias, y, scratch, g, rq);
    if (baseline.empty())
      baseline = y;
    else
      EXPECT_EQ(y, baseline) << "fast conv output moved at " << threads
                             << " threads";
  }
  parallel::set_threads(0);
}

// --- interpreter integration -------------------------------------------------

namespace {

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
  nn::Graph g = models::build_ds_cnn(cfg, opt);
  Rng rng(seed + 1);
  TensorF batch(Shape{2, 12, 8, 1});
  for (int64_t i = 0; i < batch.size(); ++i)
    batch[i] = static_cast<float>(rng.normal(0.0, 0.5));
  const rt::RangeMap ranges = rt::calibrate_ranges(g, batch);
  rt::ConvertOptions co;
  co.name = bits == 8 ? "backend_tiny" : "backend_tiny_s4";
  co.weight_bits = bits;
  co.act_bits = bits;
  return rt::convert(g, co, &ranges);
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
  nn::Graph graph = models::build_mobilenet_v2(cfg, opt);
  Rng rng(4);
  TensorF batch(Shape{2, 12, 12, 1});
  for (int64_t i = 0; i < batch.size(); ++i)
    batch[i] = static_cast<float>(rng.normal(0.0, 0.5));
  const rt::RangeMap ranges = rt::calibrate_ranges(graph, batch);
  rt::ConvertOptions co;
  co.name = bits == 8 ? "backend_resid" : "backend_resid_s4";
  co.append_softmax = bits == 8;
  co.weight_bits = bits;
  co.act_bits = bits;
  return rt::convert(graph, co, &ranges);
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
  nn::Graph g = models::build_ds_cnn(cfg, opt);
  Rng rng(12);
  TensorF batch(Shape{2, 49, 10, 1});
  for (int64_t i = 0; i < batch.size(); ++i)
    batch[i] = static_cast<float>(rng.normal(0.0, 0.5));
  const rt::RangeMap ranges = rt::calibrate_ranges(g, batch);
  rt::ConvertOptions co;
  co.name = "backend_kws_s4";
  co.weight_bits = 4;
  co.act_bits = 4;
  return rt::convert(g, co, &ranges);
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
  const rt::ModelDef m = tiny_model(3);
  const rt::MemoryPlan plan = rt::plan_memory(m);
  rt::Interpreter ref(m, plan, kernels::BackendConfig::reference());
  rt::Interpreter fast(m, plan, kernels::BackendConfig::fast());
  EXPECT_EQ(ref.backend(), kernels::BackendKind::kReference);
  EXPECT_EQ(fast.backend(), kernels::BackendKind::kFast);
  // Claim-or-fall-back: the DS-CNN has conv, depthwise and FC (claimed) and
  // pool / softmax (reference fallback) — both kinds must appear.
  int fast_ops = 0, ref_ops = 0;
  for (size_t i = 0; i < m.ops.size(); ++i)
    (fast.op_backend(i) == kernels::BackendKind::kFast ? fast_ops : ref_ops)++;
  EXPECT_GT(fast_ops, 0);
  EXPECT_GT(ref_ops, 0);
  for (const auto kind : ref.op_backends())
    EXPECT_EQ(kind, kernels::BackendKind::kReference);
  for (int trial = 0; trial < 4; ++trial) {
    const TensorI8 in = random_input(m, 700 + static_cast<uint64_t>(trial));
    const TensorI8 out_ref = ref.invoke_quantized(in);
    const TensorI8 out_fast = fast.invoke_quantized(in);
    ASSERT_EQ(out_ref.size(), out_fast.size());
    for (int64_t i = 0; i < out_ref.size(); ++i)
      ASSERT_EQ(out_ref[i], out_fast[i]) << "output byte " << i << " differs";
  }
}

TEST(BackendInterpreter, FastClaimsConvDepthwiseFcAtInt8AndInt4) {
  // Every int8 and int4 conv / depthwise / FC op is fast-served; pool, add
  // and softmax fall back. The residual MobileNetV2 carries the add ops.
  for (const int bits : {8, 4}) {
    SCOPED_TRACE("bits " + std::to_string(bits));
    const rt::ModelDef m = residual_model(bits);
    rt::Interpreter fast(m, rt::plan_memory(m), kernels::BackendConfig::fast());
    std::set<rt::OpType> fast_types, ref_types;
    for (size_t i = 0; i < m.ops.size(); ++i) {
      const rt::OpType t = m.ops[i].type;
      const bool claimed = t == rt::OpType::kConv2D ||
                           t == rt::OpType::kDepthwiseConv2D ||
                           t == rt::OpType::kFullyConnected;
      EXPECT_EQ(fast.op_backend(i), claimed ? kernels::BackendKind::kFast
                                            : kernels::BackendKind::kReference)
          << "op " << i;
      (claimed ? fast_types : ref_types).insert(t);
      // Int8 depthwise reads its weights in place: claimed, but no panel.
      // Every int4 claimed op holds its weights unpacked in a panel.
      const auto& panel = fast.packed_model()->per_op[i];
      if (t == rt::OpType::kDepthwiseConv2D && bits == 8) {
        EXPECT_EQ(panel, nullptr);
      } else if (claimed) {
        ASSERT_NE(panel, nullptr) << "op " << i;
        EXPECT_GT(panel->bytes(), 0);
        const rt::TensorDef& w =
            m.tensors[static_cast<size_t>(m.ops[i].inputs[1])];
        EXPECT_EQ(int64_t{panel->num_rows} * panel->row_len, w.elements());
      }
    }
    EXPECT_EQ(fast_types.count(rt::OpType::kConv2D), 1u);
    EXPECT_EQ(fast_types.count(rt::OpType::kDepthwiseConv2D), 1u);
    EXPECT_EQ(fast_types.count(rt::OpType::kFullyConnected), 1u);
    EXPECT_EQ(ref_types.count(rt::OpType::kAdd), 1u);
    EXPECT_EQ(ref_types.count(rt::OpType::kSoftmax), bits == 8 ? 1u : 0u);
  }
}

// Int4 runs the int8 kernels on unpacked operands, so the fast backend must
// match the reference backend byte for byte on int4 models too: a plain
// DS-CNN, a residual MobileNetV2 (add falls back to reference; avg pool
// runs on the int8 oracle) and a KWS-int4-shaped model with a stride-2 10x4
// stem, per-channel multipliers and odd element counts. Inputs cover every
// nibble value.
TEST(BackendInterpreter, FastInt4InvokeIsByteIdenticalToReference) {
  for (const rt::ModelDef& m :
       {tiny_model(8, /*bits=*/4), residual_model(4), kws_int4_shaped_model()}) {
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
    EXPECT_GT(claimed, 0);
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
  obs::reset_all();
  const rt::ModelDef m = tiny_model(5);
  rt::Interpreter fast(m, rt::plan_memory(m), kernels::BackendConfig::fast());
  fast.set_profiling(true);
  fast.invoke_quantized(random_input(m, 42));
  const int64_t fast_ops =
      obs::counter_value(obs::Counter::kBackendFastOps);
  const int64_t ref_ops =
      obs::counter_value(obs::Counter::kBackendReferenceOps);
#if !defined(MN_OBS_DISABLED)
  EXPECT_GT(fast_ops, 0);
  EXPECT_GT(ref_ops, 0);
  EXPECT_EQ(fast_ops + ref_ops, static_cast<int64_t>(m.ops.size()));
#else
  EXPECT_EQ(fast_ops, 0);
  EXPECT_EQ(ref_ops, 0);
#endif
  const rt::ProfileReport rep = fast.profile_report();
  bool saw_fast = false, saw_ref = false;
  for (size_t i = 0; i < rep.ops.size(); ++i) {
    EXPECT_STREQ(rep.ops[i].backend,
                 kernels::backend_name(fast.op_backend(i)));
    if (std::string(rep.ops[i].backend) == "fast") saw_fast = true;
    if (std::string(rep.ops[i].backend) == "reference") saw_ref = true;
  }
  EXPECT_TRUE(saw_fast);
  EXPECT_TRUE(saw_ref);
  EXPECT_NE(rep.table().find("backend"), std::string::npos);
}

TEST(BackendInterpreter, SharedPackedModelIsReusedAndValidated) {
  const rt::ModelDef m = tiny_model(6);
  const rt::MemoryPlan plan = rt::plan_memory(m);
  const auto packed =
      rt::pack_model_weights(m, kernels::BackendConfig::fast());
  EXPECT_EQ(packed->kind, kernels::BackendKind::kFast);
  EXPECT_EQ(packed->per_op.size(), m.ops.size());
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
  // So is a fast-kind set missing a claimed conv/FC panel (now that the
  // op's backend comes from the claim, not from the panel's presence).
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
  const auto packed = kernels::pack_rows_s8(w, g.out_ch, ksize);
  std::vector<int8_t> scratch(
      static_cast<size_t>(kernels::conv2d_fast_scratch_bytes(g)));
  const auto conv_fast = [&](const kernels::PackedOpWeights& panel,
                             std::span<int8_t> scr) {
    return [&g, &rq, p = &panel, scr](std::span<const int8_t> in,
                                      std::span<const int32_t> b,
                                      std::span<int8_t> out) {
      kernels::conv2d_s8_fast(in, *p, b, out, scr, g, rq);
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
  const auto wrong = kernels::pack_rows_s8(w, g.out_ch * 2, ksize / 2);
  EXPECT_THROW(conv_fast(wrong, scratch)(x, bias, y), std::invalid_argument);
  auto truncated = packed;
  truncated.rows.pop_back();
  EXPECT_THROW(conv_fast(truncated, scratch)(x, bias, y),
               std::invalid_argument);

  // Fully connected: the same contract over [out, in] weights.
  const int32_t in_f = 19, out_f = 5;
  const auto fx = random_s8(rng, in_f);
  const auto fw = random_s8(rng, int64_t{in_f} * out_f);
  const auto fb = random_bias(rng, out_f);
  const auto fpacked = kernels::pack_rows_s8(fw, out_f, in_f);
  std::vector<int8_t> fy(static_cast<size_t>(out_f));
  expect_span_checks(
      [&](std::span<const int8_t> in, std::span<const int32_t> b,
          std::span<int8_t> out) {
        kernels::fully_connected_s8(in, fw, b, out, in_f, out_f, rq);
      },
      fx, fb, fy);
  expect_span_checks(
      [&](std::span<const int8_t> in, std::span<const int32_t> b,
          std::span<int8_t> out) {
        kernels::fully_connected_s8_fast(in, fpacked, b, out, in_f, out_f, rq);
      },
      fx, fb, fy);
  EXPECT_THROW(kernels::fully_connected_s8(fx, std::span(fw).first(fw.size() - 1),
                                           fb, fy, in_f, out_f, rq),
               std::invalid_argument);
  EXPECT_THROW(kernels::fully_connected_s8_fast(fx, fpacked, fb, fy, in_f + 1,
                                                out_f, rq),
               std::invalid_argument);

  // Depthwise: also a short [kh, kw, ch] weights span and a channel
  // multiplier other than 1.
  const auto dw_w = random_s8(rng, int64_t{g.kh} * g.kw * g.in_ch);
  const std::span<const int8_t> short_w(dw_w.data(), dw_w.size() - 1);
  auto grown = g;
  grown.out_ch = g.in_ch + 1;
  using DwKernel = void (*)(std::span<const int8_t>, std::span<const int8_t>,
                            std::span<const int32_t>, std::span<int8_t>,
                            const kernels::ConvGeometry&,
                            const kernels::RequantParams&);
  for (const DwKernel dw : {static_cast<DwKernel>(kernels::depthwise_conv2d_s8),
                            static_cast<DwKernel>(
                                kernels::depthwise_conv2d_s8_fast)}) {
    expect_span_checks(
        [&](std::span<const int8_t> in, std::span<const int32_t> b,
            std::span<int8_t> out) { dw(in, dw_w, b, out, g, rq); },
        x, bias, y);
    EXPECT_THROW(dw(x, short_w, bias, y, g, rq), std::invalid_argument);
    EXPECT_THROW(dw(x, dw_w, bias, y, grown, rq), std::invalid_argument);
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
