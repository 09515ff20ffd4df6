// Unit tests: quantization parameters, fixed-point requantization, int4
// packing.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "quant/quant.hpp"
#include "tensor/rng.hpp"

namespace mn::quant {
namespace {

TEST(QRange, BitWidths) {
  EXPECT_EQ(qrange(8).qmin, -128);
  EXPECT_EQ(qrange(8).qmax, 127);
  EXPECT_EQ(qrange(4).qmin, -8);
  EXPECT_EQ(qrange(4).qmax, 7);
  EXPECT_THROW(qrange(1), std::invalid_argument);
  EXPECT_THROW(qrange(9), std::invalid_argument);
}

TEST(QuantParams, AsymmetricCoversRangeAndZeroExact) {
  const QuantParams qp = choose_asymmetric(-1.f, 3.f, 8);
  // Zero must be exactly representable.
  const float zero = qp.dequantize(qp.zero_point);
  EXPECT_EQ(zero, 0.f);
  // Range endpoints representable within one step.
  EXPECT_NEAR(qp.dequantize(-128), -1.f, qp.scale);
  EXPECT_NEAR(qp.dequantize(127), 3.f, qp.scale);
}

TEST(QuantParams, AsymmetricAllPositiveRangeIncludesZero) {
  const QuantParams qp = choose_asymmetric(2.f, 6.f, 8);
  EXPECT_EQ(qp.zero_point, -128);  // range nudged to [0, 6]
  EXPECT_NEAR(qp.dequantize(127), 6.f, qp.scale);
}

TEST(QuantParams, SymmetricZeroPointIsZero) {
  const QuantParams qp = choose_symmetric(2.54f, 8);
  EXPECT_EQ(qp.zero_point, 0);
  EXPECT_NEAR(qp.scale, 2.54f / 127.f, 1e-7);
}

TEST(Quantize, RoundTripErrorBounded) {
  Rng rng(3);
  TensorF x(Shape{1000});
  for (int64_t i = 0; i < x.size(); ++i)
    x[i] = static_cast<float>(rng.uniform(-2.0, 2.0));
  const QuantParams qp = choose_asymmetric(-2.f, 2.f, 8);
  const TensorF back = dequantize(quantize(x, qp, 8), qp);
  for (int64_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(back[i], x[i], qp.scale * 0.51f);
}

TEST(Quantize, ClampsOutOfRange) {
  TensorF x(Shape{2});
  x[0] = 100.f;
  x[1] = -100.f;
  const QuantParams qp = choose_asymmetric(-1.f, 1.f, 8);
  const TensorI8 q = quantize(x, qp, 8);
  EXPECT_EQ(q[0], 127);
  EXPECT_EQ(q[1], -128);
}

TEST(Quantize, WeightsSymmetricPicksDataScale) {
  TensorF w(Shape{4});
  w[0] = -0.5f;
  w[1] = 0.25f;
  w[2] = 1.27f;
  w[3] = 0.f;
  const QuantizedWeights qw = quantize_weights_symmetric(w, 8);
  EXPECT_EQ(qw.values[2], 127);  // max magnitude hits the rail
  EXPECT_EQ(qw.params.zero_point, 0);
  EXPECT_NEAR(qw.params.dequantize(qw.values[0]), -0.5f, qw.params.scale);
}

TEST(FixedMultiplier, RepresentationAccuracy) {
  for (double m : {1e-4, 0.01, 0.3, 0.9999, 1.0, 1.7, 123.456}) {
    const FixedMultiplier f = quantize_multiplier(m);
    const double recon = static_cast<double>(f.multiplier) *
                         std::pow(2.0, f.shift) / std::pow(2.0, 31);
    EXPECT_NEAR(recon, m, m * 1e-8);
  }
  EXPECT_THROW(quantize_multiplier(0.0), std::invalid_argument);
  EXPECT_THROW(quantize_multiplier(-1.0), std::invalid_argument);
}

TEST(FixedMultiplier, MultiplyMatchesFloatScaling) {
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    const double m = rng.uniform(1e-4, 2.0);
    const FixedMultiplier f = quantize_multiplier(m);
    const int32_t x = static_cast<int32_t>(rng.uniform_int(-1000000, 1000000));
    const int32_t got = multiply_by_quantized_multiplier(x, f);
    const double expect = static_cast<double>(x) * m;
    // A positive shift amplifies the half-ulp rounding of the high multiply.
    const double tol = std::abs(expect) * 1e-6 + std::ldexp(1.0, std::max(f.shift, 0));
    EXPECT_NEAR(got, expect, tol) << "x=" << x << " m=" << m;
  }
}

TEST(FixedMultiplier, RoundsTiesUpward) {
  // gemmlowp SRDHM rounds ties toward +inf: 1.5 -> 2, -1.5 -> -1.
  const FixedMultiplier half = quantize_multiplier(0.5);
  EXPECT_EQ(multiply_by_quantized_multiplier(3, half), 2);
  EXPECT_EQ(multiply_by_quantized_multiplier(-3, half), -1);
  EXPECT_EQ(multiply_by_quantized_multiplier(4, half), 2);
  EXPECT_EQ(multiply_by_quantized_multiplier(-4, half), -2);
}

TEST(Int4Packing, RoundTrip) {
  Rng rng(7);
  TensorI8 vals(Shape{101});  // odd length exercises the pad nibble
  for (int64_t i = 0; i < vals.size(); ++i)
    vals[i] = static_cast<int8_t>(rng.uniform_int(-8, 7));
  const auto packed = pack_int4(vals);
  EXPECT_EQ(packed.size(), 51u);
  const TensorI8 back = unpack_int4(packed, vals.shape());
  for (int64_t i = 0; i < vals.size(); ++i) EXPECT_EQ(back[i], vals[i]);
}

TEST(Int4Packing, RejectsOutOfRange) {
  TensorI8 vals(Shape{1});
  vals[0] = 8;
  EXPECT_THROW(pack_int4(vals), std::invalid_argument);
  vals[0] = -9;
  EXPECT_THROW(pack_int4(vals), std::invalid_argument);
}

TEST(Int4Packing, UnpackValidatesLength) {
  std::vector<uint8_t> packed{0x21};
  EXPECT_THROW(unpack_int4(packed, Shape{3}), std::invalid_argument);
  const TensorI8 two = unpack_int4(packed, Shape{2});
  EXPECT_EQ(two[0], 1);
  EXPECT_EQ(two[1], 2);
}

TEST(Int4Packing, SignExtension) {
  TensorI8 vals(Shape{2});
  vals[0] = -8;
  vals[1] = -1;
  const auto packed = pack_int4(vals);
  const TensorI8 back = unpack_int4(packed, vals.shape());
  EXPECT_EQ(back[0], -8);
  EXPECT_EQ(back[1], -1);
}

// The bulk span codec over every nibble at both byte positions, at odd and
// even lengths: bytes match the documented layout, the odd tail's high
// nibble is zero, no byte past (n + 1) / 2 is touched, and unpack inverts.
TEST(Int4Packing, SpanCodecRoundTripsAllNibbles) {
  for (const size_t n : {size_t{1}, size_t{31}, size_t{32}, size_t{33}, size_t{65}}) {
    // Indices 0-15 hold nibbles 0-15 and indices 16-31 the same nibbles
    // shifted by one, so from n = 32 on each nibble sits at both parities.
    std::vector<int8_t> vals(n);
    for (size_t i = 0; i < n; ++i)
      vals[i] = static_cast<int8_t>(static_cast<int>((i + i / 16) % 16) - 8);
    std::vector<uint8_t> packed((n + 1) / 2 + 2, 0xFF);
    pack_int4(vals, packed);
    for (size_t j = 0; j < (n + 1) / 2; ++j) {
      const uint8_t lo = static_cast<uint8_t>(vals[2 * j] & 0x0F);
      const uint8_t hi =
          2 * j + 1 < n ? static_cast<uint8_t>(vals[2 * j + 1] & 0x0F) : 0;
      EXPECT_EQ(packed[j], static_cast<uint8_t>(lo | (hi << 4)))
          << "n " << n << " byte " << j;
    }
    EXPECT_EQ(packed[(n + 1) / 2], 0xFF) << "n " << n;
    std::vector<int8_t> back(n + 1, 99);
    unpack_int4(packed, std::span<int8_t>(back).first(n));
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(back[i], vals[i]) << "n " << n;
    EXPECT_EQ(back[n], 99) << "n " << n;
  }
}

}  // namespace
}  // namespace mn::quant
