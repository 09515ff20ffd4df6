#include "quant/quant.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace mn::quant {

QRange qrange(int bits) {
  if (bits < 2 || bits > 8) throw std::invalid_argument("qrange: bits");
  return {-(1 << (bits - 1)), (1 << (bits - 1)) - 1};
}

QuantParams choose_asymmetric(float rmin, float rmax, int bits) {
  rmin = std::min(rmin, 0.f);
  rmax = std::max(rmax, 0.f);
  const QRange r = qrange(bits);
  float scale = (rmax - rmin) / static_cast<float>(r.qmax - r.qmin);
  if (scale <= 0.f) scale = 1e-8f;
  // Nudge zero point to an exact integer in range.
  const double zp_real = static_cast<double>(r.qmin) - static_cast<double>(rmin) / scale;
  int32_t zp = static_cast<int32_t>(std::lround(zp_real));
  zp = std::clamp(zp, r.qmin, r.qmax);
  return {scale, zp};
}

QuantParams choose_symmetric(float maxabs, int bits) {
  const QRange r = qrange(bits);
  float scale = maxabs / static_cast<float>(r.qmax);
  if (scale <= 0.f) scale = 1e-8f;
  return {scale, 0};
}

TensorI8 quantize(const TensorF& x, const QuantParams& qp, int bits) {
  const QRange r = qrange(bits);
  TensorI8 q(x.shape());
  for (int64_t i = 0; i < x.size(); ++i) {
    const int32_t v = static_cast<int32_t>(std::lround(x[i] / qp.scale)) + qp.zero_point;
    q[i] = static_cast<int8_t>(std::clamp(v, r.qmin, r.qmax));
  }
  return q;
}

TensorF dequantize(const TensorI8& q, const QuantParams& qp) {
  TensorF x(q.shape());
  for (int64_t i = 0; i < q.size(); ++i) x[i] = qp.dequantize(q[i]);
  return x;
}

QuantizedWeights quantize_weights_symmetric(const TensorF& w, int bits) {
  float maxabs = 0.f;
  for (int64_t i = 0; i < w.size(); ++i) maxabs = std::max(maxabs, std::abs(w[i]));
  QuantizedWeights out;
  out.params = choose_symmetric(std::max(maxabs, 1e-8f), bits);
  out.values = quantize(w, out.params, bits);
  return out;
}

FixedMultiplier quantize_multiplier(double m) {
  if (m <= 0.0) throw std::invalid_argument("quantize_multiplier: m <= 0");
  FixedMultiplier f;
  int exp = 0;
  const double frac = std::frexp(m, &exp);  // m = frac * 2^exp, frac in [0.5, 1)
  int64_t q = static_cast<int64_t>(std::llround(frac * (1ll << 31)));
  if (q == (1ll << 31)) {  // rounding overflow: frac was ~1.0
    q /= 2;
    ++exp;
  }
  f.multiplier = static_cast<int32_t>(q);
  f.shift = exp;
  return f;
}

int32_t multiply_by_quantized_multiplier(int32_t x, FixedMultiplier m) {
  // Saturating rounding doubling high multiply.
  const bool overflow = (x == m.multiplier && x == std::numeric_limits<int32_t>::min());
  const int64_t prod = static_cast<int64_t>(x) * static_cast<int64_t>(m.multiplier);
  const int32_t nudge = prod >= 0 ? (1 << 30) : (1 - (1 << 30));
  // Division (truncation), not shift (floor): matches gemmlowp SRDHM exactly
  // for negative products.
  int32_t high = overflow ? std::numeric_limits<int32_t>::max()
                          : static_cast<int32_t>((prod + nudge) / (1ll << 31));
  // Apply shift: left shifts scale up, right shifts round to nearest
  // (matching gemmlowp's RoundingDivideByPOT).
  if (m.shift > 0) {
    const int64_t shifted = static_cast<int64_t>(high) << m.shift;
    if (shifted > std::numeric_limits<int32_t>::max())
      return std::numeric_limits<int32_t>::max();
    if (shifted < std::numeric_limits<int32_t>::min())
      return std::numeric_limits<int32_t>::min();
    return static_cast<int32_t>(shifted);
  }
  const int right = -m.shift;
  if (right == 0) return high;
  if (right > 31) return high >= 0 ? 0 : -1;
  const int32_t mask = static_cast<int32_t>((1ll << right) - 1);
  const int32_t remainder = high & mask;
  int32_t threshold = mask >> 1;
  if (high < 0) ++threshold;
  int32_t result = high >> right;
  if (remainder > threshold) ++result;
  return result;
}

void unpack_int4(std::span<const uint8_t> packed, std::span<int8_t> out) {
  const size_t pairs = out.size() / 2;
  for (size_t j = 0; j < pairs; ++j) {
    // Arithmetic right shifts sign-extend each nibble.
    out[2 * j] = static_cast<int8_t>(static_cast<int8_t>(packed[j] << 4) >> 4);
    out[2 * j + 1] = static_cast<int8_t>(static_cast<int8_t>(packed[j]) >> 4);
  }
  if (out.size() % 2 != 0)
    out[2 * pairs] =
        static_cast<int8_t>(static_cast<int8_t>(packed[pairs] << 4) >> 4);
}

void pack_int4(std::span<const int8_t> values, std::span<uint8_t> packed) {
  const size_t pairs = values.size() / 2;
  for (size_t j = 0; j < pairs; ++j)
    packed[j] = static_cast<uint8_t>(
        (values[2 * j] & 0x0F) | (static_cast<uint8_t>(values[2 * j + 1]) << 4));
  if (values.size() % 2 != 0)
    packed[pairs] = static_cast<uint8_t>(values[2 * pairs] & 0x0F);
}

std::vector<uint8_t> pack_int4(const TensorI8& values) {
  for (int64_t i = 0; i < values.size(); ++i)
    if (values[i] < -8 || values[i] > 7)
      throw std::invalid_argument("pack_int4: value out of range");
  std::vector<uint8_t> out(static_cast<size_t>((values.size() + 1) / 2));
  pack_int4(values.span(), out);
  return out;
}

TensorI8 unpack_int4(const std::vector<uint8_t>& packed, Shape shape) {
  const int64_t n = shape.elements();
  if (static_cast<int64_t>(packed.size()) < (n + 1) / 2)
    throw std::invalid_argument("unpack_int4: too few bytes");
  TensorI8 out(shape);
  unpack_int4(packed, out.span());
  return out;
}

}  // namespace mn::quant
