// Quantization: per-tensor affine parameters, int8/int4 conversion, and the
// fixed-point requantization arithmetic used by the integer kernels
// (rounding-doubling high multiply, as in TFLite / gemmlowp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"

namespace mn::quant {

// Affine quantization: real = scale * (q - zero_point).
struct QuantParams {
  float scale = 1.f;
  int32_t zero_point = 0;

  float dequantize(int32_t q) const {
    return scale * static_cast<float>(q - zero_point);
  }
};

// Quantized value range for a bit width (signed, symmetric capacity).
struct QRange {
  int32_t qmin;
  int32_t qmax;
};
QRange qrange(int bits);  // e.g. 8 -> [-128, 127], 4 -> [-8, 7]

// Choose asymmetric params covering [rmin, rmax] (nudged so zero is exact).
QuantParams choose_asymmetric(float rmin, float rmax, int bits);

// Choose symmetric params (zero_point = 0) covering [-maxabs, maxabs].
QuantParams choose_symmetric(float maxabs, int bits);

// Quantize a float tensor to int8 storage with the given params and bit
// width (values clamped to qrange(bits); int4 values still occupy one int8).
TensorI8 quantize(const TensorF& x, const QuantParams& qp, int bits);

TensorF dequantize(const TensorI8& q, const QuantParams& qp);

// Symmetric per-tensor weight quantization: picks the scale from the data.
struct QuantizedWeights {
  TensorI8 values;
  QuantParams params;
};
QuantizedWeights quantize_weights_symmetric(const TensorF& w, int bits);

// --- Fixed-point requantization -------------------------------------------

// Decompose a positive real multiplier into {int32 mantissa, shift} such that
// m ~= mantissa * 2^shift / 2^31 with mantissa in [2^30, 2^31).
struct FixedMultiplier {
  int32_t multiplier = 0;
  int shift = 0;  // negative = right shift
};
FixedMultiplier quantize_multiplier(double m);

// Saturating rounding-doubling high multiply + rounding shift: the TFLite
// MultiplyByQuantizedMultiplier primitive.
int32_t multiply_by_quantized_multiplier(int32_t x, FixedMultiplier m);

// --- Sub-byte packing (int4) -----------------------------------------------
// Signed int4 values (one per int8, range [-8, 7]) pack two per byte:
// element 2i in the low nibble, 2i+1 in the high nibble. Odd lengths pad
// the final high nibble with zero.

// Bulk nibble codec: one byte pair at a time, with no per-element divide,
// branch or throw. unpack_int4 sign-extends the first out.size() nibbles of
// `packed`; pack_int4 writes values.size() elements into the first
// (values.size() + 1) / 2 bytes of `packed`, keeping only each value's low
// nibble — validate the range first where out-of-range values can arrive.
void unpack_int4(std::span<const uint8_t> packed, std::span<int8_t> out);
void pack_int4(std::span<const int8_t> values, std::span<uint8_t> packed);

// Tensor forms over the codec. pack_int4 throws std::invalid_argument on a
// value outside [-8, 7]; unpack_int4 reads shape.elements() values.
std::vector<uint8_t> pack_int4(const TensorI8& values);
TensorI8 unpack_int4(const std::vector<uint8_t>& packed, Shape shape);

}  // namespace mn::quant
