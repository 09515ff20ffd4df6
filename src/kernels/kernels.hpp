// Integer inference kernels (CMSIS-NN analog): int8 kernels with fixed-point
// requantization. Kernels operate on single images (no batch dimension),
// NHWC layout, exactly like the TFLM/CMSIS-NN reference kernels.
//
// Int4 is a storage format, not a second kernel set: the interpreter unpacks
// an int4 op's input into scratch, runs the int8 kernel, and packs the result
// back into the nibble-packed arena (the paper's unpack-in-front-of-int8
// scheme, §5.1.3). That is exact because nibbles fit in int8, integer
// accumulation is order-free, and the int4 fused-activation clamp
// (activation_range at 4 bits) lies inside [-8, 7].
//
// Every kernel is a plain serial loop, as on a single-core MCU: concurrency
// lives above the interpreter (training, DNAS, serving's request fan-out),
// never inside one op.
#pragma once

#include <cstdint>
#include <span>

#include "quant/quant.hpp"

namespace mn::kernels {

struct ConvGeometry {
  int32_t in_h = 0, in_w = 0, in_ch = 0;
  int32_t out_h = 0, out_w = 0, out_ch = 0;
  int32_t kh = 0, kw = 0;
  int32_t stride = 1;
  int32_t pad_h = 0, pad_w = 0;

  int64_t input_elements() const { return int64_t{in_h} * in_w * in_ch; }
  int64_t output_elements() const { return int64_t{out_h} * out_w * out_ch; }
  // Multiply-accumulates; 1 MAC = 2 ops per the paper's convention.
  int64_t macs(bool depthwise) const {
    const int64_t per_out = int64_t{kh} * kw * (depthwise ? 1 : in_ch);
    return output_elements() * per_out;
  }
};

struct RequantParams {
  int32_t input_zp = 0;   // input zero point (subtracted)
  int32_t output_zp = 0;  // output zero point (added)
  quant::FixedMultiplier mult;  // in_scale * w_scale / out_scale (per-tensor)
  // Per-output-channel multipliers (TFLite per-channel conv semantics);
  // when non-empty this overrides `mult`.
  std::vector<quant::FixedMultiplier> per_channel;
  int32_t act_min = -128;  // fused activation clamp, quantized domain
  int32_t act_max = 127;

  const quant::FixedMultiplier& channel_mult(int32_t oc) const {
    return per_channel.empty() ? mult : per_channel[static_cast<size_t>(oc)];
  }
};

// Standard conv2d: weights [out_ch, kh, kw, in_ch], bias int32 (or empty).
// The naive loop is the test oracle for conv2d_s8_fast (backend.hpp) and the
// reference backend's int8 conv.
void conv2d_s8(std::span<const int8_t> input, std::span<const int8_t> weights,
               std::span<const int32_t> bias, std::span<int8_t> output,
               const ConvGeometry& g, const RequantParams& rq);

// Shared int8 conv argument check: throws std::invalid_argument (prefixed
// with `who`) when the input, [out_ch, kh, kw, in_ch] weights, a non-empty
// bias or the output span is shorter than `g` needs.
void check_conv_buffers(const char* who, std::span<const int8_t> input,
                        std::span<const int8_t> weights,
                        std::span<const int32_t> bias,
                        std::span<const int8_t> output, const ConvGeometry& g);

// Depthwise conv2d (multiplier 1): weights [kh, kw, ch]. The naive loop is
// the test oracle for depthwise_conv2d_s8_fast (backend.hpp).
void depthwise_conv2d_s8(std::span<const int8_t> input,
                         std::span<const int8_t> weights,
                         std::span<const int32_t> bias, std::span<int8_t> output,
                         const ConvGeometry& g, const RequantParams& rq);

// Shared int8 depthwise argument check: throws std::invalid_argument
// (prefixed with `who`) when in_ch != out_ch or the input, weights, a
// non-empty bias or the output span is shorter than `g` needs.
void check_depthwise_buffers(const char* who, std::span<const int8_t> input,
                             std::span<const int8_t> weights,
                             std::span<const int32_t> bias,
                             std::span<const int8_t> output,
                             const ConvGeometry& g);

// Fully connected: weights [out, in]. The test oracle for
// fully_connected_s8_fast.
void fully_connected_s8(std::span<const int8_t> input,
                        std::span<const int8_t> weights,
                        std::span<const int32_t> bias, std::span<int8_t> output,
                        int32_t in_features, int32_t out_features,
                        const RequantParams& rq);

// Shared int8 fully-connected argument check: throws std::invalid_argument
// (prefixed with `who`) when the input, [out, in] weights, a non-empty bias
// or the output span is shorter than the feature counts need.
void check_fc_buffers(const char* who, std::span<const int8_t> input,
                      std::span<const int8_t> weights,
                      std::span<const int32_t> bias,
                      std::span<const int8_t> output, int32_t in_features,
                      int32_t out_features);

struct PoolGeometry {
  int32_t in_h = 0, in_w = 0, ch = 0;
  int32_t out_h = 0, out_w = 0;
  int32_t kh = 0, kw = 0;
  int32_t stride = 1;
  int32_t pad_h = 0, pad_w = 0;
};

// Shared pooling/softmax argument check: throws std::invalid_argument
// (prefixed with `who`) when the input span is shorter than `in_elements` or
// the output span is shorter than `out_elements`.
void check_io_buffers(const char* who, std::span<const int8_t> input,
                      int64_t in_elements, std::span<const int8_t> output,
                      int64_t out_elements);

// Pooling: input and output share scale/zero-point (TFLite semantics).
void avg_pool_s8(std::span<const int8_t> input, std::span<int8_t> output,
                 const PoolGeometry& g, int32_t act_min, int32_t act_max);
void max_pool_s8(std::span<const int8_t> input, std::span<int8_t> output,
                 const PoolGeometry& g, int32_t act_min, int32_t act_max);

// Elementwise add with per-input rescaling (TFLite ADD semantics).
struct AddParams {
  int32_t a_zp = 0, b_zp = 0, out_zp = 0;
  int32_t left_shift = 20;
  quant::FixedMultiplier a_mult, b_mult, out_mult;
  int32_t act_min = -128, act_max = 127;
};
void add_s8(std::span<const int8_t> a, std::span<const int8_t> b,
            std::span<int8_t> output, const AddParams& p);

// Softmax over the final dim; output fixed at scale 1/256, zero point -128.
void softmax_s8(std::span<const int8_t> input, std::span<int8_t> output,
                int32_t rows, int32_t cols, float input_scale);

// --- Packed int4 element accessors -------------------------------------------
// Element `index` of a nibble-packed buffer (see quant::pack_int4; whole
// tensors go through the bulk codec there). store_s4 keeps only the value's
// low nibble.
inline int8_t load_s4(std::span<const uint8_t> packed, int64_t index) {
  const uint8_t byte = packed[static_cast<size_t>(index / 2)];
  const int shift = index % 2 == 0 ? 4 : 0;
  return static_cast<int8_t>(static_cast<int8_t>(byte << shift) >> 4);
}
inline void store_s4(std::span<uint8_t> packed, int64_t index, int8_t value) {
  uint8_t& byte = packed[static_cast<size_t>(index / 2)];
  const uint8_t nib = static_cast<uint8_t>(value & 0x0F);
  byte = index % 2 == 0 ? static_cast<uint8_t>((byte & 0xF0) | nib)
                        : static_cast<uint8_t>((byte & 0x0F) | (nib << 4));
}

// Bytes needed to store n int4 elements.
inline int64_t packed_size_s4(int64_t n) { return (n + 1) / 2; }

}  // namespace mn::kernels
