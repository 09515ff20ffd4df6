// Kernel backends (DESIGN.md §14).
//
// A Backend names one execution strategy for the integer kernels. Selection
// follows the TFLite-delegate claim-or-fall-back pattern: a requested backend
// *claims* the ops it can execute and everything else falls back to
// kReference per-op, so a model never fails to run because a backend lacks a
// kernel — it just runs that op on the reference path.
//
//   kFast (the default) — kernels_fast.cpp, the production int8 path.
//     Conv2d and fully-connected run a cache-blocked im2col-GEMM: weight
//     panels packed once at model-load time (16-byte row stride, zero-point
//     correction sums), a block of output-pixel columns gathered per GEMM
//     call so each weight row is streamed once per block instead of once per
//     pixel, SSE2 pmaddwd inner dot products on x86-64 (exact integer
//     arithmetic — never a source of divergence) with a scalar fallback
//     elsewhere, and requant→activation-clamp fused into the store exactly
//     like the reference kernels. Depthwise runs channel-vectorized on the
//     raw weights: 16 channels per SSE2 pass, (x - zp) * w formed exactly in
//     int16 (|255 * 128| < 2^15), a sign-split SIMD requantization, and no
//     panel. Claims int8 conv2d, depthwise and fully-connected; pool, add,
//     softmax and all int4 ops fall back.
//   kReference — the naive loops in kernels_s8/s4.cpp: the semantic ground
//     truth every claimed op must match byte-for-byte. Reached only through
//     BackendConfig::reference() (test oracles, constant folding, the zoo
//     benchmark's check), the way TFLM keeps its reference ops to verify the
//     optimized ones.
//
// The contract that makes a second backend safe at all: for every geometry,
// a claimed op's output is BYTE-IDENTICAL to the reference kernel's
// (tests/test_backends.cpp). Integer accumulation is order-free (no
// rounding), so tiling/SIMD reassociation cannot change results — which is
// why golden vectors, resume equivalence and serving fingerprints carry over
// unchanged whichever backend served the op.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "kernels/kernels.hpp"

namespace mn::kernels {

enum class BackendKind : uint8_t {
  kReference = 0,
  kFast,
};

// Stable lowercase names ("reference", "fast") used by obs output, profile
// tables and bench JSON.
const char* backend_name(BackendKind k);

// Per-interpreter backend request; the default is the packed fast path.
struct BackendConfig {
  BackendKind kind = BackendKind::kFast;

  static BackendConfig reference() { return {BackendKind::kReference}; }
  static BackendConfig fast() { return {BackendKind::kFast}; }
};

// --- packed weight panels (fast backend, built once at model load) ----------

// Row stride granule: SSE2 register width. Rows padded to a multiple of this
// never need a scalar tail when the right-hand side is also padded.
inline constexpr int64_t kPackAlign = 16;

// One conv/FC weight matrix repacked for the fast GEMM: `num_rows` rows
// (output channels / features) of `row_len` int8 values, each stored at a
// 16-byte-aligned stride with a zero tail, plus the per-row weight sums that
// fold the input zero point out of the inner loop:
//   sum((x - zp) * w) == sum(x * w) - zp * sum(w)
// (exact in integer arithmetic, so bit-exactness is preserved).
struct PackedOpWeights {
  std::vector<int8_t> rows;    // [num_rows][row_stride], tails zeroed
  std::vector<int32_t> sum_w;  // per-row sum of weights
  int64_t row_len = 0;
  int64_t row_stride = 0;      // row_len rounded up to kPackAlign
  int32_t num_rows = 0;

  int64_t bytes() const {
    return static_cast<int64_t>(rows.size() + 4 * sum_w.size());
  }
};

// Packs `num_rows` x `row_len` row-major int8 weights (conv: rows = out_ch,
// row_len = kh*kw*in_ch; FC: rows = out_features, row_len = in_features).
PackedOpWeights pack_rows_s8(std::span<const int8_t> weights, int64_t num_rows,
                             int64_t row_len);

// --- fast-backend kernels ---------------------------------------------------

// Output-pixel columns gathered per GEMM call (the cache block): each packed
// weight row is read once per block instead of once per pixel.
inline constexpr int32_t kConvPixelBlock = 8;

// Scratch for the blocked conv: kConvPixelBlock padded im2col columns.
int64_t conv2d_fast_scratch_bytes(const ConvGeometry& g);

// Cache-blocked conv2d, bit-identical to conv2d_s8. `packed` must come from
// pack_rows_s8(weights, out_ch, kh*kw*in_ch); every pixel block is gathered
// into `scratch`, which must hold at least conv2d_fast_scratch_bytes(g).
void conv2d_s8_fast(std::span<const int8_t> input, const PackedOpWeights& packed,
                    std::span<const int32_t> bias, std::span<int8_t> output,
                    std::span<int8_t> scratch, const ConvGeometry& g,
                    const RequantParams& rq);

// Depthwise conv2d (multiplier 1) on the raw [kh, kw, ch] weights,
// bit-identical to depthwise_conv2d_s8; needs no packed panel and no
// scratch. One output pixel at a time, 16 channels per SSE2 pass.
void depthwise_conv2d_s8_fast(std::span<const int8_t> input,
                              std::span<const int8_t> weights,
                              std::span<const int32_t> bias,
                              std::span<int8_t> output, const ConvGeometry& g,
                              const RequantParams& rq);

// Fully connected on a packed panel, bit-identical to fully_connected_s8.
void fully_connected_s8_fast(std::span<const int8_t> input,
                             const PackedOpWeights& packed,
                             std::span<const int32_t> bias,
                             std::span<int8_t> output, int32_t in_features,
                             int32_t out_features, const RequantParams& rq);

}  // namespace mn::kernels
