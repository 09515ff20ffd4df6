// Kernel backends (DESIGN.md §14).
//
// A Backend names one execution strategy for the integer kernels. Selection
// follows the TFLite-delegate claim-or-fall-back pattern: a requested backend
// *claims* the ops it can execute and everything else falls back to
// kReference per-op, so a model never fails to run because a backend lacks a
// kernel — it just runs that op on the reference path.
//
//   kFast (the default) — kernels_fast.cpp, the production int8 path.
//     Conv2d and fully-connected share one register-tiled micro-kernel:
//     weights packed once at model-load time into 8-channel panels, a tile
//     of 4 output pixels gathered as int16 columns of (x - input_zp), SSE2
//     pmaddwd into 8 channels x 4 pixels of int32 accumulators (exact
//     integer arithmetic — never a source of divergence), and the
//     requant→activation-clamp of 8 channels at a time in SIMD, exact like
//     the reference kernels' scalar primitive. A fully-connected layer is a
//     1x1 conv on one pixel. Non-x86 hosts, and zero points outside int8
//     range, take a scalar loop over the same panel. Depthwise runs
//     channel-vectorized on the raw weights: 16 channels per SSE2 pass,
//     (x - zp) * w formed exactly in int16 (|255 * 128| < 2^15), the same
//     SIMD requantization, and no panel. Claims conv2d, depthwise and
//     fully-connected when input, weights and output are all int8 or all
//     int4; pool, add and softmax fall back. Int4 ops run these same
//     kernels: the interpreter unpacks their input into scratch and packs
//     the result, and their panels are packed from the unpacked weights
//     (int4 depthwise: the unpacked weights as they are).
//   kReference — the naive loops in kernels_s8.cpp: the semantic ground
//     truth every claimed op must match byte-for-byte, at int4 through the
//     same unpack/pack staging. Reached only through
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

// Output channels per panel group: one micro-kernel tile is this many
// channels wide.
inline constexpr int32_t kPanelLanes = 8;

// Weights a fast-served op reads from host memory instead of the model
// blob, prepared once at load.
//
// Conv and fully-connected weights (out_ch rows of k values: conv
// [out_ch][kh][kw][in_ch], k = kh*kw*in_ch; FC [out][in], k = in) are laid
// out for the micro-kernel as
//   [ceil(out_ch / 8) groups][ceil(k / 2) pairs][8 channels][2 taps]
// so one 16-byte load holds a tap pair for 8 output channels. Missing
// channels and the odd last tap are zero weights, whose products vanish.
// Int4 depthwise keeps its unpacked [kh, kw, ch] weights as they are in
// `values`, with out_ch = k = 0.
struct PackedOpWeights {
  std::vector<int8_t> values;
  int32_t out_ch = 0;
  int64_t k = 0;

  int64_t bytes() const { return static_cast<int64_t>(values.size()); }
};

// Bytes of the panel for out_ch rows of k weights.
int64_t conv_panel_bytes(int32_t out_ch, int64_t k);

// Packs out_ch x k row-major int8 weights into the panel layout above.
PackedOpWeights pack_conv_panel(std::span<const int8_t> weights,
                                int32_t out_ch, int64_t k);

// --- fast-backend kernels ---------------------------------------------------

// Scratch for conv2d_s8_fast on `g`: the per-call requantization and bias
// table of every channel group, and one tile of int16 im2col columns.
int64_t conv2d_fast_scratch_bytes(const ConvGeometry& g);

// Conv2d, bit-identical to conv2d_s8. `packed` must come from
// pack_conv_panel(weights, out_ch, kh*kw*in_ch) and `scratch` hold at least
// conv2d_fast_scratch_bytes(g). The micro-kernel computes a tile of 8
// output channels x 4 output pixels in int32 registers over int16 columns
// of (x - input_zp), then requantizes the 8 channels of each pixel at once
// and stores them with one 8-byte write.
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

// The 1x1 conv on one pixel that a fully-connected layer is.
ConvGeometry fully_connected_geometry(int32_t in_features,
                                      int32_t out_features);

// Fully connected, bit-identical to fully_connected_s8: conv2d_s8_fast on
// fully_connected_geometry. `packed` must come from
// pack_conv_panel(weights, out_features, in_features) and `scratch` hold
// conv2d_fast_scratch_bytes(fully_connected_geometry(...)).
void fully_connected_s8_fast(std::span<const int8_t> input,
                             const PackedOpWeights& packed,
                             std::span<const int32_t> bias,
                             std::span<int8_t> output,
                             std::span<int8_t> scratch, int32_t in_features,
                             int32_t out_features, const RequantParams& rq);

}  // namespace mn::kernels
