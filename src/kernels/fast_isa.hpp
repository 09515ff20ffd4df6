// The internal seam between kernels_fast.cpp, which checks, counts and
// dispatches every fast kernel call, and the instruction-set translation
// units kernels_sse2.cpp, kernels_avx2.cpp and kernels_avx512vnni.cpp,
// which each compile the templates of fast_tile.hpp for their trait
// (DESIGN.md §14). Only plain structs, constants and out-of-line functions
// cross it: nothing here is an inline function, so no code one TU compiles
// for its instruction set can be merged by the linker into another's.
#pragma once

#include <cstddef>
#include <cstdint>

#include "kernels/backend.hpp"

namespace mn::kernels::detail {

// Output pixels per conv tile (one for a one-pixel output, i.e. FC).
inline constexpr int kTilePixels = 4;

// One checked conv (or FC, as a 1x1 conv on one pixel) call, as raw
// pointers into buffers kernels_fast.cpp has validated.
struct ConvCall {
  const int8_t* input = nullptr;
  const int8_t* panel = nullptr;   // in the variant's form (panel_taps)
  const int32_t* sums = nullptr;   // the quad form's sum(w) per channel
  const int32_t* bias = nullptr;  // nullptr: no bias
  int8_t* output = nullptr;
  int8_t* cols = nullptr;     // 16-byte aligned, one tile of im2col columns
  int8_t* patches = nullptr;  // one window patch per tile pixel (border)
  const RequantGroup* groups = nullptr;
  const RequantParams* rq = nullptr;  // input_zp inside int8
  ConvGeometry g;
};

// The depthwise pass's stack buffers hold this many taps; fast_kernels_run()
// admits no window of more (or of none).
inline constexpr int32_t kDwMaxTaps = 128;

// One checked depthwise call: channels [0, channels) of the layer, a
// multiple of 4, with at most kDwMaxTaps taps per window.
struct DepthwiseCall {
  const int8_t* input = nullptr;
  const int8_t* weights = nullptr;  // [kh][kw][ch]
  const int32_t* bias = nullptr;    // nullptr: no bias
  int8_t* output = nullptr;
  const RequantGroup* groups = nullptr;
  const RequantParams* rq = nullptr;  // input_zp inside int8
  ConvGeometry g;
  int32_t channels = 0;
};

// One checked add of n elements whose AddRequantTable is in the SIMD
// domain: `groups` holds its three groups (input a, input b, the sum).
struct AddCall {
  const int8_t* a = nullptr;
  const int8_t* b = nullptr;
  int8_t* output = nullptr;
  size_t n = 0;
  const AddParams* p = nullptr;
  const RequantGroup* groups = nullptr;
};

// One instruction set's instantiation of the conv tile, the depthwise pass
// and the add pass; `add` returns how many leading elements it wrote (a
// whole number of its passes), the caller runs the rest.
struct IsaKernels {
  void (*conv)(const ConvCall&);
  void (*depthwise)(const DepthwiseCall&);
  size_t (*add)(const AddCall&);
};

// The compiled variants; nullptr when the build does not carry one (a
// non-x86 target, or -U__SSE2__, compiles none).
const IsaKernels* sse2_kernels();
const IsaKernels* avx2_kernels();
const IsaKernels* avx512vnni_kernels();

// Requantizes `lanes` int32 accumulators of channels [oc0, oc0 + lanes)
// with the scalar primitive and clamps them into out: the path of a group
// outside the SIMD domain. Defined in kernels_fast.cpp.
void requant_scalar(const int32_t* acc, int lanes, const RequantParams& rq,
                    int32_t oc0, int8_t* out);

}  // namespace mn::kernels::detail
