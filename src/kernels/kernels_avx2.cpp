// The AVX2 instantiation of the fast kernels (fast_tile.hpp, with the trait
// of fast_avx2.hpp). This unit is compiled with -mavx2
// (src/kernels/CMakeLists.txt) and runs only where kernels_fast.cpp has seen
// AVX2 in CPUID. A conv tile is 4 pixels x 2 groups, so its 8 accumulators
// leave 8 of the 16 ymm registers for operands; so does a depthwise x-tile
// of 4 pixels in a 16-channel pass. An add pass is 16 elements, two
// accumulators of 8.
#include "kernels/fast_isa.hpp"

#if defined(__SSE2__) && defined(__AVX2__)
#include "kernels/fast_avx2.hpp"

namespace mn::kernels::detail {

const IsaKernels* avx2_kernels() {
  static constexpr IsaKernels kKernels{&conv_tiles<Avx2>,
                                       &depthwise_passes<Avx2>,
                                       &add_pass<Avx2>};
  return &kKernels;
}

}  // namespace mn::kernels::detail

#else  // not built for AVX2 (non-x86, or -U__SSE2__)

namespace mn::kernels::detail {

const IsaKernels* avx2_kernels() { return nullptr; }

}  // namespace mn::kernels::detail

#endif
