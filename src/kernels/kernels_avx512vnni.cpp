// The AVX512-VNNI instantiation of the fast kernels (fast_tile.hpp). This
// unit is compiled with -mavx2 -mavx512vl -mavx512vnni
// (src/kernels/CMakeLists.txt) and runs only where kernels_fast.cpp has seen
// AVX512-VNNI and AVX512VL in CPUID. Its trait is the AVX2 one (fast_avx2.hpp)
// with three changes, all on 256-bit registers:
//   - vpdpwssd multiplies the int16 pairs and adds them into the accumulator
//     in one instruction (pmaddwd + paddd fused, wrapping in int32 like the
//     pair), so a pixel x group step is one instruction; its latency lies on
//     the accumulator's chain, so tiles of at most 4 accumulators split
//     their tap pairs over two accumulator sets (kFusedMadd);
//   - a conv tile is 4 pixels x 4 groups: EVEX encoding reaches 32 ymm
//     registers, so its 16 accumulators leave 16 for the 4 widened panels
//     and the pixel's broadcast tap pair, which all 4 groups share;
//   - a depthwise x-tile is 8 pixels, 16 accumulators in a 16-channel pass.
// Requantization, the gather and the panels are the AVX2 trait's.
#include "kernels/fast_isa.hpp"

#if defined(__SSE2__) && defined(__AVX2__) && defined(__AVX512VL__) && \
    defined(__AVX512VNNI__)
#include "kernels/fast_avx2.hpp"

namespace mn::kernels::detail {
namespace {

struct Vnni : Avx2 {
  static constexpr int kGroups = 4;
  static constexpr int kDwPixels = 8;

  static constexpr bool kFusedMadd = true;
  template <int kP>
  static Acc madd_pixel(Acc acc, Panel w, Cols x) {
    int32_t pair;
    std::memcpy(&pair, x + 2 * kP, 4);
    return _mm256_dpwssd_epi32(acc, w, _mm256_set1_epi32(pair));
  }

  static Acc madd_taps(Acc acc, Panel x, const int16_t* w) {
    return _mm256_dpwssd_epi32(
        acc, x, _mm256_load_si256(reinterpret_cast<const __m256i*>(w)));
  }
};

}  // namespace

const IsaKernels* avx512vnni_kernels() {
  static constexpr IsaKernels kKernels{&conv_tiles<Vnni>,
                                       &depthwise_passes<Vnni>};
  return &kKernels;
}

}  // namespace mn::kernels::detail

#else  // not built for AVX512-VNNI (non-x86, or -U__SSE2__)

namespace mn::kernels::detail {

const IsaKernels* avx512vnni_kernels() { return nullptr; }

}  // namespace mn::kernels::detail

#endif
