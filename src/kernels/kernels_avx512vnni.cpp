// The AVX512-VNNI instantiation of the fast kernels (fast_tile.hpp). This
// unit is compiled with -mavx2 -mavx512vl -mavx512vnni
// (src/kernels/CMakeLists.txt) and runs only where kernels_fast.cpp has seen
// AVX512-VNNI and AVX512VL in CPUID. Its trait is the AVX2 one (fast_avx2.hpp)
// with these changes, all on 256-bit registers:
//   - conv and FC run on u8 x s8 tap quads (kTaps = 4): the panel is packed
//     [group][quad][8 channels][4 taps] (pack_conv_panel with this variant),
//     the gather stores x ^ 0x80 = x + 128 as u8, and vpdpbusd multiplies
//     a pixel's broadcast quad by 8 channels' 4 weights, adds the 4
//     products per channel into the accumulator in one instruction, and
//     does not saturate: each product is at most 255 * 128 in magnitude, so
//     a quad's sum stays far inside int32 and accumulating wraps like the
//     reference's int32 sum. The accumulators start at
//     bias - (128 + input_zp) * sum(w), which takes the 128 back off; a
//     padding tap reads zp + 128 and cancels, taps padding a row to a whole
//     quad have zero weights. So the result is the reference's, byte for
//     byte. Each step is twice the taps of a vpdpwssd one, and the panel is
//     one 32-byte load, without a widening;
//   - the fused instruction's latency lies on the accumulator's chain, so
//     tiles of at most 4 accumulators split their steps over two
//     accumulator sets (kFusedMadd);
//   - a conv tile is 4 pixels x 4 groups: EVEX encoding reaches 32 ymm
//     registers, so its 16 accumulators leave 16 for the 4 panels and the
//     pixel's broadcast quad, which all 4 groups share;
//   - depthwise keeps vertical int16 tap pairs, on vpdpwssd: quads of rows
//     would pad its 3-row kernels to 4. Its x-tile is 8 pixels, 16
//     accumulators in a 16-channel pass.
// Requantization and the add pass are the AVX2 trait's.
#include "kernels/fast_isa.hpp"

#if defined(__SSE2__) && defined(__AVX2__) && defined(__AVX512VL__) && \
    defined(__AVX512VNNI__)
#include "kernels/fast_avx2.hpp"

namespace mn::kernels::detail {
namespace {

struct Vnni : Avx2 {
  static constexpr int kGroups = 4;
  static constexpr int kDwPixels = 8;
  static constexpr int kTaps = 4;

  // 8 channels x 4 taps, as they are.
  static Panel load_panel(const int8_t* w) { return load256(w); }

  static constexpr bool kFusedMadd = true;
  template <int kP>
  static Acc madd_pixel(Acc acc, Panel w, Cols x) {
    int32_t quad;
    std::memcpy(&quad, x + 4 * kP, 4);
    return _mm256_dpbusd_epi32(acc, _mm256_set1_epi32(quad), w);
  }

  static Acc fold_bias(Acc bias, const int32_t* sums, Acc k) {
    return _mm256_sub_epi32(bias, _mm256_mullo_epi32(load256(sums), k));
  }

  static Acc madd_taps(Acc acc, Panel x, const int16_t* w) {
    return _mm256_dpwssd_epi32(
        acc, x, _mm256_load_si256(reinterpret_cast<const __m256i*>(w)));
  }
};

}  // namespace

const IsaKernels* avx512vnni_kernels() {
  static constexpr IsaKernels kKernels{&conv_tiles<Vnni>,
                                       &depthwise_passes<Vnni>,
                                       &add_pass<Vnni>};
  return &kKernels;
}

}  // namespace mn::kernels::detail

#else  // not built for AVX512-VNNI (non-x86, or -U__SSE2__)

namespace mn::kernels::detail {

const IsaKernels* avx512vnni_kernels() { return nullptr; }

}  // namespace mn::kernels::detail

#endif
