// The AVX2 trait of the fast kernels (fast_tile.hpp): one ymm register per
// 8-channel accumulator, panels widened by vpmovsxbw, each pixel's tap pair
// broadcast from the columns, and an 8-lane requantization that shifts each
// 64-bit lane by its own count (vpsrlvq), so it needs no shared-count form.
// Included only by the units built for AVX2 or wider (kernels_avx2.cpp,
// kernels_avx512vnni.cpp); like fast_tile.hpp it has internal linkage, so
// each unit compiles its own copy for its own instruction set.
#pragma once

#if !defined(__AVX2__)
#error "fast_avx2.hpp needs a unit compiled for AVX2"
#endif

#include <immintrin.h>

#include "kernels/fast_tile.hpp"

namespace mn::kernels::detail {
namespace {

inline __m256i load256(const void* p) {
  return _mm256_loadu_si256(static_cast<const __m256i*>(p));
}

struct Avx2 {
  static constexpr int kGroups = 2;
  static constexpr int kDwPixels = 4;
  static constexpr int kTaps = 2;

  using Acc = __m256i;
  static Acc load_acc(const int32_t* p) { return load256(p); }
  static void store_acc(int32_t* p, Acc a) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), a);
  }
  static Acc zero_acc() { return _mm256_setzero_si256(); }
  static Acc add_acc(Acc a, Acc b) { return _mm256_add_epi32(a, b); }
  static Acc sub_acc(Acc a, Acc b) { return _mm256_sub_epi32(a, b); }
  static Acc splat(int32_t v) { return _mm256_set1_epi32(v); }
  static Acc widen_acc(const int8_t* p) {
    return _mm256_cvtepi8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
  }
  static Acc shl_acc(Acc a, int n) {
    return _mm256_sll_epi32(a, _mm_cvtsi32_si128(n));
  }

  using Panel = __m256i;
  static Panel widen_panel(__m128i v) { return _mm256_cvtepi8_epi16(v); }
  static Panel load_panel(const int8_t* w) {
    return widen_panel(_mm_loadu_si128(reinterpret_cast<const __m128i*>(w)));
  }

  // Pixel p's tap pair is broadcast straight from the columns
  // (vpbroadcastd from memory), so a tile needs no column register.
  using Cols = const int8_t*;
  template <int kPx>
  static Cols load_cols(const int8_t* x) {
    return x;
  }
  static constexpr bool kFusedMadd = false;
  template <int kP>
  static Acc madd_pixel(Acc acc, Panel w, Cols x) {
    int32_t pair;
    std::memcpy(&pair, x + 4 * kP, 4);
    return _mm256_add_epi32(acc, _mm256_madd_epi16(w, _mm256_set1_epi32(pair)));
  }

  static __m128i widen8(__m128i v) { return _mm_cvtepi8_epi16(v); }

  static void widen_pairs(int16_t* dst, __m128i v) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(dst),
                       _mm256_cvtepi8_epi16(v));
  }
  static Acc madd_taps(Acc acc, Panel x, const int16_t* w) {
    return _mm256_add_epi32(
        acc, _mm256_madd_epi16(
                 x, _mm256_load_si256(reinterpret_cast<const __m256i*>(w))));
  }

  struct Rq {
    __m256i out_zp, act_min, act_max;  // the clamp in every int16 lane
  };
  static Rq rq_consts(int32_t out_zp, int32_t act_min, int32_t act_max) {
    return {_mm256_set1_epi32(out_zp),
            _mm256_set1_epi16(static_cast<int16_t>(act_min)),
            _mm256_set1_epi16(static_cast<int16_t>(act_max))};
  }

  // The one-multiply form of DESIGN.md §14 on all 8 lanes:
  //   sign(x) * floor((|x| * M + 2^30 - [x < 0] + 2^(30+r)) / 2^(31+r)),
  // the even lanes and the odd lanes each one vpmuludq plus their rounding
  // constants and sign, shifted by their own counts (vpsrlvq). Each result
  // is below 2^31, so the odd lanes shift back into place without masking.
  // One form serves every group.
  static constexpr bool kSharedCountForm = false;
  template <bool kShared>
  static Acc rescale(Acc x, const RequantGroup& g) {
    const __m256i s = _mm256_srai_epi32(x, 31);  // 0 / -1
    const __m256i ax = _mm256_abs_epi32(x);      // |x|, as unsigned
    __m256i even = _mm256_add_epi64(
        _mm256_mul_epu32(ax, load256(g.mult)),
        _mm256_add_epi64(load256(g.round),
                         _mm256_shuffle_epi32(s, _MM_SHUFFLE(2, 2, 0, 0))));
    __m256i odd = _mm256_add_epi64(
        _mm256_mul_epu32(_mm256_srli_epi64(ax, 32), load256(g.mult + 1)),
        _mm256_add_epi64(load256(g.round + kPanelLanes / 2),
                         _mm256_shuffle_epi32(s, _MM_SHUFFLE(3, 3, 1, 1))));
    even = _mm256_srlv_epi64(even, load256(g.count));
    odd = _mm256_srlv_epi64(odd, load256(g.count + kPanelLanes / 2));
    const __m256i r = _mm256_or_si256(even, _mm256_slli_epi64(odd, 32));
    return _mm256_sub_epi32(_mm256_xor_si256(r, s), s);
  }
  // Then the output zero point.
  static __m256i requant_i32(Acc x, const RequantGroup& g, const Rq& c) {
    return _mm256_add_epi32(rescale<false>(x, g), c.out_zp);
  }

  // requant_i32, a saturating pack to int16 and the clamp, which lies
  // inside int8 for a SIMD group.
  template <bool kShared>
  static __m128i requant8(Acc x, const RequantGroup& g, const Rq& c) {
    const __m256i r = requant_i32(x, g, c);
    const __m128i v = _mm_packs_epi32(_mm256_castsi256_si128(r),
                                      _mm256_extracti128_si256(r, 1));
    return _mm_min_epi16(_mm_max_epi16(v, _mm256_castsi256_si128(c.act_min)),
                         _mm256_castsi256_si128(c.act_max));
  }

  // Two groups at once, a's 8 lanes then b's as 16 int8: one pack, lane
  // fix-up (vpermq) and clamp for both.
  template <bool kShared>
  static __m128i requant16(Acc a, Acc b, const RequantGroup& ga,
                           const RequantGroup& gb, const Rq& c) {
    const __m256i v = _mm256_permute4x64_epi64(
        _mm256_packs_epi32(requant_i32(a, ga, c), requant_i32(b, gb, c)),
        _MM_SHUFFLE(3, 1, 2, 0));
    const __m256i w = _mm256_min_epi16(_mm256_max_epi16(v, c.act_min),
                                       c.act_max);
    return _mm_packs_epi16(_mm256_castsi256_si128(w),
                           _mm256_extracti128_si256(w, 1));
  }
};

}  // namespace
}  // namespace mn::kernels::detail
