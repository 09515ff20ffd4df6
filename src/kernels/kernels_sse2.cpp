// The SSE2 instantiation of the fast kernels (fast_tile.hpp). An 8-channel
// accumulator is two xmm registers (channels 0-3 and 4-7); a conv tile is
// 4 pixels x 1 group, so its 8 accumulators leave 8 of the 16 xmm
// registers for operands, and a depthwise x-tile is 2 pixels (8
// accumulators in a 16-channel pass).
#include "kernels/fast_isa.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>

#include "kernels/fast_tile.hpp"

namespace mn::kernels::detail {
namespace {

// Sign-extends the low / high 8 bytes of `v` to int16 lanes (unpack-with-
// self + arithmetic shift: SSE2 has no pmovsxbw).
inline __m128i widen_lo_s8(__m128i v) {
  return _mm_srai_epi16(_mm_unpacklo_epi8(v, v), 8);
}
inline __m128i widen_hi_s8(__m128i v) {
  return _mm_srai_epi16(_mm_unpackhi_epi8(v, v), 8);
}

// Sign-extends the low / high 4 int16 lanes of `v` to int32 lanes.
inline __m128i widen_lo_s16(__m128i v) {
  return _mm_srai_epi32(_mm_unpacklo_epi16(v, v), 16);
}
inline __m128i widen_hi_s16(__m128i v) {
  return _mm_srai_epi32(_mm_unpackhi_epi16(v, v), 16);
}

// The low 64 bits of `lo` and the high 64 bits of `hi` (movsd).
inline __m128i low_high(__m128i lo, __m128i hi) {
  return _mm_castpd_si128(
      _mm_move_sd(_mm_castsi128_pd(hi), _mm_castsi128_pd(lo)));
}

inline __m128i load128(const void* p) {
  return _mm_loadu_si128(static_cast<const __m128i*>(p));
}

// multiply_by_quantized_multiplier on lanes 4h..4h+3 of group `g`: the
// one-multiply form of DESIGN.md §14, exact for multipliers > 0 and shifts
// in [-31, 0]. Per lane pair it is one unsigned 32x32->64 pmuludq, the
// prepared rounding constant, the sign's -1 and a 64-bit logical shift:
// one shift when kUniform (every lane shares the count), else one per lane,
// merged by movsd. SSE2 has no per-lane 64-bit shift. Each result is below
// 2^31, so the odd lanes shift back into place without masking.
template <bool kUniform>
inline __m128i requant4(__m128i x, const RequantGroup& g, int h) {
  const __m128i s = _mm_srai_epi32(x, 31);                  // 0 or -1
  const __m128i ax = _mm_sub_epi32(_mm_xor_si128(x, s), s);  // |x| (unsigned)
  // Lanes 0 and 2, then 1 and 3, as 64-bit products plus their constants;
  // the shuffles sign-extend each lane's 0 / -1 to 64 bits.
  __m128i even = _mm_add_epi64(
      _mm_mul_epu32(ax, load128(g.mult + 4 * h)),
      _mm_add_epi64(load128(g.round + 2 * h),
                    _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 2, 0, 0))));
  __m128i odd = _mm_add_epi64(
      _mm_mul_epu32(_mm_srli_epi64(ax, 32), load128(g.mult + 4 * h + 1)),
      _mm_add_epi64(load128(g.round + kPanelLanes / 2 + 2 * h),
                    _mm_shuffle_epi32(s, _MM_SHUFFLE(3, 3, 1, 1))));
  const auto count = [&g](int slot) {
    return _mm_loadl_epi64(reinterpret_cast<const __m128i*>(g.count + slot));
  };
  if constexpr (kUniform) {
    const __m128i n = count(0);
    even = _mm_srl_epi64(even, n);
    odd = _mm_srl_epi64(odd, n);
  } else {
    even = low_high(_mm_srl_epi64(even, count(2 * h)),
                    _mm_srl_epi64(even, count(2 * h + 1)));
    odd = low_high(_mm_srl_epi64(odd, count(kPanelLanes / 2 + 2 * h)),
                   _mm_srl_epi64(odd, count(kPanelLanes / 2 + 2 * h + 1)));
  }
  const __m128i r = _mm_or_si128(even, _mm_slli_epi64(odd, 32));
  return _mm_sub_epi32(_mm_xor_si128(r, s), s);
}

// Requantizes 8 lanes (0-3 in `lo`, 4-7 in `hi`) of group `g`, adds the
// output zero point and clamps them as int16 lanes. The clamp lies in int8
// range (a group's `simd` says so), so saturating to int16 and then
// clamping gives the same bytes as clamping the int32.
template <bool kUniform>
inline __m128i requant8_lanes(__m128i lo, __m128i hi, const RequantGroup& g,
                              __m128i out_zp, __m128i act_min,
                              __m128i act_max) {
  const __m128i v = _mm_packs_epi32(
      _mm_add_epi32(requant4<kUniform>(lo, g, 0), out_zp),
      _mm_add_epi32(requant4<kUniform>(hi, g, 1), out_zp));
  return _mm_min_epi16(_mm_max_epi16(v, act_min), act_max);
}

struct Sse2 {
  static constexpr int kGroups = 1;
  static constexpr int kDwPixels = 2;
  static constexpr int kTaps = 2;

  struct Acc {
    __m128i lo, hi;
  };
  static Acc load_acc(const int32_t* p) { return {load128(p), load128(p + 4)}; }
  static void store_acc(int32_t* p, Acc a) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), a.lo);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p + 4), a.hi);
  }
  static Acc zero_acc() { return {_mm_setzero_si128(), _mm_setzero_si128()}; }
  static Acc add_acc(Acc a, Acc b) {
    return {_mm_add_epi32(a.lo, b.lo), _mm_add_epi32(a.hi, b.hi)};
  }
  static Acc sub_acc(Acc a, Acc b) {
    return {_mm_sub_epi32(a.lo, b.lo), _mm_sub_epi32(a.hi, b.hi)};
  }
  static Acc splat(int32_t v) {
    return {_mm_set1_epi32(v), _mm_set1_epi32(v)};
  }
  static Acc widen_acc(const int8_t* p) {
    const __m128i v16 =
        widen_lo_s8(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
    return {widen_lo_s16(v16), widen_hi_s16(v16)};
  }
  static Acc shl_acc(Acc a, int n) {
    const __m128i count = _mm_cvtsi32_si128(n);
    return {_mm_sll_epi32(a.lo, count), _mm_sll_epi32(a.hi, count)};
  }

  struct Panel {
    __m128i lo, hi;
  };
  static Panel widen_panel(__m128i v) {
    return {widen_lo_s8(v), widen_hi_s8(v)};
  }
  static Panel load_panel(const int8_t* w) { return widen_panel(load128(w)); }

  // The tile's pixels' tap pairs are one aligned vector of 4 int32 lanes
  // (one lane for a one-pixel tile); pshufd broadcasts pixel p's.
  using Cols = __m128i;
  template <int kPx>
  static Cols load_cols(const int8_t* x) {
    if constexpr (kPx == 1) {
      int32_t pair;
      std::memcpy(&pair, x, 4);
      return _mm_cvtsi32_si128(pair);
    } else {
      static_assert(kPx == 4);
      return _mm_load_si128(reinterpret_cast<const __m128i*>(x));
    }
  }
  static constexpr bool kFusedMadd = false;
  template <int kP>
  static Acc madd_pixel(Acc acc, const Panel& w, Cols x) {
    const __m128i xb = _mm_shuffle_epi32(x, kP * 0x55);
    return {_mm_add_epi32(acc.lo, _mm_madd_epi16(w.lo, xb)),
            _mm_add_epi32(acc.hi, _mm_madd_epi16(w.hi, xb))};
  }

  static __m128i widen8(__m128i v) { return widen_lo_s8(v); }

  static void widen_pairs(int16_t* dst, __m128i v) {
    _mm_store_si128(reinterpret_cast<__m128i*>(dst), widen_lo_s8(v));
    _mm_store_si128(reinterpret_cast<__m128i*>(dst + 8), widen_hi_s8(v));
  }
  static Acc madd_taps(Acc acc, const Panel& x, const int16_t* w) {
    const __m128i w_lo = _mm_load_si128(reinterpret_cast<const __m128i*>(w));
    const __m128i w_hi =
        _mm_load_si128(reinterpret_cast<const __m128i*>(w + 8));
    return {_mm_add_epi32(acc.lo, _mm_madd_epi16(x.lo, w_lo)),
            _mm_add_epi32(acc.hi, _mm_madd_epi16(x.hi, w_hi))};
  }

  struct Rq {
    __m128i out_zp, act_min, act_max;
  };
  static Rq rq_consts(int32_t out_zp, int32_t act_min, int32_t act_max) {
    return {_mm_set1_epi32(out_zp),
            _mm_set1_epi16(static_cast<int16_t>(act_min)),
            _mm_set1_epi16(static_cast<int16_t>(act_max))};
  }
  static constexpr bool kSharedCountForm = true;
  template <bool kShared>
  static Acc rescale(Acc acc, const RequantGroup& g) {
    return {requant4<kShared>(acc.lo, g, 0), requant4<kShared>(acc.hi, g, 1)};
  }
  template <bool kShared>
  static __m128i requant8(Acc acc, const RequantGroup& g, const Rq& c) {
    return requant8_lanes<kShared>(acc.lo, acc.hi, g, c.out_zp, c.act_min,
                                   c.act_max);
  }
  template <bool kShared>
  static __m128i requant16(Acc a, Acc b, const RequantGroup& ga,
                           const RequantGroup& gb, const Rq& c) {
    return _mm_packs_epi16(requant8<kShared>(a, ga, c),
                           requant8<kShared>(b, gb, c));
  }
};

}  // namespace

const IsaKernels* sse2_kernels() {
  static constexpr IsaKernels kKernels{&conv_tiles<Sse2>,
                                       &depthwise_passes<Sse2>,
                                       &add_pass<Sse2>};
  return &kKernels;
}

}  // namespace mn::kernels::detail

#else  // no SSE2: no SIMD variant, so the fast backend claims no op

namespace mn::kernels::detail {

const IsaKernels* sse2_kernels() { return nullptr; }

}  // namespace mn::kernels::detail

#endif
