// The fast conv/FC tile, depthwise pass and add pass, each written once over
// an instruction-set trait (DESIGN.md §14). Included only by the ISA
// translation units (kernels_sse2.cpp, kernels_avx2.cpp,
// kernels_avx512vnni.cpp); each defines or includes its trait and
// instantiates conv_tiles<Isa>, depthwise_passes<Isa> and add_pass<Isa>.
//
// Everything here has internal linkage and calls nothing inline from
// outside this file and the intrinsic headers — no std:: templates, no
// inline members of the kernel headers' types — so no function a wider
// unit compiles can stand in, at link time, for a narrower unit's copy (or
// run on a CPU without its instructions), and each hot path stays in its
// own unit's code.
//
// A trait provides one 8-channel int32 accumulator and its operations:
//   kGroups               8-channel groups per conv tile
//   kDwPixels             output pixels per depthwise x-tile
//   kTaps                 taps per conv panel step, panel_taps() of the
//                         variant: 2 (int16 pairs of x - input_zp against
//                         widened weights, pmaddwd) or 4 (u8 quads of
//                         x + 128 against int8 weights, vpdpbusd, with
//                         (128 + input_zp) * sum(w) folded into the bias)
//   Acc                   8 int32 lanes
//   load_acc(p)           8 lanes from memory (the bias)
//   store_acc(p, acc)     8 lanes to memory (the scalar requant path)
//   zero_acc(), add_acc(a, b), sub_acc(a, b), splat(v)
//                         8 zero lanes; a + b and a - b lane by lane; v in
//                         every lane
//   widen_acc(p)          8 int8 at p as 8 int32 lanes
//   shl_acc(a, n)         every lane shifted left by n
//   fold_bias(b, sums, k) b - k * sums lane by lane (kTaps 4 only)
//   Panel load_panel(w)   one panel step of 8 channels from the panel: 16
//                         bytes widened to int16 (kTaps 2) or 32 bytes as
//                         they are (kTaps 4)
//   Panel widen_panel(v)  16 int8 lanes (8 channels x 2 taps) as int16
//   Cols load_cols<kPx>(x)  one 4-byte column step of each of a tile's
//                         pixels
//   madd_pixel<p>(acc, panel, cols)
//                         acc + the step's products of pixel p's taps
//                         (broadcast) and the panel, summed per channel
//   kFusedMadd            whether that multiply-add is one instruction
//                         (vpdpwssd, vpdpbusd), whose latency then lies on
//                         the chain
//   widen8(v)             the low 8 int8 lanes of v as int16
//   widen_pairs(dst, v)   16 int8 (8 channels x 2 taps) stored as int16
//   madd_taps(acc, x, w)  acc + pmaddwd(x, 16 int16 at w)
//   Rq rq_consts(zp, lo, hi)  the output zero point and clamp as vectors
//   rescale<kShared>(acc, g)
//                         multiply_by_quantized_multiplier of each lane
//                         with group g's multipliers, as an Acc
//   requant8<kShared>(acc, g, rq)
//                         the 8 lanes requantized with group g, offset and
//                         clamped, as 8 int16 lanes of an xmm; kShared
//                         promises one shift count for every lane
//   requant16<kShared>(a, b, ga, gb, rq)
//                         two groups' lanes likewise, packed to 16 int8
//   kSharedCountForm      whether requant8<true> is faster (SSE2, which has
//                         no per-lane 64-bit shift) or the same (AVX2)
#pragma once

#include <emmintrin.h>

#include <cstdint>
#include <cstring>
#include <utility>

#include "kernels/fast_isa.hpp"

namespace mn::kernels::detail {
namespace {

template <int I>
struct Idx {
  static constexpr int v = I;
};

template <typename F, int... I>
inline void unroll_seq(F& f, std::integer_sequence<int, I...>) {
  (f(Idx<I>{}), ...);
}

// Calls f(Idx<0>{}), ..., f(Idx<N - 1>{}): constant indices, so arrays of
// accumulators indexed by them stay in registers.
template <int N, typename F>
inline void unroll(F&& f) {
  unroll_seq(f, std::make_integer_sequence<int, N>{});
}

inline int64_t min64(int64_t a, int64_t b) { return a < b ? a : b; }

// The bias lanes of the 8-channel group at channel oc0: read in place for a
// whole group, from a zero-padded copy made once per call for the last,
// partial group and for a layer without bias.
class GroupBias {
 public:
  GroupBias(const int32_t* bias, int32_t channels)
      : bias_(bias),
        whole_(bias == nullptr ? 0 : channels / kPanelLanes * kPanelLanes) {
    for (int32_t oc = whole_; bias != nullptr && oc < channels; ++oc)
      padded_[oc - whole_] = bias[oc];
  }
  const int32_t* at(int32_t oc0) const {
    return oc0 < whole_ ? bias_ + oc0 : padded_;
  }

 private:
  const int32_t* bias_;
  int32_t whole_;
  alignas(32) int32_t padded_[kPanelLanes] = {};
};

// Loads kBytes (16, 8 or 4) int8 lanes into the low end of an xmm; the
// rest of it is zero.
template <int kBytes>
inline __m128i load_s8(const int8_t* p) {
  if constexpr (kBytes == 16) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  } else if constexpr (kBytes == 8) {
    return _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
  } else {
    static_assert(kBytes == 4);
    int32_t four;
    std::memcpy(&four, p, 4);
    return _mm_cvtsi32_si128(four);
  }
}

// Calls f(SharedCount<true>{}) when the trait has a shared-count
// requantization form and every lane of the groups stored shares one shift
// count (`uniform`), else f(SharedCount<false>{}): the check runs once per
// group, outside the loops that store it.
template <bool B>
struct SharedCount {
  static constexpr bool v = B;
};

template <class Isa, typename F>
inline void with_requant_form(bool uniform, F&& f) {
  if constexpr (Isa::kSharedCountForm) {
    if (uniform) {
      f(SharedCount<true>{});
      return;
    }
  }
  f(SharedCount<false>{});
}

// Requantizes, packs and stores the `lanes` (<= 8) channels of one
// accumulator of a SIMD-domain group: one 8-byte store for a whole group, a
// 4-byte store for a half one.
template <class Isa, bool kShared>
inline void store_simd(typename Isa::Acc acc, const RequantGroup& rg,
                       const typename Isa::Rq& rqc, int lanes, int8_t* out) {
  const __m128i v16 = Isa::template requant8<kShared>(acc, rg, rqc);
  const __m128i v = _mm_packs_epi16(v16, v16);
  if (lanes == kPanelLanes) {
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out), v);
  } else if (lanes == 4) {
    const int32_t four = _mm_cvtsi128_si32(v);
    std::memcpy(out, &four, 4);
  } else {
    alignas(16) int8_t bytes[16];
    _mm_store_si128(reinterpret_cast<__m128i*>(bytes), v);
    for (int l = 0; l < lanes; ++l) out[l] = bytes[l];
  }
}

// The same for a group outside the SIMD domain: the scalar primitive.
template <class Isa>
inline void store_scalar(typename Isa::Acc acc, const RequantParams& rq,
                         int32_t oc0, int lanes, int8_t* out) {
  alignas(32) int32_t lane_acc[kPanelLanes];
  Isa::store_acc(lane_acc, acc);
  requant_scalar(lane_acc, lanes, rq, oc0, out);
}

// Requantizes and stores accumulator column k, channels [oc0, oc0 + lanes)
// of group `rg`, for the first np of a tile's kP pixels, `step` bytes
// apart from `out`.
template <class Isa, int k, int kP, int kA>
inline void store_column(const typename Isa::Acc (&acc)[kP][kA],
                         const RequantGroup& rg, const RequantParams& rq,
                         const typename Isa::Rq& rqc, int32_t oc0, int lanes,
                         int np, int64_t step, int8_t* out) {
  if (!rg.simd) {
    unroll<kP>([&](auto p) {
      if (p.v < np)
        store_scalar<Isa>(acc[p.v][k], rq, oc0, lanes, out + p.v * step);
    });
    return;
  }
  with_requant_form<Isa>(rg.uniform, [&](auto form) {
    unroll<kP>([&](auto p) {
      if (p.v < np)
        store_simd<Isa, decltype(form)::v>(acc[p.v][k], rg, rqc, lanes,
                                           out + p.v * step);
    });
  });
}

// The same for columns k and k + 1, two adjacent groups: when both are
// whole and in the SIMD domain, requantized together and stored as 16
// bytes per pixel (Isa::requant16, which packs and clamps both at once).
template <class Isa, int k, int kP, int kA>
inline void store_columns(const typename Isa::Acc (&acc)[kP][kA],
                          const RequantGroup* groups, const RequantParams& rq,
                          const typename Isa::Rq& rqc, int32_t oc0, int lanes,
                          int np, int64_t step, int8_t* out) {
  const RequantGroup& ga = groups[oc0 / kPanelLanes];
  const RequantGroup& gb = groups[oc0 / kPanelLanes + 1];
  if (ga.simd && gb.simd && lanes == 2 * kPanelLanes) {
    with_requant_form<Isa>(ga.uniform && gb.uniform, [&](auto form) {
      unroll<kP>([&](auto p) {
        if (p.v < np)
          _mm_storeu_si128(
              reinterpret_cast<__m128i*>(out + p.v * step),
              Isa::template requant16<decltype(form)::v>(
                  acc[p.v][k], acc[p.v][k + 1], ga, gb, rqc));
      });
    });
    return;
  }
  const int lanes_a = lanes < kPanelLanes ? lanes : kPanelLanes;
  store_column<Isa, k>(acc, ga, rq, rqc, oc0, lanes_a, np, step, out);
  store_column<Isa, k + 1>(acc, gb, rq, rqc, oc0 + kPanelLanes,
                           lanes - lanes_a, np, step, out + kPanelLanes);
}

// --- conv / fully connected ----------------------------------------------

// The output coordinates [*lo, *hi) of [0, n) whose window starts at input
// coordinate o * stride - pad in [0, last]: an empty range when none does.
inline void inside_range(int64_t last, int32_t pad, int32_t stride, int32_t n,
                         int32_t* lo, int32_t* hi) {
  const int64_t first = (int64_t{pad} + stride - 1) / stride;
  const int64_t end = last + pad < 0 ? 0 : (last + pad) / stride + 1;
  *hi = static_cast<int32_t>(end < n ? end : n);
  *lo = static_cast<int32_t>(first < *hi ? first : *hi);
}

// How a conv layer's windows are read, worked out once per call. A kernel
// row is kw * in_ch contiguous input bytes and fills row_steps steps of
// kTaps taps of the panel (a row that does not fill its last step ends in
// zero weights; see pack_conv_panel). A row is gathered with 8-byte loads
// and a last 4-byte one, so it reads row_read bytes, up to 3 past its end:
// those land in zero-weight taps or in steps the next row (or nothing)
// reads, so any value will do, as long as it lies inside the input. An
// interior pixel reads its rows in place: its window lies inside the input
// (output row in [oy_lo, oy_hi), column in [ox_lo, ox_hi)), and so do the
// bytes its last row's load reads past the window. Those are input bytes of
// the rows below for an output row under oy_free; further down, the pixel's
// column must also lie under ox_hi_row, where they stay inside the window's
// own input row. Every other pixel reads its rows from a patch.
struct ConvRows {
  int64_t row_len, row_read, row_steps;
  int32_t oy_lo, oy_hi, ox_lo, ox_hi, oy_free, ox_hi_row;

  bool interior(int32_t oy, int32_t ox) const {
    return oy >= oy_lo && oy < oy_hi && ox >= ox_lo &&
           ox < (oy < oy_free ? ox_hi : ox_hi_row);
  }
};

inline ConvRows conv_rows(const ConvGeometry& g, int taps) {
  ConvRows r{};
  r.row_len = int64_t{g.kw} * g.in_ch;
  r.row_read = (r.row_len + 3) / 4 * 4;
  r.row_steps = (r.row_len + taps - 1) / taps;
  const int64_t in_row = int64_t{g.in_w} * g.in_ch;
  if (in_row == 0) return r;  // no input: every pixel reads a patch
  int32_t unused = 0;
  inside_range(int64_t{g.in_h} - g.kh, g.pad_h, g.stride, g.out_h, &r.oy_lo,
               &r.oy_hi);
  // Windows followed by at least 3 more input bytes below their last row.
  inside_range(int64_t{g.in_h} - g.kh - (3 + in_row - 1) / in_row, g.pad_h,
               g.stride, g.out_h, &unused, &r.oy_free);
  inside_range(int64_t{g.in_w} - g.kw, g.pad_w, g.stride, g.out_w, &r.ox_lo,
               &r.ox_hi);
  inside_range(in_row < r.row_read ? -1 : (in_row - r.row_read) / g.in_ch,
               g.pad_w, g.stride, g.out_w, &unused, &r.ox_hi_row);
  if (r.ox_hi_row > r.ox_hi) r.ox_hi_row = r.ox_hi;  // no window start fits
  return r;
}

// Copies a border pixel's window, whose top-left tap is input pixel
// (iy0, ix0), into `patch`: kernel row ky at ky * row_read, input_zp at every
// padding tap (what cancels to 0, like the reference's skipped tap, in
// either column form) and in the bytes past each row.
inline void fill_patch(const ConvCall& c, const ConvRows& r, int32_t iy0,
                       int32_t ix0, int8_t* patch) {
  const ConvGeometry& g = c.g;
  const int zp = c.rq->input_zp;
  const int32_t kx_lo = ix0 < 0 ? -ix0 : 0;
  const int32_t kx_hi = g.in_w - ix0 < g.kw ? g.in_w - ix0 : g.kw;
  const int64_t lo = int64_t{kx_lo} * g.in_ch;
  const int64_t hi = int64_t{kx_hi} * g.in_ch;
  for (int32_t ky = 0; ky < g.kh; ++ky, patch += r.row_read) {
    const int32_t iy = iy0 + ky;
    if (iy < 0 || iy >= g.in_h || lo >= hi) {
      std::memset(patch, zp, static_cast<size_t>(r.row_read));
      continue;
    }
    std::memset(patch, zp, static_cast<size_t>(lo));
    std::memcpy(patch + lo,
                c.input + (int64_t{iy} * g.in_w + ix0 + kx_lo) * g.in_ch,
                static_cast<size_t>(hi - lo));
    std::memset(patch + hi, zp, static_cast<size_t>(r.row_read - hi));
  }
}

// Gathers the im2col columns of a tile's kPx pixels into `cols`, laid out
// [step][kPx][4 bytes] to match the panel's [step][channel][taps], one
// kernel row at a time: pixel px's row ky starts at src[px] + ky * step[px].
// A step holds kTaps taps in 4 bytes: an int16 pair of x - zp (kTaps 2;
// `adj` holds zp in every int16 lane) or a u8 quad of x ^ 0x80 = x + 128
// (kTaps 4; `adj` holds 0x80 in every byte). A padding tap's input_zp turns
// into 0 or into zp + 128, which the folded bias cancels. Each 8 bytes of a
// row (4 at its end) are 4 (2) pairs or 2 (1) quads, loaded for the kPx
// pixels, converted and transposed into place at once. No load checks a
// bound: the caller has pointed every border pixel at its patch.
template <class Isa, int kPx>
inline void gather_tile(const int8_t* const (&src)[kPx],
                        const int64_t (&step)[kPx], const ConvRows& r,
                        int32_t kh, __m128i adj, int8_t* cols) {
  constexpr bool kQuads = Isa::kTaps == 4;
  // Column bytes per pixel that 8 input bytes fill.
  constexpr int kOut = kQuads ? 8 : 16;
  for (int32_t ky = 0; ky < kh; ++ky) {
    int8_t* dst = cols + ky * r.row_steps * 4 * kPx;
    const int8_t* row[kPx];
    for (int px = 0; px < kPx; ++px) row[px] = src[px] + ky * step[px];
    for (int64_t b = 0; b < r.row_len; b += 8, dst += kOut * kPx) {
      const bool half = r.row_len - b <= 4;
      __m128i v[kPx];
      for (int px = 0; px < kPx; ++px) {
        const __m128i raw =
            half ? load_s8<4>(row[px] + b) : load_s8<8>(row[px] + b);
        if constexpr (kQuads)
          v[px] = _mm_xor_si128(raw, adj);
        else
          v[px] = _mm_sub_epi16(Isa::widen8(raw), adj);
      }
      __m128i* d = reinterpret_cast<__m128i*>(dst);
      if constexpr (kPx == 1) {
        if constexpr (kQuads) {
          if (half)
            std::memcpy(dst, &v[0], 4);
          else
            _mm_storel_epi64(d, v[0]);
        } else {
          if (half)
            _mm_storel_epi64(d, v[0]);
          else
            _mm_storeu_si128(d, v[0]);
        }
      } else {
        static_assert(kPx == 4);
        // 4x4 transpose of 4-byte steps: row j of the result is step j of
        // pixels 0..3. 8 bytes fill 2 quad steps or 4 pair steps.
        const __m128i ab_lo = _mm_unpacklo_epi32(v[0], v[1]);
        const __m128i cd_lo = _mm_unpacklo_epi32(v[2], v[3]);
        _mm_storeu_si128(d, _mm_unpacklo_epi64(ab_lo, cd_lo));
        if (kQuads && half) continue;
        _mm_storeu_si128(d + 1, _mm_unpackhi_epi64(ab_lo, cd_lo));
        if (!kQuads && !half) {
          const __m128i ab_hi = _mm_unpackhi_epi32(v[0], v[1]);
          const __m128i cd_hi = _mm_unpackhi_epi32(v[2], v[3]);
          _mm_storeu_si128(d + 2, _mm_unpacklo_epi64(ab_hi, cd_hi));
          _mm_storeu_si128(d + 3, _mm_unpackhi_epi64(ab_hi, cd_hi));
        }
      }
    }
  }
}

// One step of a tile: per group one panel load, per pixel one broadcast,
// shared by the groups.
template <class Isa, int kPx, int kG>
inline void mac_step(typename Isa::Acc (&acc)[kPx][kG], const int8_t* w,
                     int64_t group_bytes, const int8_t* x) {
  typename Isa::Panel wv[kG];
  unroll<kG>([&](auto g) { wv[g.v] = Isa::load_panel(w + g.v * group_bytes); });
  const typename Isa::Cols xc = Isa::template load_cols<kPx>(x);
  unroll<kPx>([&](auto p) {
    unroll<kG>([&](auto g) {
      acc[p.v][g.v] = Isa::template madd_pixel<p.v>(acc[p.v][g.v], wv[g.v], xc);
    });
  });
}

// Accumulates kG groups of 8 channels (group g's panel `group_bytes` past
// group 0's) over every step of a tile's kPx pixels. Where the
// multiply-add is one fused instruction (Isa::kFusedMadd), its latency lies
// on each accumulator's chain, so a tile of at most 4 accumulators (one
// pixel, or one group) runs the even and the odd steps into two sets,
// summed at the end: int32 addition is order-free, so that is exact.
template <class Isa, int kPx, int kG>
inline void tile_mac(const int8_t* w, int64_t group_bytes, const int8_t* x,
                     int64_t steps, typename Isa::Acc (&acc_out)[kPx][kG]) {
  // A local copy, written back once: accumulating into the caller's array
  // directly measurably costs a spill and register copies in the AVX2 loop.
  typename Isa::Acc acc[kPx][kG];
  unroll<kPx>([&](auto p) {
    unroll<kG>([&](auto g) { acc[p.v][g.v] = acc_out[p.v][g.v]; });
  });
  constexpr int64_t kStepW = Isa::kTaps * kPanelLanes, kStepX = 4 * kPx;
  int64_t j = 0;
  if constexpr (Isa::kFusedMadd && kPx * kG <= 4) {
    typename Isa::Acc odd[kPx][kG];
    unroll<kPx>([&](auto p) {
      unroll<kG>([&](auto g) { odd[p.v][g.v] = Isa::zero_acc(); });
    });
    for (; j + 1 < steps; j += 2, w += 2 * kStepW, x += 2 * kStepX) {
      mac_step<Isa, kPx, kG>(acc, w, group_bytes, x);
      mac_step<Isa, kPx, kG>(odd, w + kStepW, group_bytes, x + kStepX);
    }
    unroll<kPx>([&](auto p) {
      unroll<kG>([&](auto g) {
        acc[p.v][g.v] = Isa::add_acc(acc[p.v][g.v], odd[p.v][g.v]);
      });
    });
  }
  for (; j < steps; ++j, w += kStepW, x += kStepX)
    mac_step<Isa, kPx, kG>(acc, w, group_bytes, x);
  unroll<kPx>([&](auto p) {
    unroll<kG>([&](auto g) { acc_out[p.v][g.v] = acc[p.v][g.v]; });
  });
}

// What a conv call's accumulators start at, per 8-channel group: the bias,
// and for the quad form less (128 + input_zp) * sum(w), computed with
// wrapping int32 lanes like the kernel's sums. Then sum(w * (x + 128)) -
// (128 + zp) * sum(w) = sum(w * (x - zp)), which is the reference's sum.
template <class Isa>
struct TileBias {
  GroupBias bias;
  const int32_t* sums;
  typename Isa::Acc fold;

  explicit TileBias(const ConvCall& c)
      : bias(c.bias, c.g.out_ch),
        sums(c.sums),
        fold(Isa::splat(128 + c.rq->input_zp)) {}
  typename Isa::Acc at(int32_t oc0) const {
    const typename Isa::Acc b = Isa::load_acc(bias.at(oc0));
    if constexpr (Isa::kTaps == 4)
      return Isa::fold_bias(b, sums + oc0, fold);
    else
      return b;
  }
};

// The tile of kPx pixels x kG groups starting at group gi: accumulators
// from the bias, the step loop, then the requantized stores of each pixel,
// two groups at a time.
template <class Isa, int kPx, int kG>
inline void conv_block(const ConvCall& c, const typename Isa::Rq& rqc,
                       const TileBias<Isa>& bias, int64_t p0, int np,
                       int32_t gi, int64_t steps) {
  const ConvGeometry& g = c.g;
  const int64_t group_bytes = steps * Isa::kTaps * kPanelLanes;
  typename Isa::Acc acc[kPx][kG];
  unroll<kG>([&](auto k) {
    const typename Isa::Acc b = bias.at((gi + k.v) * kPanelLanes);
    unroll<kPx>([&](auto p) { acc[p.v][k.v] = b; });
  });
  tile_mac<Isa, kPx, kG>(c.panel + gi * group_bytes, group_bytes, c.cols,
                         steps, acc);
  // Groups in twos, then the odd last one.
  const int32_t oc = gi * kPanelLanes;
  const int left = g.out_ch - oc;
  int8_t* out = c.output + p0 * g.out_ch + oc;
  unroll<kG / 2>([&](auto h) {
    constexpr int k = 2 * decltype(h)::v;
    const int lanes = left - k * kPanelLanes;
    store_columns<Isa, k>(acc, c.groups, *c.rq, rqc, oc + k * kPanelLanes,
                          lanes < 2 * kPanelLanes ? lanes : 2 * kPanelLanes,
                          np, g.out_ch, out + k * kPanelLanes);
  });
  if constexpr (kG % 2 != 0) {
    constexpr int k = kG - 1;
    const int lanes = left - k * kPanelLanes;
    store_column<Isa, k>(acc, c.groups[gi + k], *c.rq, rqc,
                         oc + k * kPanelLanes,
                         lanes < kPanelLanes ? lanes : kPanelLanes, np,
                         g.out_ch, out + k * kPanelLanes);
  }
}

// The last `rest` (at most kG) groups of a pixel tile, from group gi, as
// one tile of `rest` groups.
template <class Isa, int kPx, int kG>
inline void conv_rest(const ConvCall& c, const typename Isa::Rq& rqc,
                      const TileBias<Isa>& bias, int64_t p0, int np,
                      int32_t gi, int32_t rest, int64_t steps) {
  if constexpr (kG > 0) {
    if (rest == kG)
      conv_block<Isa, kPx, kG>(c, rqc, bias, p0, np, gi, steps);
    else
      conv_rest<Isa, kPx, kG - 1>(c, rqc, bias, p0, np, gi, rest, steps);
  }
}

// Walks the output pixels in tiles of kPx, row by row: the cursor (oy, ox)
// steps along without a division. Per tile, each interior pixel reads its
// kernel rows in place and each border pixel has its window copied into a
// patch first; then one gather serves them all.
template <class Isa, int kPx>
inline void conv_pixels(const ConvCall& c, const typename Isa::Rq& rqc,
                        const TileBias<Isa>& bias) {
  const ConvGeometry& g = c.g;
  const ConvRows r = conv_rows(g, Isa::kTaps);
  const int64_t pixels = int64_t{g.out_h} * g.out_w;
  const int64_t steps = g.kh * r.row_steps;
  const int32_t groups = (g.out_ch + kPanelLanes - 1) / kPanelLanes;
  const int64_t in_row = int64_t{g.in_w} * g.in_ch;
  const int64_t patch_bytes = g.kh * r.row_read;
  const __m128i adj =
      Isa::kTaps == 4
          ? _mm_set1_epi8(static_cast<char>(0x80))
          : _mm_set1_epi16(static_cast<int16_t>(c.rq->input_zp));
  const int8_t* src[kPx];
  int64_t step[kPx];
  int32_t oy = 0, ox = 0;
  for (int64_t p0 = 0; p0 < pixels; p0 += kPx) {
    const int np = static_cast<int>(min64(kPx, pixels - p0));
    for (int px = 0; px < np; ++px) {
      const int32_t iy0 = oy * g.stride - g.pad_h;
      const int32_t ix0 = ox * g.stride - g.pad_w;
      if (r.interior(oy, ox)) {
        src[px] = c.input + iy0 * in_row + int64_t{ix0} * g.in_ch;
        step[px] = in_row;
      } else {
        int8_t* patch = c.patches + px * patch_bytes;
        fill_patch(c, r, iy0, ix0, patch);
        src[px] = patch;
        step[px] = r.row_read;
      }
      if (++ox == g.out_w) {
        ox = 0;
        ++oy;
      }
    }
    // A tail tile's missing pixels repeat its first; nothing stores them.
    for (int px = np; px < kPx; ++px) {
      src[px] = src[0];
      step[px] = step[0];
    }
    gather_tile<Isa, kPx>(src, step, r, g.kh, adj, c.cols);
    int32_t gi = 0;
    for (; gi + Isa::kGroups <= groups; gi += Isa::kGroups)
      conv_block<Isa, kPx, Isa::kGroups>(c, rqc, bias, p0, np, gi, steps);
    conv_rest<Isa, kPx, Isa::kGroups - 1>(c, rqc, bias, p0, np, gi,
                                          groups - gi, steps);
  }
}

// Conv (or FC) over every output pixel: tiles of 4 pixels (of 1 for a
// one-pixel output, i.e. FC) x Isa::kGroups groups of 8 channels, the last
// groups (fewer than Isa::kGroups) in one narrower tile.
template <class Isa>
void conv_tiles(const ConvCall& c) {
  const ConvGeometry& g = c.g;
  const TileBias<Isa> bias(c);
  const typename Isa::Rq rqc =
      Isa::rq_consts(c.rq->output_zp, c.rq->act_min, c.rq->act_max);
  if (int64_t{g.out_h} * g.out_w == 1)
    conv_pixels<Isa, 1>(c, rqc, bias);
  else
    conv_pixels<Isa, kTilePixels>(c, rqc, bias);
}

// --- depthwise -----------------------------------------------------------

// Channels per chunk of a depthwise layer: the weight pairs, the folded
// bias of a chunk and the zero-point row every padding tap reads are built
// on the stack.
constexpr int32_t kDwChunkChannels = 256;
constexpr int64_t kDwWeightBytes = 8192;

// Input tap (ky, cx) of a tile's windows, the chunk's first channel; cx
// counts input columns from the first window's left edge, so it runs past
// that window into the later pixels'. Inside the input, at fixed offsets.
struct InteriorTaps {
  const int8_t* base;
  int64_t row, col;
  const int8_t* at(int32_t ky, int32_t cx) const {
    return base + ky * row + cx * col;
  }
};

// The same for a tile that crosses the border: a pointer per tap and
// column, the zero-point row where the tap pads.
struct TableTaps {
  const int8_t* const* ptr;
  int32_t cols;
  const int8_t* at(int32_t ky, int32_t cx) const { return ptr[ky * cols + cx]; }
};

// One pass of kLanes (16, 8 or 4) channels, `co` past the chunk's first,
// over kP output pixels of one row. Taps pair vertically: rows ky and
// ky + 1 of one input column are interleaved (unpacklo/hi_epi8) and widened
// once, then multiply-added against the pair's weights for every pixel of
// the tile whose window covers that column, two taps per pmaddwd; an odd
// last row pairs with itself against zero weights. With the kernel width
// and stride known at compile time (kKw > 0) the columns and the pixels
// each one serves unroll; otherwise kP is 1 and both come from g. The
// accumulators start at the chunk's folded bias, bias - input_zp * sum(w),
// so taps enter as raw x, and a padding tap reads input_zp and cancels its
// share of the fold. |x|, |w| <= 128 keep each pair sum far inside int32,
// and int32 addition is order-free (and wraps like the reference's):
// exact. The bias and each group's weights and requantization serve the
// whole tile.
template <class Isa, int kLanes, int kP, int kKw, int kS, class Taps>
inline void dw_tile(const DepthwiseCall& c, const typename Isa::Rq& rqc,
                    const Taps& taps, const int16_t* w, int64_t w_group,
                    const int32_t* bias, int32_t oc, int32_t co,
                    int8_t* out) {
  const ConvGeometry& g = c.g;
  constexpr int kAccs = kLanes == 16 ? 2 : 1;
  const int32_t kw = kKw > 0 ? kKw : g.kw;
  typename Isa::Acc acc[kP][kAccs];
  unroll<kAccs>([&](auto a) {
    const typename Isa::Acc b = Isa::load_acc(bias + a.v * kPanelLanes);
    unroll<kP>([&](auto p) { acc[p.v][a.v] = b; });
  });
  for (int32_t ky = 0; ky < g.kh; ky += 2) {
    const int32_t ky1 = ky + 1 < g.kh ? ky + 1 : ky;
    const int16_t* wr = w + int64_t{ky / 2} * kw * 2 * kPanelLanes;
    // Column cx of rows ky and ky1, widened, multiply-added into pixel p's
    // accumulators against the weights of tap column kx.
    const auto column = [&](int32_t cx, auto&& for_pixels) {
      const __m128i x0 = load_s8<kLanes>(taps.at(ky, cx) + co);
      const __m128i x1 = load_s8<kLanes>(taps.at(ky1, cx) + co);
      typename Isa::Panel xv[kAccs];
      xv[0] = Isa::widen_panel(_mm_unpacklo_epi8(x0, x1));
      if constexpr (kAccs == 2)
        xv[1] = Isa::widen_panel(_mm_unpackhi_epi8(x0, x1));
      for_pixels([&](auto p, int32_t kx) {
        unroll<kAccs>([&](auto a) {
          acc[p.v][a.v] = Isa::madd_taps(
              acc[p.v][a.v], xv[a.v],
              wr + kx * 2 * kPanelLanes + a.v * w_group);
        });
      });
    };
    if constexpr (kKw > 0) {
      unroll<kS*(kP - 1) + kKw>([&](auto cx) {
        column(cx.v, [&](auto&& madd) {
          unroll<kP>([&](auto p) {
            constexpr int kx = decltype(cx)::v - kS * decltype(p)::v;
            if constexpr (kx >= 0 && kx < kKw) madd(p, kx);
          });
        });
      });
    } else {
      static_assert(kP == 1);
      for (int32_t kx = 0; kx < kw; ++kx)
        column(kx, [&](auto&& madd) { madd(Idx<0>{}, kx); });
    }
  }
  if constexpr (kAccs == 2)
    store_columns<Isa, 0>(acc, c.groups, *c.rq, rqc, oc, kLanes, kP, g.in_ch,
                          out);
  else
    store_column<Isa, 0>(acc, c.groups[oc / kPanelLanes], *c.rq, rqc, oc,
                         kLanes, kP, g.in_ch, out);
}

// The chunk of a depthwise layer that one call of dw_row works on: its
// channels [c0, c1), interleaved weights and folded bias, the zero-point
// row, and where the layer's windows lie inside the input (output rows
// [oy_lo, oy_hi), columns [ox_lo, ox_hi)).
struct DwChunk {
  int32_t c0, c1;
  const int16_t* wbuf;
  int64_t w_group;
  const int32_t* fbias;
  const int8_t* zp_row;
  int32_t oy_lo, oy_hi, ox_lo, ox_hi;
};

// Every pass of the chunk's channels over the kP pixels of output row oy
// from column ox: 16 channels at a time, then one pass of 8 and one of 4
// for what is left. A tile whose windows all lie inside the input reads its
// taps in place; any other first fills `table` with a pointer per tap and
// column.
template <class Isa, int kP, int kKw, int kS>
inline void dw_pixels(const DepthwiseCall& c, const typename Isa::Rq& rqc,
                      const DwChunk& k, int32_t oy, int32_t ox,
                      const int8_t** table) {
  const ConvGeometry& g = c.g;
  const int64_t ch = g.in_ch;
  const int32_t stride = kKw > 0 ? kS : g.stride;
  const int32_t cols = stride * (kP - 1) + (kKw > 0 ? kKw : g.kw);
  const int32_t iy0 = oy * stride - g.pad_h;
  const int32_t ix0 = ox * stride - g.pad_w;
  int8_t* out = c.output + (int64_t{oy} * g.out_w + ox) * ch;
  const auto passes = [&](const auto& taps) {
    int32_t oc = k.c0;
    const auto pass = [&](auto lanes) {
      constexpr int kLanes = decltype(lanes)::v;
      const int32_t co = oc - k.c0;
      dw_tile<Isa, kLanes, kP, kKw, kS>(
          c, rqc, taps, k.wbuf + co / kPanelLanes * k.w_group, k.w_group,
          k.fbias + co, oc, co, out + oc);
      oc += kLanes;
    };
    while (oc + 16 <= k.c1) pass(Idx<16>{});
    if (oc + 8 <= k.c1) pass(Idx<8>{});
    if (oc < k.c1) pass(Idx<4>{});
  };
  if (oy >= k.oy_lo && oy < k.oy_hi && ox >= k.ox_lo && ox + kP <= k.ox_hi) {
    passes(InteriorTaps{c.input + (int64_t{iy0} * g.in_w + ix0) * ch + k.c0,
                        int64_t{g.in_w} * ch, ch});
    return;
  }
  for (int32_t ky = 0; ky < g.kh; ++ky) {
    const int32_t iy = iy0 + ky;
    for (int32_t cx = 0; cx < cols; ++cx) {
      const int32_t ix = ix0 + cx;
      table[ky * cols + cx] =
          iy < 0 || iy >= g.in_h || ix < 0 || ix >= g.in_w
              ? k.zp_row
              : c.input + (int64_t{iy} * g.in_w + ix) * ch + k.c0;
    }
  }
  passes(TableTaps{table, cols});
}

// Output row oy of a chunk from column ox, in tiles of kP pixels along x,
// then (a 3-wide kernel at stride 1 or 2) the row's last pixels in tiles of
// kP / 2, kP / 4, ... 1; any other kernel one pixel at a time.
template <class Isa, int kKw, int kS, int kP = (kKw > 0 ? Isa::kDwPixels : 1)>
inline void dw_row(const DepthwiseCall& c, const typename Isa::Rq& rqc,
                   const DwChunk& k, int32_t oy, int32_t ox,
                   const int8_t** table) {
  for (; ox + kP <= c.g.out_w; ox += kP)
    dw_pixels<Isa, kP, kKw, kS>(c, rqc, k, oy, ox, table);
  if constexpr (kP > 1) dw_row<Isa, kKw, kS, kP / 2>(c, rqc, k, oy, ox, table);
}

// Depthwise over channels [0, c.channels), in chunks of whole 8-channel
// groups. Per chunk, each group's weights are interleaved once into int16
// vertical tap pairs, [group][row pair][kx][8 channels][2 taps] (an odd
// last row pairs with zero weights; lanes past a 4-channel group are zero),
// and the bias is folded with the input zero point; then every output row
// runs (dw_row).
template <class Isa>
void depthwise_passes(const DepthwiseCall& c) {
  const ConvGeometry& g = c.g;
  const int32_t ch = g.in_ch;
  const int32_t taps = g.kh * g.kw;  // <= kDwMaxTaps
  const int32_t pairs = (g.kh + 1) / 2 * g.kw;
  const int64_t w_group = int64_t{pairs} * 2 * kPanelLanes;
  const int64_t fit = kDwWeightBytes / (w_group * 2) * kPanelLanes;
  const int32_t chunk = static_cast<int32_t>(
      fit < kDwChunkChannels ? fit : kDwChunkChannels);
  const int32_t zp = c.rq->input_zp;
  alignas(32) int16_t wbuf[kDwWeightBytes / 2];
  // Lanes past a chunk's last 4-channel group are read, never stored.
  alignas(32) int32_t fbias[kDwChunkChannels + kPanelLanes] = {};
  alignas(16) int8_t zp_row[kDwChunkChannels];
  std::memset(zp_row, static_cast<int8_t>(zp), sizeof(zp_row));
  // A tile's tap table: kh rows of at most 2 * (kDwPixels - 1) + 3 columns
  // for a 3-wide kernel (so kh <= kDwMaxTaps / 3), kw for any other.
  constexpr int kTableCols = 2 * (Isa::kDwPixels - 1) + 3;
  const int8_t* table[kDwMaxTaps / 3 * kTableCols > kDwMaxTaps
                          ? kDwMaxTaps / 3 * kTableCols
                          : kDwMaxTaps];
  const typename Isa::Rq rqc =
      Isa::rq_consts(c.rq->output_zp, c.rq->act_min, c.rq->act_max);
  DwChunk k{};
  k.wbuf = wbuf;
  k.w_group = w_group;
  k.fbias = fbias;
  k.zp_row = zp_row;
  inside_range(int64_t{g.in_h} - g.kh, g.pad_h, g.stride, g.out_h, &k.oy_lo,
               &k.oy_hi);
  inside_range(int64_t{g.in_w} - g.kw, g.pad_w, g.stride, g.out_w, &k.ox_lo,
               &k.ox_hi);

  for (k.c0 = 0; k.c0 < c.channels; k.c0 += chunk) {
    const int32_t c0 = k.c0;
    const int32_t c1 = c0 + chunk < c.channels ? c0 + chunk : c.channels;
    k.c1 = c1;
    for (int32_t cb = c0; cb < c1; cb += kPanelLanes) {
      int16_t* dst = wbuf + (cb - c0) / kPanelLanes * w_group;
      const bool half = c1 - cb < kPanelLanes;
      for (int32_t ky = 0; ky < g.kh; ky += 2) {
        for (int32_t kx = 0; kx < g.kw; ++kx, dst += 2 * kPanelLanes) {
          const int8_t* w0 = c.weights + (int64_t{ky} * g.kw + kx) * ch + cb;
          const int8_t* w1 = w0 + int64_t{g.kw} * ch;
          const __m128i v0 = half ? load_s8<4>(w0) : load_s8<8>(w0);
          const __m128i v1 = ky + 1 == g.kh ? _mm_setzero_si128()
                             : half         ? load_s8<4>(w1)
                                            : load_s8<8>(w1);
          Isa::widen_pairs(dst, _mm_unpacklo_epi8(v0, v1));
        }
      }
    }
    // bias - zp * sum(w), in uint32 so that it wraps like the int32 sums.
    for (int32_t oc = c0; oc < c1; ++oc) {
      int32_t sum = 0;
      for (int32_t t = 0; t < taps; ++t) sum += c.weights[int64_t{t} * ch + oc];
      const uint32_t b =
          c.bias == nullptr ? 0u : static_cast<uint32_t>(c.bias[oc]);
      fbias[oc - c0] =
          static_cast<int32_t>(b - static_cast<uint32_t>(zp * sum));
    }
    for (int32_t oy = 0; oy < g.out_h; ++oy) {
      if (g.kw == 3 && g.stride == 1)
        dw_row<Isa, 3, 1>(c, rqc, k, oy, 0, table);
      else if (g.kw == 3 && g.stride == 2)
        dw_row<Isa, 3, 2>(c, rqc, k, oy, 0, table);
      else
        dw_row<Isa, 0, 0>(c, rqc, k, oy, 0, table);
    }
  }
}

// --- add -------------------------------------------------------------------

// Elementwise add over whole passes of 16 elements, two accumulators of 8
// each: x - zp of each input (|x - zp| <= 255) shifted left (< 2^31 for
// left_shift <= 22), rescaled with its per-tensor multiplier, the two
// summed (no overflow, see prepare_add_requant) and the sum requantized,
// offset and clamped like every other output, 16 bytes stored at once.
// Returns the elements written; the caller runs the last n % 16.
template <class Isa>
size_t add_pass(const AddCall& c) {
  using Acc = typename Isa::Acc;
  const AddParams& p = *c.p;
  const RequantGroup& ga = c.groups[0];
  const RequantGroup& gb = c.groups[1];
  const RequantGroup& gs = c.groups[2];
  const Acc a_zp = Isa::splat(p.a_zp);
  const Acc b_zp = Isa::splat(p.b_zp);
  const typename Isa::Rq rqc = Isa::rq_consts(p.out_zp, p.act_min, p.act_max);
  const auto input = [&](const int8_t* x, const Acc& zp,
                         const RequantGroup& g) {
    return Isa::template rescale<true>(
        Isa::shl_acc(Isa::sub_acc(Isa::widen_acc(x), zp), p.left_shift), g);
  };
  size_t i = 0;
  for (; i + 16 <= c.n; i += 16) {
    Acc sum[2];
    unroll<2>([&](auto h) {
      const size_t at = i + 8 * h.v;
      sum[h.v] = Isa::add_acc(input(c.a + at, a_zp, ga),
                              input(c.b + at, b_zp, gb));
    });
    _mm_storeu_si128(reinterpret_cast<__m128i*>(c.output + i),
                     Isa::template requant16<true>(sum[0], sum[1], gs, gs, rqc));
  }
  return i;
}

}  // namespace
}  // namespace mn::kernels::detail
