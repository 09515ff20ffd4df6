// The fast conv/FC tile and depthwise pass, each written once over an
// instruction-set trait (DESIGN.md §14). Included only by the ISA
// translation units (kernels_sse2.cpp, kernels_avx2.cpp,
// kernels_avx512vnni.cpp); each defines or includes its trait and
// instantiates conv_tiles<Isa> and depthwise_passes<Isa>.
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
//   Acc                   8 int32 lanes
//   load_acc(p)           8 lanes from memory (the bias)
//   store_acc(p, acc)     8 lanes to memory (the scalar requant path)
//   Panel load_panel(w)   16 panel bytes (8 channels x 2 taps) as int16
//   Cols load_cols<kPx>(x)  one int16 tap pair of each of a tile's pixels
//   madd_pixel<p>(acc, panel, cols)
//                         acc + pmaddwd(panel, pixel p's pair broadcast)
//   widen8(v)             the low 8 int8 lanes of v as int16
//   Zp zp16(zp)           the input zero point in every int16 lane
//   widen_pairs(dst, v)   16 int8 (8 channels x 2 taps) stored as int16
//   madd_taps(acc, x, w, zp)
//                         acc + pmaddwd(widen(x) - zp, 16 int16 at w)
//   Rq rq_consts(rq)      the output zero point and clamp as vectors
//   requant8<kShared>(acc, g, rq)
//                         the 8 lanes requantized with group g, offset and
//                         clamped, as 8 int16 lanes of an xmm; kShared
//                         promises one shift count for every lane
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
// requantization form and every lane of `rg` shares one shift count, else
// f(SharedCount<false>{}): the check runs once per group, outside the
// loops that store it.
template <bool B>
struct SharedCount {
  static constexpr bool v = B;
};

template <class Isa, typename F>
inline void with_requant_form(const RequantGroup& rg, F&& f) {
  if constexpr (Isa::kSharedCountForm) {
    if (rg.uniform) {
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

template <class Isa>
inline void store_group(typename Isa::Acc acc, const RequantGroup& rg,
                        const typename Isa::Rq& rqc, const RequantParams& rq,
                        int32_t oc0, int lanes, int8_t* out) {
  if (!rg.simd) {
    store_scalar<Isa>(acc, rq, oc0, lanes, out);
    return;
  }
  with_requant_form<Isa>(rg, [&](auto form) {
    store_simd<Isa, decltype(form)::v>(acc, rg, rqc, lanes, out);
  });
}

// --- conv / fully connected ----------------------------------------------

// Gathers the im2col columns of output pixels [p0, p0 + np) into `cols`
// as int16 x - zp, laid out [tap pair][kPx][2]; padding taps, the odd last
// tap and pixels past np hold 0. When in_ch is a multiple of 4 every tap
// starts a pair, so 8 (or 4) channels of the kPx pixels are widened and
// transposed into place at once.
template <class Isa, int kPx>
inline void gather_tile(const int8_t* input, const ConvGeometry& g, int32_t zp,
                        int64_t p0, int np, int16_t* cols) {
  const int32_t ch = g.in_ch;
  const int64_t k = int64_t{g.kh} * g.kw * ch;
  if (k % 2 != 0)
    for (int px = 0; px < kPx; ++px) cols[(k / 2) * 2 * kPx + 2 * px + 1] = 0;
  int32_t iy0[kPx], ix0[kPx];
  for (int px = 0; px < kPx; ++px) {
    const int64_t p = p0 + px;
    // A pixel past np sits above the input, so every one of its taps pads.
    iy0[px] = px < np ? static_cast<int32_t>(p / g.out_w) * g.stride - g.pad_h
                      : -g.kh;
    ix0[px] = static_cast<int32_t>(p % g.out_w) * g.stride - g.pad_w;
  }
  const __m128i zp16 = _mm_set1_epi16(static_cast<int16_t>(zp));
  for (int32_t ky = 0; ky < g.kh; ++ky) {
    for (int32_t kx = 0; kx < g.kw; ++kx) {
      const int8_t* src[kPx];
      for (int px = 0; px < kPx; ++px) {
        const int32_t iy = iy0[px] + ky, ix = ix0[px] + kx;
        src[px] = iy < 0 || iy >= g.in_h || ix < 0 || ix >= g.in_w
                      ? nullptr
                      : input + (int64_t{iy} * g.in_w + ix) * ch;
      }
      const int64_t t0 = (int64_t{ky} * g.kw + kx) * ch;
      int32_t c = 0;
      if (ch % 4 == 0) {
        for (; c < ch; c += 8) {
          const bool half = c + 8 > ch;  // the last 4 channels
          __m128i v[4] = {};
          for (int px = 0; px < kPx; ++px) {
            if (src[px] == nullptr) continue;
            const __m128i raw =
                half ? load_s8<4>(src[px] + c) : load_s8<8>(src[px] + c);
            v[px] = _mm_sub_epi16(Isa::widen8(raw), zp16);
          }
          __m128i* dst =
              reinterpret_cast<__m128i*>(cols + (t0 + c) / 2 * 2 * kPx);
          if constexpr (kPx == 1) {
            if (half)
              _mm_storel_epi64(dst, v[0]);
            else
              _mm_storeu_si128(dst, v[0]);
          } else {
            // 4x4 transpose of int32 tap pairs: row j of the result is tap
            // pair j of pixels 0..3.
            const __m128i ab_lo = _mm_unpacklo_epi32(v[0], v[1]);
            const __m128i cd_lo = _mm_unpacklo_epi32(v[2], v[3]);
            _mm_storeu_si128(dst, _mm_unpacklo_epi64(ab_lo, cd_lo));
            _mm_storeu_si128(dst + 1, _mm_unpackhi_epi64(ab_lo, cd_lo));
            if (!half) {
              const __m128i ab_hi = _mm_unpackhi_epi32(v[0], v[1]);
              const __m128i cd_hi = _mm_unpackhi_epi32(v[2], v[3]);
              _mm_storeu_si128(dst + 2, _mm_unpacklo_epi64(ab_hi, cd_hi));
              _mm_storeu_si128(dst + 3, _mm_unpackhi_epi64(ab_hi, cd_hi));
            }
          }
        }
      }
      for (; c < ch; ++c) {
        const int64_t t = t0 + c;
        int16_t* dst = cols + (t / 2) * 2 * kPx + t % 2;
        for (int px = 0; px < kPx; ++px)
          dst[2 * px] = static_cast<int16_t>(
              src[px] == nullptr ? 0 : src[px][c] - zp);
      }
    }
  }
}

// Accumulates kG groups of 8 channels (group g's panel `group_bytes` past
// group 0's) over every tap pair of a tile's kPx pixels: per pair, one
// panel load per group and one broadcast per pixel, shared by the groups.
template <class Isa, int kPx, int kG>
inline void tile_mac(const int8_t* w, int64_t group_bytes, const int16_t* x,
                     int64_t pairs, typename Isa::Acc (&acc_out)[kPx][kG]) {
  // A local copy, written back once: accumulating into the caller's array
  // directly measurably costs a spill and register copies in the AVX2 loop.
  typename Isa::Acc acc[kPx][kG];
  unroll<kPx>([&](auto p) {
    unroll<kG>([&](auto g) { acc[p.v][g.v] = acc_out[p.v][g.v]; });
  });
  for (int64_t j = 0; j < pairs; ++j, w += 2 * kPanelLanes, x += 2 * kPx) {
    typename Isa::Panel wv[kG];
    unroll<kG>([&](auto g) { wv[g.v] = Isa::load_panel(w + g.v * group_bytes); });
    const typename Isa::Cols xc = Isa::template load_cols<kPx>(x);
    unroll<kPx>([&](auto p) {
      unroll<kG>([&](auto g) {
        acc[p.v][g.v] =
            Isa::template madd_pixel<p.v>(acc[p.v][g.v], wv[g.v], xc);
      });
    });
  }
  unroll<kPx>([&](auto p) {
    unroll<kG>([&](auto g) { acc_out[p.v][g.v] = acc[p.v][g.v]; });
  });
}

// The tile of kPx pixels x kG groups starting at group gi: accumulators
// from the bias, the tap-pair loop, then a requantized store per pixel and
// group.
template <class Isa, int kPx, int kG>
inline void conv_block(const ConvCall& c, const typename Isa::Rq& rqc,
                       const GroupBias& bias, int64_t p0, int np, int32_t gi,
                       int64_t pairs) {
  const ConvGeometry& g = c.g;
  const int64_t group_bytes = pairs * 2 * kPanelLanes;
  typename Isa::Acc acc[kPx][kG];
  unroll<kG>([&](auto k) {
    const int32_t oc0 = (gi + k.v) * kPanelLanes;
    const typename Isa::Acc b = Isa::load_acc(bias.at(oc0));
    unroll<kPx>([&](auto p) { acc[p.v][k.v] = b; });
  });
  tile_mac<Isa, kPx, kG>(c.panel + gi * group_bytes, group_bytes, c.cols,
                         pairs, acc);
  unroll<kG>([&](auto k) {
    const int32_t oc0 = (gi + k.v) * kPanelLanes;
    const int lanes =
        g.out_ch - oc0 < kPanelLanes ? g.out_ch - oc0 : kPanelLanes;
    const RequantGroup& rg = c.groups[gi + k.v];
    int8_t* out = c.output + p0 * g.out_ch + oc0;
    if (!rg.simd) {
      for (int px = 0; px < np; ++px, out += g.out_ch)
        store_scalar<Isa>(acc[px][k.v], *c.rq, oc0, lanes, out);
      return;
    }
    with_requant_form<Isa>(rg, [&](auto form) {
      for (int px = 0; px < np; ++px, out += g.out_ch)
        store_simd<Isa, decltype(form)::v>(acc[px][k.v], rg, rqc, lanes, out);
    });
  });
}

// The last `rest` (at most kG) groups of a pixel tile, from group gi, as
// one tile of `rest` groups.
template <class Isa, int kPx, int kG>
inline void conv_rest(const ConvCall& c, const typename Isa::Rq& rqc,
                      const GroupBias& bias, int64_t p0, int np, int32_t gi,
                      int32_t rest, int64_t pairs) {
  if constexpr (kG > 0) {
    if (rest == kG)
      conv_block<Isa, kPx, kG>(c, rqc, bias, p0, np, gi, pairs);
    else
      conv_rest<Isa, kPx, kG - 1>(c, rqc, bias, p0, np, gi, rest, pairs);
  }
}

template <class Isa, int kPx>
inline void conv_pixels(const ConvCall& c, const typename Isa::Rq& rqc,
                        const GroupBias& bias) {
  const ConvGeometry& g = c.g;
  const int64_t pixels = int64_t{g.out_h} * g.out_w;
  const int64_t pairs = (int64_t{g.kh} * g.kw * g.in_ch + 1) / 2;
  const int32_t groups = (g.out_ch + kPanelLanes - 1) / kPanelLanes;
  for (int64_t p0 = 0; p0 < pixels; p0 += kPx) {
    const int np = static_cast<int>(min64(kPx, pixels - p0));
    gather_tile<Isa, kPx>(c.input, g, c.rq->input_zp, p0, np, c.cols);
    int32_t gi = 0;
    for (; gi + Isa::kGroups <= groups; gi += Isa::kGroups)
      conv_block<Isa, kPx, Isa::kGroups>(c, rqc, bias, p0, np, gi, pairs);
    conv_rest<Isa, kPx, Isa::kGroups - 1>(c, rqc, bias, p0, np, gi,
                                          groups - gi, pairs);
  }
}

// Conv (or FC) over every output pixel: tiles of 4 pixels (of 1 for a
// one-pixel output, i.e. FC) x Isa::kGroups groups of 8 channels, the last
// groups (fewer than Isa::kGroups) in one narrower tile.
template <class Isa>
void conv_tiles(const ConvCall& c) {
  const ConvGeometry& g = c.g;
  const GroupBias bias(c.bias, g.out_ch);
  const typename Isa::Rq rqc = Isa::rq_consts(*c.rq);
  if (int64_t{g.out_h} * g.out_w == 1)
    conv_pixels<Isa, 1>(c, rqc, bias);
  else
    conv_pixels<Isa, kTilePixels>(c, rqc, bias);
}

// --- depthwise -----------------------------------------------------------

// Channels per chunk of a depthwise layer: the weight pairs of a chunk and
// the zero-point row every padding tap reads are built on the stack.
constexpr int32_t kDwChunkChannels = 256;
constexpr int64_t kDwWeightBytes = 8192;

// A window whose every tap lies inside the input: tap t of the chunk's
// first channel is base + offs[t].
struct InteriorTaps {
  const int8_t* base;
  const int64_t* offs;
  const int8_t* at(int32_t t) const { return base + offs[t]; }
};

// A window that crosses the border: tap t is ptr[t], the zero-point row for
// a padding tap.
struct BorderTaps {
  const int8_t* const* ptr;
  const int8_t* at(int32_t t) const { return ptr[t]; }
};

// One pass of kLanes (16, 8 or 4) channels, `co` past the chunk's first,
// over one output pixel: per tap pair, the two taps' channels interleaved
// (unpacklo/hi_epi8) and multiply-added against the pair's interleaved
// weights, two taps per pmaddwd. Padding taps read input_zp and the odd
// last tap a zero weight, so both add 0. |x - zp| <= 255 and |w| <= 128
// keep each pair sum below 2^31, and int32 addition is order-free: exact.
template <class Isa, int kLanes, class Taps>
inline void dw_pass(const DepthwiseCall& c, const typename Isa::Rq& rqc,
                    typename Isa::Zp zp, const Taps& taps, int32_t pairs,
                    const int16_t* w, const GroupBias& bias, int32_t oc0,
                    int32_t co, int8_t* out) {
  constexpr int kAccs = kLanes == 16 ? 2 : 1;
  typename Isa::Acc acc[kAccs];
  unroll<kAccs>([&](auto a) {
    acc[a.v] = Isa::load_acc(bias.at(oc0 + a.v * kPanelLanes));
  });
  const int64_t w_group = int64_t{pairs} * 2 * kPanelLanes;
  for (int32_t j = 0; j < pairs; ++j) {
    const __m128i x0 = load_s8<kLanes>(taps.at(2 * j) + co);
    const __m128i x1 = load_s8<kLanes>(taps.at(2 * j + 1) + co);
    const int16_t* wj = w + int64_t{j} * 2 * kPanelLanes;
    acc[0] = Isa::madd_taps(acc[0], _mm_unpacklo_epi8(x0, x1), wj, zp);
    if constexpr (kAccs == 2)
      acc[1] = Isa::madd_taps(acc[1], _mm_unpackhi_epi8(x0, x1), wj + w_group,
                              zp);
  }
  const int32_t group = oc0 / kPanelLanes;
  unroll<kAccs>([&](auto a) {
    store_group<Isa>(acc[a.v], c.groups[group + a.v], rqc, *c.rq,
                     oc0 + a.v * kPanelLanes, kLanes == 4 ? 4 : kPanelLanes,
                     out + a.v * kPanelLanes);
  });
}

// Every pass of channels [c0, c1) over one output pixel: 16 channels at a
// time, then one pass of 8 and one of 4 for what is left.
template <class Isa, class Taps>
inline void dw_pixel(const DepthwiseCall& c, const typename Isa::Rq& rqc,
                     typename Isa::Zp zp, const Taps& taps, int32_t pairs,
                     const int16_t* wbuf, const GroupBias& bias, int32_t c0,
                     int32_t c1, int8_t* out_px) {
  const int64_t w_group = int64_t{pairs} * 2 * kPanelLanes;
  int32_t oc = c0;
  for (; oc + 16 <= c1; oc += 16)
    dw_pass<Isa, 16>(c, rqc, zp, taps, pairs,
                     wbuf + (oc - c0) / kPanelLanes * w_group, bias, oc,
                     oc - c0, out_px + oc);
  if (oc + 8 <= c1) {
    dw_pass<Isa, 8>(c, rqc, zp, taps, pairs,
                    wbuf + (oc - c0) / kPanelLanes * w_group, bias, oc,
                    oc - c0, out_px + oc);
    oc += 8;
  }
  if (oc < c1)
    dw_pass<Isa, 4>(c, rqc, zp, taps, pairs,
                    wbuf + (oc - c0) / kPanelLanes * w_group, bias, oc,
                    oc - c0, out_px + oc);
}

// Depthwise over channels [0, c.channels), in chunks of whole 8-channel
// groups. Per chunk, each group's weights are interleaved once into int16
// tap pairs, [group][pair][8 channels][2 taps] (the odd last tap pairs
// with zero weights; lanes past a 4-channel group are zero). Then every
// output pixel runs every pass of the chunk: an interior window reads its
// taps at fixed offsets from the pixel, a border window through a pointer
// per tap, where a padding tap points at a row of input_zp.
template <class Isa>
void depthwise_passes(const DepthwiseCall& c) {
  const ConvGeometry& g = c.g;
  const int32_t ch = g.in_ch;
  const int32_t taps = g.kh * g.kw;  // <= kDwMaxTaps
  const int32_t pairs = (taps + 1) / 2;
  const int64_t w_group = int64_t{pairs} * 2 * kPanelLanes;
  const int64_t fit = kDwWeightBytes / (w_group * 2) * kPanelLanes;
  const int32_t chunk = static_cast<int32_t>(
      fit < kDwChunkChannels ? fit : kDwChunkChannels);
  alignas(32) int16_t wbuf[kDwWeightBytes / 2];
  alignas(16) int8_t zp_row[kDwChunkChannels];
  std::memset(zp_row, static_cast<int8_t>(c.rq->input_zp), sizeof(zp_row));
  int64_t offs[kDwMaxTaps + 1];
  for (int32_t ky = 0; ky < g.kh; ++ky)
    for (int32_t kx = 0; kx < g.kw; ++kx)
      offs[ky * g.kw + kx] = (int64_t{ky} * g.in_w + kx) * ch;
  offs[taps] = 0;  // the odd last tap's partner: any valid tap
  const int8_t* ptr[kDwMaxTaps + 1];
  const GroupBias bias(c.bias, ch);
  const typename Isa::Rq rqc = Isa::rq_consts(*c.rq);
  const typename Isa::Zp zp = Isa::zp16(c.rq->input_zp);

  for (int32_t c0 = 0; c0 < c.channels; c0 += chunk) {
    const int32_t c1 = c0 + chunk < c.channels ? c0 + chunk : c.channels;
    for (int32_t cb = c0; cb < c1; cb += kPanelLanes) {
      int16_t* dst = wbuf + (cb - c0) / kPanelLanes * w_group;
      const bool half = c1 - cb < kPanelLanes;
      for (int32_t j = 0; j < pairs; ++j) {
        const int8_t* w0 = c.weights + int64_t{2 * j} * ch + cb;
        const __m128i v0 = half ? load_s8<4>(w0) : load_s8<8>(w0);
        const __m128i v1 = 2 * j + 1 == taps ? _mm_setzero_si128()
                           : half            ? load_s8<4>(w0 + ch)
                                             : load_s8<8>(w0 + ch);
        Isa::widen_pairs(dst + int64_t{j} * 2 * kPanelLanes,
                         _mm_unpacklo_epi8(v0, v1));
      }
    }
    for (int32_t oy = 0; oy < g.out_h; ++oy) {
      const int32_t iy0 = oy * g.stride - g.pad_h;
      const bool rows_inside = iy0 >= 0 && iy0 + g.kh <= g.in_h;
      for (int32_t ox = 0; ox < g.out_w; ++ox) {
        const int32_t ix0 = ox * g.stride - g.pad_w;
        int8_t* out_px = c.output + (int64_t{oy} * g.out_w + ox) * ch;
        if (rows_inside && ix0 >= 0 && ix0 + g.kw <= g.in_w) {
          const InteriorTaps t{
              c.input + (int64_t{iy0} * g.in_w + ix0) * ch + c0, offs};
          dw_pixel<Isa>(c, rqc, zp, t, pairs, wbuf, bias, c0, c1, out_px);
          continue;
        }
        for (int32_t ky = 0; ky < g.kh; ++ky) {
          const int32_t iy = iy0 + ky;
          for (int32_t kx = 0; kx < g.kw; ++kx) {
            const int32_t ix = ix0 + kx;
            ptr[ky * g.kw + kx] =
                iy < 0 || iy >= g.in_h || ix < 0 || ix >= g.in_w
                    ? zp_row
                    : c.input + (int64_t{iy} * g.in_w + ix) * ch + c0;
          }
        }
        ptr[taps] = zp_row;
        dw_pixel<Isa>(c, rqc, zp, BorderTaps{ptr}, pairs, wbuf, bias, c0, c1,
                      out_px);
      }
    }
  }
}

}  // namespace
}  // namespace mn::kernels::detail
