// Fast-backend kernels (see backend.hpp for the panel layout and the
// bit-exactness contract).
//
// Conv2d and fully-connected run one register-tiled micro-kernel, each step
// exact in integer arithmetic:
//   1. Gather. A tile of kTilePixels output pixels is gathered into int16
//      im2col columns holding x - input_zp (padding taps hold 0, which is
//      what the reference kernel's skipped taps contribute), laid out
//      [tap pair][pixel][2] to match the panel's [tap pair][channel][2].
//   2. Multiply-accumulate. For each tap pair, 16 panel bytes (8 output
//      channels x 2 taps) are loaded once and widened to int16; each
//      pixel's 2 column values are broadcast and pmaddwd sums the two
//      products per channel into int32. With the zero point in int8 range,
//      |x - zp| <= 255 and |w| <= 128, so each pair sum is at most
//      2 * 255 * 128 < 2^31: exact. Accumulating in int32 wraps exactly like
//      the reference's scalar int32 sum, and integer addition is order-free,
//      so the tiling cannot change a result. The 8 x 4 accumulators start
//      at the bias and never need a horizontal reduction.
//   3. Store. Each pixel's 8 channels are requantized at once by
//      requant_lanes (exact, see there), clamped in int16 and written with
//      one 8-byte store; a group with a lane outside requant_lanes' domain,
//      or a clamp wider than int8, requantizes through the scalar primitive
//      instead.
// A fully-connected layer is the same kernel on a 1x1 conv of one pixel,
// run with a one-pixel tile. Non-x86 hosts, and zero points outside int8
// range, run the scalar loop over the same panel — slower, byte-identical.
//
// Depthwise needs no panel: it runs channel-vectorized on the raw weights
// (see depthwise_group_sse2 for the int16 product bound) with the same
// requant_lanes.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "kernels/backend.hpp"
#include "obs/obs.hpp"

namespace mn::kernels {

namespace {

// Output pixels per conv micro-kernel tile.
constexpr int kTilePixels = 4;

// Scratch bytes per 8-channel group for its per-call constants
// (GroupConsts below).
constexpr int64_t kGroupConstsBytes = 144;

#if defined(__SSE2__)
// Sign-extends the low / high 8 bytes of `v` to int16 lanes (unpack-with-
// self + arithmetic shift: SSE2 has no pmovsxbw).
inline __m128i widen_lo_s8(__m128i v) {
  return _mm_srai_epi16(_mm_unpacklo_epi8(v, v), 8);
}
inline __m128i widen_hi_s8(__m128i v) {
  return _mm_srai_epi16(_mm_unpackhi_epi8(v, v), 8);
}
#endif

// A panel must be packed for this op's shape and hold every group the
// kernel streams; anything else throws before a byte is read.
void check_panel(const char* who, const PackedOpWeights& p, int32_t out_ch,
                 int64_t k) {
  if (p.out_ch != out_ch || p.k != k ||
      static_cast<int64_t>(p.values.size()) < conv_panel_bytes(out_ch, k))
    throw std::invalid_argument(std::string(who) +
                                ": packed panel/geometry mismatch");
}

inline int8_t requant_store(int32_t acc, const RequantParams& rq, int32_t oc) {
  int32_t v =
      quant::multiply_by_quantized_multiplier(acc, rq.channel_mult(oc)) +
      rq.output_zp;
  v = std::clamp(v, rq.act_min, rq.act_max);
  return static_cast<int8_t>(v);
}

// --- depthwise ---------------------------------------------------------------

// Calls fn(out_px, x, w, rows, cols) for every output pixel of a depthwise
// layer with its valid tap window [ky_lo, ky_hi) x [kx_lo, kx_hi) resolved
// once: `x` / `w` point at the window's first valid tap (channel 0) and the
// window is rows x cols taps, so the tap loops carry no bounds branch. An
// all-padding window has rows or cols 0 (and its pointers are never read).
template <typename Fn>
inline void for_each_dw_window(const ConvGeometry& g, const int8_t* input,
                               const int8_t* weights, int8_t* output, Fn&& fn) {
  const int32_t ch = g.in_ch;
  for (int32_t oy = 0; oy < g.out_h; ++oy) {
    const int32_t iy0 = oy * g.stride - g.pad_h;
    const int32_t ky_lo = std::max(0, -iy0);
    const int32_t rows = std::max(0, std::min(g.kh, g.in_h - iy0) - ky_lo);
    for (int32_t ox = 0; ox < g.out_w; ++ox) {
      const int32_t ix0 = ox * g.stride - g.pad_w;
      const int32_t kx_lo = std::max(0, -ix0);
      const int32_t cols = std::max(0, std::min(g.kw, g.in_w - ix0) - kx_lo);
      const int8_t* x = input;
      const int8_t* w = weights;
      if (rows > 0 && cols > 0) {
        x += (int64_t{iy0 + ky_lo} * g.in_w + (ix0 + kx_lo)) * ch;
        w += (int64_t{ky_lo} * g.kw + kx_lo) * ch;
      }
      fn(output + (int64_t{oy} * g.out_w + ox) * ch, x, w, rows, cols);
    }
  }
}

#if defined(__SSE2__)
// Sign-extends the low / high 4 int16 lanes of `v` to int32 lanes.
inline __m128i widen_lo_s16(__m128i v) {
  return _mm_srai_epi32(_mm_unpacklo_epi16(v, v), 16);
}
inline __m128i widen_hi_s16(__m128i v) {
  return _mm_srai_epi32(_mm_unpackhi_epi16(v, v), 16);
}

// floor((a * b + c) / 2^31) per lane, all three read as unsigned 32-bit,
// computed in 64 bits; the caller guarantees the result fits 32 bits.
inline __m128i mul_add_shr31(__m128i a, __m128i b, __m128i c) {
  const __m128i lo32 = _mm_set_epi32(0, -1, 0, -1);
  const __m128i even = _mm_srli_epi64(
      _mm_add_epi64(_mm_mul_epu32(a, b), _mm_and_si128(c, lo32)), 31);
  const __m128i odd = _mm_srli_epi64(
      _mm_add_epi64(
          _mm_mul_epu32(_mm_srli_epi64(a, 32), _mm_srli_epi64(b, 32)),
          _mm_srli_epi64(c, 32)),
      31);
  return _mm_or_si128(_mm_and_si128(even, lo32), _mm_slli_epi64(odd, 32));
}

// Per-lane constants for the SIMD requantization of 4 channels.
struct RequantLanes {
  __m128i mult;   // multiplier, > 0
  __m128i round;  // 2^(r-1) for a right shift by r (0 when r == 0)
  __m128i scale;  // 2^(31-r)
};

// multiply_by_quantized_multiplier on 4 lanes, exact for multipliers > 0 and
// shifts in [-31, 0] (the caller checks). Both of its roundings are odd-
// symmetric once the sign is split off: for x < 0 the saturating doubling
// high multiply is -floor((|x|*M + 2^30 - 1) / 2^31) and for x >= 0 it is
// floor((|x|*M + 2^30) / 2^31); the rounding right shift by r maps h to
// sign(h) * floor((|h| + 2^(r-1)) / 2^r). Every intermediate is a
// non-negative value below 2^63, so unsigned 32x32->64 products suffice.
inline __m128i requant_lanes(__m128i x, const RequantLanes& k) {
  const __m128i s = _mm_srai_epi32(x, 31);                  // 0 or -1
  const __m128i ax = _mm_sub_epi32(_mm_xor_si128(x, s), s);  // |x| (unsigned)
  const __m128i nudge = _mm_add_epi32(_mm_set1_epi32(1 << 30), s);
  const __m128i h = mul_add_shr31(ax, k.mult, nudge);  // < 2^31
  const __m128i r = mul_add_shr31(_mm_add_epi32(h, k.round), k.scale,
                                  _mm_setzero_si128());
  return _mm_sub_epi32(_mm_xor_si128(r, s), s);
}

// Fills `lanes` for channels [c, c + 4 * n) and reports whether every one
// of them below `end` is in requant_lanes' exact domain. Lanes at or past
// `end` (a partial conv group's missing channels) get zero constants; their
// results are never stored.
inline bool requant_lanes_for(const RequantParams& rq, int32_t c, int n,
                              int32_t end, RequantLanes* lanes) {
  for (int j = 0; j < n; ++j) {
    alignas(16) int32_t mult[4] = {}, round[4] = {}, scale[4] = {};
    for (int l = 0; l < 4 && c + 4 * j + l < end; ++l) {
      const quant::FixedMultiplier& m = rq.channel_mult(c + 4 * j + l);
      if (m.multiplier <= 0 || m.shift > 0 || m.shift < -31) return false;
      const int r = -m.shift;
      mult[l] = m.multiplier;
      round[l] = r == 0 ? 0 : int32_t{1} << (r - 1);
      scale[l] = static_cast<int32_t>(uint32_t{1} << (31 - r));
    }
    lanes[j] = {_mm_load_si128(reinterpret_cast<const __m128i*>(mult)),
                _mm_load_si128(reinterpret_cast<const __m128i*>(round)),
                _mm_load_si128(reinterpret_cast<const __m128i*>(scale))};
  }
  return true;
}

// Loads 16 (kVecs 4) or 8 (kVecs 2) int8 lanes.
template <int kVecs>
inline __m128i load_s8(const int8_t* p) {
  if constexpr (kVecs == 4)
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  else
    return _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
}

// Channels [c, c + 4 * kVecs) of a depthwise layer over every output pixel:
// kVecs int32 accumulators of 4 channels each. (x - zp) is formed in int16
// and multiplied by the int16-widened weight; |(x - zp) * w| <= 255 * 128 <
// 2^15, so _mm_mullo_epi16 is exact (the caller keeps zp in int8 range).
template <int kVecs>
void depthwise_group_sse2(std::span<const int8_t> input,
                          std::span<const int8_t> weights,
                          std::span<const int32_t> bias,
                          std::span<int8_t> output, const ConvGeometry& g,
                          const RequantParams& rq, int32_t c) {
  const int32_t ch = g.in_ch;
  const int64_t x_row = int64_t{g.in_w} * ch;
  const int64_t w_row = int64_t{g.kw} * ch;
  const __m128i zp16 = _mm_set1_epi16(static_cast<int16_t>(rq.input_zp));
  __m128i init[4] = {};
  if (!bias.empty())
    for (int j = 0; j < kVecs; ++j)
      init[j] = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(bias.data() + c + 4 * j));
  RequantLanes rql[4];
  const bool simd_requant = rq.act_min >= -128 && rq.act_max <= 127 &&
                            requant_lanes_for(rq, c, kVecs, c + 4 * kVecs, rql);
  const __m128i out_zp = _mm_set1_epi32(rq.output_zp);
  const __m128i act_min = _mm_set1_epi16(static_cast<int16_t>(rq.act_min));
  const __m128i act_max = _mm_set1_epi16(static_cast<int16_t>(rq.act_max));
  for_each_dw_window(
      g, input.data() + c, weights.data() + c, output.data() + c,
      [&](int8_t* out_px, const int8_t* x, const int8_t* w, int32_t rows,
          int32_t cols) {
        __m128i acc[4];
        for (int j = 0; j < kVecs; ++j) acc[j] = init[j];
        for (int32_t dy = 0; dy < rows; ++dy) {
          const int8_t* xr = x + dy * x_row;
          const int8_t* wr = w + dy * w_row;
          for (int32_t dx = 0; dx < cols; ++dx) {
            const __m128i xv = load_s8<kVecs>(xr + int64_t{dx} * ch);
            const __m128i wv = load_s8<kVecs>(wr + int64_t{dx} * ch);
            const __m128i p_lo = _mm_mullo_epi16(
                _mm_sub_epi16(widen_lo_s8(xv), zp16), widen_lo_s8(wv));
            acc[0] = _mm_add_epi32(acc[0], widen_lo_s16(p_lo));
            acc[1] = _mm_add_epi32(acc[1], widen_hi_s16(p_lo));
            if constexpr (kVecs == 4) {
              const __m128i p_hi = _mm_mullo_epi16(
                  _mm_sub_epi16(widen_hi_s8(xv), zp16), widen_hi_s8(wv));
              acc[2] = _mm_add_epi32(acc[2], widen_lo_s16(p_hi));
              acc[3] = _mm_add_epi32(acc[3], widen_hi_s16(p_hi));
            }
          }
        }
        if (simd_requant) {
          // act_min/act_max lie in int8 range, so saturating to int16 and
          // then clamping gives the same bytes as clamping the int32.
          __m128i v[4];
          for (int j = 0; j < kVecs; ++j)
            v[j] = _mm_add_epi32(requant_lanes(acc[j], rql[j]), out_zp);
          __m128i lo = _mm_packs_epi32(v[0], v[1]);
          lo = _mm_min_epi16(_mm_max_epi16(lo, act_min), act_max);
          if constexpr (kVecs == 4) {
            __m128i hi = _mm_packs_epi32(v[2], v[3]);
            hi = _mm_min_epi16(_mm_max_epi16(hi, act_min), act_max);
            _mm_storeu_si128(reinterpret_cast<__m128i*>(out_px),
                             _mm_packs_epi16(lo, hi));
          } else {
            _mm_storel_epi64(reinterpret_cast<__m128i*>(out_px),
                             _mm_packs_epi16(lo, lo));
          }
        } else {
          alignas(16) int32_t lanes[16];
          for (int j = 0; j < kVecs; ++j)
            _mm_store_si128(reinterpret_cast<__m128i*>(lanes + 4 * j), acc[j]);
          for (int l = 0; l < 4 * kVecs; ++l)
            out_px[l] = requant_store(lanes[l], rq, c + l);
        }
      });
}

// --- conv / fully connected ----------------------------------------------

// One 8-channel conv group's constants, built in scratch once per call:
// the accumulators' initial value (the bias; zero past out_ch), the SIMD
// requantization of both 4-channel halves, and whether the group may use
// it (every lane in requant_lanes' domain and the clamp inside int8).
struct GroupConsts {
  __m128i bias[2];
  RequantLanes lanes[2];
  bool simd;
};
static_assert(sizeof(GroupConsts) == kGroupConstsBytes);

// Gathers the im2col columns of output pixels [p0, p0 + np) into `cols`
// as int16 x - zp, laid out [tap pair][kPx][2]; padding taps, the odd last
// tap and pixels past np hold 0. When in_ch is a multiple of 4 every tap
// starts a pair, so 8 (or 4) channels of the kPx pixels are widened and
// transposed into place at once.
template <int kPx>
void gather_tile(const int8_t* input, const ConvGeometry& g, int32_t zp,
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
            __m128i raw;
            if (half) {
              int32_t four;
              std::memcpy(&four, src[px] + c, 4);
              raw = _mm_cvtsi32_si128(four);
            } else {
              raw = _mm_loadl_epi64(
                  reinterpret_cast<const __m128i*>(src[px] + c));
            }
            v[px] = _mm_sub_epi16(widen_lo_s8(raw), zp16);
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

// Fills `consts` for every 8-channel group of a conv layer.
void build_group_consts(std::span<const int32_t> bias, const RequantParams& rq,
                        int32_t out_ch, GroupConsts* consts) {
  const bool clamp_in_s8 = rq.act_min >= -128 && rq.act_max <= 127;
  for (int32_t oc0 = 0; oc0 < out_ch; oc0 += kPanelLanes) {
    GroupConsts* gc = new (consts + oc0 / kPanelLanes) GroupConsts{};
    alignas(16) int32_t b[kPanelLanes] = {};
    for (int32_t l = 0; l < kPanelLanes && oc0 + l < out_ch; ++l)
      b[l] = bias.empty() ? 0 : bias[static_cast<size_t>(oc0 + l)];
    gc->bias[0] = _mm_load_si128(reinterpret_cast<const __m128i*>(b));
    gc->bias[1] = _mm_load_si128(reinterpret_cast<const __m128i*>(b + 4));
    gc->simd = clamp_in_s8 && requant_lanes_for(rq, oc0, 2, out_ch, gc->lanes);
  }
}

// Accumulates a group's 8 channels (acc[px][0]: channels 0-3, [1]: 4-7)
// over every tap pair of the tile's pixels: one 16-byte panel load and
// widening per pair, then per pixel a broadcast of its int16 tap pair and
// two pmaddwd. Named accumulators keep all of them in registers.
inline void tile_mac(const int8_t* w, const int16_t* x, int64_t pairs,
                     __m128i (&acc)[1][2]) {
  __m128i lo = acc[0][0], hi = acc[0][1];
  for (int64_t j = 0; j < pairs; ++j, w += 2 * kPanelLanes, x += 2) {
    const __m128i wv = _mm_loadu_si128(reinterpret_cast<const __m128i*>(w));
    int32_t x_pair;
    std::memcpy(&x_pair, x, 4);
    const __m128i xb = _mm_set1_epi32(x_pair);
    lo = _mm_add_epi32(lo, _mm_madd_epi16(widen_lo_s8(wv), xb));
    hi = _mm_add_epi32(hi, _mm_madd_epi16(widen_hi_s8(wv), xb));
  }
  acc[0][0] = lo;
  acc[0][1] = hi;
}

inline void tile_mac(const int8_t* w, const int16_t* x, int64_t pairs,
                     __m128i (&acc)[kTilePixels][2]) {
  static_assert(kTilePixels == 4);
  __m128i a0 = acc[0][0], b0 = acc[0][1], a1 = acc[1][0], b1 = acc[1][1];
  __m128i a2 = acc[2][0], b2 = acc[2][1], a3 = acc[3][0], b3 = acc[3][1];
  for (int64_t j = 0; j < pairs; ++j, w += 2 * kPanelLanes, x += 8) {
    const __m128i wv = _mm_loadu_si128(reinterpret_cast<const __m128i*>(w));
    const __m128i w_lo = widen_lo_s8(wv);
    const __m128i w_hi = widen_hi_s8(wv);
    // The 4 pixels' tap pairs are one aligned vector of 4 int32 lanes.
    const __m128i xv = _mm_load_si128(reinterpret_cast<const __m128i*>(x));
    __m128i xb = _mm_shuffle_epi32(xv, 0x00);
    a0 = _mm_add_epi32(a0, _mm_madd_epi16(w_lo, xb));
    b0 = _mm_add_epi32(b0, _mm_madd_epi16(w_hi, xb));
    xb = _mm_shuffle_epi32(xv, 0x55);
    a1 = _mm_add_epi32(a1, _mm_madd_epi16(w_lo, xb));
    b1 = _mm_add_epi32(b1, _mm_madd_epi16(w_hi, xb));
    xb = _mm_shuffle_epi32(xv, 0xAA);
    a2 = _mm_add_epi32(a2, _mm_madd_epi16(w_lo, xb));
    b2 = _mm_add_epi32(b2, _mm_madd_epi16(w_hi, xb));
    xb = _mm_shuffle_epi32(xv, 0xFF);
    a3 = _mm_add_epi32(a3, _mm_madd_epi16(w_lo, xb));
    b3 = _mm_add_epi32(b3, _mm_madd_epi16(w_hi, xb));
  }
  acc[0][0] = a0, acc[0][1] = b0, acc[1][0] = a1, acc[1][1] = b1;
  acc[2][0] = a2, acc[2][1] = b2, acc[3][0] = a3, acc[3][1] = b3;
}

// The micro-kernel over every output pixel, kPx pixels per tile: 8 output
// channels x kPx pixels of int32 accumulators per group (kPx 4 keeps 8 of
// the 16 xmm registers for them).
template <int kPx>
void conv_tiles_sse2(const int8_t* input, const int8_t* panel,
                     int8_t* output, const GroupConsts* consts,
                     int16_t* cols, const ConvGeometry& g,
                     const RequantParams& rq) {
  const int64_t pixels = int64_t{g.out_h} * g.out_w;
  const int64_t pairs = (int64_t{g.kh} * g.kw * g.in_ch + 1) / 2;
  const int64_t group_bytes = pairs * 2 * kPanelLanes;
  const __m128i out_zp = _mm_set1_epi32(rq.output_zp);
  const __m128i act_min = _mm_set1_epi16(static_cast<int16_t>(rq.act_min));
  const __m128i act_max = _mm_set1_epi16(static_cast<int16_t>(rq.act_max));
  for (int64_t p0 = 0; p0 < pixels; p0 += kPx) {
    const int np = static_cast<int>(std::min<int64_t>(kPx, pixels - p0));
    gather_tile<kPx>(input, g, rq.input_zp, p0, np, cols);
    for (int32_t oc0 = 0; oc0 < g.out_ch; oc0 += kPanelLanes) {
      const GroupConsts& gc = consts[oc0 / kPanelLanes];
      __m128i acc[kPx][2];
      for (int px = 0; px < kPx; ++px) {
        acc[px][0] = gc.bias[0];
        acc[px][1] = gc.bias[1];
      }
      const int8_t* w = panel + oc0 / kPanelLanes * group_bytes;
      tile_mac(w, cols, pairs, acc);
      const int lanes = std::min(kPanelLanes, g.out_ch - oc0);
      int8_t* out = output + p0 * g.out_ch + oc0;
      for (int px = 0; px < np; ++px, out += g.out_ch) {
        if (gc.simd) {
          // The clamp lies in int8 range, so saturating to int16 and then
          // clamping gives the same bytes as clamping the int32.
          __m128i v = _mm_packs_epi32(
              _mm_add_epi32(requant_lanes(acc[px][0], gc.lanes[0]), out_zp),
              _mm_add_epi32(requant_lanes(acc[px][1], gc.lanes[1]), out_zp));
          v = _mm_min_epi16(_mm_max_epi16(v, act_min), act_max);
          v = _mm_packs_epi16(v, v);
          if (lanes == kPanelLanes) {
            _mm_storel_epi64(reinterpret_cast<__m128i*>(out), v);
          } else {
            alignas(16) int8_t bytes[16];
            _mm_store_si128(reinterpret_cast<__m128i*>(bytes), v);
            std::memcpy(out, bytes, static_cast<size_t>(lanes));
          }
        } else {
          alignas(16) int32_t lane_acc[kPanelLanes];
          _mm_store_si128(reinterpret_cast<__m128i*>(lane_acc), acc[px][0]);
          _mm_store_si128(reinterpret_cast<__m128i*>(lane_acc + 4),
                          acc[px][1]);
          for (int l = 0; l < lanes; ++l)
            out[l] = requant_store(lane_acc[l], rq, oc0 + l);
        }
      }
    }
  }
}
#endif  // __SSE2__

// The portable conv: the reference arithmetic over the panel, one output
// pixel and 8 channels at a time. Runs on non-SSE2 hosts, and for zero
// points outside int8 range, whose x - zp int16 columns cannot hold.
void conv_scalar(std::span<const int8_t> input, const PackedOpWeights& packed,
                 std::span<const int32_t> bias, std::span<int8_t> output,
                 const ConvGeometry& g, const RequantParams& rq) {
  const int64_t group_bytes = (packed.k + 1) / 2 * 2 * kPanelLanes;
  int8_t* out = output.data();
  for (int32_t oy = 0; oy < g.out_h; ++oy) {
    for (int32_t ox = 0; ox < g.out_w; ++ox, out += g.out_ch) {
      for (int32_t oc0 = 0; oc0 < g.out_ch; oc0 += kPanelLanes) {
        const int lanes = std::min(kPanelLanes, g.out_ch - oc0);
        const int8_t* w =
            packed.values.data() + oc0 / kPanelLanes * group_bytes;
        int32_t acc[kPanelLanes] = {};
        if (!bias.empty())
          for (int l = 0; l < lanes; ++l)
            acc[l] = bias[static_cast<size_t>(oc0 + l)];
        for (int32_t ky = 0; ky < g.kh; ++ky) {
          const int32_t iy = oy * g.stride - g.pad_h + ky;
          if (iy < 0 || iy >= g.in_h) continue;
          for (int32_t kx = 0; kx < g.kw; ++kx) {
            const int32_t ix = ox * g.stride - g.pad_w + kx;
            if (ix < 0 || ix >= g.in_w) continue;
            const int8_t* x =
                input.data() + (int64_t{iy} * g.in_w + ix) * g.in_ch;
            const int64_t t0 = (int64_t{ky} * g.kw + kx) * g.in_ch;
            for (int32_t c = 0; c < g.in_ch; ++c) {
              const int64_t t = t0 + c;
              const int8_t* wt = w + t / 2 * 2 * kPanelLanes + t % 2;
              const int32_t v = static_cast<int32_t>(x[c]) - rq.input_zp;
              for (int l = 0; l < kPanelLanes; ++l) acc[l] += v * wt[2 * l];
            }
          }
        }
        for (int l = 0; l < lanes; ++l)
          out[oc0 + l] = requant_store(acc[l], rq, oc0 + l);
      }
    }
  }
}

// Checks, counts and runs one conv (or FC, as a 1x1 conv) on the fast
// backend; `who` names the public kernel in errors.
void conv_fast(const char* who, std::span<const int8_t> input,
               const PackedOpWeights& packed, std::span<const int32_t> bias,
               std::span<int8_t> output, std::span<int8_t> scratch,
               const ConvGeometry& g, const RequantParams& rq) {
  const int64_t ksize = int64_t{g.kh} * g.kw * g.in_ch;
  check_panel(who, packed, g.out_ch, ksize);
  check_conv_buffers(who, input, packed.values, bias, output, g);
  if (static_cast<int64_t>(scratch.size()) < conv2d_fast_scratch_bytes(g))
    throw std::invalid_argument(std::string(who) + ": scratch too small");
  obs::counter_add(obs::Counter::kKernelMacs, g.macs(/*depthwise=*/false));
  obs::counter_add(obs::Counter::kKernelBytesRead,
                   g.input_elements() + int64_t{g.out_ch} * ksize);
  obs::counter_add(obs::Counter::kKernelBytesWritten, g.output_elements());
  obs::counter_add(obs::Counter::kIm2colBytes,  // int16 columns
                   2 * int64_t{g.out_h} * g.out_w * ksize);
#if defined(__SSE2__)
  if (rq.input_zp >= -128 && rq.input_zp <= 127) {
    // Scratch: 16-byte alignment slack, the group constants, the columns.
    const uintptr_t base =
        (reinterpret_cast<uintptr_t>(scratch.data()) + 15) & ~uintptr_t{15};
    auto* consts = reinterpret_cast<GroupConsts*>(base);
    auto* cols = reinterpret_cast<int16_t*>(
        base + (g.out_ch + kPanelLanes - 1) / kPanelLanes * kGroupConstsBytes);
    build_group_consts(bias, rq, g.out_ch, consts);
    if (int64_t{g.out_h} * g.out_w == 1)
      conv_tiles_sse2<1>(input.data(), packed.values.data(), output.data(),
                         consts, cols, g, rq);
    else
      conv_tiles_sse2<kTilePixels>(input.data(), packed.values.data(),
                                   output.data(), consts, cols, g, rq);
    return;
  }
#endif
  conv_scalar(input, packed, bias, output, g, rq);
}

}  // namespace

int64_t conv2d_fast_scratch_bytes(const ConvGeometry& g) {
  const int64_t groups = (g.out_ch + kPanelLanes - 1) / kPanelLanes;
  const int64_t pairs = (int64_t{g.kh} * g.kw * g.in_ch + 1) / 2;
  return 16 + groups * kGroupConstsBytes +
         pairs * 2 * kTilePixels * static_cast<int64_t>(sizeof(int16_t));
}

void conv2d_s8_fast(std::span<const int8_t> input, const PackedOpWeights& packed,
                    std::span<const int32_t> bias, std::span<int8_t> output,
                    std::span<int8_t> scratch, const ConvGeometry& g,
                    const RequantParams& rq) {
  conv_fast("conv2d_s8_fast", input, packed, bias, output, scratch, g, rq);
}

ConvGeometry fully_connected_geometry(int32_t in_features,
                                      int32_t out_features) {
  ConvGeometry g;
  g.in_h = g.in_w = g.out_h = g.out_w = g.kh = g.kw = 1;
  g.in_ch = in_features;
  g.out_ch = out_features;
  return g;
}

void fully_connected_s8_fast(std::span<const int8_t> input,
                             const PackedOpWeights& packed,
                             std::span<const int32_t> bias,
                             std::span<int8_t> output,
                             std::span<int8_t> scratch, int32_t in_features,
                             int32_t out_features, const RequantParams& rq) {
  conv_fast("fully_connected_s8_fast", input, packed, bias, output, scratch,
            fully_connected_geometry(in_features, out_features), rq);
}

void depthwise_conv2d_s8_fast(std::span<const int8_t> input,
                              std::span<const int8_t> weights,
                              std::span<const int32_t> bias,
                              std::span<int8_t> output, const ConvGeometry& g,
                              const RequantParams& rq) {
  check_depthwise_buffers("depthwise_conv2d_s8_fast", input, weights, bias,
                          output, g);
  obs::counter_add(obs::Counter::kKernelMacs, g.macs(/*depthwise=*/true));
  obs::counter_add(obs::Counter::kKernelBytesRead,
                   g.input_elements() + int64_t{g.kh} * g.kw * g.in_ch);
  obs::counter_add(obs::Counter::kKernelBytesWritten, g.output_elements());
  const int32_t ch = g.in_ch;
  int32_t c = 0;
#if defined(__SSE2__)
  // A zero point outside int8 range (never produced by the converter) would
  // break the int16 product bound; such layers take the scalar loop.
  if (rq.input_zp >= -128 && rq.input_zp <= 127) {
    for (; c + 16 <= ch; c += 16)
      depthwise_group_sse2<4>(input, weights, bias, output, g, rq, c);
    if (c + 8 <= ch) {
      depthwise_group_sse2<2>(input, weights, bias, output, g, rq, c);
      c += 8;
    }
  }
#endif
  if (c == ch) return;
  // Scalar channel tail (and the whole layer off x86): the reference
  // arithmetic over the same precomputed windows.
  const int64_t x_row = int64_t{g.in_w} * ch;
  const int64_t w_row = int64_t{g.kw} * ch;
  for_each_dw_window(
      g, input.data(), weights.data(), output.data(),
      [&](int8_t* out_px, const int8_t* x, const int8_t* w, int32_t rows,
          int32_t cols) {
        for (int32_t k = c; k < ch; ++k) {
          int32_t acc = bias.empty() ? 0 : bias[static_cast<size_t>(k)];
          for (int32_t dy = 0; dy < rows; ++dy) {
            const int8_t* xr = x + dy * x_row + k;
            const int8_t* wr = w + dy * w_row + k;
            for (int32_t dx = 0; dx < cols; ++dx)
              acc += (static_cast<int32_t>(xr[int64_t{dx} * ch]) -
                      rq.input_zp) *
                     static_cast<int32_t>(wr[int64_t{dx} * ch]);
          }
          out_px[k] = requant_store(acc, rq, k);
        }
      });
}

}  // namespace mn::kernels
