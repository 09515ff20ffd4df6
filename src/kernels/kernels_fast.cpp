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
//      requant_lanes (exact, see there) from the op's RequantTable, which
//      is prepared once per model, clamped in int16 and written
//      with one 8-byte store; a group with a lane outside requant_lanes'
//      domain, or a clamp wider than int8, requantizes through the scalar
//      primitive instead.
// A fully-connected layer is the same kernel on a 1x1 conv of one pixel,
// run with a one-pixel tile. Non-x86 hosts, and zero points outside int8
// range, run the scalar loop over the same panel — slower, byte-identical.
//
// Depthwise needs no panel: it runs channel-vectorized on the raw weights
// (see depthwise_group_sse2 for the int16 product bound) with the same
// requant_lanes and table. Add runs its three per-tensor requantizations
// through the same requant_lanes, 16 elements per pass. Pool and softmax
// have no fast kernel and fall back to the reference loops.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "kernels/backend.hpp"
#include "obs/obs.hpp"

namespace mn::kernels {

namespace {

// Output pixels per conv micro-kernel tile.
constexpr int kTilePixels = 4;

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

// So must the requant table: one group per 8 of the op's channels.
void check_requant(const char* who, const RequantTable& t, int32_t channels) {
  if (t.channels != channels ||
      static_cast<int64_t>(t.groups.size()) !=
          (int64_t{channels} + kPanelLanes - 1) / kPanelLanes)
    throw std::invalid_argument(std::string(who) +
                                ": requant table/channel mismatch");
}

// Fills lane l of `g` with multiplier m and reports whether m is in
// requant_lanes' domain (multiplier > 0, shift in [-31, 0]); a lane outside
// it keeps zero constants, and its group takes the scalar path.
bool set_requant_lane(RequantGroup& g, int l, const quant::FixedMultiplier& m) {
  if (m.multiplier <= 0 || m.shift > 0 || m.shift < -31) return false;
  const int r = -m.shift;
  const int slot = l / 4 * 4 + l % 2 * 2 + l % 4 / 2;  // lanes 0, 2, 1, 3
  g.mult[l] = m.multiplier;
  g.round[slot] =
      (uint64_t{1} << 30) + (r == 0 ? 0 : uint64_t{1} << (30 + r));
  g.count[slot] = static_cast<uint32_t>(31 + r);
  return true;
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

// The low 64 bits of `lo` and the high 64 bits of `hi` (movsd).
inline __m128i low_high(__m128i lo, __m128i hi) {
  return _mm_castpd_si128(
      _mm_move_sd(_mm_castsi128_pd(hi), _mm_castsi128_pd(lo)));
}

// multiply_by_quantized_multiplier on 4 lanes with the constants of half h
// of group `g`, exact for multipliers > 0 and shifts in [-31, 0]. Both of
// its roundings are odd-symmetric once the sign is split off: the
// saturating doubling high multiply is sign(x) * floor((|x|*M + 2^30 -
// [x < 0]) / 2^31) and the rounding right shift by r maps h to sign(h) *
// floor((|h| + 2^(r-1)) / 2^r). Nested floors compose (floor((floor(a/m) +
// c) / n) = floor((a + c*m) / (m*n))), so the two steps are one:
//   sign(x) * floor((|x|*M + 2^30 - [x < 0] + 2^(30+r)) / 2^(31+r))
// (no 2^(30+r) term at r = 0). |x| <= 2^31 and M < 2^31 keep the numerator
// below 2^63, so per lane pair it is one unsigned 32x32->64 pmuludq, the
// prepared rounding constant, the sign's -1 and a 64-bit logical shift: one
// shift when kUniform (every lane shares the count), else one per lane,
// merged by movsd. Each result is below 2^31, so the odd lanes shift back
// into place without masking.
template <bool kUniform>
inline __m128i requant_lanes(__m128i x, const RequantGroup& g, int h) {
  const __m128i s = _mm_srai_epi32(x, 31);                  // 0 or -1
  const __m128i ax = _mm_sub_epi32(_mm_xor_si128(x, s), s);  // |x| (unsigned)
  const int32_t* mult = g.mult + 4 * h;
  const auto* round = reinterpret_cast<const __m128i*>(g.round + 4 * h);
  const uint32_t* count = g.count + 4 * h;
  // Lanes 0 and 2, then 1 and 3, as 64-bit products plus their constants;
  // the shuffles sign-extend each lane's 0 / -1 to 64 bits.
  __m128i even = _mm_add_epi64(
      _mm_mul_epu32(ax,
                    _mm_load_si128(reinterpret_cast<const __m128i*>(mult))),
      _mm_add_epi64(_mm_load_si128(round),
                    _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 2, 0, 0))));
  __m128i odd = _mm_add_epi64(
      _mm_mul_epu32(_mm_srli_epi64(ax, 32),
                    _mm_loadu_si128(
                        reinterpret_cast<const __m128i*>(mult + 1))),
      _mm_add_epi64(_mm_load_si128(round + (kUniform ? 0 : 1)),
                    _mm_shuffle_epi32(s, _MM_SHUFFLE(3, 3, 1, 1))));
  const auto shift_count = [count](int slot) {
    return _mm_cvtsi32_si128(static_cast<int>(count[slot]));
  };
  if constexpr (kUniform) {
    const __m128i n = shift_count(0);
    even = _mm_srl_epi64(even, n);
    odd = _mm_srl_epi64(odd, n);
  } else {
    even = low_high(_mm_srl_epi64(even, shift_count(0)),
                    _mm_srl_epi64(even, shift_count(1)));
    odd = low_high(_mm_srl_epi64(odd, shift_count(2)),
                   _mm_srl_epi64(odd, shift_count(3)));
  }
  const __m128i r = _mm_or_si128(even, _mm_slli_epi64(odd, 32));
  return _mm_sub_epi32(_mm_xor_si128(r, s), s);
}

// Requantizes the 8 channels of group `g` (int32 lanes 0-3 in `lo`, 4-7 in
// `hi`), adds the output zero point and clamps them as int16 lanes. The
// clamp lies in int8 range (a group's `simd` says so), so saturating to
// int16 and then clamping gives the same bytes as clamping the int32.
template <bool kUniform>
inline __m128i requant8(__m128i lo, __m128i hi, const RequantGroup& g,
                        __m128i out_zp, __m128i act_min, __m128i act_max) {
  const __m128i v = _mm_packs_epi32(
      _mm_add_epi32(requant_lanes<kUniform>(lo, g, 0), out_zp),
      _mm_add_epi32(requant_lanes<kUniform>(hi, g, 1), out_zp));
  return _mm_min_epi16(_mm_max_epi16(v, act_min), act_max);
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
                          const RequantTable& t, int32_t c) {
  const RequantParams& rq = t.rq;
  const int32_t ch = g.in_ch;
  const int64_t x_row = int64_t{g.in_w} * ch;
  const int64_t w_row = int64_t{g.kw} * ch;
  const __m128i zp16 = _mm_set1_epi16(static_cast<int16_t>(rq.input_zp));
  __m128i init[4] = {};
  if (!bias.empty())
    for (int j = 0; j < kVecs; ++j)
      init[j] = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(bias.data() + c + 4 * j));
  // kVecs / 2 groups of 8 channels.
  const RequantGroup* rg = t.groups.data() + c / kPanelLanes;
  const bool simd_requant = rg[0].simd && (kVecs == 2 || rg[1].simd);
  const bool uniform = rg[0].uniform && (kVecs == 2 || rg[1].uniform);
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
          const auto store = [&](auto uniform_form) {
            constexpr bool kUniform = decltype(uniform_form)::value;
            const __m128i lo = requant8<kUniform>(acc[0], acc[1], rg[0],
                                                  out_zp, act_min, act_max);
            if constexpr (kVecs == 4) {
              const __m128i hi = requant8<kUniform>(acc[2], acc[3], rg[1],
                                                    out_zp, act_min, act_max);
              _mm_storeu_si128(reinterpret_cast<__m128i*>(out_px),
                               _mm_packs_epi16(lo, hi));
            } else {
              _mm_storel_epi64(reinterpret_cast<__m128i*>(out_px),
                               _mm_packs_epi16(lo, lo));
            }
          };
          if (uniform)
            store(std::true_type{});
          else
            store(std::false_type{});
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

// Requantizes and stores the np pixels of a tile for the group at oc0,
// `lanes` of whose 8 channels exist: one 8-byte store per pixel (a partial
// store for the last group).
template <bool kUniform, int kPx>
inline void store_tile(const __m128i (&acc)[kPx][2], int np, int lanes,
                       const RequantGroup& rg, int8_t* out, int32_t out_ch,
                       __m128i out_zp, __m128i act_min, __m128i act_max) {
  for (int px = 0; px < np; ++px, out += out_ch) {
    __m128i v = requant8<kUniform>(acc[px][0], acc[px][1], rg, out_zp,
                                   act_min, act_max);
    v = _mm_packs_epi16(v, v);
    if (lanes == kPanelLanes) {
      _mm_storel_epi64(reinterpret_cast<__m128i*>(out), v);
    } else {
      alignas(16) int8_t bytes[16];
      _mm_store_si128(reinterpret_cast<__m128i*>(bytes), v);
      std::memcpy(out, bytes, static_cast<size_t>(lanes));
    }
  }
}

// The micro-kernel over every output pixel, kPx pixels per tile: 8 output
// channels x kPx pixels of int32 accumulators per group (kPx 4 keeps 8 of
// the 16 xmm registers for them), starting at the bias.
template <int kPx>
void conv_tiles_sse2(const int8_t* input, const int8_t* panel,
                     std::span<const int32_t> bias, int8_t* output,
                     const RequantTable& t, int16_t* cols,
                     const ConvGeometry& g) {
  const RequantParams& rq = t.rq;
  const int64_t pixels = int64_t{g.out_h} * g.out_w;
  const int64_t pairs = (int64_t{g.kh} * g.kw * g.in_ch + 1) / 2;
  const int64_t group_bytes = pairs * 2 * kPanelLanes;
  const __m128i out_zp = _mm_set1_epi32(rq.output_zp);
  const __m128i act_min = _mm_set1_epi16(static_cast<int16_t>(rq.act_min));
  const __m128i act_max = _mm_set1_epi16(static_cast<int16_t>(rq.act_max));
  // Whole groups read their bias in place; a partial last group, and a
  // layer without bias, read zero-padded lanes.
  alignas(16) int32_t padded_bias[kPanelLanes] = {};
  const int32_t whole =
      bias.empty() ? 0 : g.out_ch / kPanelLanes * kPanelLanes;
  if (!bias.empty())
    std::copy(bias.begin() + whole, bias.begin() + g.out_ch, padded_bias);
  for (int64_t p0 = 0; p0 < pixels; p0 += kPx) {
    const int np = static_cast<int>(std::min<int64_t>(kPx, pixels - p0));
    gather_tile<kPx>(input, g, rq.input_zp, p0, np, cols);
    for (int32_t oc0 = 0; oc0 < g.out_ch; oc0 += kPanelLanes) {
      const RequantGroup& rg =
          t.groups[static_cast<size_t>(oc0 / kPanelLanes)];
      const int32_t* b = oc0 < whole ? bias.data() + oc0 : padded_bias;
      const __m128i b_lo =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
      const __m128i b_hi =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + 4));
      __m128i acc[kPx][2];
      for (int px = 0; px < kPx; ++px) {
        acc[px][0] = b_lo;
        acc[px][1] = b_hi;
      }
      const int8_t* w = panel + oc0 / kPanelLanes * group_bytes;
      tile_mac(w, cols, pairs, acc);
      const int lanes = std::min(kPanelLanes, g.out_ch - oc0);
      int8_t* out = output + p0 * g.out_ch + oc0;
      if (!rg.simd) {
        for (int px = 0; px < np; ++px, out += g.out_ch) {
          alignas(16) int32_t lane_acc[kPanelLanes];
          _mm_store_si128(reinterpret_cast<__m128i*>(lane_acc), acc[px][0]);
          _mm_store_si128(reinterpret_cast<__m128i*>(lane_acc + 4),
                          acc[px][1]);
          for (int l = 0; l < lanes; ++l)
            out[l] = requant_store(lane_acc[l], rq, oc0 + l);
        }
      } else if (rg.uniform) {
        store_tile<true>(acc, np, lanes, rg, out, g.out_ch, out_zp, act_min,
                         act_max);
      } else {
        store_tile<false>(acc, np, lanes, rg, out, g.out_ch, out_zp, act_min,
                          act_max);
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
               const ConvGeometry& g, const RequantTable& t) {
  const int64_t ksize = int64_t{g.kh} * g.kw * g.in_ch;
  check_panel(who, packed, g.out_ch, ksize);
  check_requant(who, t, g.out_ch);
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
  if (t.rq.input_zp >= -128 && t.rq.input_zp <= 127) {
    // Scratch: 16-byte alignment slack, then the columns.
    auto* cols = reinterpret_cast<int16_t*>(
        (reinterpret_cast<uintptr_t>(scratch.data()) + 15) & ~uintptr_t{15});
    if (int64_t{g.out_h} * g.out_w == 1)
      conv_tiles_sse2<1>(input.data(), packed.values.data(), bias,
                         output.data(), t, cols, g);
    else
      conv_tiles_sse2<kTilePixels>(input.data(), packed.values.data(), bias,
                                   output.data(), t, cols, g);
    return;
  }
#endif
  conv_scalar(input, packed, bias, output, g, t.rq);
}

}  // namespace

RequantTable prepare_requant(RequantParams rq, int32_t channels) {
  if (channels < 0 || (!rq.per_channel.empty() &&
                       static_cast<int64_t>(rq.per_channel.size()) < channels))
    throw std::invalid_argument(
        "prepare_requant: fewer multipliers than channels");
  const bool clamp_in_s8 = rq.act_min >= -128 && rq.act_max <= 127;
  RequantTable t;
  t.channels = channels;
  t.groups.resize(
      static_cast<size_t>((channels + kPanelLanes - 1) / kPanelLanes));
  for (size_t gi = 0; gi < t.groups.size(); ++gi) {
    RequantGroup& rg = t.groups[gi];
    const int32_t oc0 = static_cast<int32_t>(gi) * kPanelLanes;
    rg.simd = clamp_in_s8;
    rg.uniform = true;
    for (int l = 0; l < kPanelLanes && oc0 + l < channels; ++l) {
      const quant::FixedMultiplier& m = rq.channel_mult(oc0 + l);
      rg.simd = set_requant_lane(rg, l, m) && rg.simd;
      rg.uniform = rg.uniform && m.shift == rq.channel_mult(oc0).shift;
    }
  }
  t.rq = std::move(rq);
  return t;
}

AddRequantTable prepare_add_requant(const AddParams& p) {
  const auto in_s8 = [](int32_t v) { return v >= -128 && v <= 127; };
  bool simd = in_s8(p.a_zp) && in_s8(p.b_zp) && in_s8(p.out_zp) &&
              in_s8(p.act_min) && in_s8(p.act_max) && p.left_shift >= 0 &&
              p.left_shift <= 22;
  AddRequantTable t{p, std::vector<RequantGroup>(3)};
  const quant::FixedMultiplier* mults[] = {&p.a_mult, &p.b_mult, &p.out_mult};
  for (size_t i = 0; i < 3; ++i)
    for (int l = 0; l < kPanelLanes; ++l)
      simd = set_requant_lane(t.groups[i], l, *mults[i]) && simd;
  for (RequantGroup& rg : t.groups) {
    rg.simd = simd;
    rg.uniform = true;
  }
  return t;
}

int64_t conv2d_fast_scratch_bytes(const ConvGeometry& g) {
  const int64_t pairs = (int64_t{g.kh} * g.kw * g.in_ch + 1) / 2;
  return 16 + pairs * 2 * kTilePixels * static_cast<int64_t>(sizeof(int16_t));
}

void conv2d_s8_fast(std::span<const int8_t> input, const PackedOpWeights& packed,
                    std::span<const int32_t> bias, std::span<int8_t> output,
                    std::span<int8_t> scratch, const ConvGeometry& g,
                    const RequantTable& rq) {
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
                             int32_t out_features, const RequantTable& rq) {
  conv_fast("fully_connected_s8_fast", input, packed, bias, output, scratch,
            fully_connected_geometry(in_features, out_features), rq);
}

void depthwise_conv2d_s8_fast(std::span<const int8_t> input,
                              std::span<const int8_t> weights,
                              std::span<const int32_t> bias,
                              std::span<int8_t> output, const ConvGeometry& g,
                              const RequantTable& t) {
  check_depthwise_buffers("depthwise_conv2d_s8_fast", input, weights, bias,
                          output, g);
  check_requant("depthwise_conv2d_s8_fast", t, g.out_ch);
  const RequantParams& rq = t.rq;
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
      depthwise_group_sse2<4>(input, weights, bias, output, g, t, c);
    if (c + 8 <= ch) {
      depthwise_group_sse2<2>(input, weights, bias, output, g, t, c);
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

void add_s8_fast(std::span<const int8_t> a, std::span<const int8_t> b,
                 std::span<int8_t> output, const AddRequantTable& t) {
  if (a.size() != b.size() || a.size() != output.size())
    throw std::invalid_argument("add_s8_fast: size mismatch");
  if (t.groups.size() != 3)
    throw std::invalid_argument("add_s8_fast: not a prepared add table");
  const AddParams& p = t.p;
  size_t i = 0;
#if defined(__SSE2__)
  const RequantGroup& ra = t.groups[0];
  const RequantGroup& rb = t.groups[1];
  const RequantGroup& rsum = t.groups[2];
  if (ra.simd) {
    // Per 16 elements: x - zp in int16 (|x - zp| <= 255), widened to int32
    // and shifted left (< 2^31 for left_shift <= 22), each input
    // requantized, the two summed (no overflow, see prepare_add_requant)
    // and the sum requantized, offset and clamped like every other output.
    const __m128i a_zp = _mm_set1_epi16(static_cast<int16_t>(p.a_zp));
    const __m128i b_zp = _mm_set1_epi16(static_cast<int16_t>(p.b_zp));
    const __m128i left = _mm_cvtsi32_si128(p.left_shift);
    const __m128i out_zp = _mm_set1_epi32(p.out_zp);
    const __m128i act_min = _mm_set1_epi16(static_cast<int16_t>(p.act_min));
    const __m128i act_max = _mm_set1_epi16(static_cast<int16_t>(p.act_max));
    const auto rescaled = [&](__m128i v16, const RequantGroup& g) {
      return std::pair{
          requant_lanes<true>(_mm_sll_epi32(widen_lo_s16(v16), left), g, 0),
          requant_lanes<true>(_mm_sll_epi32(widen_hi_s16(v16), left), g, 0)};
    };
    const auto sum8 = [&](__m128i a16, __m128i b16) {
      const auto [a_lo, a_hi] = rescaled(a16, ra);
      const auto [b_lo, b_hi] = rescaled(b16, rb);
      return requant8<true>(_mm_add_epi32(a_lo, b_lo),
                            _mm_add_epi32(a_hi, b_hi), rsum, out_zp, act_min,
                            act_max);
    };
    for (; i + 16 <= a.size(); i += 16) {
      const __m128i va = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(a.data() + i));
      const __m128i vb = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(b.data() + i));
      const __m128i lo = sum8(_mm_sub_epi16(widen_lo_s8(va), a_zp),
                              _mm_sub_epi16(widen_lo_s8(vb), b_zp));
      const __m128i hi = sum8(_mm_sub_epi16(widen_hi_s8(va), a_zp),
                              _mm_sub_epi16(widen_hi_s8(vb), b_zp));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(output.data() + i),
                       _mm_packs_epi16(lo, hi));
    }
    obs::counter_add(obs::Counter::kKernelBytesRead,
                     2 * static_cast<int64_t>(i));
    obs::counter_add(obs::Counter::kKernelBytesWritten,
                     static_cast<int64_t>(i));
  }
#endif
  // The tail, a call outside the SIMD domain and non-x86 hosts: the oracle
  // itself, which also counts the bytes it streams.
  if (i < a.size())
    add_s8(a.subspan(i), b.subspan(i), output.subspan(i), p);
}

}  // namespace mn::kernels
