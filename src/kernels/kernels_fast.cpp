// Fast-backend kernels: cache-blocked im2col-GEMM over weight panels packed
// at model-load time (see backend.hpp for the layout and the bit-exactness
// contract).
//
// Three ingredients, each exact in integer arithmetic:
//   1. Zero-point folding. The reference inner loop computes
//      sum((x - zp) * w); the packed panel carries sum(w) per row, so the
//      loop runs the plain dot sum(x * w) and the initializer absorbs
//      -zp * sum(w). Same int32 value, one subtraction fewer per MAC.
//   2. Pixel-block cache blocking. A block of kConvPixelBlock im2col columns
//      is gathered once, then every weight row is streamed once *per block*
//      instead of once per output pixel — an out_ch x block GEMM tile.
//   3. SSE2 pmaddwd dot products on x86-64 (sign-extend int8 lanes to
//      int16, multiply-accumulate pairs into int32). Integer SIMD wraps
//      exactly like scalar int32 arithmetic, so reassociating the
//      accumulation order cannot change the result. Non-x86 hosts take the
//      unrolled scalar path below — slower, still byte-identical.
//
// Depthwise needs none of the three: it runs channel-vectorized on the raw
// weights (see depthwise_group_sse2 for the int16 product bound and
// requant_lanes for the exact SIMD requantization).
#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "kernels/backend.hpp"
#include "obs/obs.hpp"
#include "parallel/pool.hpp"

namespace mn::kernels {

namespace {

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

// Exact dot product of two int8 rows. `n` may exceed the logically valid
// prefix only when both tails are zero-padded (packed rows / padded columns).
inline int32_t dot_s8(const int8_t* x, const int8_t* w, int64_t n) {
#if defined(__SSE2__)
  __m128i acc = _mm_setzero_si128();
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i xv =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + i));
    const __m128i wv =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + i));
    // Products of int16 pairs summed into int32 lanes: exact.
    acc = _mm_add_epi32(acc, _mm_madd_epi16(widen_lo_s8(xv), widen_lo_s8(wv)));
    acc = _mm_add_epi32(acc, _mm_madd_epi16(widen_hi_s8(xv), widen_hi_s8(wv)));
  }
  alignas(16) int32_t lanes[4];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), acc);
  int32_t s = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) s += static_cast<int32_t>(x[i]) * w[i];
  return s;
#else
  int32_t s = 0;
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s += static_cast<int32_t>(x[i]) * w[i];
    s += static_cast<int32_t>(x[i + 1]) * w[i + 1];
    s += static_cast<int32_t>(x[i + 2]) * w[i + 2];
    s += static_cast<int32_t>(x[i + 3]) * w[i + 3];
  }
  for (; i < n; ++i) s += static_cast<int32_t>(x[i]) * w[i];
  return s;
#endif
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
// of them is in requant_lanes' exact domain.
inline bool requant_lanes_for(const RequantParams& rq, int32_t c, int n,
                              RequantLanes* lanes) {
  for (int j = 0; j < n; ++j) {
    alignas(16) int32_t mult[4], round[4], scale[4];
    for (int l = 0; l < 4; ++l) {
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
                            requant_lanes_for(rq, c, kVecs, rql);
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
#endif  // __SSE2__

}  // namespace

int64_t conv2d_fast_scratch_bytes(const ConvGeometry& g) {
  const int64_t ksize = int64_t{g.kh} * g.kw * g.in_ch;
  const int64_t stride = (ksize + kPackAlign - 1) / kPackAlign * kPackAlign;
  return int64_t{kConvPixelBlock} * stride;
}

void conv2d_s8_fast(std::span<const int8_t> input, const PackedOpWeights& packed,
                    std::span<const int32_t> bias, std::span<int8_t> output,
                    std::span<int8_t> scratch, const ConvGeometry& g,
                    const RequantParams& rq) {
  const int64_t ksize = int64_t{g.kh} * g.kw * g.in_ch;
  if (packed.row_len != ksize || packed.num_rows != g.out_ch)
    throw std::invalid_argument("conv2d_s8_fast: packed panel/geometry mismatch");
  if (static_cast<int64_t>(input.size()) < g.input_elements() ||
      static_cast<int64_t>(output.size()) < g.output_elements())
    throw std::invalid_argument("conv2d_s8_fast: buffer too small");
  if (static_cast<int64_t>(scratch.size()) < conv2d_fast_scratch_bytes(g))
    throw std::invalid_argument("conv2d_s8_fast: scratch too small");
  const int64_t row_stride = packed.row_stride;
  obs::counter_add(obs::Counter::kKernelMacs, g.macs(/*depthwise=*/false));
  obs::counter_add(obs::Counter::kKernelBytesRead,
                   g.input_elements() + int64_t{g.out_ch} * ksize);
  obs::counter_add(obs::Counter::kKernelBytesWritten, g.output_elements());
  obs::counter_add(obs::Counter::kIm2colBytes,
                   int64_t{g.out_h} * g.out_w * ksize);
  // Padding slots hold the raw zero point (the loop dots x*w directly; the
  // -zp*sum_w initializer turns that contribution into exactly zero).
  const int8_t pad_value =
      static_cast<int8_t>(std::clamp<int32_t>(rq.input_zp, -128, 127));
  const int64_t chunks = parallel::num_chunks(g.out_h, /*grain=*/1);
  parallel::for_chunks(chunks, [&](int64_t chunk) {
    const parallel::Range rows = parallel::chunk_range(g.out_h, chunks, chunk);
    std::vector<int8_t> local;
    int8_t* block = scratch.data();
    if (chunks > 1) {
      local.resize(static_cast<size_t>(conv2d_fast_scratch_bytes(g)));
      block = local.data();
    }
    for (int32_t oy = static_cast<int32_t>(rows.begin);
         oy < static_cast<int32_t>(rows.end); ++oy) {
      const int32_t iy0 = oy * g.stride - g.pad_h;
      for (int32_t ox0 = 0; ox0 < g.out_w; ox0 += kConvPixelBlock) {
        const int32_t np = std::min<int32_t>(kConvPixelBlock, g.out_w - ox0);
        // Gather np im2col columns into the block; zero each column's pad
        // tail so the SIMD loop can run over the full padded stride (zero
        // weights times anything is zero, but a shared scratch may hold
        // another op's bytes there).
        for (int32_t p = 0; p < np; ++p) {
          int8_t* col = block + int64_t{p} * row_stride;
          const int32_t ix0 = (ox0 + p) * g.stride - g.pad_w;
          for (int32_t ky = 0; ky < g.kh; ++ky) {
            const int32_t iy = iy0 + ky;
            for (int32_t kx = 0; kx < g.kw; ++kx) {
              const int32_t ix = ix0 + kx;
              if (iy < 0 || iy >= g.in_h || ix < 0 || ix >= g.in_w) {
                std::memset(col, pad_value, static_cast<size_t>(g.in_ch));
              } else {
                std::memcpy(
                    col, input.data() + (int64_t{iy} * g.in_w + ix) * g.in_ch,
                    static_cast<size_t>(g.in_ch));
              }
              col += g.in_ch;
            }
          }
          std::memset(col, 0, static_cast<size_t>(row_stride - ksize));
        }
        // GEMM tile: stream each packed weight row once across the block.
        int8_t* out_base =
            output.data() + (int64_t{oy} * g.out_w + ox0) * g.out_ch;
        for (int32_t oc = 0; oc < g.out_ch; ++oc) {
          const int8_t* wr = packed.rows.data() + int64_t{oc} * row_stride;
          const int32_t init =
              (bias.empty() ? 0 : bias[static_cast<size_t>(oc)]) -
              rq.input_zp * packed.sum_w[static_cast<size_t>(oc)];
          for (int32_t p = 0; p < np; ++p) {
            const int32_t acc =
                init + dot_s8(block + int64_t{p} * row_stride, wr, row_stride);
            out_base[int64_t{p} * g.out_ch + oc] = requant_store(acc, rq, oc);
          }
        }
      }
    }
  });
}

void fully_connected_s8_fast(std::span<const int8_t> input,
                             const PackedOpWeights& packed,
                             std::span<const int32_t> bias,
                             std::span<int8_t> output, int32_t in_features,
                             int32_t out_features, const RequantParams& rq) {
  if (packed.row_len != in_features || packed.num_rows != out_features)
    throw std::invalid_argument(
        "fully_connected_s8_fast: packed panel/geometry mismatch");
  obs::counter_add(obs::Counter::kKernelMacs,
                   int64_t{in_features} * out_features);
  obs::counter_add(obs::Counter::kKernelBytesRead,
                   in_features + int64_t{in_features} * out_features);
  obs::counter_add(obs::Counter::kKernelBytesWritten, out_features);
  // The input is the caller's span (no padded copy), so the dot runs over
  // in_features and takes the scalar tail; packed rows store the real
  // weights in their first row_len bytes.
  parallel::parallel_for(
      0, out_features,
      [&](int64_t o_lo, int64_t o_hi) {
        for (int32_t o = static_cast<int32_t>(o_lo); o < o_hi; ++o) {
          const int8_t* wr =
              packed.rows.data() + int64_t{o} * packed.row_stride;
          const int32_t init =
              (bias.empty() ? 0 : bias[static_cast<size_t>(o)]) -
              rq.input_zp * packed.sum_w[static_cast<size_t>(o)];
          const int32_t acc = init + dot_s8(input.data(), wr, in_features);
          output[static_cast<size_t>(o)] = requant_store(acc, rq, o);
        }
      },
      /*grain=*/16);
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
