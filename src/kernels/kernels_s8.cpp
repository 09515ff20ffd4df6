#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "kernels/kernels.hpp"
#include "obs/obs.hpp"
#include "parallel/pool.hpp"

namespace mn::kernels {

namespace {

int8_t requantize(int32_t acc, const RequantParams& rq, int32_t oc) {
  int32_t v = quant::multiply_by_quantized_multiplier(acc, rq.channel_mult(oc)) + rq.output_zp;
  v = std::clamp(v, rq.act_min, rq.act_max);
  return static_cast<int8_t>(v);
}

}  // namespace

void conv2d_s8(std::span<const int8_t> input, std::span<const int8_t> weights,
               std::span<const int32_t> bias, std::span<int8_t> output,
               const ConvGeometry& g, const RequantParams& rq) {
  if (static_cast<int64_t>(input.size()) < g.input_elements() ||
      static_cast<int64_t>(output.size()) < g.output_elements())
    throw std::invalid_argument("conv2d_s8: buffer too small");
  const int64_t ksize = int64_t{g.kh} * g.kw * g.in_ch;
  obs::counter_add(obs::Counter::kKernelMacs, g.macs(/*depthwise=*/false));
  obs::counter_add(obs::Counter::kKernelBytesRead,
                   g.input_elements() + int64_t{g.out_ch} * ksize);
  obs::counter_add(obs::Counter::kKernelBytesWritten, g.output_elements());
  // Output rows are disjoint (and integer arithmetic is order-free), so the
  // row loop parallelizes with exact-match results at any thread count.
  parallel::parallel_for(0, g.out_h, [&](int64_t oy_lo, int64_t oy_hi) {
  for (int32_t oy = static_cast<int32_t>(oy_lo); oy < oy_hi; ++oy) {
    for (int32_t ox = 0; ox < g.out_w; ++ox) {
      const int32_t iy0 = oy * g.stride - g.pad_h;
      const int32_t ix0 = ox * g.stride - g.pad_w;
      int8_t* out_px = output.data() + (int64_t{oy} * g.out_w + ox) * g.out_ch;
      for (int32_t oc = 0; oc < g.out_ch; ++oc) {
        const int8_t* wr = weights.data() + oc * ksize;
        int32_t acc = bias.empty() ? 0 : bias[static_cast<size_t>(oc)];
        for (int32_t ky = 0; ky < g.kh; ++ky) {
          const int32_t iy = iy0 + ky;
          if (iy < 0 || iy >= g.in_h) continue;
          for (int32_t kx = 0; kx < g.kw; ++kx) {
            const int32_t ix = ix0 + kx;
            if (ix < 0 || ix >= g.in_w) continue;
            const int8_t* xr = input.data() + (int64_t{iy} * g.in_w + ix) * g.in_ch;
            const int8_t* wk = wr + (int64_t{ky} * g.kw + kx) * g.in_ch;
            for (int32_t ic = 0; ic < g.in_ch; ++ic)
              acc += (static_cast<int32_t>(xr[ic]) - rq.input_zp) *
                     static_cast<int32_t>(wk[ic]);
          }
        }
        out_px[oc] = requantize(acc, rq, oc);
      }
    }
  }
  });
}

void check_depthwise_buffers(const char* who, std::span<const int8_t> input,
                             std::span<const int8_t> weights,
                             std::span<const int32_t> bias,
                             std::span<const int8_t> output,
                             const ConvGeometry& g) {
  if (g.in_ch != g.out_ch)
    throw std::invalid_argument(std::string(who) + ": in_ch != out_ch");
  if (static_cast<int64_t>(input.size()) < g.input_elements() ||
      static_cast<int64_t>(weights.size()) < int64_t{g.kh} * g.kw * g.in_ch ||
      (!bias.empty() && static_cast<int64_t>(bias.size()) < g.out_ch) ||
      static_cast<int64_t>(output.size()) < g.output_elements())
    throw std::invalid_argument(std::string(who) + ": buffer too small");
}

void depthwise_conv2d_s8(std::span<const int8_t> input,
                         std::span<const int8_t> weights,
                         std::span<const int32_t> bias, std::span<int8_t> output,
                         const ConvGeometry& g, const RequantParams& rq) {
  check_depthwise_buffers("depthwise_conv2d_s8", input, weights, bias, output,
                          g);
  obs::counter_add(obs::Counter::kKernelMacs, g.macs(/*depthwise=*/true));
  obs::counter_add(obs::Counter::kKernelBytesRead,
                   g.input_elements() + int64_t{g.kh} * g.kw * g.in_ch);
  obs::counter_add(obs::Counter::kKernelBytesWritten, g.output_elements());
  parallel::parallel_for(0, g.out_h, [&](int64_t oy_lo, int64_t oy_hi) {
  for (int32_t oy = static_cast<int32_t>(oy_lo); oy < oy_hi; ++oy) {
    for (int32_t ox = 0; ox < g.out_w; ++ox) {
      const int32_t iy0 = oy * g.stride - g.pad_h;
      const int32_t ix0 = ox * g.stride - g.pad_w;
      int8_t* out_px = output.data() + (int64_t{oy} * g.out_w + ox) * g.out_ch;
      for (int32_t c = 0; c < g.out_ch; ++c) {
        int32_t acc = bias.empty() ? 0 : bias[static_cast<size_t>(c)];
        for (int32_t ky = 0; ky < g.kh; ++ky) {
          const int32_t iy = iy0 + ky;
          if (iy < 0 || iy >= g.in_h) continue;
          for (int32_t kx = 0; kx < g.kw; ++kx) {
            const int32_t ix = ix0 + kx;
            if (ix < 0 || ix >= g.in_w) continue;
            const int8_t x = input[(int64_t{iy} * g.in_w + ix) * g.in_ch + c];
            const int8_t w = weights[(int64_t{ky} * g.kw + kx) * g.in_ch + c];
            acc += (static_cast<int32_t>(x) - rq.input_zp) * static_cast<int32_t>(w);
          }
        }
        out_px[c] = requantize(acc, rq, c);
      }
    }
  }
  });
}

void fully_connected_s8(std::span<const int8_t> input,
                        std::span<const int8_t> weights,
                        std::span<const int32_t> bias, std::span<int8_t> output,
                        int32_t in_features, int32_t out_features,
                        const RequantParams& rq) {
  obs::counter_add(obs::Counter::kKernelMacs,
                   int64_t{in_features} * out_features);
  obs::counter_add(obs::Counter::kKernelBytesRead,
                   in_features + int64_t{in_features} * out_features);
  obs::counter_add(obs::Counter::kKernelBytesWritten, out_features);
  // Each output feature is an independent dot product; grain keeps tiny
  // classifier heads from paying dispatch overhead per feature.
  parallel::parallel_for(
      0, out_features,
      [&](int64_t o_lo, int64_t o_hi) {
        for (int32_t o = static_cast<int32_t>(o_lo); o < o_hi; ++o) {
          const int8_t* wr = weights.data() + int64_t{o} * in_features;
          int32_t acc = bias.empty() ? 0 : bias[static_cast<size_t>(o)];
          for (int32_t i = 0; i < in_features; ++i)
            acc += (static_cast<int32_t>(input[static_cast<size_t>(i)]) -
                    rq.input_zp) *
                   static_cast<int32_t>(wr[i]);
          output[static_cast<size_t>(o)] = requantize(acc, rq, o);
        }
      },
      /*grain=*/16);
}

void avg_pool_s8(std::span<const int8_t> input, std::span<int8_t> output,
                 const PoolGeometry& g, int32_t act_min, int32_t act_max) {
  obs::counter_add(obs::Counter::kKernelBytesRead,
                   int64_t{g.in_h} * g.in_w * g.ch);
  obs::counter_add(obs::Counter::kKernelBytesWritten,
                   int64_t{g.out_h} * g.out_w * g.ch);
  for (int32_t oy = 0; oy < g.out_h; ++oy) {
    for (int32_t ox = 0; ox < g.out_w; ++ox) {
      int8_t* out_px = output.data() + (int64_t{oy} * g.out_w + ox) * g.ch;
      for (int32_t c = 0; c < g.ch; ++c) {
        int32_t acc = 0, count = 0;
        for (int32_t ky = 0; ky < g.kh; ++ky) {
          const int32_t iy = oy * g.stride - g.pad_h + ky;
          if (iy < 0 || iy >= g.in_h) continue;
          for (int32_t kx = 0; kx < g.kw; ++kx) {
            const int32_t ix = ox * g.stride - g.pad_w + kx;
            if (ix < 0 || ix >= g.in_w) continue;
            acc += input[(int64_t{iy} * g.in_w + ix) * g.ch + c];
            ++count;
          }
        }
        int32_t v = count > 0
                        ? (acc > 0 ? (acc + count / 2) / count : (acc - count / 2) / count)
                        : 0;
        v = std::clamp(v, act_min, act_max);
        out_px[c] = static_cast<int8_t>(v);
      }
    }
  }
}

void max_pool_s8(std::span<const int8_t> input, std::span<int8_t> output,
                 const PoolGeometry& g, int32_t act_min, int32_t act_max) {
  obs::counter_add(obs::Counter::kKernelBytesRead,
                   int64_t{g.in_h} * g.in_w * g.ch);
  obs::counter_add(obs::Counter::kKernelBytesWritten,
                   int64_t{g.out_h} * g.out_w * g.ch);
  for (int32_t oy = 0; oy < g.out_h; ++oy) {
    for (int32_t ox = 0; ox < g.out_w; ++ox) {
      int8_t* out_px = output.data() + (int64_t{oy} * g.out_w + ox) * g.ch;
      for (int32_t c = 0; c < g.ch; ++c) {
        int32_t best = -128;
        for (int32_t ky = 0; ky < g.kh; ++ky) {
          const int32_t iy = oy * g.stride - g.pad_h + ky;
          if (iy < 0 || iy >= g.in_h) continue;
          for (int32_t kx = 0; kx < g.kw; ++kx) {
            const int32_t ix = ox * g.stride - g.pad_w + kx;
            if (ix < 0 || ix >= g.in_w) continue;
            best = std::max<int32_t>(best, input[(int64_t{iy} * g.in_w + ix) * g.ch + c]);
          }
        }
        out_px[c] = static_cast<int8_t>(std::clamp(best, act_min, act_max));
      }
    }
  }
}

void add_s8(std::span<const int8_t> a, std::span<const int8_t> b,
            std::span<int8_t> output, const AddParams& p) {
  if (a.size() != b.size() || a.size() != output.size())
    throw std::invalid_argument("add_s8: size mismatch");
  obs::counter_add(obs::Counter::kKernelBytesRead,
                   static_cast<int64_t>(a.size() + b.size()));
  obs::counter_add(obs::Counter::kKernelBytesWritten,
                   static_cast<int64_t>(output.size()));
  for (size_t i = 0; i < a.size(); ++i) {
    const int32_t sa = (static_cast<int32_t>(a[i]) - p.a_zp) << p.left_shift;
    const int32_t sb = (static_cast<int32_t>(b[i]) - p.b_zp) << p.left_shift;
    const int32_t ra = quant::multiply_by_quantized_multiplier(sa, p.a_mult);
    const int32_t rb = quant::multiply_by_quantized_multiplier(sb, p.b_mult);
    int32_t v = quant::multiply_by_quantized_multiplier(ra + rb, p.out_mult) + p.out_zp;
    v = std::clamp(v, p.act_min, p.act_max);
    output[i] = static_cast<int8_t>(v);
  }
}

void softmax_s8(std::span<const int8_t> input, std::span<int8_t> output,
                int32_t rows, int32_t cols, float input_scale) {
  // Float-internal softmax quantized to the TFLite convention
  // (scale 1/256, zero point -128).
  obs::counter_add(obs::Counter::kKernelBytesRead, int64_t{rows} * cols);
  obs::counter_add(obs::Counter::kKernelBytesWritten, int64_t{rows} * cols);
  for (int32_t r = 0; r < rows; ++r) {
    const int8_t* in = input.data() + int64_t{r} * cols;
    int8_t* out = output.data() + int64_t{r} * cols;
    int8_t mx = in[0];
    for (int32_t c = 1; c < cols; ++c) mx = std::max(mx, in[c]);
    double sum = 0.0;
    for (int32_t c = 0; c < cols; ++c)
      sum += std::exp(static_cast<double>(input_scale) * (in[c] - mx));
    for (int32_t c = 0; c < cols; ++c) {
      const double pv = std::exp(static_cast<double>(input_scale) * (in[c] - mx)) / sum;
      const int32_t q = static_cast<int32_t>(std::lround(pv * 256.0)) - 128;
      out[c] = static_cast<int8_t>(std::clamp(q, -128, 127));
    }
  }
}

}  // namespace mn::kernels
