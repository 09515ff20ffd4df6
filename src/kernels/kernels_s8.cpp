#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "kernels/kernels.hpp"

namespace mn::kernels {

namespace {

int8_t requantize(int32_t acc, const RequantParams& rq, int32_t oc) {
  int32_t v = quant::multiply_by_quantized_multiplier(acc, rq.channel_mult(oc)) + rq.output_zp;
  v = std::clamp(v, rq.act_min, rq.act_max);
  return static_cast<int8_t>(v);
}

bool shorter(size_t size, int64_t needed) {
  return static_cast<int64_t>(size) < needed;
}

}  // namespace

void check_conv_buffers(const char* who, std::span<const int8_t> input,
                        std::span<const int8_t> weights,
                        std::span<const int32_t> bias,
                        std::span<const int8_t> output, const ConvGeometry& g) {
  if (shorter(input.size(), g.input_elements()) ||
      shorter(weights.size(), int64_t{g.out_ch} * g.kh * g.kw * g.in_ch) ||
      (!bias.empty() && shorter(bias.size(), g.out_ch)) ||
      shorter(output.size(), g.output_elements()))
    throw std::invalid_argument(std::string(who) + ": buffer too small");
}

void conv2d_s8(std::span<const int8_t> input, std::span<const int8_t> weights,
               std::span<const int32_t> bias, std::span<int8_t> output,
               const ConvGeometry& g, const RequantParams& rq) {
  check_conv_buffers("conv2d_s8", input, weights, bias, output, g);
  const int64_t ksize = int64_t{g.kh} * g.kw * g.in_ch;
  for (int32_t oy = 0; oy < g.out_h; ++oy) {
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
}

void check_depthwise_buffers(const char* who, std::span<const int8_t> input,
                             std::span<const int8_t> weights,
                             std::span<const int32_t> bias,
                             std::span<const int8_t> output,
                             const ConvGeometry& g) {
  if (g.in_ch != g.out_ch)
    throw std::invalid_argument(std::string(who) + ": in_ch != out_ch");
  if (shorter(input.size(), g.input_elements()) ||
      shorter(weights.size(), int64_t{g.kh} * g.kw * g.in_ch) ||
      (!bias.empty() && shorter(bias.size(), g.out_ch)) ||
      shorter(output.size(), g.output_elements()))
    throw std::invalid_argument(std::string(who) + ": buffer too small");
}

void depthwise_conv2d_s8(std::span<const int8_t> input,
                         std::span<const int8_t> weights,
                         std::span<const int32_t> bias, std::span<int8_t> output,
                         const ConvGeometry& g, const RequantParams& rq) {
  check_depthwise_buffers("depthwise_conv2d_s8", input, weights, bias, output,
                          g);
  for (int32_t oy = 0; oy < g.out_h; ++oy) {
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
}

void check_fc_buffers(const char* who, std::span<const int8_t> input,
                      std::span<const int8_t> weights,
                      std::span<const int32_t> bias,
                      std::span<const int8_t> output, int32_t in_features,
                      int32_t out_features) {
  if (shorter(input.size(), in_features) ||
      shorter(weights.size(), int64_t{in_features} * out_features) ||
      (!bias.empty() && shorter(bias.size(), out_features)) ||
      shorter(output.size(), out_features))
    throw std::invalid_argument(std::string(who) + ": buffer too small");
}

void fully_connected_s8(std::span<const int8_t> input,
                        std::span<const int8_t> weights,
                        std::span<const int32_t> bias, std::span<int8_t> output,
                        int32_t in_features, int32_t out_features,
                        const RequantParams& rq) {
  check_fc_buffers("fully_connected_s8", input, weights, bias, output,
                   in_features, out_features);
  for (int32_t o = 0; o < out_features; ++o) {
    const int8_t* wr = weights.data() + int64_t{o} * in_features;
    int32_t acc = bias.empty() ? 0 : bias[static_cast<size_t>(o)];
    for (int32_t i = 0; i < in_features; ++i)
      acc += (static_cast<int32_t>(input[static_cast<size_t>(i)]) -
              rq.input_zp) *
             static_cast<int32_t>(wr[i]);
    output[static_cast<size_t>(o)] = requantize(acc, rq, o);
  }
}

void check_io_buffers(const char* who, std::span<const int8_t> input,
                      int64_t in_elements, std::span<const int8_t> output,
                      int64_t out_elements) {
  if (shorter(input.size(), in_elements) || shorter(output.size(), out_elements))
    throw std::invalid_argument(std::string(who) + ": buffer too small");
}

void avg_pool_s8(std::span<const int8_t> input, std::span<int8_t> output,
                 const PoolGeometry& g, int32_t act_min, int32_t act_max) {
  check_io_buffers("avg_pool_s8", input, int64_t{g.in_h} * g.in_w * g.ch,
                   output, int64_t{g.out_h} * g.out_w * g.ch);
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
  check_io_buffers("max_pool_s8", input, int64_t{g.in_h} * g.in_w * g.ch,
                   output, int64_t{g.out_h} * g.out_w * g.ch);
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
  check_io_buffers("softmax_s8", input, int64_t{rows} * cols, output,
                   int64_t{rows} * cols);
  for (int32_t r = 0; r < rows; ++r) {
    const int8_t* in = input.data() + int64_t{r} * cols;
    int8_t* out = output.data() + int64_t{r} * cols;
    int8_t mx = -128;
    for (int32_t c = 0; c < cols; ++c) mx = std::max(mx, in[c]);
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
