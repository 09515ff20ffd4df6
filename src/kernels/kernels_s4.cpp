// Packed-int4 kernels: emulate sub-byte compute by unpacking nibbles into
// registers before the multiply-accumulate, as in the paper's custom
// CMSIS-NN kernels (§5.1.3).
#include <algorithm>
#include <stdexcept>
#include <vector>

#include "kernels/kernels.hpp"
#include "obs/obs.hpp"

namespace mn::kernels {

int8_t load_s4(std::span<const uint8_t> packed, int64_t index) {
  const uint8_t byte = packed[static_cast<size_t>(index / 2)];
  const uint8_t nib = (index % 2 == 0) ? (byte & 0x0F) : (byte >> 4);
  return static_cast<int8_t>(nib >= 8 ? static_cast<int>(nib) - 16
                                      : static_cast<int>(nib));
}

void store_s4(std::span<uint8_t> packed, int64_t index, int8_t value) {
  if (value < -8 || value > 7) throw std::invalid_argument("store_s4: range");
  uint8_t& byte = packed[static_cast<size_t>(index / 2)];
  const uint8_t nib = static_cast<uint8_t>(value & 0x0F);
  if (index % 2 == 0)
    byte = static_cast<uint8_t>((byte & 0xF0) | nib);
  else
    byte = static_cast<uint8_t>((byte & 0x0F) | (nib << 4));
}

namespace {

int8_t requantize4(int32_t acc, const RequantParams& rq, int32_t oc) {
  int32_t v = quant::multiply_by_quantized_multiplier(acc, rq.channel_mult(oc)) + rq.output_zp;
  v = std::clamp(v, std::max(rq.act_min, -8), std::min(rq.act_max, 7));
  return static_cast<int8_t>(v);
}

}  // namespace

void conv2d_s4(std::span<const uint8_t> input, std::span<const uint8_t> weights,
               std::span<const int32_t> bias, std::span<uint8_t> output,
               const ConvGeometry& g, const RequantParams& rq) {
  const int64_t ksize = int64_t{g.kh} * g.kw * g.in_ch;
  obs::counter_add(obs::Counter::kKernelMacs, g.macs(/*depthwise=*/false));
  obs::counter_add(obs::Counter::kKernelBytesRead,
                   packed_size_s4(g.input_elements()) +
                       packed_size_s4(int64_t{g.out_ch} * ksize));
  obs::counter_add(obs::Counter::kKernelBytesWritten,
                   packed_size_s4(g.output_elements()));
  // Unpack one input row of channels at a time into a small buffer —
  // this is the software emulation path the paper describes.
  std::vector<int8_t> xbuf(static_cast<size_t>(g.in_ch));
  std::vector<int8_t> wbuf(static_cast<size_t>(g.in_ch));
  for (int32_t oy = 0; oy < g.out_h; ++oy) {
    for (int32_t ox = 0; ox < g.out_w; ++ox) {
      const int32_t iy0 = oy * g.stride - g.pad_h;
      const int32_t ix0 = ox * g.stride - g.pad_w;
      for (int32_t oc = 0; oc < g.out_ch; ++oc) {
        int32_t acc = bias.empty() ? 0 : bias[static_cast<size_t>(oc)];
        for (int32_t ky = 0; ky < g.kh; ++ky) {
          const int32_t iy = iy0 + ky;
          if (iy < 0 || iy >= g.in_h) continue;
          for (int32_t kx = 0; kx < g.kw; ++kx) {
            const int32_t ix = ix0 + kx;
            if (ix < 0 || ix >= g.in_w) continue;
            const int64_t xoff = (int64_t{iy} * g.in_w + ix) * g.in_ch;
            const int64_t woff = int64_t{oc} * ksize + (int64_t{ky} * g.kw + kx) * g.in_ch;
            for (int32_t ic = 0; ic < g.in_ch; ++ic) {
              xbuf[static_cast<size_t>(ic)] = load_s4(input, xoff + ic);
              wbuf[static_cast<size_t>(ic)] = load_s4(weights, woff + ic);
            }
            for (int32_t ic = 0; ic < g.in_ch; ++ic)
              acc += (static_cast<int32_t>(xbuf[static_cast<size_t>(ic)]) - rq.input_zp) *
                     static_cast<int32_t>(wbuf[static_cast<size_t>(ic)]);
          }
        }
        const int64_t out_idx = (int64_t{oy} * g.out_w + ox) * g.out_ch + oc;
        store_s4(output, out_idx, requantize4(acc, rq, oc));
      }
    }
  }
}

void depthwise_conv2d_s4(std::span<const uint8_t> input,
                         std::span<const uint8_t> weights,
                         std::span<const int32_t> bias, std::span<uint8_t> output,
                         const ConvGeometry& g, const RequantParams& rq) {
  if (g.in_ch != g.out_ch)
    throw std::invalid_argument("depthwise_conv2d_s4: in_ch != out_ch");
  obs::counter_add(obs::Counter::kKernelMacs, g.macs(/*depthwise=*/true));
  obs::counter_add(obs::Counter::kKernelBytesRead,
                   packed_size_s4(g.input_elements()) +
                       packed_size_s4(int64_t{g.kh} * g.kw * g.in_ch));
  obs::counter_add(obs::Counter::kKernelBytesWritten,
                   packed_size_s4(g.output_elements()));
  for (int32_t oy = 0; oy < g.out_h; ++oy) {
    for (int32_t ox = 0; ox < g.out_w; ++ox) {
      const int32_t iy0 = oy * g.stride - g.pad_h;
      const int32_t ix0 = ox * g.stride - g.pad_w;
      for (int32_t c = 0; c < g.out_ch; ++c) {
        int32_t acc = bias.empty() ? 0 : bias[static_cast<size_t>(c)];
        for (int32_t ky = 0; ky < g.kh; ++ky) {
          const int32_t iy = iy0 + ky;
          if (iy < 0 || iy >= g.in_h) continue;
          for (int32_t kx = 0; kx < g.kw; ++kx) {
            const int32_t ix = ix0 + kx;
            if (ix < 0 || ix >= g.in_w) continue;
            const int8_t x = load_s4(input, (int64_t{iy} * g.in_w + ix) * g.in_ch + c);
            const int8_t w = load_s4(weights, (int64_t{ky} * g.kw + kx) * g.in_ch + c);
            acc += (static_cast<int32_t>(x) - rq.input_zp) * static_cast<int32_t>(w);
          }
        }
        const int64_t out_idx = (int64_t{oy} * g.out_w + ox) * g.out_ch + c;
        store_s4(output, out_idx, requantize4(acc, rq, c));
      }
    }
  }
}

void fully_connected_s4(std::span<const uint8_t> input,
                        std::span<const uint8_t> weights,
                        std::span<const int32_t> bias, std::span<uint8_t> output,
                        int32_t in_features, int32_t out_features,
                        const RequantParams& rq) {
  obs::counter_add(obs::Counter::kKernelMacs,
                   int64_t{in_features} * out_features);
  obs::counter_add(obs::Counter::kKernelBytesRead,
                   packed_size_s4(in_features) +
                       packed_size_s4(int64_t{in_features} * out_features));
  obs::counter_add(obs::Counter::kKernelBytesWritten,
                   packed_size_s4(out_features));
  for (int32_t o = 0; o < out_features; ++o) {
    int32_t acc = bias.empty() ? 0 : bias[static_cast<size_t>(o)];
    const int64_t woff = int64_t{o} * in_features;
    for (int32_t i = 0; i < in_features; ++i)
      acc += (static_cast<int32_t>(load_s4(input, i)) - rq.input_zp) *
             static_cast<int32_t>(load_s4(weights, woff + i));
    store_s4(output, o, requantize4(acc, rq, o));
  }
}

void avg_pool_s4(std::span<const uint8_t> input, std::span<uint8_t> output,
                 const PoolGeometry& g, int32_t act_min, int32_t act_max) {
  obs::counter_add(obs::Counter::kKernelBytesRead,
                   packed_size_s4(int64_t{g.in_h} * g.in_w * g.ch));
  obs::counter_add(obs::Counter::kKernelBytesWritten,
                   packed_size_s4(int64_t{g.out_h} * g.out_w * g.ch));
  for (int32_t oy = 0; oy < g.out_h; ++oy) {
    for (int32_t ox = 0; ox < g.out_w; ++ox) {
      for (int32_t c = 0; c < g.ch; ++c) {
        int32_t acc = 0, count = 0;
        for (int32_t ky = 0; ky < g.kh; ++ky) {
          const int32_t iy = oy * g.stride - g.pad_h + ky;
          if (iy < 0 || iy >= g.in_h) continue;
          for (int32_t kx = 0; kx < g.kw; ++kx) {
            const int32_t ix = ox * g.stride - g.pad_w + kx;
            if (ix < 0 || ix >= g.in_w) continue;
            acc += load_s4(input, (int64_t{iy} * g.in_w + ix) * g.ch + c);
            ++count;
          }
        }
        int32_t v = count > 0
                        ? (acc > 0 ? (acc + count / 2) / count : (acc - count / 2) / count)
                        : 0;
        v = std::clamp(v, std::max(act_min, -8), std::min(act_max, 7));
        store_s4(output, (int64_t{oy} * g.out_w + ox) * g.ch + c,
                 static_cast<int8_t>(v));
      }
    }
  }
}

}  // namespace mn::kernels
