#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/layers.hpp"
#include "parallel/pool.hpp"

namespace mn::nn {

namespace {

// Fixed chunk count for per-sample gradient partials. Part of the
// determinism contract: the number of partial buffers — and therefore the
// tree_reduce association of the floating-point sums — depends only on the
// batch size, never on the thread count.
constexpr int64_t kGradChunks = 8;

int64_t grad_chunks(int64_t batch) { return std::min(batch, kGradChunks); }

// Forward rows per parallel_for chunk: enough for about 2^16 MACs, so a
// small layer (a fleet model's calibration batch) runs inline instead of
// opening a pool region of a few hundred MACs per chunk. Forward rows are
// independent, so the output is the same at every grain and thread count.
int64_t forward_grain(int64_t macs_per_row) {
  return std::max<int64_t>(1, (int64_t{1} << 16) /
                                  std::max<int64_t>(1, macs_per_row));
}

void add_into(TensorF& dst, const TensorF& src) {
  float* d = dst.data();
  const float* s = src.data();
  for (int64_t i = 0; i < dst.size(); ++i) d[i] += s[i];
}

}  // namespace

void init_he_normal(TensorF& w, int64_t fan_in, Rng& rng) {
  const float std = std::sqrt(2.0f / static_cast<float>(std::max<int64_t>(fan_in, 1)));
  for (int64_t i = 0; i < w.size(); ++i)
    w[i] = static_cast<float>(rng.normal(0.0, std));
}

void init_uniform(TensorF& w, float lo, float hi, Rng& rng) {
  for (int64_t i = 0; i < w.size(); ++i)
    w[i] = static_cast<float>(rng.uniform(lo, hi));
}

int64_t conv_out_dim(int64_t in, int64_t k, int64_t stride, Padding p) {
  if (p == Padding::kSame) return (in + stride - 1) / stride;
  return (in - k) / stride + 1;
}

int64_t conv_pad_total(int64_t in, int64_t k, int64_t stride, Padding p) {
  if (p == Padding::kValid) return 0;
  const int64_t out = conv_out_dim(in, k, stride, p);
  return std::max<int64_t>(0, (out - 1) * stride + k - in);
}

TensorF fake_quant_weights(const TensorF& w, int bits) {
  float maxabs = 0.f;
  for (int64_t i = 0; i < w.size(); ++i) maxabs = std::max(maxabs, std::abs(w[i]));
  if (maxabs == 0.f) return w;
  const int qmax = (1 << (bits - 1)) - 1;  // symmetric: e.g. 127 or 7
  const float scale = maxabs / static_cast<float>(qmax);
  TensorF out(w.shape());
  for (int64_t i = 0; i < w.size(); ++i) {
    const float q = std::round(w[i] / scale);
    out[i] = std::clamp(q, static_cast<float>(-qmax), static_cast<float>(qmax)) * scale;
  }
  return out;
}

// ---------------------------------------------------------------- Conv2D --

Conv2D::Conv2D(std::string name, int64_t in_channels, const Conv2DOptions& opt,
               Rng& rng)
    : Node(std::move(name)),
      opt_(opt),
      in_channels_(in_channels),
      weight_(this->name() + "/w",
              Shape{opt.out_channels, opt.kh, opt.kw, in_channels}),
      bias_(this->name() + "/b", Shape{opt.out_channels}) {
  if (opt.out_channels <= 0 || in_channels <= 0)
    throw std::invalid_argument("Conv2D: bad channel counts");
  init_he_normal(weight_.value, opt.kh * opt.kw * in_channels, rng);
  weight_.decay = true;
  bias_.value.fill(0.f);
}

std::vector<Param*> Conv2D::params() {
  std::vector<Param*> p{&weight_};
  if (opt_.use_bias) p.push_back(&bias_);
  return p;
}

TensorF Conv2D::effective_weight() const {
  return opt_.quantize_weights ? fake_quant_weights(weight_.value, opt_.weight_bits)
                               : weight_.value;
}

TensorF Conv2D::forward(const std::vector<const TensorF*>& in, bool) {
  const TensorF& x = *in.at(0);
  const int64_t N = x.shape().dim(0), H = x.shape().dim(1), W = x.shape().dim(2),
                C = x.shape().dim(3);
  if (C != in_channels_) throw std::invalid_argument(name() + ": channel mismatch");
  const int64_t OH = conv_out_dim(H, opt_.kh, opt_.stride, opt_.padding);
  const int64_t OW = conv_out_dim(W, opt_.kw, opt_.stride, opt_.padding);
  const int64_t pad_h = conv_pad_total(H, opt_.kh, opt_.stride, opt_.padding) / 2;
  const int64_t pad_w = conv_pad_total(W, opt_.kw, opt_.stride, opt_.padding) / 2;
  const TensorF w = effective_weight();
  TensorF y(Shape{N, OH, OW, opt_.out_channels});
  const int64_t ksize = opt_.kh * opt_.kw * C;
  // Disjoint output rows across (sample, output-row) pairs: no reduction,
  // so bit-identical at any thread count.
  parallel::parallel_for(0, N * OH, [&](int64_t r_lo, int64_t r_hi) {
  for (int64_t r = r_lo; r < r_hi; ++r) {
    const int64_t n = r / OH;
    {
      const int64_t oy = r % OH;
      for (int64_t ox = 0; ox < OW; ++ox) {
        const int64_t iy0 = oy * opt_.stride - pad_h;
        const int64_t ix0 = ox * opt_.stride - pad_w;
        float* out_px = y.data() + y.idx4(n, oy, ox, 0);
        for (int64_t oc = 0; oc < opt_.out_channels; ++oc) {
          const float* wr = w.data() + oc * ksize;
          float acc = opt_.use_bias ? bias_.value[oc] : 0.f;
          for (int64_t ky = 0; ky < opt_.kh; ++ky) {
            const int64_t iy = iy0 + ky;
            if (iy < 0 || iy >= H) continue;
            for (int64_t kx = 0; kx < opt_.kw; ++kx) {
              const int64_t ix = ix0 + kx;
              if (ix < 0 || ix >= W) continue;
              const float* xr = x.data() + x.idx4(n, iy, ix, 0);
              const float* wk = wr + (ky * opt_.kw + kx) * C;
              for (int64_t ic = 0; ic < C; ++ic) acc += xr[ic] * wk[ic];
            }
          }
          out_px[oc] = acc;
        }
      }
    }
  }
  }, forward_grain(OW * opt_.out_channels * ksize));
  return y;
}

std::vector<TensorF> Conv2D::backward(const std::vector<const TensorF*>& in,
                                      const TensorF& g) {
  const TensorF& x = *in.at(0);
  const int64_t N = x.shape().dim(0), H = x.shape().dim(1), W = x.shape().dim(2),
                C = x.shape().dim(3);
  const int64_t OH = g.shape().dim(1), OW = g.shape().dim(2);
  const int64_t pad_h = conv_pad_total(H, opt_.kh, opt_.stride, opt_.padding) / 2;
  const int64_t pad_w = conv_pad_total(W, opt_.kw, opt_.stride, opt_.padding) / 2;
  TensorF gx(x.shape(), 0.f);
  const int64_t ksize = opt_.kh * opt_.kw * C;
  // Straight-through estimator: gradients flow as if through the (possibly
  // quantized) weight values used in forward.
  const TensorF w = effective_weight();
  // Per-sample parallelism: input grads (gx) are disjoint per sample, but
  // weight/bias grads reduce across samples — each chunk sums into its own
  // partial, combined afterwards by a fixed-shape reduction tree.
  const int64_t chunks = grad_chunks(N);
  std::vector<TensorF> wparts(static_cast<size_t>(chunks),
                              TensorF(weight_.grad.shape(), 0.f));
  std::vector<TensorF> bparts;
  if (opt_.use_bias)
    bparts.assign(static_cast<size_t>(chunks), TensorF(bias_.grad.shape(), 0.f));
  parallel::for_chunks(chunks, [&](int64_t chunk) {
    const parallel::Range r = parallel::chunk_range(N, chunks, chunk);
    float* wpart = wparts[static_cast<size_t>(chunk)].data();
    float* bpart = opt_.use_bias ? bparts[static_cast<size_t>(chunk)].data()
                                 : nullptr;
  for (int64_t n = r.begin; n < r.end; ++n) {
    for (int64_t oy = 0; oy < OH; ++oy) {
      for (int64_t ox = 0; ox < OW; ++ox) {
        const int64_t iy0 = oy * opt_.stride - pad_h;
        const int64_t ix0 = ox * opt_.stride - pad_w;
        const float* gp = g.data() + g.idx4(n, oy, ox, 0);
        for (int64_t oc = 0; oc < opt_.out_channels; ++oc) {
          const float go = gp[oc];
          if (go == 0.f) continue;
          if (opt_.use_bias) bpart[oc] += go;
          float* wg = wpart + oc * ksize;
          const float* wr = w.data() + oc * ksize;
          for (int64_t ky = 0; ky < opt_.kh; ++ky) {
            const int64_t iy = iy0 + ky;
            if (iy < 0 || iy >= H) continue;
            for (int64_t kx = 0; kx < opt_.kw; ++kx) {
              const int64_t ix = ix0 + kx;
              if (ix < 0 || ix >= W) continue;
              const float* xr = x.data() + x.idx4(n, iy, ix, 0);
              float* gxr = gx.data() + gx.idx4(n, iy, ix, 0);
              const int64_t koff = (ky * opt_.kw + kx) * C;
              for (int64_t ic = 0; ic < C; ++ic) {
                wg[koff + ic] += go * xr[ic];
                gxr[ic] += go * wr[koff + ic];
              }
            }
          }
        }
      }
    }
  }
  });
  parallel::tree_reduce(chunks, [&](int64_t dst, int64_t src) {
    add_into(wparts[static_cast<size_t>(dst)], wparts[static_cast<size_t>(src)]);
    if (opt_.use_bias)
      add_into(bparts[static_cast<size_t>(dst)], bparts[static_cast<size_t>(src)]);
  });
  add_into(weight_.grad, wparts[0]);
  if (opt_.use_bias) add_into(bias_.grad, bparts[0]);
  std::vector<TensorF> grads;
  grads.push_back(std::move(gx));
  return grads;
}

// ------------------------------------------------------- DepthwiseConv2D --

DepthwiseConv2D::DepthwiseConv2D(std::string name, int64_t channels,
                                 const DepthwiseConv2DOptions& opt, Rng& rng)
    : Node(std::move(name)),
      opt_(opt),
      channels_(channels),
      weight_(this->name() + "/w", Shape{1, opt.kh, opt.kw, channels}),
      bias_(this->name() + "/b", Shape{channels}) {
  if (channels <= 0) throw std::invalid_argument("DepthwiseConv2D: channels");
  init_he_normal(weight_.value, opt.kh * opt.kw, rng);
  weight_.decay = true;
  bias_.value.fill(0.f);
}

std::vector<Param*> DepthwiseConv2D::params() {
  std::vector<Param*> p{&weight_};
  if (opt_.use_bias) p.push_back(&bias_);
  return p;
}

TensorF DepthwiseConv2D::effective_weight() const {
  return opt_.quantize_weights ? fake_quant_weights(weight_.value, opt_.weight_bits)
                               : weight_.value;
}

TensorF DepthwiseConv2D::forward(const std::vector<const TensorF*>& in, bool) {
  const TensorF& x = *in.at(0);
  const int64_t N = x.shape().dim(0), H = x.shape().dim(1), W = x.shape().dim(2),
                C = x.shape().dim(3);
  if (C != channels_) throw std::invalid_argument(name() + ": channel mismatch");
  const int64_t OH = conv_out_dim(H, opt_.kh, opt_.stride, opt_.padding);
  const int64_t OW = conv_out_dim(W, opt_.kw, opt_.stride, opt_.padding);
  const int64_t pad_h = conv_pad_total(H, opt_.kh, opt_.stride, opt_.padding) / 2;
  const int64_t pad_w = conv_pad_total(W, opt_.kw, opt_.stride, opt_.padding) / 2;
  const TensorF w = effective_weight();
  TensorF y(Shape{N, OH, OW, C});
  parallel::parallel_for(0, N * OH, [&](int64_t r_lo, int64_t r_hi) {
  for (int64_t r = r_lo; r < r_hi; ++r) {
    const int64_t n = r / OH;
    {
      const int64_t oy = r % OH;
      for (int64_t ox = 0; ox < OW; ++ox) {
        const int64_t iy0 = oy * opt_.stride - pad_h;
        const int64_t ix0 = ox * opt_.stride - pad_w;
        float* out_px = y.data() + y.idx4(n, oy, ox, 0);
        for (int64_t c = 0; c < C; ++c) out_px[c] = opt_.use_bias ? bias_.value[c] : 0.f;
        for (int64_t ky = 0; ky < opt_.kh; ++ky) {
          const int64_t iy = iy0 + ky;
          if (iy < 0 || iy >= H) continue;
          for (int64_t kx = 0; kx < opt_.kw; ++kx) {
            const int64_t ix = ix0 + kx;
            if (ix < 0 || ix >= W) continue;
            const float* xr = x.data() + x.idx4(n, iy, ix, 0);
            const float* wk = w.data() + (ky * opt_.kw + kx) * C;
            for (int64_t c = 0; c < C; ++c) out_px[c] += xr[c] * wk[c];
          }
        }
      }
    }
  }
  }, forward_grain(OW * C * opt_.kh * opt_.kw));
  return y;
}

std::vector<TensorF> DepthwiseConv2D::backward(
    const std::vector<const TensorF*>& in, const TensorF& g) {
  const TensorF& x = *in.at(0);
  const int64_t N = x.shape().dim(0), H = x.shape().dim(1), W = x.shape().dim(2),
                C = x.shape().dim(3);
  const int64_t OH = g.shape().dim(1), OW = g.shape().dim(2);
  const int64_t pad_h = conv_pad_total(H, opt_.kh, opt_.stride, opt_.padding) / 2;
  const int64_t pad_w = conv_pad_total(W, opt_.kw, opt_.stride, opt_.padding) / 2;
  TensorF gx(x.shape(), 0.f);
  const TensorF w = effective_weight();
  const int64_t chunks = grad_chunks(N);
  std::vector<TensorF> wparts(static_cast<size_t>(chunks),
                              TensorF(weight_.grad.shape(), 0.f));
  std::vector<TensorF> bparts;
  if (opt_.use_bias)
    bparts.assign(static_cast<size_t>(chunks), TensorF(bias_.grad.shape(), 0.f));
  parallel::for_chunks(chunks, [&](int64_t chunk) {
    const parallel::Range r = parallel::chunk_range(N, chunks, chunk);
    float* wpart = wparts[static_cast<size_t>(chunk)].data();
    float* bpart = opt_.use_bias ? bparts[static_cast<size_t>(chunk)].data()
                                 : nullptr;
  for (int64_t n = r.begin; n < r.end; ++n) {
    for (int64_t oy = 0; oy < OH; ++oy) {
      for (int64_t ox = 0; ox < OW; ++ox) {
        const int64_t iy0 = oy * opt_.stride - pad_h;
        const int64_t ix0 = ox * opt_.stride - pad_w;
        const float* gp = g.data() + g.idx4(n, oy, ox, 0);
        if (opt_.use_bias)
          for (int64_t c = 0; c < C; ++c) bpart[c] += gp[c];
        for (int64_t ky = 0; ky < opt_.kh; ++ky) {
          const int64_t iy = iy0 + ky;
          if (iy < 0 || iy >= H) continue;
          for (int64_t kx = 0; kx < opt_.kw; ++kx) {
            const int64_t ix = ix0 + kx;
            if (ix < 0 || ix >= W) continue;
            const float* xr = x.data() + x.idx4(n, iy, ix, 0);
            float* gxr = gx.data() + gx.idx4(n, iy, ix, 0);
            const int64_t koff = (ky * opt_.kw + kx) * C;
            const float* wk = w.data() + koff;
            float* wg = wpart + koff;
            for (int64_t c = 0; c < C; ++c) {
              wg[c] += gp[c] * xr[c];
              gxr[c] += gp[c] * wk[c];
            }
          }
        }
      }
    }
  }
  });
  parallel::tree_reduce(chunks, [&](int64_t dst, int64_t src) {
    add_into(wparts[static_cast<size_t>(dst)], wparts[static_cast<size_t>(src)]);
    if (opt_.use_bias)
      add_into(bparts[static_cast<size_t>(dst)], bparts[static_cast<size_t>(src)]);
  });
  add_into(weight_.grad, wparts[0]);
  if (opt_.use_bias) add_into(bias_.grad, bparts[0]);
  std::vector<TensorF> grads;
  grads.push_back(std::move(gx));
  return grads;
}

// ----------------------------------------------------------------- Dense --

Dense::Dense(std::string name, int64_t in_features, int64_t out_features,
             Rng& rng, bool use_bias, bool quantize_weights, int weight_bits)
    : Node(std::move(name)),
      in_features_(in_features),
      out_features_(out_features),
      use_bias_(use_bias),
      quantize_weights_(quantize_weights),
      weight_bits_(weight_bits),
      weight_(this->name() + "/w", Shape{out_features, in_features}),
      bias_(this->name() + "/b", Shape{out_features}) {
  if (in_features <= 0 || out_features <= 0)
    throw std::invalid_argument("Dense: bad feature counts");
  init_he_normal(weight_.value, in_features, rng);
  weight_.decay = true;
  bias_.value.fill(0.f);
}

std::vector<Param*> Dense::params() {
  std::vector<Param*> p{&weight_};
  if (use_bias_) p.push_back(&bias_);
  return p;
}

TensorF Dense::effective_weight() const {
  return quantize_weights_ ? fake_quant_weights(weight_.value, weight_bits_)
                           : weight_.value;
}

TensorF Dense::forward(const std::vector<const TensorF*>& in, bool) {
  const TensorF& x = *in.at(0);
  const int64_t N = x.shape().dim(0);
  const int64_t F = x.size() / N;
  if (F != in_features_) throw std::invalid_argument(name() + ": feature mismatch");
  const TensorF w = effective_weight();
  TensorF y(Shape{N, out_features_});
  parallel::parallel_for(0, N, [&](int64_t n_lo, int64_t n_hi) {
    for (int64_t n = n_lo; n < n_hi; ++n) {
      const float* xr = x.data() + n * F;
      for (int64_t o = 0; o < out_features_; ++o) {
        const float* wr = w.data() + o * F;
        float acc = use_bias_ ? bias_.value[o] : 0.f;
        for (int64_t i = 0; i < F; ++i) acc += xr[i] * wr[i];
        y.at2(n, o) = acc;
      }
    }
  }, forward_grain(out_features_ * F));
  return y;
}

std::vector<TensorF> Dense::backward(const std::vector<const TensorF*>& in,
                                     const TensorF& g) {
  const TensorF& x = *in.at(0);
  const int64_t N = x.shape().dim(0);
  const int64_t F = x.size() / N;
  TensorF gx(x.shape(), 0.f);
  const TensorF w = effective_weight();
  const int64_t chunks = grad_chunks(N);
  std::vector<TensorF> wparts(static_cast<size_t>(chunks),
                              TensorF(weight_.grad.shape(), 0.f));
  std::vector<TensorF> bparts;
  if (use_bias_)
    bparts.assign(static_cast<size_t>(chunks), TensorF(bias_.grad.shape(), 0.f));
  parallel::for_chunks(chunks, [&](int64_t chunk) {
    const parallel::Range r = parallel::chunk_range(N, chunks, chunk);
    float* wpart = wparts[static_cast<size_t>(chunk)].data();
    float* bpart = use_bias_ ? bparts[static_cast<size_t>(chunk)].data()
                             : nullptr;
    for (int64_t n = r.begin; n < r.end; ++n) {
      const float* xr = x.data() + n * F;
      float* gxr = gx.data() + n * F;
      for (int64_t o = 0; o < out_features_; ++o) {
        const float go = g.at2(n, o);
        if (go == 0.f) continue;
        if (use_bias_) bpart[o] += go;
        float* wg = wpart + o * F;
        const float* wr = w.data() + o * F;
        for (int64_t i = 0; i < F; ++i) {
          wg[i] += go * xr[i];
          gxr[i] += go * wr[i];
        }
      }
    }
  });
  parallel::tree_reduce(chunks, [&](int64_t dst, int64_t src) {
    add_into(wparts[static_cast<size_t>(dst)], wparts[static_cast<size_t>(src)]);
    if (use_bias_)
      add_into(bparts[static_cast<size_t>(dst)], bparts[static_cast<size_t>(src)]);
  });
  add_into(weight_.grad, wparts[0]);
  if (use_bias_) add_into(bias_.grad, bparts[0]);
  std::vector<TensorF> grads;
  grads.push_back(std::move(gx));
  return grads;
}

}  // namespace mn::nn
