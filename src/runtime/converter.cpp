#include "runtime/converter.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace mn::rt {

namespace {

// Consumer list per node id.
std::vector<std::vector<int>> build_consumers(nn::Graph& g) {
  std::vector<std::vector<int>> consumers(static_cast<size_t>(g.num_nodes()));
  for (int id = 0; id < g.num_nodes(); ++id)
    for (int in : g.node(id).inputs())
      consumers[static_cast<size_t>(in)].push_back(id);
  return consumers;
}

struct BlobBuilder {
  std::vector<uint8_t> blob;

  int64_t append(const void* data, int64_t bytes, int64_t align) {
    while (static_cast<int64_t>(blob.size()) % align != 0) blob.push_back(0);
    const int64_t off = static_cast<int64_t>(blob.size());
    const auto* b = static_cast<const uint8_t*>(data);
    blob.insert(blob.end(), b, b + bytes);
    return off;
  }
};

class Converter {
 public:
  Converter(nn::Graph& g, const ConvertOptions& opt, const RangeMap* cal)
      : g_(g), opt_(opt), cal_(cal), consumers_(build_consumers(g)) {}

  ModelDef run();

 private:
  // The sole consumer of `id`, or -1 if fan-out != 1.
  int sole_consumer(int id) const {
    const auto& c = consumers_[static_cast<size_t>(id)];
    return c.size() == 1 ? c[0] : -1;
  }

  // Activation range for chain-end node `id`: FakeQuant EMA range if the
  // node is a FakeQuant, else calibration entry.
  std::pair<float, float> range_of(int id) const {
    if (auto* fq = dynamic_cast<nn::FakeQuant*>(&g_.node(id)); fq != nullptr) {
      if (!fq->calibrated())
        throw std::runtime_error("convert: FakeQuant " + fq->name() + " uncalibrated");
      return {fq->range_min(), fq->range_max()};
    }
    if (cal_ != nullptr) {
      auto it = cal_->find(id);
      if (it != cal_->end()) return it->second;
    }
    throw std::runtime_error("convert: no activation range for node " +
                             g_.node(id).name() + "; run QAT or pass calibration");
  }

  int new_activation_tensor(const std::string& name, Shape shape,
                            std::pair<float, float> range) {
    TensorDef t;
    t.name = name;
    t.shape = shape;
    t.bits = opt_.act_bits;
    t.qp = quant::choose_asymmetric(range.first, range.second, opt_.act_bits);
    model_.tensors.push_back(std::move(t));
    return static_cast<int>(model_.tensors.size()) - 1;
  }

  int new_passthrough_tensor(const std::string& name, Shape shape,
                             const quant::QuantParams& qp) {
    TensorDef t;
    t.name = name;
    t.shape = shape;
    t.bits = opt_.act_bits;
    t.qp = qp;
    model_.tensors.push_back(std::move(t));
    return static_cast<int>(model_.tensors.size()) - 1;
  }

  // Quantizes folded weights per output channel and appends to the blob.
  // `rows` = out channels, `cols` = weights per channel (contiguous).
  int add_weight_tensor(const std::string& name, Shape shape, const TensorF& w,
                        int64_t rows, int64_t cols, std::vector<float>* scales_out) {
    TensorDef t;
    t.name = name;
    t.shape = shape;
    t.bits = opt_.weight_bits;
    t.is_const = true;
    const quant::QRange qr = quant::qrange(opt_.weight_bits);
    TensorI8 q(shape);
    t.channel_scales.resize(static_cast<size_t>(rows));
    for (int64_t r = 0; r < rows; ++r) {
      float maxabs = 1e-8f;
      for (int64_t c = 0; c < cols; ++c)
        maxabs = std::max(maxabs, std::abs(w[r * cols + c]));
      const float scale = maxabs / static_cast<float>(qr.qmax);
      t.channel_scales[static_cast<size_t>(r)] = scale;
      for (int64_t c = 0; c < cols; ++c) {
        const int32_t v = static_cast<int32_t>(std::lround(w[r * cols + c] / scale));
        q[r * cols + c] = static_cast<int8_t>(std::clamp(v, qr.qmin, qr.qmax));
      }
    }
    if (opt_.weight_bits == 4) {
      const auto packed = quant::pack_int4(q);
      t.blob_offset = blob_.append(packed.data(), static_cast<int64_t>(packed.size()), 1);
    } else {
      t.blob_offset = blob_.append(q.data(), q.size(), 1);
    }
    *scales_out = t.channel_scales;
    model_.tensors.push_back(std::move(t));
    return static_cast<int>(model_.tensors.size()) - 1;
  }

  // Depthwise weights quantize per channel where channels are the *last*
  // axis of [1, kh, kw, C] (strided access).
  int add_dw_weight_tensor(const std::string& name, const TensorF& w,
                           std::vector<float>* scales_out) {
    const int64_t kh = w.shape().dim(1), kw = w.shape().dim(2), C = w.shape().dim(3);
    TensorDef t;
    t.name = name;
    t.shape = w.shape();
    t.bits = opt_.weight_bits;
    t.is_const = true;
    const quant::QRange qr = quant::qrange(opt_.weight_bits);
    TensorI8 q(w.shape());
    t.channel_scales.resize(static_cast<size_t>(C));
    for (int64_t c = 0; c < C; ++c) {
      float maxabs = 1e-8f;
      for (int64_t k = 0; k < kh * kw; ++k)
        maxabs = std::max(maxabs, std::abs(w[k * C + c]));
      const float scale = maxabs / static_cast<float>(qr.qmax);
      t.channel_scales[static_cast<size_t>(c)] = scale;
      for (int64_t k = 0; k < kh * kw; ++k) {
        const int32_t v = static_cast<int32_t>(std::lround(w[k * C + c] / scale));
        q[k * C + c] = static_cast<int8_t>(std::clamp(v, qr.qmin, qr.qmax));
      }
    }
    if (opt_.weight_bits == 4) {
      const auto packed = quant::pack_int4(q);
      t.blob_offset = blob_.append(packed.data(), static_cast<int64_t>(packed.size()), 1);
    } else {
      t.blob_offset = blob_.append(q.data(), q.size(), 1);
    }
    *scales_out = t.channel_scales;
    model_.tensors.push_back(std::move(t));
    return static_cast<int>(model_.tensors.size()) - 1;
  }

  int add_bias_tensor(const std::string& name, const TensorF& bias,
                      float in_scale, const std::vector<float>& w_scales) {
    const int64_t n = bias.size();
    std::vector<int32_t> q(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      const double s = static_cast<double>(in_scale) *
                       w_scales[w_scales.size() == 1 ? 0 : static_cast<size_t>(i)];
      q[static_cast<size_t>(i)] = static_cast<int32_t>(std::llround(bias[i] / s));
    }
    TensorDef t;
    t.name = name;
    t.shape = Shape{n};
    t.bits = 32;
    t.is_const = true;
    t.blob_offset = blob_.append(q.data(), n * 4, 4);
    model_.tensors.push_back(std::move(t));
    return static_cast<int>(model_.tensors.size()) - 1;
  }

  // Follows the fusion chain conv -> [BN] -> [Relu] -> [FakeQuant]; returns
  // the chain-end node id, the BN (if any), and the fused activation.
  struct Chain {
    int end;
    nn::BatchNorm* bn = nullptr;
    Activation act = Activation::kNone;
  };
  Chain follow_chain(int id) {
    Chain ch{id, nullptr, Activation::kNone};
    int cur = id;
    // Optional BatchNorm.
    int next = sole_consumer(cur);
    if (next >= 0)
      if (auto* bn = dynamic_cast<nn::BatchNorm*>(&g_.node(next)); bn != nullptr) {
        ch.bn = bn;
        consumed_[static_cast<size_t>(next)] = true;
        cur = next;
        next = sole_consumer(cur);
      }
    if (next >= 0)
      if (auto* relu = dynamic_cast<nn::Relu*>(&g_.node(next)); relu != nullptr) {
        ch.act = relu->cap() > 0.f ? Activation::kRelu6 : Activation::kRelu;
        consumed_[static_cast<size_t>(next)] = true;
        cur = next;
        next = sole_consumer(cur);
      }
    if (next >= 0)
      if (dynamic_cast<nn::FakeQuant*>(&g_.node(next)) != nullptr) {
        consumed_[static_cast<size_t>(next)] = true;
        cur = next;
      }
    ch.end = cur;
    return ch;
  }

  nn::Graph& g_;
  ConvertOptions opt_;
  const RangeMap* cal_;
  std::vector<std::vector<int>> consumers_;
  std::vector<bool> consumed_;
  std::vector<int> node_tensor_;  // nn node id -> runtime tensor id
  ModelDef model_;
  BlobBuilder blob_;
};

ModelDef Converter::run() {
  consumed_.assign(static_cast<size_t>(g_.num_nodes()), false);
  node_tensor_.assign(static_cast<size_t>(g_.num_nodes()), -1);
  model_.name = opt_.name;

  for (int id = 0; id < g_.num_nodes(); ++id) {
    if (consumed_[static_cast<size_t>(id)]) continue;
    nn::Node& node = g_.node(id);
    const Shape out_shape = g_.feature_shape(id);

    if (auto* in = dynamic_cast<nn::InputNode*>(&node); in != nullptr) {
      // Input (+ optional FakeQuant giving the input range).
      int end = id;
      const int next = sole_consumer(id);
      if (next >= 0 && dynamic_cast<nn::FakeQuant*>(&g_.node(next)) != nullptr) {
        consumed_[static_cast<size_t>(next)] = true;
        end = next;
      }
      const int t = new_activation_tensor("input", in->feature_shape(), range_of(end));
      model_.input_tensor = t;
      node_tensor_[static_cast<size_t>(id)] = t;
      node_tensor_[static_cast<size_t>(end)] = t;
      continue;
    }

    if (auto* conv = dynamic_cast<nn::Conv2D*>(&node); conv != nullptr) {
      const int in_id = node.inputs()[0];
      const int in_t = node_tensor_[static_cast<size_t>(in_id)];
      Chain ch = follow_chain(id);
      // Fold BN: w'[oc,...] = w * gamma/sqrt(var+eps); b' = beta - gamma*mean/sqrt.
      const auto& opt = conv->options();
      TensorF w = conv->weight().value;
      TensorF b(Shape{opt.out_channels}, 0.f);
      if (conv->bias() != nullptr) b = conv->bias()->value;
      if (ch.bn != nullptr) {
        const int64_t per = w.size() / opt.out_channels;
        for (int64_t oc = 0; oc < opt.out_channels; ++oc) {
          const float s = ch.bn->gamma().value[oc] /
                          std::sqrt(ch.bn->running_var()[oc] + ch.bn->eps());
          for (int64_t k = 0; k < per; ++k) w[oc * per + k] *= s;
          b[oc] = b[oc] * s + ch.bn->beta().value[oc] -
                  ch.bn->running_mean()[oc] * s;
        }
      }
      std::vector<float> w_scales;
      const int w_t = add_weight_tensor(node.name() + "/w", w.shape(), w,
                                        opt.out_channels,
                                        w.size() / opt.out_channels, &w_scales);
      const float in_scale = model_.tensors[static_cast<size_t>(in_t)].qp.scale;
      const int b_t = add_bias_tensor(node.name() + "/b", b, in_scale, w_scales);
      const int out_t =
          new_activation_tensor(node.name() + "/out", out_shape, range_of(ch.end));
      OpDef op;
      op.type = OpType::kConv2D;
      op.act = ch.act;
      op.inputs = {in_t, w_t, b_t};
      op.output = out_t;
      op.stride = static_cast<int32_t>(opt.stride);
      const Shape in_shape = g_.feature_shape(in_id);
      op.pad_h = static_cast<int32_t>(
          nn::conv_pad_total(in_shape.dim(0), opt.kh, opt.stride, opt.padding) / 2);
      op.pad_w = static_cast<int32_t>(
          nn::conv_pad_total(in_shape.dim(1), opt.kw, opt.stride, opt.padding) / 2);
      model_.ops.push_back(op);
      node_tensor_[static_cast<size_t>(id)] = out_t;
      node_tensor_[static_cast<size_t>(ch.end)] = out_t;
      continue;
    }

    if (auto* dw = dynamic_cast<nn::DepthwiseConv2D*>(&node); dw != nullptr) {
      const int in_id = node.inputs()[0];
      const int in_t = node_tensor_[static_cast<size_t>(in_id)];
      Chain ch = follow_chain(id);
      const auto& opt = dw->options();
      const int64_t C = dw->channels();
      TensorF w = dw->weight().value;  // [1, kh, kw, C]
      TensorF b(Shape{C}, 0.f);
      if (dw->bias() != nullptr) b = dw->bias()->value;
      if (ch.bn != nullptr) {
        const int64_t kk = opt.kh * opt.kw;
        for (int64_t c = 0; c < C; ++c) {
          const float s = ch.bn->gamma().value[c] /
                          std::sqrt(ch.bn->running_var()[c] + ch.bn->eps());
          for (int64_t k = 0; k < kk; ++k) w[k * C + c] *= s;
          b[c] = b[c] * s + ch.bn->beta().value[c] - ch.bn->running_mean()[c] * s;
        }
      }
      std::vector<float> w_scales;
      const int w_t = add_dw_weight_tensor(node.name() + "/w", w, &w_scales);
      const float in_scale = model_.tensors[static_cast<size_t>(in_t)].qp.scale;
      const int b_t = add_bias_tensor(node.name() + "/b", b, in_scale, w_scales);
      const int out_t =
          new_activation_tensor(node.name() + "/out", out_shape, range_of(ch.end));
      OpDef op;
      op.type = OpType::kDepthwiseConv2D;
      op.act = ch.act;
      op.inputs = {in_t, w_t, b_t};
      op.output = out_t;
      op.stride = static_cast<int32_t>(opt.stride);
      const Shape in_shape = g_.feature_shape(in_id);
      op.pad_h = static_cast<int32_t>(
          nn::conv_pad_total(in_shape.dim(0), opt.kh, opt.stride, opt.padding) / 2);
      op.pad_w = static_cast<int32_t>(
          nn::conv_pad_total(in_shape.dim(1), opt.kw, opt.stride, opt.padding) / 2);
      model_.ops.push_back(op);
      node_tensor_[static_cast<size_t>(id)] = out_t;
      node_tensor_[static_cast<size_t>(ch.end)] = out_t;
      continue;
    }

    if (auto* fc = dynamic_cast<nn::Dense*>(&node); fc != nullptr) {
      const int in_id = node.inputs()[0];
      const int in_t = node_tensor_[static_cast<size_t>(in_id)];
      Chain ch = follow_chain(id);
      TensorF w = fc->weight().value;  // [out, in]
      TensorF b(Shape{fc->out_features()}, 0.f);
      if (fc->bias() != nullptr) b = fc->bias()->value;
      if (ch.bn != nullptr) {
        for (int64_t o = 0; o < fc->out_features(); ++o) {
          const float s = ch.bn->gamma().value[o] /
                          std::sqrt(ch.bn->running_var()[o] + ch.bn->eps());
          for (int64_t i = 0; i < fc->in_features(); ++i)
            w[o * fc->in_features() + i] *= s;
          b[o] = b[o] * s + ch.bn->beta().value[o] - ch.bn->running_mean()[o] * s;
        }
      }
      std::vector<float> w_scales;
      const int w_t = add_weight_tensor(node.name() + "/w", w.shape(), w,
                                        fc->out_features(), fc->in_features(),
                                        &w_scales);
      const float in_scale = model_.tensors[static_cast<size_t>(in_t)].qp.scale;
      const int b_t = add_bias_tensor(node.name() + "/b", b, in_scale, w_scales);
      const int out_t =
          new_activation_tensor(node.name() + "/out", out_shape, range_of(ch.end));
      OpDef op;
      op.type = OpType::kFullyConnected;
      op.act = ch.act;
      op.inputs = {in_t, w_t, b_t};
      op.output = out_t;
      model_.ops.push_back(op);
      node_tensor_[static_cast<size_t>(id)] = out_t;
      node_tensor_[static_cast<size_t>(ch.end)] = out_t;
      continue;
    }

    if (dynamic_cast<nn::Add*>(&node) != nullptr) {
      const int a_t = node_tensor_[static_cast<size_t>(node.inputs()[0])];
      const int b_t = node_tensor_[static_cast<size_t>(node.inputs()[1])];
      Chain ch = follow_chain(id);
      if (ch.bn != nullptr) throw std::runtime_error("convert: BN after Add unsupported");
      const int out_t =
          new_activation_tensor(node.name() + "/out", out_shape, range_of(ch.end));
      OpDef op;
      op.type = OpType::kAdd;
      op.act = ch.act;
      op.inputs = {a_t, b_t};
      op.output = out_t;
      model_.ops.push_back(op);
      node_tensor_[static_cast<size_t>(id)] = out_t;
      node_tensor_[static_cast<size_t>(ch.end)] = out_t;
      continue;
    }

    const bool is_gap = dynamic_cast<nn::GlobalAvgPool*>(&node) != nullptr;
    auto* avgp = dynamic_cast<nn::AvgPool2D*>(&node);
    auto* maxp = dynamic_cast<nn::MaxPool2D*>(&node);
    if (is_gap || avgp != nullptr || maxp != nullptr) {
      const int in_id = node.inputs()[0];
      const int in_t = node_tensor_[static_cast<size_t>(in_id)];
      const Shape in_shape = g_.feature_shape(in_id);
      // Pools pass quantization through unchanged (TFLite semantics); any
      // trailing FakeQuant is absorbed.
      const int next = sole_consumer(id);
      int end = id;
      if (next >= 0 && dynamic_cast<nn::FakeQuant*>(&g_.node(next)) != nullptr) {
        consumed_[static_cast<size_t>(next)] = true;
        end = next;
      }
      const int out_t = new_passthrough_tensor(
          node.name() + "/out", out_shape,
          model_.tensors[static_cast<size_t>(in_t)].qp);
      OpDef op;
      op.type = maxp != nullptr ? OpType::kMaxPool2D : OpType::kAvgPool2D;
      op.inputs = {in_t};
      op.output = out_t;
      if (is_gap) {
        op.kh = static_cast<int32_t>(in_shape.dim(0));
        op.kw = static_cast<int32_t>(in_shape.dim(1));
        op.stride = 1;
      } else {
        const nn::Pool2DOptions& po = avgp != nullptr ? avgp->options() : maxp->options();
        op.kh = static_cast<int32_t>(po.kh);
        op.kw = static_cast<int32_t>(po.kw);
        op.stride = static_cast<int32_t>(po.stride);
        op.pad_h = static_cast<int32_t>(
            nn::conv_pad_total(in_shape.dim(0), po.kh, po.stride, po.padding) / 2);
        op.pad_w = static_cast<int32_t>(
            nn::conv_pad_total(in_shape.dim(1), po.kw, po.stride, po.padding) / 2);
      }
      model_.ops.push_back(op);
      node_tensor_[static_cast<size_t>(id)] = out_t;
      node_tensor_[static_cast<size_t>(end)] = out_t;
      continue;
    }

    if (dynamic_cast<nn::FakeQuant*>(&node) != nullptr) {
      // Standalone FakeQuant: annotation only; alias the producer's tensor.
      node_tensor_[static_cast<size_t>(id)] =
          node_tensor_[static_cast<size_t>(node.inputs()[0])];
      continue;
    }

    throw std::runtime_error("convert: unsupported node type at " + node.name());
  }

  int out_t = node_tensor_[static_cast<size_t>(g_.output_id())];
  if (opt_.append_softmax) {
    if (opt_.act_bits != 8)
      throw std::runtime_error("convert: softmax requires 8-bit activations");
    const Shape logits_shape = model_.tensors[static_cast<size_t>(out_t)].shape;
    TensorDef t;
    t.name = "softmax_out";
    t.shape = logits_shape;
    t.bits = 8;
    t.qp = {1.f / 256.f, -128};
    model_.tensors.push_back(std::move(t));
    const int sm_t = static_cast<int>(model_.tensors.size()) - 1;
    OpDef op;
    op.type = OpType::kSoftmax;
    op.inputs = {out_t};
    op.output = sm_t;
    model_.ops.push_back(op);
    out_t = sm_t;
  }
  model_.output_tensor = out_t;
  model_.weights_blob = std::move(blob_.blob);
  model_.validate();
  return model_;
}

}  // namespace

RangeMap calibrate_ranges(nn::Graph& graph, const TensorF& sample_batch) {
  graph.forward(sample_batch, /*training=*/false);
  RangeMap ranges;
  for (int id = 0; id < graph.num_nodes(); ++id) {
    const TensorF& a = graph.activation(id);
    if (a.empty()) continue;
    float lo = a[0], hi = a[0];
    for (int64_t i = 0; i < a.size(); ++i) {
      lo = std::min(lo, a[i]);
      hi = std::max(hi, a[i]);
    }
    ranges[id] = {lo, hi};
  }
  return ranges;
}

ModelDef convert(nn::Graph& graph, const ConvertOptions& opt,
                 const RangeMap* calibration) {
  Converter c(graph, opt, calibration);
  return c.run();
}

}  // namespace mn::rt
