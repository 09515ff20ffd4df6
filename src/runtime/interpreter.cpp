#include "runtime/interpreter.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "obs/obs.hpp"

namespace mn::rt {

// activation_range (the fused-activation clamp in the quantized domain)
// lives in model.cpp now, shared with the compile:: passes.

namespace {
constexpr uint8_t kCanaryByte = 0xA5;

// Claim predicate for the fast backend: int8 conv2d / depthwise /
// fully-connected with a constant int8 weight tensor (conv/FC panels are
// packed once at load time, so mutable weights cannot be claimed).
// Everything else falls back.
bool fast_claims(const ModelDef& m, const OpDef& op) {
  if (op.type != OpType::kConv2D && op.type != OpType::kDepthwiseConv2D &&
      op.type != OpType::kFullyConnected)
    return false;
  const TensorDef& in = m.tensors[static_cast<size_t>(op.inputs[0])];
  const TensorDef& w = m.tensors[static_cast<size_t>(op.inputs[1])];
  const TensorDef& out = m.tensors[static_cast<size_t>(op.output)];
  return in.bits == 8 && w.bits == 8 && out.bits == 8 && w.is_const;
}

// Claimed ops that run on a packed panel: depthwise reads its raw weights.
bool fast_packs(const ModelDef& m, const OpDef& op) {
  return op.type != OpType::kDepthwiseConv2D && fast_claims(m, op);
}

}  // namespace

std::shared_ptr<const PackedModel> pack_model_weights(
    const ModelDef& model, kernels::BackendConfig config) {
  auto pm = std::make_shared<PackedModel>();
  pm->kind = config.kind;
  pm->per_op.assign(model.ops.size(), nullptr);
  if (config.kind == kernels::BackendKind::kReference) return pm;
  for (size_t i = 0; i < model.ops.size(); ++i) {
    const OpDef& op = model.ops[i];
    if (!fast_packs(model, op)) continue;
    const TensorDef& w = model.tensors[static_cast<size_t>(op.inputs[1])];
    const std::span<const int8_t> w_bytes{
        reinterpret_cast<const int8_t*>(model.weights_blob.data() +
                                        w.blob_offset),
        static_cast<size_t>(w.storage_bytes())};
    // Conv weights: [out_ch][kh][kw][in_ch]; FC weights: [out][in]. Both are
    // row-major with one row per output channel/feature.
    const int64_t rows = w.shape.dim(0);
    const int64_t row_len = w.elements() / rows;
    pm->per_op[i] = std::make_shared<const kernels::PackedOpWeights>(
        kernels::pack_rows_s8(w_bytes, rows, row_len));
  }
  return pm;
}

Interpreter::Interpreter(ModelDef model) : Interpreter(std::move(model), {}) {}

Interpreter::Interpreter(ModelDef model, MemoryPlan plan)
    : Interpreter(std::move(model), std::move(plan), kernels::BackendConfig{}) {}

Interpreter::Interpreter(ModelDef model, MemoryPlan plan,
                         kernels::BackendConfig config,
                         std::shared_ptr<const PackedModel> packed)
    : model_(std::move(model)), backend_(config) {
  model_.validate();
  if (plan.allocations.empty() && plan.arena_bytes == 0) {
    plan_ = plan_memory(model_);
  } else {
    // Cheap structural compatibility check on the injected plan: every
    // non-const tensor must have an in-bounds allocation of the right size.
    for (size_t t = 0; t < model_.tensors.size(); ++t) {
      const TensorDef& td = model_.tensors[t];
      if (td.is_const) continue;
      const TensorAllocation* a = plan.find(static_cast<int>(t));
      if (a == nullptr || a->bytes != td.storage_bytes() ||
          a->offset < 0 || a->offset + a->bytes > plan.arena_bytes)
        throw std::runtime_error(
            "Interpreter: injected MemoryPlan does not match the model");
    }
    plan_ = std::move(plan);
  }
  arena_.assign(static_cast<size_t>(plan_.arena_bytes + 2 * kArenaGuardBytes), 0);
  fill_guards();
  prepare();
  // Backend resolution: pack weight panels (or adopt the shared set), then
  // record per-op which backend actually serves each op — claimed ops run on
  // the requested backend, the rest fall back to reference.
  if (packed == nullptr) {
    packed_ = pack_model_weights(model_, backend_);
  } else {
    if (packed->kind != backend_.kind ||
        packed->per_op.size() != model_.ops.size())
      throw std::runtime_error(
          "Interpreter: shared PackedModel does not match the backend config");
    packed_ = std::move(packed);
  }
  op_backend_.assign(model_.ops.size(), kernels::BackendKind::kReference);
  if (backend_.kind == kernels::BackendKind::kFast)
    for (size_t i = 0; i < model_.ops.size(); ++i) {
      if (!fast_claims(model_, model_.ops[i])) continue;
      if (fast_packs(model_, model_.ops[i]) && packed_->per_op[i] == nullptr)
        throw std::runtime_error(
            "Interpreter: shared PackedModel lacks a claimed op's panel");
      op_backend_[i] = backend_.kind;
    }
  // Shared conv scratch (CMSIS-NN analog): a pixel block of padded im2col
  // columns for each fast conv; reference ops need none.
  op_scratch_bytes_.assign(model_.ops.size(), 0);
  int64_t scratch = 0;
  for (size_t i = 0; i < model_.ops.size(); ++i)
    if (model_.ops[i].type == OpType::kConv2D &&
        op_backend_[i] == kernels::BackendKind::kFast) {
      op_scratch_bytes_[i] =
          kernels::conv2d_fast_scratch_bytes(prepared_[i].conv);
      scratch = std::max(scratch, op_scratch_bytes_[i]);
    }
  scratch_.assign(static_cast<size_t>(scratch), 0);
  expected_weights_crc_ = model_.weights_crc();
  op_macs_.resize(model_.ops.size());
  op_wall_ns_.assign(model_.ops.size(), 0);
  for (size_t i = 0; i < model_.ops.size(); ++i)
    op_macs_[i] = model_.ops[i].macs(model_.tensors);
  op_live_bytes_ = plan_.occupancy_timeline(static_cast<int>(model_.ops.size()));
  obs::gauge_set_max(obs::Gauge::kArenaPeakBytes, plan_.arena_bytes);
  obs::gauge_set_max(obs::Gauge::kScratchPeakBytes,
                     static_cast<int64_t>(scratch_.size()));
  obs::gauge_set_max(obs::Gauge::kArenaLiveBytesPeak,
                     plan_.peak_live_bytes(static_cast<int>(model_.ops.size())));
}

void Interpreter::set_op_energy_uj(std::vector<double> energy_uj) {
  if (energy_uj.size() != model_.ops.size())
    throw std::runtime_error(
        "Interpreter: energy table must have one entry per op");
  op_energy_uj_ = std::move(energy_uj);
}

void Interpreter::fill_guards() {
  std::memset(arena_.data(), kCanaryByte, static_cast<size_t>(kArenaGuardBytes));
  std::memset(arena_.data() + arena_.size() - kArenaGuardBytes, kCanaryByte,
              static_cast<size_t>(kArenaGuardBytes));
}

std::optional<RtError> Interpreter::check_canaries() const {
  auto scan = [&](size_t from, const char* which) -> std::optional<RtError> {
    for (size_t i = 0; i < static_cast<size_t>(kArenaGuardBytes); ++i)
      if (arena_[from + i] != kCanaryByte)
        return RtError{ErrorCode::kArenaOverrun,
                       std::string("Interpreter: ") + which +
                           " arena guard band clobbered at byte " + std::to_string(i)};
    return std::nullopt;
  };
  if (auto e = scan(0, "leading")) return e;
  return scan(arena_.size() - kArenaGuardBytes, "trailing");
}

void Interpreter::rearm_weights_crc() { expected_weights_crc_ = model_.weights_crc(); }

void Interpreter::prepare() {
  prepared_.resize(model_.ops.size());
  for (size_t i = 0; i < model_.ops.size(); ++i) {
    const OpDef& op = model_.ops[i];
    PreparedOp& p = prepared_[i];
    const TensorDef& out = model_.tensors[static_cast<size_t>(op.output)];
    switch (op.type) {
      case OpType::kConv2D:
      case OpType::kDepthwiseConv2D: {
        const TensorDef& in = model_.tensors[static_cast<size_t>(op.inputs[0])];
        const TensorDef& w = model_.tensors[static_cast<size_t>(op.inputs[1])];
        p.conv.in_h = static_cast<int32_t>(in.shape.dim(0));
        p.conv.in_w = static_cast<int32_t>(in.shape.dim(1));
        p.conv.in_ch = static_cast<int32_t>(in.shape.dim(2));
        p.conv.out_h = static_cast<int32_t>(out.shape.dim(0));
        p.conv.out_w = static_cast<int32_t>(out.shape.dim(1));
        p.conv.out_ch = static_cast<int32_t>(out.shape.dim(2));
        p.conv.kh = static_cast<int32_t>(w.shape.dim(1));
        p.conv.kw = static_cast<int32_t>(w.shape.dim(2));
        p.conv.stride = op.stride;
        p.conv.pad_h = op.pad_h;
        p.conv.pad_w = op.pad_w;
        p.rq.input_zp = in.qp.zero_point;
        p.rq.output_zp = out.qp.zero_point;
        if (w.channel_scales.empty()) {
          p.rq.mult = quant::quantize_multiplier(
              static_cast<double>(in.qp.scale) * w.qp.scale / out.qp.scale);
        } else {
          p.rq.per_channel.reserve(w.channel_scales.size());
          for (float ws : w.channel_scales)
            p.rq.per_channel.push_back(quant::quantize_multiplier(
                static_cast<double>(in.qp.scale) * ws / out.qp.scale));
        }
        activation_range(op.act, out.qp, out.bits, &p.rq.act_min, &p.rq.act_max);
        break;
      }
      case OpType::kFullyConnected: {
        const TensorDef& in = model_.tensors[static_cast<size_t>(op.inputs[0])];
        const TensorDef& w = model_.tensors[static_cast<size_t>(op.inputs[1])];
        p.fc_in = static_cast<int32_t>(w.shape.dim(1));
        p.fc_out = static_cast<int32_t>(w.shape.dim(0));
        if (in.elements() != p.fc_in)
          throw std::runtime_error("Interpreter: FC input size mismatch");
        p.rq.input_zp = in.qp.zero_point;
        p.rq.output_zp = out.qp.zero_point;
        if (w.channel_scales.empty()) {
          p.rq.mult = quant::quantize_multiplier(
              static_cast<double>(in.qp.scale) * w.qp.scale / out.qp.scale);
        } else {
          for (float ws : w.channel_scales)
            p.rq.per_channel.push_back(quant::quantize_multiplier(
                static_cast<double>(in.qp.scale) * ws / out.qp.scale));
        }
        activation_range(op.act, out.qp, out.bits, &p.rq.act_min, &p.rq.act_max);
        break;
      }
      case OpType::kAvgPool2D:
      case OpType::kMaxPool2D: {
        const TensorDef& in = model_.tensors[static_cast<size_t>(op.inputs[0])];
        p.pool.in_h = static_cast<int32_t>(in.shape.dim(0));
        p.pool.in_w = static_cast<int32_t>(in.shape.dim(1));
        p.pool.ch = static_cast<int32_t>(in.shape.dim(2));
        p.pool.out_h = static_cast<int32_t>(out.shape.dim(0));
        p.pool.out_w = static_cast<int32_t>(out.shape.dim(1));
        p.pool.kh = op.kh;
        p.pool.kw = op.kw;
        p.pool.stride = op.stride;
        p.pool.pad_h = op.pad_h;
        p.pool.pad_w = op.pad_w;
        activation_range(op.act, out.qp, out.bits, &p.rq.act_min, &p.rq.act_max);
        break;
      }
      case OpType::kAdd: {
        const TensorDef& a = model_.tensors[static_cast<size_t>(op.inputs[0])];
        const TensorDef& b = model_.tensors[static_cast<size_t>(op.inputs[1])];
        const double twice_max = 2.0 * std::max(a.qp.scale, b.qp.scale);
        p.add.a_zp = a.qp.zero_point;
        p.add.b_zp = b.qp.zero_point;
        p.add.out_zp = out.qp.zero_point;
        p.add.left_shift = 20;
        p.add.a_mult = quant::quantize_multiplier(a.qp.scale / twice_max);
        p.add.b_mult = quant::quantize_multiplier(b.qp.scale / twice_max);
        p.add.out_mult = quant::quantize_multiplier(
            twice_max / ((1 << p.add.left_shift) * static_cast<double>(out.qp.scale)));
        activation_range(op.act, out.qp, out.bits, &p.add.act_min, &p.add.act_max);
        break;
      }
      case OpType::kSoftmax: {
        const TensorDef& in = model_.tensors[static_cast<size_t>(op.inputs[0])];
        p.softmax_scale = in.qp.scale;
        break;
      }
      case OpType::kOpTypeCount:
        throw std::runtime_error("Interpreter: invalid op type");
    }
  }
}

std::span<uint8_t> Interpreter::arena_span(int tensor_id) {
  const TensorAllocation* a = plan_.find(tensor_id);
  if (a == nullptr) throw std::runtime_error("Interpreter: not an arena tensor");
  return {arena_.data() + kArenaGuardBytes + a->offset, static_cast<size_t>(a->bytes)};
}

std::span<const uint8_t> Interpreter::tensor_bytes(int tensor_id) {
  const TensorDef& t = model_.tensors[static_cast<size_t>(tensor_id)];
  if (t.is_const)
    return {model_.weights_blob.data() + t.blob_offset,
            static_cast<size_t>(t.storage_bytes())};
  return arena_span(tensor_id);
}

namespace {
std::span<const int8_t> as_s8(std::span<const uint8_t> b) {
  return {reinterpret_cast<const int8_t*>(b.data()), b.size()};
}
std::span<int8_t> as_s8(std::span<uint8_t> b) {
  return {reinterpret_cast<int8_t*>(b.data()), b.size()};
}
std::span<const int32_t> as_s32(std::span<const uint8_t> b) {
  return {reinterpret_cast<const int32_t*>(b.data()), b.size() / 4};
}
}  // namespace

void Interpreter::run_op(size_t i) {
  const OpDef& op = model_.ops[i];
  const PreparedOp& p = prepared_[i];
  const TensorDef& out_t = model_.tensors[static_cast<size_t>(op.output)];
  const TensorDef& in_t = model_.tensors[static_cast<size_t>(op.inputs[0])];
  const int bits = in_t.bits;
  if (bits != 8 && bits != 4)
    throw std::runtime_error("Interpreter: unsupported activation bits");
  const bool fast = op_backend_[i] == kernels::BackendKind::kFast;
  obs::counter_add(fast ? obs::Counter::kBackendFastOps
                        : obs::Counter::kBackendReferenceOps,
                   1);
  // Fast-served ops get a nested span so traces show which backend executed
  // them; the reference path keeps its historical trace shape.
  std::optional<obs::SpanScope> backend_span;
  if (fast)
    backend_span.emplace("backend_fast", obs::Cat::kKernel, "op",
                         static_cast<int64_t>(i));
  auto in_b = tensor_bytes(op.inputs[0]);
  auto out_b = arena_span(op.output);
  switch (op.type) {
    case OpType::kConv2D: {
      const TensorDef& w = model_.tensors[static_cast<size_t>(op.inputs[1])];
      if (w.bits != bits || out_t.bits != bits)
        throw std::runtime_error("Interpreter: mixed-precision conv unsupported");
      auto w_b = tensor_bytes(op.inputs[1]);
      std::span<const int32_t> bias;
      if (op.inputs.size() > 2 && op.inputs[2] >= 0)
        bias = as_s32(tensor_bytes(op.inputs[2]));
      if (fast)
        kernels::conv2d_s8_fast(as_s8(in_b), *packed_->per_op[i], bias,
                                as_s8(out_b), scratch_, p.conv, p.rq);
      else if (bits == 8)
        kernels::conv2d_s8(as_s8(in_b), as_s8(w_b), bias, as_s8(out_b), p.conv,
                           p.rq);
      else
        kernels::conv2d_s4(in_b, w_b, bias, out_b, p.conv, p.rq);
      break;
    }
    case OpType::kDepthwiseConv2D: {
      const TensorDef& w = model_.tensors[static_cast<size_t>(op.inputs[1])];
      if (w.bits != bits || out_t.bits != bits)
        throw std::runtime_error("Interpreter: mixed-precision dwconv unsupported");
      auto w_b = tensor_bytes(op.inputs[1]);
      std::span<const int32_t> bias;
      if (op.inputs.size() > 2 && op.inputs[2] >= 0)
        bias = as_s32(tensor_bytes(op.inputs[2]));
      if (fast)
        kernels::depthwise_conv2d_s8_fast(as_s8(in_b), as_s8(w_b), bias,
                                          as_s8(out_b), p.conv, p.rq);
      else if (bits == 8)
        kernels::depthwise_conv2d_s8(as_s8(in_b), as_s8(w_b), bias, as_s8(out_b),
                                     p.conv, p.rq);
      else
        kernels::depthwise_conv2d_s4(in_b, w_b, bias, out_b, p.conv, p.rq);
      break;
    }
    case OpType::kFullyConnected: {
      auto w_b = tensor_bytes(op.inputs[1]);
      std::span<const int32_t> bias;
      if (op.inputs.size() > 2 && op.inputs[2] >= 0)
        bias = as_s32(tensor_bytes(op.inputs[2]));
      if (fast)
        kernels::fully_connected_s8_fast(as_s8(in_b), *packed_->per_op[i], bias,
                                         as_s8(out_b), p.fc_in, p.fc_out, p.rq);
      else if (bits == 8)
        kernels::fully_connected_s8(as_s8(in_b), as_s8(w_b), bias, as_s8(out_b),
                                    p.fc_in, p.fc_out, p.rq);
      else
        kernels::fully_connected_s4(in_b, w_b, bias, out_b, p.fc_in, p.fc_out, p.rq);
      break;
    }
    case OpType::kAvgPool2D:
      if (bits == 8)
        kernels::avg_pool_s8(as_s8(in_b), as_s8(out_b), p.pool, p.rq.act_min,
                             p.rq.act_max);
      else
        kernels::avg_pool_s4(in_b, out_b, p.pool, p.rq.act_min, p.rq.act_max);
      break;
    case OpType::kMaxPool2D:
      if (bits != 8) throw std::runtime_error("Interpreter: int4 max pool unsupported");
      kernels::max_pool_s8(as_s8(in_b), as_s8(out_b), p.pool, p.rq.act_min,
                           p.rq.act_max);
      break;
    case OpType::kAdd: {
      if (bits != 8) throw std::runtime_error("Interpreter: int4 add unsupported");
      auto b_b = tensor_bytes(op.inputs[1]);
      kernels::add_s8(as_s8(in_b), as_s8(b_b), as_s8(out_b), p.add);
      break;
    }
    case OpType::kSoftmax: {
      if (bits != 8) throw std::runtime_error("Interpreter: int4 softmax unsupported");
      const int32_t cols = static_cast<int32_t>(in_t.elements());
      kernels::softmax_s8(as_s8(in_b), as_s8(out_b), 1, cols, p.softmax_scale);
      break;
    }
    case OpType::kOpTypeCount:
      throw std::runtime_error("Interpreter: invalid op type");
  }
}

Expected<TensorI8> Interpreter::try_invoke_quantized(const TensorI8& input) {
  const TensorDef& in_t = model_.tensors[static_cast<size_t>(model_.input_tensor)];
  if (input.size() != in_t.elements())
    return RtError{ErrorCode::kInputMismatch,
                   "Interpreter: input element count mismatch: got " +
                       std::to_string(input.size()) + ", model wants " +
                       std::to_string(in_t.elements())};
  if (verify_weights_crc_ && model_.weights_crc() != expected_weights_crc_)
    return RtError{ErrorCode::kCrcMismatch,
                   "Interpreter: weights blob CRC drifted since load "
                   "(flash fault or unannounced update)"};
  try {
    auto in_b = arena_span(model_.input_tensor);
    if (in_t.bits == 8) {
      std::memcpy(in_b.data(), input.data(), static_cast<size_t>(input.size()));
    } else {
      for (int64_t i = 0; i < input.size(); ++i)
        kernels::store_s4(in_b, i, input[i]);
    }
    {
      obs::SpanScope invoke_span("invoke", obs::Cat::kRuntime, "ops",
                                 static_cast<int64_t>(model_.ops.size()));
      obs::counter_add(obs::Counter::kInterpreterInvokes, 1);
      obs::counter_add(obs::Counter::kInterpreterOps,
                       static_cast<int64_t>(model_.ops.size()));
      for (size_t i = 0; i < model_.ops.size(); ++i) {
        obs::SpanScope op_span(op_type_name(model_.ops[i].type),
                               obs::Cat::kKernel, "op",
                               static_cast<int64_t>(i), "macs", op_macs_[i]);
        if (profiling_) {
          const auto t0 = std::chrono::steady_clock::now();
          run_op(i);
          op_wall_ns_[i] += std::chrono::duration_cast<std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
        } else {
          run_op(i);
        }
        // Per-op counter-track samples: the arena fill/drain curve (Fig. 2
        // over the trace timeline), scratch in use, the global MAC counter,
        // and — when a table was injected — the op's predicted energy.
        if (obs::tracing_enabled()) {
          obs::trace_counter("arena_bytes",
                             static_cast<double>(op_live_bytes_[i]));
          obs::trace_counter("scratch_bytes",
                             static_cast<double>(op_scratch_bytes_[i]));
          obs::trace_counter(
              "cumulative_macs",
              static_cast<double>(
                  obs::counter_value(obs::Counter::kKernelMacs)));
          if (!op_energy_uj_.empty())
            obs::trace_counter("op_energy_uj", op_energy_uj_[i]);
        }
      }
      if (profiling_) ++profiled_invocations_;
    }
    ++invocations_;
    if (auto err = check_canaries()) return *err;
    const TensorDef& out_t = model_.tensors[static_cast<size_t>(model_.output_tensor)];
    auto out_b = tensor_bytes(model_.output_tensor);
    TensorI8 out(out_t.shape);
    if (out_t.bits == 8) {
      std::memcpy(out.data(), out_b.data(), static_cast<size_t>(out.size()));
    } else {
      for (int64_t i = 0; i < out.size(); ++i) out[i] = kernels::load_s4(out_b, i);
    }
    return out;
  } catch (const std::exception& e) {
    // run_op rejects op/precision combinations the kernels cannot execute.
    return RtError{ErrorCode::kUnsupportedOp, e.what()};
  }
}

Expected<TensorF> Interpreter::try_invoke(const TensorF& input_image) {
  for (int64_t i = 0; i < input_image.size(); ++i)
    if (!std::isfinite(input_image[i]))
      return RtError{ErrorCode::kNonFiniteInput,
                     "Interpreter: NaN/Inf in input at element " + std::to_string(i)};
  const TensorDef& in_t = model_.tensors[static_cast<size_t>(model_.input_tensor)];
  const TensorI8 q = quant::quantize(input_image, in_t.qp, in_t.bits);
  Expected<TensorI8> out_q = try_invoke_quantized(q);
  if (!out_q.ok()) return out_q.error();
  const TensorDef& out_t = model_.tensors[static_cast<size_t>(model_.output_tensor)];
  TensorF out = quant::dequantize(out_q.value(), out_t.qp);
  for (int64_t i = 0; i < out.size(); ++i)
    if (!std::isfinite(out[i]))
      return RtError{ErrorCode::kNonFiniteOutput,
                     "Interpreter: NaN/Inf in dequantized output at element " +
                         std::to_string(i)};
  return out;
}

TensorI8 Interpreter::invoke_quantized(const TensorI8& input) {
  return try_invoke_quantized(input).take_or_throw();
}

TensorF Interpreter::invoke(const TensorF& input_image) {
  return try_invoke(input_image).take_or_throw();
}

void Interpreter::set_profiling(bool on) { profiling_ = on; }

void Interpreter::reset_profile() {
  std::fill(op_wall_ns_.begin(), op_wall_ns_.end(), int64_t{0});
  profiled_invocations_ = 0;
}

ProfileReport Interpreter::profile_report() const {
  ProfileReport r;
  r.model_name = model_.name;
  r.invocations = profiled_invocations_;
  r.ops.resize(model_.ops.size());
  for (size_t i = 0; i < model_.ops.size(); ++i) {
    OpProfile& op = r.ops[i];
    op.op_index = static_cast<int>(i);
    op.type = model_.ops[i].type;
    op.output_name =
        model_.tensors[static_cast<size_t>(model_.ops[i].output)].name;
    op.backend = kernels::backend_name(op_backend_[i]);
    op.macs = op_macs_[i];
    op.invocations = profiled_invocations_;
    op.wall_ns = op_wall_ns_[i];
  }
  return r;
}

MemoryReport Interpreter::memory_report() const {
  MemoryReport r;
  r.arena_bytes = plan_.arena_bytes;
  r.persistent_bytes = TflmOverheads::persistent_sram_bytes(model_);
  r.runtime_sram_bytes = TflmOverheads::kRuntimeSramBytes;
  r.weights_bytes = model_.weights_bytes();
  r.graph_def_bytes = model_.graph_def_bytes();
  r.code_flash_bytes = TflmOverheads::kCodeFlashBytes;
  return r;
}

}  // namespace mn::rt
