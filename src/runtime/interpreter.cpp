#include "runtime/interpreter.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "obs/obs.hpp"

namespace mn::rt {

namespace {
constexpr uint8_t kCanaryByte = 0xA5;

// Claim predicate for the fast backend: conv2d / depthwise / fully-connected
// whose input, constant weights and output are all int8 or all int4 (panels
// are packed once at load time, so mutable weights cannot be claimed), and
// add whose two inputs and output are all int8 or all int4, where
// kernels::fast_kernels_run admits them. Everything else falls back.
bool fast_claims(const ModelDef& m, const OpDef& op) {
  if (op.type != OpType::kConv2D && op.type != OpType::kDepthwiseConv2D &&
      op.type != OpType::kFullyConnected && op.type != OpType::kAdd)
    return false;
  const TensorDef& in = m.tensors[static_cast<size_t>(op.inputs[0])];
  const TensorDef& in2 = m.tensors[static_cast<size_t>(op.inputs[1])];
  const TensorDef& out = m.tensors[static_cast<size_t>(op.output)];
  return (in.bits == 8 || in.bits == 4) && in2.bits == in.bits &&
         out.bits == in.bits && (op.type == OpType::kAdd || in2.is_const) &&
         (op.type == OpType::kDepthwiseConv2D  // weights [1][kh][kw][ch]
              ? kernels::fast_kernels_run(in2.shape.dim(1) * in2.shape.dim(2))
              : kernels::fast_kernels_run());
}

// The requantization of a conv, depthwise or fully-connected op, from its
// tensors' quantization: per-tensor, or one multiplier per output channel.
kernels::RequantParams requant_params(const ModelDef& m, const OpDef& op) {
  const TensorDef& in = m.tensors[static_cast<size_t>(op.inputs[0])];
  const TensorDef& w = m.tensors[static_cast<size_t>(op.inputs[1])];
  const TensorDef& out = m.tensors[static_cast<size_t>(op.output)];
  kernels::RequantParams rq;
  activation_range(op.act, out.qp, out.bits, &rq.act_min, &rq.act_max);
  rq.input_zp = in.qp.zero_point;
  rq.output_zp = out.qp.zero_point;
  if (w.channel_scales.empty()) {
    rq.mult = quant::quantize_multiplier(static_cast<double>(in.qp.scale) *
                                         w.qp.scale / out.qp.scale);
  } else {
    for (float ws : w.channel_scales)
      rq.per_channel.push_back(quant::quantize_multiplier(
          static_cast<double>(in.qp.scale) * ws / out.qp.scale));
  }
  return rq;
}

// An add's rescaling: both inputs onto twice the larger input scale, left
// shifted by 20 bits of headroom, and the sum onto the output scale.
kernels::AddParams add_params(const ModelDef& m, const OpDef& op) {
  const TensorDef& a = m.tensors[static_cast<size_t>(op.inputs[0])];
  const TensorDef& b = m.tensors[static_cast<size_t>(op.inputs[1])];
  const TensorDef& out = m.tensors[static_cast<size_t>(op.output)];
  kernels::AddParams p;
  activation_range(op.act, out.qp, out.bits, &p.act_min, &p.act_max);
  const double twice_max = 2.0 * std::max(a.qp.scale, b.qp.scale);
  p.a_zp = a.qp.zero_point;
  p.b_zp = b.qp.zero_point;
  p.out_zp = out.qp.zero_point;
  p.left_shift = 20;
  p.a_mult = quant::quantize_multiplier(a.qp.scale / twice_max);
  p.b_mult = quant::quantize_multiplier(b.qp.scale / twice_max);
  p.out_mult = quant::quantize_multiplier(
      twice_max / ((1 << p.left_shift) * static_cast<double>(out.qp.scale)));
  return p;
}

// A claimed conv, depthwise or FC op's weights as its fast kernel reads
// them; empty for int8 depthwise, which reads them in place.
kernels::PackedOpWeights fast_weights(const ModelDef& m, const OpDef& op) {
  const TensorDef& w = m.tensors[static_cast<size_t>(op.inputs[1])];
  if (op.type == OpType::kDepthwiseConv2D && w.bits == 8) return {};
  const uint8_t* w_bytes = m.weights_blob.data() + w.blob_offset;
  // Kernels read int8 values; int4 weights are unpacked once, here.
  std::vector<int8_t> unpacked;
  std::span<const int8_t> values{reinterpret_cast<const int8_t*>(w_bytes),
                                 static_cast<size_t>(w.elements())};
  if (w.bits == 4) {
    unpacked.resize(static_cast<size_t>(w.elements()));
    quant::unpack_int4({w_bytes, static_cast<size_t>(w.storage_bytes())},
                       unpacked);
    values = unpacked;
  }
  // Conv weights [out_ch][kh][kw][in_ch] and FC weights [out][in] are
  // row-major with one row per output channel/feature; both become a
  // micro-kernel panel in the form of the variant the kernels run
  // (active_kernel_isa()), a conv's in its kh kernel rows. Depthwise keeps
  // its [1][kh][kw][ch] weights as they are.
  if (op.type == OpType::kDepthwiseConv2D) {
    kernels::PackedOpWeights p;
    p.values.assign(values.begin(), values.end());
    return p;
  }
  const auto out_ch = static_cast<int32_t>(w.shape.dim(0));
  const auto rows = op.type == OpType::kConv2D
                        ? static_cast<int32_t>(w.shape.dim(1))
                        : 1;
  return kernels::pack_conv_panel(values, out_ch, w.elements() / out_ch, rows,
                                  kernels::active_kernel_isa());
}

}  // namespace

std::shared_ptr<const PackedModel> pack_model_weights(
    const ModelDef& model, kernels::BackendConfig config) {
  auto pm = std::make_shared<PackedModel>();
  pm->kind = config.kind;
  pm->per_op.resize(model.ops.size());
  if (config.kind == kernels::BackendKind::kReference) return pm;
  for (size_t i = 0; i < model.ops.size(); ++i) {
    const OpDef& op = model.ops[i];
    if (!fast_claims(model, op)) continue;
    auto d = std::make_shared<FastOpData>();
    if (op.type == OpType::kAdd) {
      d->add = kernels::prepare_add_requant(add_params(model, op));
    } else {
      // One multiplier per output channel: the output's innermost dimension.
      const Shape& out = model.tensors[static_cast<size_t>(op.output)].shape;
      d->requant = kernels::prepare_requant(
          requant_params(model, op),
          static_cast<int32_t>(out.dim(out.rank() - 1)));
      d->weights = fast_weights(model, op);
    }
    pm->per_op[i] = std::move(d);
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
  locate_operands();
  // Backend resolution: pack the fast-op data (or adopt the shared set), then
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
      if (packed_->per_op[i] == nullptr)
        throw std::runtime_error(
            "Interpreter: shared PackedModel lacks a claimed op's data");
      op_backend_[i] = backend_.kind;
    }
  // Shared conv scratch (CMSIS-NN analog): a tile of im2col columns for each
  // fast conv and FC; reference ops need none. Int4 staging: an int4 op's
  // unpacked input and int8 result, plus its unpacked weights when no panel
  // holds them. All sized here, so an invoke never allocates.
  op_scratch_bytes_.assign(model_.ops.size(), 0);
  int64_t scratch = 0, stage_in = 0, stage_out = 0, stage_w = 0;
  for (size_t i = 0; i < model_.ops.size(); ++i) {
    const OpDef& op = model_.ops[i];
    const bool fast = op_backend_[i] == kernels::BackendKind::kFast;
    if (fast && (op.type == OpType::kConv2D ||
                 op.type == OpType::kFullyConnected)) {
      const PreparedOp& p = prepared_[i];
      op_scratch_bytes_[i] = kernels::conv2d_fast_scratch_bytes(
          op.type == OpType::kConv2D
              ? p.conv
              : kernels::fully_connected_geometry(p.fc_in, p.fc_out));
      scratch = std::max(scratch, op_scratch_bytes_[i]);
    }
    // Int4 ops run as a storage format: their activation inputs are
    // unpacked here, the int8 kernel runs, and the result is packed back.
    if (model_.tensors[static_cast<size_t>(op.inputs[0])].bits != 4) continue;
    const auto elements = [&](int id) {
      return model_.tensors[static_cast<size_t>(id)].elements();
    };
    const bool weighted = op.type == OpType::kConv2D ||
                          op.type == OpType::kDepthwiseConv2D ||
                          op.type == OpType::kFullyConnected;
    // Add stages both operands back to back.
    const int64_t in = elements(op.inputs[0]) +
                       (op.type == OpType::kAdd ? elements(op.inputs[1]) : 0);
    const int64_t out = elements(op.output);
    const int64_t w = weighted && !fast ? elements(op.inputs[1]) : 0;
    stage_in = std::max(stage_in, in);
    stage_out = std::max(stage_out, out);
    stage_w = std::max(stage_w, w);
    op_scratch_bytes_[i] += in + out + w;
  }
  scratch_.assign(static_cast<size_t>(scratch), 0);
  stage_in_.assign(static_cast<size_t>(stage_in), 0);
  stage_out_.assign(static_cast<size_t>(stage_out), 0);
  stage_w_.assign(static_cast<size_t>(stage_w), 0);
  expected_weights_crc_ = model_.weights_crc();
  op_macs_.resize(model_.ops.size());
  op_wall_ns_.assign(model_.ops.size(), 0);
  for (size_t i = 0; i < model_.ops.size(); ++i)
    op_macs_[i] = model_.ops[i].macs(model_.tensors);
  op_live_bytes_ = plan_.occupancy_timeline(static_cast<int>(model_.ops.size()));
  obs::gauge_set_max(obs::Gauge::kArenaPeakBytes, plan_.arena_bytes);
  obs::gauge_set_max(obs::Gauge::kScratchPeakBytes,
                     scratch + stage_in + stage_out + stage_w);
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
    const TensorDef& in = model_.tensors[static_cast<size_t>(op.inputs[0])];
    const TensorDef& out = model_.tensors[static_cast<size_t>(op.output)];
    activation_range(op.act, out.qp, out.bits, &p.rq.act_min, &p.rq.act_max);
    // A fast-served op reads its requantization from its FastOpData.
    const bool fast =
        backend_.kind == kernels::BackendKind::kFast && fast_claims(model_, op);
    switch (op.type) {
      case OpType::kConv2D:
      case OpType::kDepthwiseConv2D:
      case OpType::kFullyConnected: {
        const TensorDef& w = model_.tensors[static_cast<size_t>(op.inputs[1])];
        if (!fast) p.rq = requant_params(model_, op);
        if (op.type == OpType::kFullyConnected) {
          p.fc_in = static_cast<int32_t>(w.shape.dim(1));
          p.fc_out = static_cast<int32_t>(w.shape.dim(0));
          break;
        }
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
        break;
      }
      case OpType::kAvgPool2D:
      case OpType::kMaxPool2D:
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
        break;
      case OpType::kAdd:
        if (!fast) p.add = add_params(model_, op);
        break;
      case OpType::kSoftmax:
        p.softmax_scale = in.qp.scale;
        break;
      case OpType::kOpTypeCount:  // rejected by ModelDef::check
        break;
    }
  }
}

Interpreter::Operand Interpreter::locate(int tensor_id) const {
  if (tensor_id < 0) return {};
  const TensorDef& t = model_.tensors[static_cast<size_t>(tensor_id)];
  if (t.is_const) return {true, t.blob_offset, t.storage_bytes()};
  // Every arena tensor has an allocation: plan_memory places them all, and
  // an injected plan was checked for it above.
  const TensorAllocation* a = plan_.find(tensor_id);
  return {false, kArenaGuardBytes + a->offset, a->bytes};
}

void Interpreter::locate_operands() {
  operands_.resize(model_.ops.size());
  for (size_t i = 0; i < model_.ops.size(); ++i) {
    const OpDef& op = model_.ops[i];
    OpOperands& o = operands_[i];
    o.in = locate(op.inputs[0]);
    o.out = locate(op.output);
    if (op.type == OpType::kAdd) o.in2 = locate(op.inputs[1]);
    if (op.type == OpType::kConv2D || op.type == OpType::kDepthwiseConv2D ||
        op.type == OpType::kFullyConnected) {
      o.weights = locate(op.inputs[1]);
      if (op.inputs.size() > 2) o.bias = locate(op.inputs[2]);
    }
  }
  model_in_ = locate(model_.input_tensor);
  model_out_ = locate(model_.output_tensor);
}

std::span<const uint8_t> Interpreter::bytes(const Operand& o) const {
  const uint8_t* base = o.in_blob ? model_.weights_blob.data() : arena_.data();
  return {base + o.offset, static_cast<size_t>(o.bytes)};
}

std::span<uint8_t> Interpreter::arena_bytes(const Operand& o) {
  return {arena_.data() + o.offset, static_cast<size_t>(o.bytes)};
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

std::span<const int8_t> Interpreter::op_weights(size_t i) {
  const OpDef& op = model_.ops[i];
  // Fast int4 depthwise: unpacked at load.
  if (const FastOpData* f = packed_->per_op[i].get();
      f != nullptr && op.type == OpType::kDepthwiseConv2D &&
      !f->weights.values.empty())
    return f->weights.values;
  const TensorDef& w = model_.tensors[static_cast<size_t>(op.inputs[1])];
  const auto w_b = bytes(operands_[i].weights);
  if (w.bits == 8) return as_s8(w_b);
  const std::span<int8_t> values{stage_w_.data(),
                                 static_cast<size_t>(w.elements())};
  quant::unpack_int4(w_b, values);
  return values;
}

void Interpreter::run_op(size_t i) {
  // ModelDef::check has already refused every op this cannot run.
  const OpDef& op = model_.ops[i];
  const PreparedOp& p = prepared_[i];
  const OpOperands& o = operands_[i];
  const TensorDef& in_t = model_.tensors[static_cast<size_t>(op.inputs[0])];
  const bool s4 = in_t.bits == 4;
  const bool fast = op_backend_[i] == kernels::BackendKind::kFast;
  const FastOpData* f = packed_->per_op[i].get();  // set when fast
  const auto in_b = bytes(o.in);
  const auto out_b = arena_bytes(o.out);
  // Int4 is a storage format: the int8 kernel runs on the op's unpacked
  // input and writes into scratch, and the result is packed into the arena.
  std::span<const int8_t> x = as_s8(in_b);
  std::span<int8_t> y = as_s8(out_b);
  if (s4) {
    const std::span<int8_t> x4{stage_in_.data(),
                               static_cast<size_t>(in_t.elements())};
    quant::unpack_int4(in_b, x4);
    x = x4;
    y = {stage_out_.data(),
         static_cast<size_t>(
             model_.tensors[static_cast<size_t>(op.output)].elements())};
  }
  // Add's second operand, staged behind the first at int4.
  std::span<const int8_t> b = as_s8(bytes(o.in2));
  if (s4 && op.type == OpType::kAdd) {
    const std::span<int8_t> b4{stage_in_.data() + x.size(), x.size()};
    quant::unpack_int4(bytes(o.in2), b4);
    b = b4;
  }
  const std::span<const int32_t> bias = as_s32(bytes(o.bias));
  switch (op.type) {
    case OpType::kConv2D:
      if (fast)
        kernels::conv2d_s8_fast(x, f->weights, bias, y, scratch_, p.conv,
                                f->requant);
      else
        kernels::conv2d_s8(x, op_weights(i), bias, y, p.conv, p.rq);
      break;
    case OpType::kDepthwiseConv2D:
      if (fast)
        kernels::depthwise_conv2d_s8_fast(x, op_weights(i), bias, y, p.conv,
                                          f->requant);
      else
        kernels::depthwise_conv2d_s8(x, op_weights(i), bias, y, p.conv, p.rq);
      break;
    case OpType::kFullyConnected:
      if (fast)
        kernels::fully_connected_s8_fast(x, f->weights, bias, y, scratch_,
                                         p.fc_in, p.fc_out, f->requant);
      else
        kernels::fully_connected_s8(x, op_weights(i), bias, y, p.fc_in,
                                    p.fc_out, p.rq);
      break;
    case OpType::kAvgPool2D:
      kernels::avg_pool_s8(x, y, p.pool, p.rq.act_min, p.rq.act_max);
      break;
    case OpType::kMaxPool2D:
      kernels::max_pool_s8(x, y, p.pool, p.rq.act_min, p.rq.act_max);
      break;
    case OpType::kAdd:
      if (fast)
        kernels::add_s8_fast(x, b, y, f->add);
      else
        kernels::add_s8(x, b, y, p.add);
      break;
    case OpType::kSoftmax:
      kernels::softmax_s8(x, y, 1, static_cast<int32_t>(in_t.elements()),
                          p.softmax_scale);
      break;
    case OpType::kOpTypeCount:
      break;
  }
  if (s4) quant::pack_int4(y, out_b);
}

void Interpreter::emit_op_trace(size_t i, int64_t t0, int64_t t1,
                                int64_t cumulative_macs) const {
  obs::TraceEvent ev;
  ev.name = op_type_name(model_.ops[i].type);
  ev.cat = obs::Cat::kKernel;
  ev.tid = obs::thread_ordinal();
  ev.start_ns = t0;
  ev.dur_ns = t1 - t0;
  ev.arg_a_name = "op";
  ev.arg_a = static_cast<int64_t>(i);
  ev.arg_b_name = "macs";
  ev.arg_b = op_macs_[i];
  obs::trace_emit(ev);
  // Counter-track samples: the arena fill/drain curve (Fig. 2 over the
  // trace timeline), scratch in use, this interpreter's running MAC sum and,
  // when a table was injected, the op's predicted energy.
  obs::trace_counter("arena_bytes", static_cast<double>(op_live_bytes_[i]));
  obs::trace_counter("scratch_bytes",
                     static_cast<double>(op_scratch_bytes_[i]));
  obs::trace_counter("cumulative_macs", static_cast<double>(cumulative_macs));
  if (!op_energy_uj_.empty())
    obs::trace_counter("op_energy_uj", op_energy_uj_[i]);
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
  // The nibble codec keeps only the low four bits, so an out-of-range int4
  // value is refused here rather than silently wrapped.
  if (in_t.bits == 4)
    for (int64_t i = 0; i < input.size(); ++i)
      if (input[i] < -8 || input[i] > 7)
        return RtError{ErrorCode::kInputMismatch,
                       "Interpreter: int4 input element " + std::to_string(i) +
                           " is " + std::to_string(input[i]) +
                           ", outside [-8, 7]"};
  auto in_b = arena_bytes(model_in_);
  if (in_t.bits == 8)
    std::memcpy(in_b.data(), input.data(), static_cast<size_t>(input.size()));
  else
    quant::pack_int4(input.span(), in_b);
  // The per-op ledger: one clock pair per op, read only while profiling or
  // tracing. The same interval goes into the profile and into the op's span.
  const bool traced = obs::tracing_enabled();
  const bool timed = profiling_ || traced;
  int64_t invoke_start = 0, t0 = 0, t1 = 0;
  int64_t cumulative_macs =
      traced ? invocations_ * std::accumulate(op_macs_.begin(), op_macs_.end(),
                                              int64_t{0})
             : 0;
  for (size_t i = 0; i < model_.ops.size(); ++i) {
    if (timed) t0 = obs::now_ns();
    run_op(i);
    if (!timed) continue;
    t1 = obs::now_ns();
    if (profiling_) op_wall_ns_[i] += t1 - t0;
    if (traced) {
      if (i == 0) invoke_start = t0;
      cumulative_macs += op_macs_[i];
      emit_op_trace(i, t0, t1, cumulative_macs);
    }
  }
  if (traced && !model_.ops.empty()) {
    obs::TraceEvent ev;
    ev.name = "invoke";
    ev.tid = obs::thread_ordinal();
    ev.start_ns = invoke_start;
    ev.dur_ns = t1 - invoke_start;
    ev.arg_a_name = "ops";
    ev.arg_a = static_cast<int64_t>(model_.ops.size());
    obs::trace_emit(ev);
  }
  if (profiling_) ++profiled_invocations_;
  ++invocations_;
  if (auto err = check_canaries()) return *err;
  const TensorDef& out_t = model_.tensors[static_cast<size_t>(model_.output_tensor)];
  auto out_b = bytes(model_out_);
  TensorI8 out(out_t.shape);
  if (out_t.bits == 8)
    std::memcpy(out.data(), out_b.data(), static_cast<size_t>(out.size()));
  else
    quant::unpack_int4(out_b, out.span());
  return out;
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
  r.kernel_isa = kernels::kernel_isa_name(kernel_isa());
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
