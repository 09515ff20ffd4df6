#include "compile/compile.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "kernels/kernels.hpp"
#include "obs/obs.hpp"
#include "parallel/pool.hpp"
#include "runtime/planner.hpp"

namespace mn::compile {

using rt::Activation;
using rt::ModelDef;
using rt::OpDef;
using rt::OpType;
using rt::TensorDef;

bool compile_enabled_from_env() {
  const char* env = std::getenv("MN_COMPILE");
  if (env == nullptr || env[0] == '\0') return false;
  const std::string_view v(env);
  if (v == "on" || v == "1" || v == "true") return true;
  if (v == "off" || v == "0" || v == "false") return false;
  static bool warned = false;
  if (!warned) {
    warned = true;
    std::fprintf(stderr,
                 "MN_COMPILE=%s is not a compile mode (expected \"on\" or "
                 "\"off\"); compilation stays off\n",
                 env);
  }
  return false;
}

namespace {

// Per-tensor use sites, rebuilt after every mutating pass. `readers` lists an
// op once per *distinct* input tensor it reads.
struct Uses {
  std::vector<std::vector<int>> writers;
  std::vector<std::vector<int>> readers;
};

Uses build_uses(const ModelDef& m) {
  Uses u;
  u.writers.resize(m.tensors.size());
  u.readers.resize(m.tensors.size());
  for (size_t oi = 0; oi < m.ops.size(); ++oi) {
    const OpDef& op = m.ops[oi];
    u.writers[static_cast<size_t>(op.output)].push_back(static_cast<int>(oi));
    for (size_t k = 0; k < op.inputs.size(); ++k) {
      const int id = op.inputs[k];
      if (id < 0) continue;
      bool dup = false;
      for (size_t j = 0; j < k; ++j) dup |= op.inputs[j] == id;
      if (!dup) u.readers[static_cast<size_t>(id)].push_back(static_cast<int>(oi));
    }
  }
  return u;
}

// Drops tensor `id` (which must be completely unreferenced) and renumbers
// every id above it. Used by the fold passes to keep the graph plannable even
// when dead-code elimination is disabled.
void erase_tensor(ModelDef& m, int id) {
  m.tensors.erase(m.tensors.begin() + id);
  auto remap = [id](int t) { return t > id ? t - 1 : t; };
  for (OpDef& op : m.ops) {
    for (int& t : op.inputs)
      if (t >= 0) t = remap(t);
    op.output = remap(op.output);
  }
  m.input_tensor = remap(m.input_tensor);
  m.output_tensor = remap(m.output_tensor);
}

// Builds a single-op sub-model containing just `op` and the tensors it
// touches (ids remapped), sharing a copy of the weights blob. `runtime_input`
// is the op input that stays an arena tensor (fed at invoke time); every
// other input must be const. Returns the sub-model plus the remapped ids.
struct SubModel {
  ModelDef m;
  int in_id = -1;
  int out_id = -1;
};

SubModel make_single_op_model(const ModelDef& m, const OpDef& op,
                              int runtime_input) {
  SubModel s;
  s.m.name = "compile_eval";
  OpDef op2 = op;
  std::vector<int> ids;  // old ids in sub-model order
  auto local = [&](int old_id) {
    for (size_t i = 0; i < ids.size(); ++i)
      if (ids[i] == old_id) return static_cast<int>(i);
    ids.push_back(old_id);
    s.m.tensors.push_back(m.tensors[static_cast<size_t>(old_id)]);
    return static_cast<int>(ids.size() - 1);
  };
  for (int& id : op2.inputs)
    if (id >= 0) id = local(id);
  op2.output = local(op.output);
  s.m.ops.push_back(op2);
  s.in_id = op2.inputs.empty() ? -1 : op2.inputs[0];
  if (runtime_input >= 0) s.in_id = local(runtime_input);
  s.out_id = op2.output;
  s.m.input_tensor = s.in_id;
  s.m.output_tensor = s.out_id;
  s.m.weights_blob = m.weights_blob;
  // The runtime input becomes an arena tensor; the output already is one.
  TensorDef& in_t = s.m.tensors[static_cast<size_t>(s.in_id)];
  in_t.is_const = false;
  in_t.blob_offset = -1;
  return s;
}

// Reads a const tensor's quantized values (one int8 per element, int4
// unpacked) out of the blob.
std::optional<TensorI8> read_const_values(const ModelDef& m, int id) {
  const TensorDef& t = m.tensors[static_cast<size_t>(id)];
  if (!t.is_const || (t.bits != 8 && t.bits != 4)) return std::nullopt;
  TensorI8 out(t.shape);
  std::span<const uint8_t> bytes{m.weights_blob.data() + t.blob_offset,
                                 static_cast<size_t>(t.storage_bytes())};
  if (t.bits == 8) {
    std::memcpy(out.data(), bytes.data(), static_cast<size_t>(out.size()));
  } else {
    quant::unpack_int4(bytes, out.span());
  }
  return out;
}

// Evaluates `op` on `input` with the real kernels (reference backend) by
// building a single-op interpreter. Returns nullopt when the op cannot run
// (unsupported dtype combination, invalid geometry, ...): the caller simply
// skips the rewrite.
std::optional<TensorI8> eval_op(const ModelDef& m, const OpDef& op,
                                int runtime_input, const TensorI8& input) {
  try {
    SubModel s = make_single_op_model(m, op, runtime_input);
    if (s.m.check()) return std::nullopt;
    rt::Interpreter interp(s.m, rt::plan_memory(s.m),
                           kernels::BackendConfig::reference());
    auto out = interp.try_invoke_quantized(input);
    if (!out.ok()) return std::nullopt;
    return std::move(out).take_or_throw();
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

// ------------------------------------------------------- pass 1: constants --

// Ops whose every input is const are evaluated through the kernels and their
// output materialized into the weights blob.
bool pass_fold_constants(ModelDef& m, PassStats& stats) {
  bool changed = false;
  Uses uses = build_uses(m);
  std::vector<bool> removed(m.ops.size(), false);
  for (size_t oi = 0; oi < m.ops.size(); ++oi) {
    const OpDef& op = m.ops[oi];
    if (removed[oi]) continue;
    if (op.inputs.empty() || op.inputs[0] < 0) continue;
    if (op.output == m.output_tensor || op.output == m.input_tensor) continue;
    if (uses.writers[static_cast<size_t>(op.output)].size() != 1) continue;
    bool all_const = true;
    for (int id : op.inputs)
      if (id >= 0 && !m.tensors[static_cast<size_t>(id)].is_const)
        all_const = false;
    if (!all_const) continue;
    TensorDef& out_t = m.tensors[static_cast<size_t>(op.output)];
    if (out_t.is_const || (out_t.bits != 8 && out_t.bits != 4)) continue;
    auto in_vals = read_const_values(m, op.inputs[0]);
    if (!in_vals) continue;
    auto result = eval_op(m, op, op.inputs[0], *in_vals);
    if (!result) continue;
    // Materialize: append the result to the blob, flip the tensor to const.
    std::vector<uint8_t> bytes;
    if (out_t.bits == 4) {
      bytes = quant::pack_int4(*result);
    } else {
      bytes.assign(reinterpret_cast<const uint8_t*>(result->data()),
                   reinterpret_cast<const uint8_t*>(result->data()) +
                       result->size());
    }
    out_t.blob_offset = static_cast<int64_t>(m.weights_blob.size());
    m.weights_blob.insert(m.weights_blob.end(), bytes.begin(), bytes.end());
    out_t.is_const = true;
    removed[oi] = true;
    changed = true;
    stats.ops_removed += 1;
    stats.bytes_folded += static_cast<int64_t>(bytes.size());
    // Downstream consumers of op.output may now be const-foldable; rebuild
    // the writer index so the same sweep can cascade down the chain.
    uses = build_uses(m);
  }
  if (changed) {
    std::vector<OpDef> kept;
    for (size_t oi = 0; oi < m.ops.size(); ++oi)
      if (!removed[oi]) kept.push_back(m.ops[oi]);
    m.ops = std::move(kept);
  }
  return changed;
}

// ------------------------------------- passes 2+3: element-wise fold core --

// Exhaustive per-channel transfer LUT of an element-wise candidate op B
// (1x1/stride-1/no-pad dw-conv or pool): what B writes to channel c when
// every input lane holds quantized value v. Computed by invoking B through a
// single-op reference interpreter, i.e. with the *exact* kernel arithmetic —
// the compiler never re-derives requantization math that could drift from
// the kernels.
struct TransferLut {
  int channels = 0;
  int32_t qmin = 0, qmax = 0;
  std::vector<std::array<int8_t, 256>> lut;  // [channel][v - qmin]
};

std::optional<TransferLut> transfer_lut(const ModelDef& m, const OpDef& op) {
  const TensorDef& in_t = m.tensors[static_cast<size_t>(op.inputs[0])];
  if (in_t.shape.rank() != 3) return std::nullopt;
  const int ch = static_cast<int>(in_t.shape.dim(2));
  // Shrink the spatial extent to one pixel: element-wise ops act identically
  // at every position, so a {1,1,C} probe characterizes them completely.
  SubModel s = make_single_op_model(m, op, op.inputs[0]);
  s.m.tensors[static_cast<size_t>(s.in_id)].shape = Shape{1, 1, ch};
  s.m.tensors[static_cast<size_t>(s.out_id)].shape = Shape{1, 1, ch};
  if (s.m.check()) return std::nullopt;
  TransferLut t;
  t.channels = ch;
  const quant::QRange qr = quant::qrange(in_t.bits);
  t.qmin = qr.qmin;
  t.qmax = qr.qmax;
  t.lut.assign(static_cast<size_t>(ch), {});
  try {
    rt::Interpreter interp(s.m, rt::plan_memory(s.m),
                           kernels::BackendConfig::reference());
    for (int32_t v = qr.qmin; v <= qr.qmax; ++v) {
      TensorI8 in(Shape{1, 1, ch}, static_cast<int8_t>(v));
      auto out = interp.try_invoke_quantized(in);
      if (!out.ok()) return std::nullopt;
      for (int c = 0; c < ch; ++c)
        t.lut[static_cast<size_t>(c)][static_cast<size_t>(v - qr.qmin)] =
            out.value()[c];
    }
  } catch (const std::exception&) {
    return std::nullopt;
  }
  return t;
}

bool is_unit_pool(const OpDef& op) {
  return (op.type == OpType::kMaxPool2D || op.type == OpType::kAvgPool2D) &&
         op.kh == 1 && op.kw == 1 && op.stride == 1 && op.pad_h == 0 &&
         op.pad_w == 0;
}

bool is_unit_dw(const ModelDef& m, const OpDef& op) {
  if (op.type != OpType::kDepthwiseConv2D) return false;
  if (op.stride != 1 || op.pad_h != 0 || op.pad_w != 0) return false;
  if (op.inputs.size() < 2 || op.inputs[1] < 0) return false;
  const TensorDef& w = m.tensors[static_cast<size_t>(op.inputs[1])];
  if (!w.is_const || w.shape.rank() != 4) return false;
  if (w.shape.dim(1) != 1 || w.shape.dim(2) != 1) return false;  // 1x1 kernel
  if (op.inputs.size() > 2 && op.inputs[2] >= 0 &&
      !m.tensors[static_cast<size_t>(op.inputs[2])].is_const)
    return false;
  return true;
}

// Shared rewrite for passes 2 and 3. Folds element-wise op B into its
// producer A when an activation a' exists such that B's exact quantized
// transfer function equals clamp(·, range(a')) over A's output range.
//
// Legality argument: A's kernels compute clamp(requant(acc), range(A.act)).
// With B's input and output quantization bitwise equal, replacing the pair
// by A-with-act-a' computes clamp(requant(acc), range(a')). Because
// range(a') ⊆ range(A.act), clamp(clamp(x, old), new) == clamp(x, new), and
// B(v) == clamp(v, new) for every v the old A could emit (proven
// exhaustively by the LUT), the rewrite is bit-exact for every accumulator
// value — no assumption about requant rounding is needed anywhere.
bool pass_fold_elementwise(ModelDef& m, bool affine, PassStats& stats,
                           std::vector<FusedActivation>* fused) {
  bool changed = false;
  for (bool progress = true; progress;) {
    progress = false;
    const Uses uses = build_uses(m);
    for (size_t bi = 0; bi < m.ops.size(); ++bi) {
      const OpDef& b = m.ops[bi];
      if (affine ? !is_unit_dw(m, b) : !is_unit_pool(b)) continue;
      const int in_id = b.inputs[0];
      const int out_id = b.output;
      if (in_id < 0 || in_id == out_id) continue;
      if (in_id == m.input_tensor || in_id == m.output_tensor) continue;
      if (out_id == m.input_tensor) continue;
      const TensorDef& in_t = m.tensors[static_cast<size_t>(in_id)];
      const TensorDef& out_t = m.tensors[static_cast<size_t>(out_id)];
      if (in_t.is_const || out_t.is_const) continue;
      if (in_t.bits != out_t.bits || (in_t.bits != 8 && in_t.bits != 4))
        continue;
      if (!(in_t.shape == out_t.shape)) continue;
      // The producer keeps its own requant parameters, so the intermediate
      // and final quantization must be bitwise identical.
      if (!(in_t.qp.scale == out_t.qp.scale &&
            in_t.qp.zero_point == out_t.qp.zero_point))
        continue;
      if (!in_t.channel_scales.empty() || !out_t.channel_scales.empty())
        continue;
      // Exactly one producer A, and B is the intermediate's only consumer.
      const auto& w = uses.writers[static_cast<size_t>(in_id)];
      const auto& r = uses.readers[static_cast<size_t>(in_id)];
      if (w.size() != 1 || r.size() != 1 || r[0] != static_cast<int>(bi))
        continue;
      if (uses.writers[static_cast<size_t>(out_id)].size() != 1) continue;
      const size_t ai = static_cast<size_t>(w[0]);
      if (ai == bi) continue;
      OpDef& a = m.ops[ai];
      // A must not read what it would now write (no in-place aliasing).
      bool aliases = false;
      for (int id : a.inputs) aliases |= id == out_id;
      if (aliases) continue;
      auto lut = transfer_lut(m, b);
      if (!lut) continue;
      int32_t old_min = 0, old_max = 0;
      rt::activation_range(a.act, in_t.qp, in_t.bits, &old_min, &old_max);
      // Candidate replacement activations, weakest first so the rewrite
      // changes A as little as possible. Softmax ignores OpDef::act, so its
      // only candidate is "unchanged" (B must then be a pure identity).
      std::vector<Activation> candidates{a.act};
      if (a.type != OpType::kSoftmax) {
        for (int c = static_cast<int>(a.act) + 1;
             c < static_cast<int>(Activation::kActivationCount); ++c)
          candidates.push_back(static_cast<Activation>(c));
      }
      std::optional<Activation> chosen;
      for (Activation cand : candidates) {
        int32_t new_min = 0, new_max = 0;
        rt::activation_range(cand, out_t.qp, out_t.bits, &new_min, &new_max);
        if (new_min < old_min || new_max > old_max) continue;  // must shrink
        bool exact = true;
        for (int32_t v = old_min; v <= old_max && exact; ++v) {
          const int8_t want = static_cast<int8_t>(
              std::clamp(v, new_min, new_max));
          for (int c = 0; c < lut->channels; ++c)
            if (lut->lut[static_cast<size_t>(c)]
                        [static_cast<size_t>(v - lut->qmin)] != want) {
              exact = false;
              break;
            }
        }
        if (exact) {
          chosen = cand;
          break;
        }
      }
      if (!chosen) continue;
      // Rewrite: A absorbs the clamp and writes B's output directly.
      a.act = *chosen;
      a.output = out_id;
      if (fused != nullptr)
        fused->push_back(FusedActivation{-1, *chosen, out_t.name});
      m.ops.erase(m.ops.begin() + static_cast<int>(bi));
      // The intermediate tensor is now completely unreferenced; drop it so
      // the graph stays plannable even when DCE is disabled. (B's weight /
      // bias tensors, if any, are left for DCE + blob compaction.)
      erase_tensor(m, in_id);
      stats.ops_removed += 1;
      stats.tensors_removed += 1;
      stats.activations_fused += 1;
      changed = true;
      progress = true;
      break;  // indices shifted; restart the scan
    }
  }
  return changed;
}

// ---------------------------------------------------------- pass 4: DCE ----

bool pass_eliminate_dead(ModelDef& m, PassStats& stats) {
  const size_t nt = m.tensors.size();
  // Ops that can affect the model output (fixpoint; graphs are executed in
  // index order but check() does not enforce topological form).
  std::vector<bool> needed(nt, false);
  needed[static_cast<size_t>(m.output_tensor)] = true;
  std::vector<bool> live(m.ops.size(), false);
  for (bool progress = true; progress;) {
    progress = false;
    for (size_t oi = m.ops.size(); oi-- > 0;) {
      if (live[oi]) continue;
      const OpDef& op = m.ops[oi];
      if (!needed[static_cast<size_t>(op.output)]) continue;
      live[oi] = true;
      progress = true;
      for (int id : op.inputs)
        if (id >= 0) needed[static_cast<size_t>(id)] = true;
    }
  }
  size_t num_live = 0;
  for (bool l : live) num_live += l ? 1 : 0;
  bool drop_ops = num_live < m.ops.size();
  if (drop_ops) {
    // Removing dead ops must not orphan the model input: a graph whose
    // output does not depend on its input is left alone (the planner would
    // reject the stripped version as "input never read").
    bool input_read = false;
    for (size_t oi = 0; oi < m.ops.size(); ++oi) {
      if (!live[oi]) continue;
      for (int id : m.ops[oi].inputs) input_read |= id == m.input_tensor;
    }
    if (!input_read) drop_ops = false;
  }
  if (drop_ops) {
    std::vector<OpDef> kept;
    for (size_t oi = 0; oi < m.ops.size(); ++oi)
      if (live[oi]) kept.push_back(m.ops[oi]);
    stats.ops_removed += static_cast<int64_t>(m.ops.size() - kept.size());
    m.ops = std::move(kept);
  }

  // Drop unreferenced tensors and compact the blob (stale weights from
  // folded/fused/dead ops are reclaimed here). Offsets are reassigned in
  // tensor order with the same alignment rule the converter uses (int32
  // bias data stays 4-byte aligned for the kernels' span casts).
  std::vector<bool> referenced(m.tensors.size(), false);
  referenced[static_cast<size_t>(m.input_tensor)] = true;
  referenced[static_cast<size_t>(m.output_tensor)] = true;
  for (const OpDef& op : m.ops) {
    referenced[static_cast<size_t>(op.output)] = true;
    for (int id : op.inputs)
      if (id >= 0) referenced[static_cast<size_t>(id)] = true;
  }
  std::vector<int> remap(m.tensors.size(), -1);
  std::vector<TensorDef> kept_tensors;
  for (size_t ti = 0; ti < m.tensors.size(); ++ti) {
    if (!referenced[ti]) continue;
    remap[ti] = static_cast<int>(kept_tensors.size());
    kept_tensors.push_back(m.tensors[ti]);
  }
  const bool drop_tensors = kept_tensors.size() < m.tensors.size();
  std::vector<uint8_t> blob;
  blob.reserve(m.weights_blob.size());
  bool offsets_changed = false;
  for (TensorDef& t : kept_tensors) {
    if (!t.is_const) continue;
    const size_t align = t.bits == 32 ? 4 : 1;
    while (blob.size() % align != 0) blob.push_back(0);
    const int64_t new_off = static_cast<int64_t>(blob.size());
    blob.insert(blob.end(), m.weights_blob.begin() + t.blob_offset,
                m.weights_blob.begin() + t.blob_offset + t.storage_bytes());
    offsets_changed |= new_off != t.blob_offset;
    t.blob_offset = new_off;
  }
  const bool blob_changed =
      offsets_changed || blob.size() != m.weights_blob.size();
  if (!drop_tensors && !blob_changed) return drop_ops;
  if (blob.size() < m.weights_blob.size())
    stats.blob_bytes_reclaimed +=
        static_cast<int64_t>(m.weights_blob.size() - blob.size());
  stats.tensors_removed +=
      static_cast<int64_t>(m.tensors.size() - kept_tensors.size());
  m.tensors = std::move(kept_tensors);
  m.weights_blob = std::move(blob);
  for (OpDef& op : m.ops) {
    for (int& id : op.inputs)
      if (id >= 0) id = remap[static_cast<size_t>(id)];
    op.output = remap[static_cast<size_t>(op.output)];
  }
  m.input_tensor = remap[static_cast<size_t>(m.input_tensor)];
  m.output_tensor = remap[static_cast<size_t>(m.output_tensor)];
  return true;
}

// ------------------------------------------------------ pass 5: reorder ----

// Greedy list scheduling minimizing live activation bytes after each step
// (ties: bytes during the step, then original index — the index tie-break is
// what makes the pass idempotent: re-running it on its own output reproduces
// the same schedule, which is never a strict improvement). The candidate
// order is only adopted if plan_memory() confirms a strictly smaller
// peak_live_bytes (or equal peak with a smaller arena) — the planner's
// occupancy timeline, not the heuristic, is the judge.
bool pass_reorder_memory(ModelDef& m, PassStats& stats) {
  const size_t n = m.ops.size();
  if (n < 2) return false;
  for (const OpDef& op : m.ops) {
    if (op.output == m.input_tensor) return false;
    for (int id : op.inputs)
      if (id == op.output) return false;  // in-place op: lifetimes entangled
  }
  const Uses uses = build_uses(m);
  for (const auto& w : uses.writers)
    if (w.size() > 1) return false;  // multi-writer: order is semantic
  // Only reorder graphs already in topological form: a graph that reads a
  // tensor before writing it executes on garbage by design, and imposing
  // producer-before-consumer order would change its (garbage) output.
  for (size_t oi = 0; oi < n; ++oi) {
    for (int id : m.ops[oi].inputs) {
      if (id < 0 || id == m.input_tensor) continue;
      const auto& w = uses.writers[static_cast<size_t>(id)];
      if (!w.empty() && static_cast<size_t>(w[0]) > oi) return false;
    }
  }
  rt::MemoryPlan old_plan;
  try {
    old_plan = rt::plan_memory(m);
  } catch (const std::exception&) {
    return false;  // unplannable graph (dead tensors with DCE disabled)
  }

  // remaining_reads[t]: scheduled reads left before t dies. The model output
  // gets a sentinel read so it never dies (planner lifetime extends to end).
  std::vector<int> remaining(m.tensors.size(), 0);
  for (size_t ti = 0; ti < m.tensors.size(); ++ti)
    remaining[ti] = static_cast<int>(uses.readers[ti].size());
  remaining[static_cast<size_t>(m.output_tensor)] += 1;
  std::vector<bool> is_live(m.tensors.size(), false);
  auto arena_tensor = [&](int id) {
    return id >= 0 && !m.tensors[static_cast<size_t>(id)].is_const;
  };
  int64_t live_bytes = 0;
  if (arena_tensor(m.input_tensor)) {
    is_live[static_cast<size_t>(m.input_tensor)] = true;
    live_bytes = m.tensors[static_cast<size_t>(m.input_tensor)].storage_bytes();
  }

  std::vector<int> deps(n, 0);  // unscheduled producer count per op
  std::vector<std::vector<int>> consumers(n);
  for (size_t oi = 0; oi < n; ++oi) {
    for (int id : m.ops[oi].inputs) {
      if (id < 0) continue;
      const auto& w = uses.writers[static_cast<size_t>(id)];
      if (!w.empty() && static_cast<size_t>(w[0]) != oi) {
        deps[oi] += 1;
        consumers[static_cast<size_t>(w[0])].push_back(static_cast<int>(oi));
      }
    }
  }
  std::vector<int> order;
  order.reserve(n);
  std::vector<bool> scheduled(n, false);
  for (size_t step = 0; step < n; ++step) {
    int best = -1;
    int64_t best_after = 0, best_during = 0;
    for (size_t oi = 0; oi < n; ++oi) {
      if (scheduled[oi] || deps[oi] != 0) continue;
      const OpDef& op = m.ops[oi];
      const int64_t out_b =
          arena_tensor(op.output) && !is_live[static_cast<size_t>(op.output)]
              ? m.tensors[static_cast<size_t>(op.output)].storage_bytes()
              : 0;
      const int64_t during = live_bytes + out_b;
      int64_t freed = 0;
      for (size_t k = 0; k < op.inputs.size(); ++k) {
        const int id = op.inputs[k];
        if (!arena_tensor(id) || !is_live[static_cast<size_t>(id)]) continue;
        bool dup = false;
        for (size_t j = 0; j < k; ++j) dup |= op.inputs[j] == id;
        if (dup) continue;
        if (remaining[static_cast<size_t>(id)] == 1)
          freed += m.tensors[static_cast<size_t>(id)].storage_bytes();
      }
      const int64_t after = during - freed;
      if (best < 0 || after < best_after ||
          (after == best_after && during < best_during)) {
        best = static_cast<int>(oi);
        best_after = after;
        best_during = during;
      }
    }
    if (best < 0) return false;  // cyclic graph; leave untouched
    const OpDef& op = m.ops[static_cast<size_t>(best)];
    if (arena_tensor(op.output) && !is_live[static_cast<size_t>(op.output)]) {
      is_live[static_cast<size_t>(op.output)] = true;
      live_bytes += m.tensors[static_cast<size_t>(op.output)].storage_bytes();
    }
    for (size_t k = 0; k < op.inputs.size(); ++k) {
      const int id = op.inputs[k];
      if (id < 0) continue;
      bool dup = false;
      for (size_t j = 0; j < k; ++j) dup |= op.inputs[j] == id;
      if (dup) continue;
      if (arena_tensor(id) && is_live[static_cast<size_t>(id)] &&
          --remaining[static_cast<size_t>(id)] == 0) {
        is_live[static_cast<size_t>(id)] = false;
        live_bytes -= m.tensors[static_cast<size_t>(id)].storage_bytes();
      }
    }
    scheduled[static_cast<size_t>(best)] = true;
    order.push_back(best);
    for (int c : consumers[static_cast<size_t>(best)]) deps[static_cast<size_t>(c)] -= 1;
  }
  bool same = true;
  for (size_t i = 0; i < n; ++i) same &= order[i] == static_cast<int>(i);
  if (same) return false;
  ModelDef candidate = m;
  candidate.ops.clear();
  for (int oi : order) candidate.ops.push_back(m.ops[static_cast<size_t>(oi)]);
  rt::MemoryPlan new_plan;
  try {
    new_plan = rt::plan_memory(candidate);
  } catch (const std::exception&) {
    return false;
  }
  const int64_t old_peak = old_plan.peak_live_bytes(static_cast<int>(n));
  const int64_t new_peak = new_plan.peak_live_bytes(static_cast<int>(n));
  const bool better =
      new_peak < old_peak ||
      (new_peak == old_peak && new_plan.arena_bytes < old_plan.arena_bytes);
  if (!better) return false;
  m.ops = std::move(candidate.ops);
  stats.peak_bytes_saved += old_peak - new_peak;
  return true;
}

void fill_plan_metrics(const ModelDef& m, int64_t* peak, int64_t* arena) {
  try {
    const rt::MemoryPlan plan = rt::plan_memory(m);
    *peak = plan.peak_live_bytes(static_cast<int>(m.ops.size()));
    *arena = plan.arena_bytes;
  } catch (const std::exception&) {
    *peak = -1;
    *arena = -1;
  }
}

}  // namespace

std::string CompileReport::summary() const {
  char buf[256];
  std::string s;
  if (!enabled) return "compile: disabled\n";
  std::snprintf(buf, sizeof(buf),
                "compile: ops %lld -> %lld, tensors %lld -> %lld\n",
                static_cast<long long>(ops_before),
                static_cast<long long>(ops_after),
                static_cast<long long>(tensors_before),
                static_cast<long long>(tensors_after));
  s += buf;
  std::snprintf(buf, sizeof(buf),
                "compile: peak_live %lld -> %lld B, arena %lld -> %lld B, "
                "blob %lld -> %lld B\n",
                static_cast<long long>(peak_live_bytes_before),
                static_cast<long long>(peak_live_bytes_after),
                static_cast<long long>(arena_bytes_before),
                static_cast<long long>(arena_bytes_after),
                static_cast<long long>(blob_bytes_before),
                static_cast<long long>(blob_bytes_after));
  s += buf;
  for (const PassStats& p : passes) {
    std::snprintf(
        buf, sizeof(buf),
        "compile:   %-18s ops_removed=%lld tensors_removed=%lld "
        "bytes_folded=%lld blob_reclaimed=%lld fused=%lld peak_saved=%lld\n",
        p.pass.c_str(), static_cast<long long>(p.ops_removed),
        static_cast<long long>(p.tensors_removed),
        static_cast<long long>(p.bytes_folded),
        static_cast<long long>(p.blob_bytes_reclaimed),
        static_cast<long long>(p.activations_fused),
        static_cast<long long>(p.peak_bytes_saved));
    s += buf;
  }
  return s;
}

CompileReport Pipeline::run(rt::ModelDef& model) const {
  CompileReport report;
  report.enabled = cfg_.enabled;
  report.ops_before = static_cast<int64_t>(model.ops.size());
  report.tensors_before = static_cast<int64_t>(model.tensors.size());
  report.blob_bytes_before = model.weights_bytes();
  fill_plan_metrics(model, &report.peak_live_bytes_before,
                    &report.arena_bytes_before);
  if (!cfg_.enabled) {
    report.ops_after = report.ops_before;
    report.tensors_after = report.tensors_before;
    report.blob_bytes_after = report.blob_bytes_before;
    report.peak_live_bytes_after = report.peak_live_bytes_before;
    report.arena_bytes_after = report.arena_bytes_before;
    return report;
  }
  model.validate();
  PassStats s_const{"fold_constants", 0, 0, 0, 0, 0, 0};
  PassStats s_affine{"fold_affine", 0, 0, 0, 0, 0, 0};
  PassStats s_act{"fuse_activations", 0, 0, 0, 0, 0, 0};
  PassStats s_dce{"eliminate_dead", 0, 0, 0, 0, 0, 0};
  PassStats s_reorder{"reorder_memory", 0, 0, 0, 0, 0, 0};
  for (int iter = 0; iter < cfg_.max_iterations; ++iter) {
    bool changed = false;
    if (cfg_.fold_constants) changed |= pass_fold_constants(model, s_const);
    if (cfg_.fold_affine)
      changed |= pass_fold_elementwise(model, /*affine=*/true, s_affine,
                                       nullptr);
    if (cfg_.fuse_activations)
      changed |= pass_fold_elementwise(model, /*affine=*/false, s_act,
                                       &report.fused_activations);
    if (cfg_.eliminate_dead) changed |= pass_eliminate_dead(model, s_dce);
    if (!changed) break;
  }
  if (cfg_.reorder_memory) pass_reorder_memory(model, s_reorder);
  model.validate();
  if (cfg_.fold_constants) report.passes.push_back(s_const);
  if (cfg_.fold_affine) report.passes.push_back(s_affine);
  if (cfg_.fuse_activations) report.passes.push_back(s_act);
  if (cfg_.eliminate_dead) report.passes.push_back(s_dce);
  if (cfg_.reorder_memory) report.passes.push_back(s_reorder);
  // Resolve fusion-metadata op indices against the final op order (the
  // output tensor name is the stable key across DCE renumbering and
  // reordering).
  for (FusedActivation& f : report.fused_activations) {
    f.op_index = -1;
    for (size_t oi = 0; oi < model.ops.size(); ++oi) {
      const TensorDef& out =
          model.tensors[static_cast<size_t>(model.ops[oi].output)];
      if (out.name == f.output_name) {
        f.op_index = static_cast<int>(oi);
        break;
      }
    }
  }
  report.ops_after = static_cast<int64_t>(model.ops.size());
  report.tensors_after = static_cast<int64_t>(model.tensors.size());
  report.blob_bytes_after = model.weights_bytes();
  fill_plan_metrics(model, &report.peak_live_bytes_after,
                    &report.arena_bytes_after);
  int64_t ops_removed = 0, bytes_folded = 0;
  for (const PassStats& p : report.passes) {
    ops_removed += p.ops_removed;
    bytes_folded += p.bytes_folded;
  }
  obs::counter_add(obs::Counter::kCompileOpsRemoved, ops_removed);
  obs::counter_add(obs::Counter::kCompileBytesFolded, bytes_folded);
  obs::counter_add(obs::Counter::kCompilePeakBytesSaved,
                   std::max<int64_t>(report.peak_bytes_saved(), 0));
  return report;
}

CompiledModel compile_model(rt::ModelDef model, const CompileConfig& cfg) {
  Pipeline p(cfg);
  CompiledModel out;
  out.report = p.run(model);
  out.model = std::move(model);
  return out;
}

rt::Interpreter make_interpreter(rt::ModelDef model, const CompileConfig& cfg,
                                 kernels::BackendConfig backend,
                                 CompileReport* report) {
  Pipeline p(cfg);
  CompileReport r = p.run(model);
  if (report != nullptr) *report = std::move(r);
  rt::MemoryPlan plan = rt::plan_memory(model);
  return rt::Interpreter(std::move(model), std::move(plan), backend);
}

int64_t verify_bit_identical(const rt::ModelDef& reference,
                             const rt::ModelDef& compiled, uint64_t seed,
                             int trials,
                             const std::vector<int>& thread_counts) {
  const TensorDef& ref_in =
      reference.tensors[static_cast<size_t>(reference.input_tensor)];
  const TensorDef& cmp_in =
      compiled.tensors[static_cast<size_t>(compiled.input_tensor)];
  if (!(ref_in.shape == cmp_in.shape) || ref_in.bits != cmp_in.bits)
    throw std::runtime_error("verify_bit_identical: input shape mismatch");
  const quant::QRange qr = quant::qrange(ref_in.bits);
  uint64_t state = seed != 0 ? seed : 0x9E3779B97F4A7C15ull;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  const int64_t span = qr.qmax - qr.qmin + 1;
  int64_t compared = 0;
  for (int tc : thread_counts) {
    parallel::set_threads(tc);
    rt::Interpreter ref_interp(reference);
    rt::Interpreter cmp_interp(compiled);
    for (int t = 0; t < trials; ++t) {
      TensorI8 in(ref_in.shape);
      for (int64_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<int8_t>(
            qr.qmin + static_cast<int64_t>(next() % static_cast<uint64_t>(span)));
      auto a = ref_interp.try_invoke_quantized(in);
      auto b = cmp_interp.try_invoke_quantized(in);
      if (!a.ok() || !b.ok()) {
        parallel::set_threads(0);
        throw std::runtime_error(
            "verify_bit_identical: invoke failed (" +
            std::string(!a.ok() ? a.error().message : b.error().message) + ")");
      }
      if (!(a.value() == b.value())) {
        parallel::set_threads(0);
        throw std::runtime_error(
            "verify_bit_identical: outputs diverged at threads=" +
            std::to_string(tc) + " trial=" + std::to_string(t));
      }
      ++compared;
    }
  }
  // Restore the environment/hardware default; the harness owns the override.
  parallel::set_threads(0);
  return compared;
}

}  // namespace mn::compile
