// Interpreter: executes a ModelDef using the integer kernels, with all
// activations placed in a single planned arena — the TFLM execution model.
// Also provides the memory-recording report (TFLM RecordingMicroInterpreter
// analog) that the paper uses to obtain SRAM numbers.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "kernels/backend.hpp"
#include "kernels/kernels.hpp"
#include "runtime/model.hpp"
#include "runtime/planner.hpp"
#include "runtime/profile.hpp"
#include "runtime/rt_error.hpp"
#include "tensor/tensor.hpp"

namespace mn::rt {

struct MemoryReport {
  int64_t arena_bytes = 0;        // planned activation arena (SRAM)
  int64_t persistent_bytes = 0;   // per-op/tensor runtime structures (SRAM)
  int64_t runtime_sram_bytes = 0; // interpreter fixed overhead (SRAM)
  int64_t weights_bytes = 0;      // weight blob (eFlash)
  int64_t graph_def_bytes = 0;    // serialized graph structure (eFlash)
  int64_t code_flash_bytes = 0;   // TFLM runtime code (eFlash)

  int64_t total_sram() const {
    return arena_bytes + persistent_bytes + runtime_sram_bytes;
  }
  int64_t total_flash() const {
    return weights_bytes + graph_def_bytes + code_flash_bytes;
  }
  // Model-attributable footprints (exclude fixed runtime code/overhead);
  // these match the paper's "SRAM" and "Flash" per-model columns.
  int64_t model_sram() const { return arena_bytes + persistent_bytes; }
  int64_t model_flash() const { return weights_bytes + graph_def_bytes; }
};

// Weight panels for every conv/FC op a fast backend claims, packed once per
// model (DESIGN.md §14). Immutable after construction and shared — an
// InterpreterPool packs a variant's weights a single time and every replica
// (including quarantine/reimage rebuilds) aliases the same panels, the same
// way they share the MemoryPlan. Index-aligned with ModelDef::ops; ops with
// no panel hold nullptr (unclaimed ops, and int8 depthwise, which reads its
// weights in place). Int4 weights are unpacked into their panels (int4
// depthwise: one row holding the unpacked [kh, kw, ch] weights).
struct PackedModel {
  kernels::BackendKind kind = kernels::BackendKind::kReference;
  std::vector<std::shared_ptr<const kernels::PackedOpWeights>> per_op;

  int64_t bytes() const {
    int64_t b = 0;
    for (const auto& p : per_op)
      if (p) b += p->bytes();
    return b;
  }
};

// Packs the weights of every op `config.kind` claims that runs on a panel
// (fast: int8/int4 conv2d and fully-connected, and int4 depthwise; int8
// depthwise is claimed but needs none). Returns an empty-per_op PackedModel
// for kReference.
std::shared_ptr<const PackedModel> pack_model_weights(
    const ModelDef& model, kernels::BackendConfig config);

class Interpreter {
 public:
  // The interpreter stores a copy of the model ("flash contents") and
  // allocates its arena up front (AllocateTensors analog). Runs on the
  // default (fast) kernel backend. Every constructor refuses a model that
  // fails ModelDef::check(), throwing its typed RtError, so an interpreter
  // that exists can run every op of its model.
  explicit Interpreter(ModelDef model);

  // Pre-planned construction: reuses a MemoryPlan computed once per model so
  // a pool of instances (serve::InterpreterPool) pays for planning a single
  // time instead of once per replica. The plan must have been produced by
  // plan_memory() for an identical graph; a mismatched plan is rejected.
  Interpreter(ModelDef model, MemoryPlan plan);

  // Full construction: explicit backend request and (optionally) pre-packed
  // weight panels shared across instances. Ops the backend claims dispatch
  // to its kernels; everything else falls back to reference per-op. A
  // `packed` whose kind does not match `config` is rejected; pass nullptr to
  // have the interpreter pack privately at construction.
  Interpreter(ModelDef model, MemoryPlan plan, kernels::BackendConfig config,
              std::shared_ptr<const PackedModel> packed = nullptr);

  // Float convenience path: quantizes the input with the model's input
  // tensor params, runs integer inference, dequantizes the output.
  TensorF invoke(const TensorF& input_image);

  // Raw int8 path. Int4 models take one int8 value per element here; the
  // interpreter packs values into nibbles internally, and a value outside
  // [-8, 7] fails with kInputMismatch.
  TensorI8 invoke_quantized(const TensorI8& input);

  // --- hardened no-throw path ---------------------------------------------
  // Same execution as invoke/invoke_quantized but returns typed errors
  // (input mismatch, NaN/Inf input or output, weights CRC drift, arena
  // canary overrun) instead of throwing. The throwing API above is a thin
  // wrapper over these.
  Expected<TensorF> try_invoke(const TensorF& input_image);
  Expected<TensorI8> try_invoke_quantized(const TensorI8& input);

  // When enabled, every try_invoke* recomputes the weights-blob CRC32 and
  // fails with kCrcMismatch if it drifted since load — a flash-aging /
  // fault-injection detector (costs one pass over the blob per inference).
  void set_verify_weights_each_invoke(bool on) { verify_weights_crc_ = on; }
  // Accept the current weights blob as the new integrity baseline (e.g.
  // after an intentional in-place update).
  void rearm_weights_crc();

  // Guard-band canaries: the arena is bracketed by kArenaGuardBytes of a
  // fixed pattern; a kernel overrun past either end is detected instead of
  // silently corrupting neighbouring memory. Checked after every try_invoke*.
  static constexpr int64_t kArenaGuardBytes = 32;
  std::optional<RtError> check_canaries() const;

  // Fault-injection / testing access: the live weights blob ("flash") and
  // the activation arena including both guard bands ("SRAM"). Mutating
  // these simulates bit faults in the corresponding physical memory.
  std::span<uint8_t> mutable_weights() { return model_.weights_blob; }
  std::span<uint8_t> mutable_arena() { return arena_; }

  const ModelDef& model() const { return model_; }
  const MemoryPlan& memory_plan() const { return plan_; }
  MemoryReport memory_report() const;

  // --- backend introspection ----------------------------------------------
  // The requested backend, the backend that actually serves each op after
  // per-op claim-or-fall-back, and the shared packed panels (nullptr-free;
  // reference configs get an empty PackedModel).
  kernels::BackendKind backend() const { return backend_.kind; }
  kernels::BackendKind op_backend(size_t op_index) const {
    return op_backend_[op_index];
  }
  const std::vector<kernels::BackendKind>& op_backends() const {
    return op_backend_;
  }
  const std::shared_ptr<const PackedModel>& packed_model() const {
    return packed_;
  }

  // Number of invocations served (used by examples/benches).
  int64_t invocation_count() const { return invocations_; }

  // --- per-op profiling ----------------------------------------------------
  // When on, every invoke accumulates host wall-clock per op (std::chrono;
  // independent of MN_OBS). profile_report() snapshots the accumulated
  // timings; hand the snapshot to mcu::annotate_profile() to fill in the
  // analytical predicted latencies side-by-side.
  void set_profiling(bool on);
  bool profiling() const { return profiling_; }
  void reset_profile();
  ProfileReport profile_report() const;

  // --- memory & energy counter tracks --------------------------------------
  // While obs tracing is on, every invoke emits per-op samples on the
  // "arena_bytes" (live activation bytes), "scratch_bytes" (im2col columns
  // and int4 staging in use) and "cumulative_macs" counter tracks — the arena
  // fill/drain curve of the paper's Fig. 2 rendered over the trace timeline.
  // Installing a per-op energy table (from mcu::per_op_energy_uj; one entry
  // per op, microjoules) adds the "op_energy_uj" track. The runtime cannot
  // depend on mcu, so the table is injected rather than computed here.
  void set_op_energy_uj(std::vector<double> energy_uj);
  // Per-op live activation bytes, index-aligned with model().ops.
  const std::vector<int64_t>& op_live_bytes() const { return op_live_bytes_; }

 private:
  struct PreparedOp {
    kernels::RequantParams rq;      // conv/dw/fc
    kernels::AddParams add;         // add
    kernels::ConvGeometry conv;     // conv/dw
    kernels::PoolGeometry pool;     // pools
    int32_t fc_in = 0, fc_out = 0;  // fully connected
    float softmax_scale = 0.f;
  };

  // Where a tensor's bytes live, resolved once at construction: `offset`
  // into the weights blob (const tensors) or into arena_ (past the leading
  // guard band). Offsets, not pointers, so a copied or moved interpreter
  // stays correct. bytes == 0 marks an absent operand (no bias).
  struct Operand {
    bool in_blob = false;
    int64_t offset = 0;
    int64_t bytes = 0;
  };
  // Add's second input is `in2`; conv/depthwise/FC read `weights`/`bias`.
  struct OpOperands {
    Operand in, in2, weights, bias, out;
  };

  void prepare();
  void locate_operands();
  Operand locate(int tensor_id) const;
  std::span<const uint8_t> bytes(const Operand& o) const;
  std::span<uint8_t> arena_bytes(const Operand& o);
  void run_op(size_t op_index);
  // An unpanelled op's int8 weights: in place at int8, unpacked into
  // stage_w_ at int4 (int4 depthwise on the fast backend: its panel).
  std::span<const int8_t> op_weights(size_t op_index);
  void fill_guards();

  ModelDef model_;
  MemoryPlan plan_;
  kernels::BackendConfig backend_;
  std::shared_ptr<const PackedModel> packed_;
  std::vector<kernels::BackendKind> op_backend_;
  std::vector<PreparedOp> prepared_;
  std::vector<OpOperands> operands_;
  Operand model_in_, model_out_;
  // Layout: [guard band | planned tensors (plan_.arena_bytes) | guard band].
  std::vector<uint8_t> arena_;
  // Pixel block of im2col columns shared by all fast conv ops (CMSIS-NN
  // scratch analog).
  std::vector<int8_t> scratch_;
  // Int4 staging, sized for the largest int4 op: its unpacked input, its
  // int8 result before packing, and reference-served unpacked weights.
  std::vector<int8_t> stage_in_, stage_out_, stage_w_;
  int64_t invocations_ = 0;
  uint32_t expected_weights_crc_ = 0;
  bool verify_weights_crc_ = false;
  // Profiling state: per-op MACs (precomputed), accumulated wall-clock, and
  // the number of invokes captured while profiling was on.
  bool profiling_ = false;
  std::vector<int64_t> op_macs_;
  std::vector<int64_t> op_wall_ns_;
  int64_t profiled_invocations_ = 0;
  // Counter-track state: per-op live arena bytes / scratch bytes (from the
  // plan, fixed at construction) and the optional injected energy table.
  std::vector<int64_t> op_live_bytes_;
  std::vector<int64_t> op_scratch_bytes_;
  std::vector<double> op_energy_uj_;
};

}  // namespace mn::rt
