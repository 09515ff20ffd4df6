// ModelDef: the serialized inference-graph format executed by the
// Interpreter — the analog of a TFLite flatbuffer consumed by TFLM.
//
// Weights/biases live in a single blob (mapped to MCU eFlash); activation
// tensors are planned into the SRAM arena by the memory planner. The
// serialized byte size of a ModelDef is the "Model Size" metric reported in
// the paper's tables.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "quant/quant.hpp"
#include "runtime/rt_error.hpp"
#include "tensor/shape.hpp"

namespace mn::rt {

enum class OpType : uint8_t {
  kConv2D = 0,
  kDepthwiseConv2D = 1,
  kFullyConnected = 2,
  kAvgPool2D = 3,
  kMaxPool2D = 4,
  kAdd = 5,
  kSoftmax = 6,
  // Keep last. Every dispatch switch carries a static_assert against this
  // (same pattern as serve::outcome_name), so adding an op type fails to
  // compile until the parser, validator, interpreter and perf model are all
  // updated.
  kOpTypeCount,
};

enum class Activation : uint8_t {
  kNone = 0,
  kRelu = 1,
  kRelu6 = 2,
  kActivationCount,  // keep last; see OpType::kOpTypeCount
};

const char* op_type_name(OpType t);
const char* activation_name(Activation a);

// Fused-activation clamp bounds in the quantized domain: the [min, max] the
// kernels clamp an op's outputs to for `act` at the output tensor's
// quantization. Shared by the validator (ModelDef::check's int4 clamp rule)
// and the interpreter (requant preparation).
void activation_range(Activation act, const quant::QuantParams& out_qp,
                      int bits, int32_t* act_min, int32_t* act_max);

struct TensorDef {
  std::string name;
  Shape shape;                 // per-image shape (no batch dimension)
  quant::QuantParams qp;       // per-tensor quantization
  std::vector<float> channel_scales;  // per-channel weight scales (optional)
  int bits = 8;                // 8 or 4 (packed) for int8/int4; 32 for bias
  bool is_const = false;       // stored in the weights blob (eFlash)
  int64_t blob_offset = -1;    // byte offset into weights_blob when is_const

  int64_t elements() const { return shape.elements(); }
  // Storage footprint in bytes (packed for int4, 4 bytes/elem for bias).
  int64_t storage_bytes() const {
    if (bits == 32) return elements() * 4;
    if (bits == 4) return (elements() + 1) / 2;
    return elements();
  }
};

struct OpDef {
  OpType type = OpType::kConv2D;
  Activation act = Activation::kNone;
  // Tensor ids. Conv/FC: {input, weights, bias(optional, -1 if none)};
  // pools/softmax: {input}; add: {a, b}.
  std::vector<int> inputs;
  int output = -1;
  int32_t stride = 1;
  int32_t kh = 0, kw = 0;      // pooling window (convs derive from weights)
  int32_t pad_h = 0, pad_w = 0;

  int64_t macs(const std::vector<TensorDef>& tensors) const;
  // Op count with the paper's convention: 1 MAC = 2 ops; pools/add/softmax
  // count one op per output element.
  int64_t op_count(const std::vector<TensorDef>& tensors) const;
};

struct ModelDef {
  std::string name;
  std::vector<TensorDef> tensors;
  std::vector<OpDef> ops;
  int input_tensor = -1;
  int output_tensor = -1;
  std::vector<uint8_t> weights_blob;

  // --- size accounting -----------------------------------------------------
  int64_t weights_bytes() const { return static_cast<int64_t>(weights_blob.size()); }
  // Graph-definition overhead of the serialized model (header + op/tensor
  // metadata records), the flatbuffer-structure analog.
  int64_t graph_def_bytes() const;
  // Total serialized model size ("Model Size (KB)" in the paper's tables).
  int64_t flatbuffer_bytes() const { return weights_bytes() + graph_def_bytes(); }
  // Total op count of one inference (1 MAC = 2 ops).
  int64_t total_ops() const;
  int64_t total_macs() const;

  // --- serialization ---------------------------------------------------------
  // On-disk format versions. V1 ("MNM1") is the original CRC-less layout; V2
  // ("MNM2") prepends CRC32s of the graph metadata and the weights blob so
  // corrupted OTA images / aged flash are rejected at load. serialize() always
  // writes the current version; both versions deserialize.
  static constexpr uint32_t kMagicV1 = 0x314D4E4D;  // "MNM1"
  static constexpr uint32_t kMagicV2 = 0x324D4E4D;  // "MNM2"

  std::vector<uint8_t> serialize() const;
  // Legacy V1 writer, kept so version-compatibility can be exercised (old
  // images in the field must keep loading after the format bump).
  std::vector<uint8_t> serialize_legacy_v1() const;

  // Hardened no-throw parser: every read is bounds-checked, absurd counts are
  // rejected before any allocation, and V2 CRCs are verified. Any malformed
  // input yields a typed RtError — never a crash, hang, or giant allocation.
  static Expected<ModelDef> try_deserialize(std::span<const uint8_t> bytes);
  static ModelDef deserialize(const std::vector<uint8_t>& bytes);

  void save(const std::string& path) const;
  static Expected<ModelDef> try_load(const std::string& path);
  static ModelDef load(const std::string& path);

  // CRC32 over the weights blob — the value embedded in V2 images and
  // re-checked by the Interpreter's optional per-invoke integrity scan.
  uint32_t weights_crc() const;

  // Structural validation (indices in range, shapes consistent with op
  // kinds). check() reports the first problem; validate() throws it.
  std::optional<RtError> check() const;
  void validate() const;
};

// TFLM runtime overhead model, calibrated to the paper's reported numbers
// (§3.1: interpreter needs ~4 KB SRAM + 37 KB eFlash; persistent buffers —
// quantization params and tensor/op C structs — scale with the graph, e.g.
// ~34 KB for the Fig. 2 KWS model).
struct TflmOverheads {
  static constexpr int64_t kCodeFlashBytes = 37 * 1024;
  static constexpr int64_t kRuntimeSramBytes = 4 * 1024;
  static int64_t persistent_sram_bytes(const ModelDef& m);
};

}  // namespace mn::rt
