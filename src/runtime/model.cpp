#include "runtime/model.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace mn::rt {

const char* op_type_name(OpType t) {
  // Exhaustive: no default, and the count is pinned so a new OpType fails to
  // compile here (and at every other asserting switch) until handled.
  static_assert(static_cast<int>(OpType::kOpTypeCount) == 7,
                "update op_type_name() (and every switch asserting "
                "kOpTypeCount) when adding an op type");
  switch (t) {
    case OpType::kConv2D: return "CONV_2D";
    case OpType::kDepthwiseConv2D: return "DEPTHWISE_CONV_2D";
    case OpType::kFullyConnected: return "FULLY_CONNECTED";
    case OpType::kAvgPool2D: return "AVERAGE_POOL_2D";
    case OpType::kMaxPool2D: return "MAX_POOL_2D";
    case OpType::kAdd: return "ADD";
    case OpType::kSoftmax: return "SOFTMAX";
    case OpType::kOpTypeCount: break;  // not a real op type
  }
  return "UNKNOWN";
}

const char* activation_name(Activation a) {
  static_assert(static_cast<int>(Activation::kActivationCount) == 3,
                "update activation_name() (and activation_range) when adding "
                "an activation");
  switch (a) {
    case Activation::kNone: return "NONE";
    case Activation::kRelu: return "RELU";
    case Activation::kRelu6: return "RELU6";
    case Activation::kActivationCount: break;  // not a real activation
  }
  return "UNKNOWN";
}

void activation_range(Activation act, const quant::QuantParams& out_qp,
                      int bits, int32_t* act_min, int32_t* act_max) {
  const quant::QRange r = quant::qrange(bits);
  *act_min = r.qmin;
  *act_max = r.qmax;
  if (act == Activation::kRelu) {
    *act_min = std::max(*act_min, out_qp.zero_point);
  } else if (act == Activation::kRelu6) {
    *act_min = std::max(*act_min, out_qp.zero_point);
    // In double, so that no zero point or scale a model file holds can
    // overflow; exact for every value the clamp can take.
    const double six = static_cast<double>(out_qp.zero_point) +
                       std::round(6.f / out_qp.scale);
    if (six < *act_max)
      *act_max = static_cast<int32_t>(std::max<double>(six, INT32_MIN));
  }
}

int64_t OpDef::macs(const std::vector<TensorDef>& tensors) const {
  const TensorDef& out = tensors.at(static_cast<size_t>(output));
  switch (type) {
    case OpType::kConv2D: {
      const TensorDef& w = tensors.at(static_cast<size_t>(inputs.at(1)));
      // Weights [out_ch, kh, kw, in_ch].
      return out.elements() * w.shape.dim(1) * w.shape.dim(2) * w.shape.dim(3);
    }
    case OpType::kDepthwiseConv2D: {
      const TensorDef& w = tensors.at(static_cast<size_t>(inputs.at(1)));
      // Weights [1, kh, kw, ch].
      return out.elements() * w.shape.dim(1) * w.shape.dim(2);
    }
    case OpType::kFullyConnected: {
      const TensorDef& w = tensors.at(static_cast<size_t>(inputs.at(1)));
      return w.shape.dim(0) * w.shape.dim(1);
    }
    default:
      return 0;
  }
}

int64_t OpDef::op_count(const std::vector<TensorDef>& tensors) const {
  const int64_t m = macs(tensors);
  if (m > 0) return 2 * m;  // 1 MAC = 2 ops (paper footnote 2)
  // Non-MAC ops: one op per output element (pool window adds, residual adds).
  const TensorDef& out = tensors.at(static_cast<size_t>(output));
  if (type == OpType::kAvgPool2D || type == OpType::kMaxPool2D)
    return out.elements() * kh * kw;
  return out.elements();
}

int64_t ModelDef::total_ops() const {
  int64_t n = 0;
  for (const OpDef& op : ops) n += op.op_count(tensors);
  return n;
}

int64_t ModelDef::total_macs() const {
  int64_t n = 0;
  for (const OpDef& op : ops) n += op.macs(tensors);
  return n;
}

int64_t ModelDef::graph_def_bytes() const {
  // Flatbuffer-structure analog: header, per-op records (opcode, indices,
  // builtin options), per-tensor records (shape, quant params, name).
  int64_t bytes = 512;
  bytes += static_cast<int64_t>(ops.size()) * 64;
  for (const TensorDef& t : tensors) {
    bytes += 48 + static_cast<int64_t>(t.name.size());
    bytes += static_cast<int64_t>(t.channel_scales.size()) * 8;  // scale + zp
  }
  return bytes;
}

int64_t TflmOverheads::persistent_sram_bytes(const ModelDef& m) {
  // Per-op kernel data + per-tensor TfLiteTensor structs + buffered
  // quantization parameters. Calibrated against the paper's recordings:
  // ~34 KB for the Fig. 2 KWS model (mid-teens of ops, wide per-channel
  // scale tables) while 60+-op MobileNetV2 stacks stay in the same range
  // (VWW-S totals ~70 KB of SRAM including its arena).
  int64_t bytes = 2048;
  bytes += static_cast<int64_t>(m.ops.size()) * 256;
  for (const TensorDef& t : m.tensors)
    bytes += 48 + static_cast<int64_t>(t.channel_scales.size()) * 4;
  return bytes;
}

// ---------------------------------------------------------- serialization --

namespace {

class Writer {
 public:
  void u8(uint8_t v) { buf_.push_back(v); }
  void i32(int32_t v) { raw(&v, 4); }
  void u32(uint32_t v) { raw(&v, 4); }
  void i64(int64_t v) { raw(&v, 8); }
  void f32(float v) { raw(&v, 4); }
  void str(const std::string& s) {
    i32(static_cast<int32_t>(s.size()));
    raw(s.data(), s.size());
  }
  void raw(const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::vector<uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

// Internal parse failure; thrown by Reader, caught and converted to an
// RtError before it can escape try_deserialize.
struct ParseFailure {
  ErrorCode code;
  std::string message;
};

// Bounds-checked reader. Every count/length is validated against the bytes
// actually remaining in the stream *before* any allocation, so a flipped
// length field yields a typed error instead of a multi-gigabyte resize.
class Reader {
 public:
  explicit Reader(std::span<const uint8_t> b) : buf_(b) {}
  uint8_t u8() {
    if (pos_ >= buf_.size()) fail(ErrorCode::kTruncated, "byte");
    return buf_[pos_++];
  }
  int32_t i32() {
    int32_t v;
    raw(&v, 4);
    return v;
  }
  uint32_t u32() {
    uint32_t v;
    raw(&v, 4);
    return v;
  }
  int64_t i64() {
    int64_t v;
    raw(&v, 8);
    return v;
  }
  float f32() {
    float v;
    raw(&v, 4);
    return v;
  }
  std::string str() {
    const int32_t n = i32();
    if (n < 0 || static_cast<size_t>(n) > remaining())
      fail(ErrorCode::kCorruptString, "string length " + std::to_string(n));
    std::string s(reinterpret_cast<const char*>(buf_.data() + pos_),
                  static_cast<size_t>(n));
    pos_ += static_cast<size_t>(n);
    return s;
  }
  void raw(void* p, size_t n) {
    if (n > remaining())
      fail(ErrorCode::kTruncated, "need " + std::to_string(n) + " bytes, have " +
                                      std::to_string(remaining()));
    std::memcpy(p, buf_.data() + pos_, n);
    pos_ += n;
  }
  // A count of records each at least `min_record_bytes` long. Rejects
  // counts that cannot possibly fit in the remaining stream.
  int32_t count(const char* what, size_t min_record_bytes) {
    const int32_t n = i32();
    if (n < 0 || static_cast<size_t>(n) > remaining() / min_record_bytes)
      fail(ErrorCode::kAbsurdSize,
           std::string(what) + " count " + std::to_string(n) + " impossible for " +
               std::to_string(remaining()) + " remaining bytes");
    return n;
  }
  size_t pos() const { return pos_; }
  size_t remaining() const { return buf_.size() - pos_; }
  std::span<const uint8_t> slice(size_t from, size_t to) const {
    return buf_.subspan(from, to - from);
  }
  [[noreturn]] void fail(ErrorCode code, const std::string& detail) const {
    throw ParseFailure{code, "ModelDef: " + detail + " at offset " +
                                 std::to_string(pos_)};
  }

 private:
  std::span<const uint8_t> buf_;
  size_t pos_ = 0;
};

// Per-dimension and per-tensor caps: far above any deployable MCU model, but
// small enough that a corrupted shape cannot overflow the int64 byte math or
// provoke an absurd arena allocation downstream.
constexpr int64_t kMaxDim = int64_t{1} << 28;
constexpr int64_t kMaxTensorElements = int64_t{1} << 31;
constexpr int32_t kMaxOpInputs = 8;

void write_graph_section(Writer& w, const ModelDef& m) {
  w.str(m.name);
  w.i32(m.input_tensor);
  w.i32(m.output_tensor);
  w.i32(static_cast<int32_t>(m.tensors.size()));
  for (const TensorDef& t : m.tensors) {
    w.str(t.name);
    w.i32(t.shape.rank());
    for (int i = 0; i < t.shape.rank(); ++i) w.i64(t.shape.dim(i));
    w.f32(t.qp.scale);
    w.i32(t.qp.zero_point);
    w.i32(static_cast<int32_t>(t.channel_scales.size()));
    for (float s : t.channel_scales) w.f32(s);
    w.i32(t.bits);
    w.u8(t.is_const ? 1 : 0);
    w.i64(t.blob_offset);
  }
  w.i32(static_cast<int32_t>(m.ops.size()));
  for (const OpDef& op : m.ops) {
    w.u8(static_cast<uint8_t>(op.type));
    w.u8(static_cast<uint8_t>(op.act));
    w.i32(static_cast<int32_t>(op.inputs.size()));
    for (int i : op.inputs) w.i32(i);
    w.i32(op.output);
    w.i32(op.stride);
    w.i32(op.kh);
    w.i32(op.kw);
    w.i32(op.pad_h);
    w.i32(op.pad_w);
  }
}

// Parses the graph section shared by V1 and V2 plus the trailing weights
// blob. Throws ParseFailure on any malformed field.
ModelDef read_body(Reader& r) {
  ModelDef m;
  m.name = r.str();
  m.input_tensor = r.i32();
  m.output_tensor = r.i32();
  const int32_t nt = r.count("tensor", 33);  // minimal tensor record bytes
  m.tensors.reserve(static_cast<size_t>(nt));
  for (int32_t i = 0; i < nt; ++i) {
    TensorDef t;
    t.name = r.str();
    const int32_t rank = r.i32();
    if (rank < 1 || rank > Shape::kMaxRank)
      r.fail(ErrorCode::kBadRank, "rank " + std::to_string(rank));
    Shape s;
    if (rank == 1) s = Shape{0};
    else if (rank == 2) s = Shape{0, 0};
    else if (rank == 3) s = Shape{0, 0, 0};
    else s = Shape{0, 0, 0, 0};
    int64_t elements = 1;
    for (int d = 0; d < rank; ++d) {
      const int64_t v = r.i64();
      if (v < 0 || v > kMaxDim)
        r.fail(ErrorCode::kAbsurdSize, "dim " + std::to_string(v));
      s.set_dim(d, v);
      elements *= std::max<int64_t>(v, 1);
      if (elements > kMaxTensorElements)
        r.fail(ErrorCode::kAbsurdSize, "tensor " + t.name + " too large");
    }
    t.shape = s;
    t.qp.scale = r.f32();
    t.qp.zero_point = r.i32();
    const int32_t ncs = r.count("channel scale", 4);
    t.channel_scales.resize(static_cast<size_t>(ncs));
    for (int32_t k = 0; k < ncs; ++k)
      t.channel_scales[static_cast<size_t>(k)] = r.f32();
    t.bits = r.i32();
    if (t.bits != 4 && t.bits != 8 && t.bits != 32)
      r.fail(ErrorCode::kGraphInvalid, "bits " + std::to_string(t.bits));
    t.is_const = r.u8() != 0;
    t.blob_offset = r.i64();
    m.tensors.push_back(std::move(t));
  }
  const int32_t no = r.count("op", 30);  // minimal op record bytes
  m.ops.reserve(static_cast<size_t>(no));
  for (int32_t i = 0; i < no; ++i) {
    OpDef op;
    const uint8_t type = r.u8();
    if (type >= static_cast<uint8_t>(OpType::kOpTypeCount))
      r.fail(ErrorCode::kBadOpType, "op type " + std::to_string(type));
    op.type = static_cast<OpType>(type);
    const uint8_t act = r.u8();
    if (act >= static_cast<uint8_t>(Activation::kActivationCount))
      r.fail(ErrorCode::kBadOpType, "activation " + std::to_string(act));
    op.act = static_cast<Activation>(act);
    const int32_t ni = r.i32();
    if (ni < 0 || ni > kMaxOpInputs)
      r.fail(ErrorCode::kAbsurdSize, "op input count " + std::to_string(ni));
    for (int32_t k = 0; k < ni; ++k) op.inputs.push_back(r.i32());
    op.output = r.i32();
    op.stride = r.i32();
    op.kh = r.i32();
    op.kw = r.i32();
    op.pad_h = r.i32();
    op.pad_w = r.i32();
    m.ops.push_back(std::move(op));
  }
  const int64_t blob = r.i64();
  if (blob < 0 || static_cast<uint64_t>(blob) > r.remaining())
    r.fail(ErrorCode::kAbsurdSize, "weights blob size " + std::to_string(blob));
  m.weights_blob.resize(static_cast<size_t>(blob));
  r.raw(m.weights_blob.data(), static_cast<size_t>(blob));
  if (r.remaining() != 0)
    r.fail(ErrorCode::kTrailingBytes,
           std::to_string(r.remaining()) + " bytes after weights blob");
  return m;
}

}  // namespace

std::vector<uint8_t> ModelDef::serialize() const {
  Writer body;
  write_graph_section(body, *this);
  Writer w;
  w.u32(kMagicV2);
  w.u32(crc32(body.bytes()));
  w.u32(weights_crc());
  w.raw(body.bytes().data(), body.bytes().size());
  w.i64(static_cast<int64_t>(weights_blob.size()));
  w.raw(weights_blob.data(), weights_blob.size());
  return w.take();
}

std::vector<uint8_t> ModelDef::serialize_legacy_v1() const {
  Writer w;
  w.u32(kMagicV1);
  write_graph_section(w, *this);
  w.i64(static_cast<int64_t>(weights_blob.size()));
  w.raw(weights_blob.data(), weights_blob.size());
  return w.take();
}

uint32_t ModelDef::weights_crc() const { return crc32(weights_blob); }

Expected<ModelDef> ModelDef::try_deserialize(std::span<const uint8_t> bytes) {
  try {
    Reader r(bytes);
    const uint32_t magic = r.u32();
    if (magic != kMagicV1 && magic != kMagicV2) {
      return RtError{ErrorCode::kBadMagic,
                     "ModelDef: bad magic 0x" + [&] {
                       char buf[16];
                       std::snprintf(buf, sizeof(buf), "%08X", magic);
                       return std::string(buf);
                     }()};
    }
    uint32_t graph_crc = 0, blob_crc = 0;
    if (magic == kMagicV2) {
      graph_crc = r.u32();
      blob_crc = r.u32();
    }
    const size_t body_start = r.pos();
    ModelDef m = read_body(r);
    if (magic == kMagicV2) {
      // The graph section spans [body_start, end-of-ops); recompute its CRC
      // from the raw bytes (end of ops = end of stream - 8 - blob bytes).
      const size_t body_end = bytes.size() - 8 - m.weights_blob.size();
      const uint32_t got_graph = crc32(r.slice(body_start, body_end));
      if (got_graph != graph_crc)
        return RtError{ErrorCode::kCrcMismatch,
                       "ModelDef: graph metadata CRC mismatch"};
      const uint32_t got_blob = crc32(m.weights_blob);
      if (got_blob != blob_crc)
        return RtError{ErrorCode::kCrcMismatch,
                       "ModelDef: weights blob CRC mismatch"};
    }
    if (auto err = m.check()) return *err;
    return m;
  } catch (const ParseFailure& f) {
    return RtError{f.code, f.message};
  } catch (const std::exception& e) {
    return RtError{ErrorCode::kTruncated, std::string("ModelDef: ") + e.what()};
  }
}

ModelDef ModelDef::deserialize(const std::vector<uint8_t>& bytes) {
  return try_deserialize(bytes).take_or_throw();
}

void ModelDef::save(const std::string& path) const {
  const auto bytes = serialize();
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("ModelDef::save: cannot open " + path);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
}

Expected<ModelDef> ModelDef::try_load(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f)
    return RtError{ErrorCode::kIoError, "ModelDef::load: cannot open " + path};
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(f)),
                             std::istreambuf_iterator<char>());
  return try_deserialize(bytes);
}

ModelDef ModelDef::load(const std::string& path) {
  return try_load(path).take_or_throw();
}

namespace {

bool is_weighted(OpType t) {
  return t == OpType::kConv2D || t == OpType::kDepthwiseConv2D ||
         t == OpType::kFullyConnected;
}

RtError op_error(ErrorCode code, size_t i, const OpDef& op,
                 const std::string& what) {
  return RtError{code, "ModelDef: op " + std::to_string(i) + " (" +
                           op_type_name(op.type) + ") " + what};
}

// What the interpreter needs to run op `i`: its precision (kUnsupportedOp)
// and every size its kernel reads or writes (kGraphInvalid). Runs after the
// structural checks, so the op's tensor ids and ranks are valid.
std::optional<RtError> check_op_runnable(const ModelDef& m, size_t i) {
  const OpDef& op = m.ops[i];
  const TensorDef& in = m.tensors[static_cast<size_t>(op.inputs[0])];
  const TensorDef& out = m.tensors[static_cast<size_t>(op.output)];
  // Weights for conv/depthwise/FC, the second operand for add.
  const TensorDef* second =
      is_weighted(op.type) || op.type == OpType::kAdd
          ? &m.tensors[static_cast<size_t>(op.inputs[1])]
          : nullptr;

  // Precision: one bit width per op, int8 or int4. Int4 runs as a storage
  // format (unpack, int8 kernel, pack), which softmax cannot: its output is
  // fixed at int8.
  if (in.bits != 8 && in.bits != 4)
    return op_error(ErrorCode::kUnsupportedOp, i, op,
                    std::to_string(in.bits) + "-bit activations unsupported");
  if (out.bits != in.bits || (second != nullptr && second->bits != in.bits))
    return op_error(ErrorCode::kUnsupportedOp, i, op,
                    "mixed-precision operands unsupported");
  if (in.bits == 4 && op.type == OpType::kSoftmax)
    return op_error(ErrorCode::kUnsupportedOp, i, op, "int4 unsupported");
  // Every zero point and the fused clamp lie in the bit width: the fast
  // kernels' int16 lanes hold x - zp only for an int8 zero point, and an
  // int4 result goes through the nibble codec, which keeps only the low four
  // bits. The clamp must also be a non-empty range.
  const quant::QRange r = quant::qrange(in.bits);
  const auto outside = [&](const std::string& what) {
    return op_error(ErrorCode::kUnsupportedOp, i, op,
                    what + " outside [" + std::to_string(r.qmin) + ", " +
                        std::to_string(r.qmax) + "]");
  };
  for (const TensorDef* t : {&in, second, &out})
    if (t != nullptr &&
        (t->qp.zero_point < r.qmin || t->qp.zero_point > r.qmax))
      return outside(t->name + " zero point " +
                     std::to_string(t->qp.zero_point));
  if (op.type != OpType::kSoftmax) {
    int32_t lo = 0, hi = 0;
    activation_range(op.act, out.qp, out.bits, &lo, &hi);
    if (lo > hi)
      return outside("clamps to [" + std::to_string(lo) + ", " +
                     std::to_string(hi) + "],");
  }

  // Sizes: what each kernel reads and writes.
  const Shape& is = in.shape;
  const Shape& os = out.shape;
  const Shape& ws = second != nullptr ? second->shape : is;
  bool fits = true;
  switch (op.type) {
    case OpType::kConv2D:  // weights [out_ch][kh][kw][in_ch]
      fits = ws.dim(0) == os.dim(2) && ws.dim(3) == is.dim(2);
      break;
    case OpType::kDepthwiseConv2D:  // weights [1][kh][kw][ch]
      fits = os.dim(2) == is.dim(2) && ws.dim(3) == is.dim(2);
      break;
    case OpType::kFullyConnected:  // weights [out][in]
      fits = in.elements() == ws.dim(1) && out.elements() == ws.dim(0);
      break;
    case OpType::kAvgPool2D:
    case OpType::kMaxPool2D:
      fits = os.dim(2) == is.dim(2);
      break;
    case OpType::kAdd:
      fits = ws.elements() == is.elements() && os.elements() == is.elements();
      break;
    case OpType::kSoftmax:
      fits = os.elements() == is.elements();
      break;
    case OpType::kOpTypeCount:
      break;
  }
  const auto mismatch = [&](const std::string& what) {
    return op_error(ErrorCode::kGraphInvalid, i, op, what);
  };
  if (!fits)
    return mismatch("shapes do not fit: input " + is.to_string() +
                    (second != nullptr ? ", " + ws.to_string() : "") +
                    ", output " + os.to_string());
  if (!is_weighted(op.type)) return std::nullopt;
  // Per-channel scales and the int32 bias hold one entry per output channel.
  const int64_t channels =
      op.type == OpType::kFullyConnected ? ws.dim(0) : os.dim(2);
  if (!second->channel_scales.empty() &&
      static_cast<int64_t>(second->channel_scales.size()) != channels)
    return mismatch("weights carry " +
                    std::to_string(second->channel_scales.size()) +
                    " channel scales for " + std::to_string(channels) +
                    " output channels");
  if (op.inputs.size() > 2 && op.inputs[2] >= 0) {
    const TensorDef& bias = m.tensors[static_cast<size_t>(op.inputs[2])];
    if (bias.bits != 32 || bias.elements() != channels)
      return mismatch("bias " + bias.shape.to_string() + " at " +
                      std::to_string(bias.bits) + " bits is not " +
                      std::to_string(channels) + " int32 values");
  }
  return std::nullopt;
}

// Arena dataflow, the lifetimes the planner derives: the model input is
// written by no op, every other arena tensor by exactly one op before any op
// reads it, and every arena tensor but the model output is read.
std::optional<RtError> check_dataflow(const ModelDef& m) {
  const auto invalid = [](const std::string& what) {
    return RtError{ErrorCode::kGraphInvalid, "ModelDef: " + what};
  };
  const TensorDef& input = m.tensors[static_cast<size_t>(m.input_tensor)];
  if (input.is_const)
    return invalid("model input " + input.name + " is a const tensor");
  std::vector<bool> written(m.tensors.size(), false), read(m.tensors.size(), false);
  written[static_cast<size_t>(m.input_tensor)] = true;
  for (size_t i = 0; i < m.ops.size(); ++i) {
    const OpDef& op = m.ops[i];
    for (int id : op.inputs) {
      if (id < 0 || m.tensors[static_cast<size_t>(id)].is_const) continue;
      if (!written[static_cast<size_t>(id)])
        return invalid("op " + std::to_string(i) + " reads " +
                       m.tensors[static_cast<size_t>(id)].name +
                       " before any op writes it");
      read[static_cast<size_t>(id)] = true;
    }
    if (written[static_cast<size_t>(op.output)])
      return invalid("op " + std::to_string(i) + " rewrites " +
                     m.tensors[static_cast<size_t>(op.output)].name);
    written[static_cast<size_t>(op.output)] = true;
  }
  read[static_cast<size_t>(m.output_tensor)] = true;
  for (size_t t = 0; t < m.tensors.size(); ++t) {
    if (m.tensors[t].is_const) continue;
    if (!written[t])
      return invalid("tensor never written: " + m.tensors[t].name);
    if (!read[t]) return invalid("tensor never read: " + m.tensors[t].name);
  }
  return std::nullopt;
}

}  // namespace

std::optional<RtError> ModelDef::check() const {
  const int nt = static_cast<int>(tensors.size());
  auto bad_id = [&](int id) { return id < 0 || id >= nt; };
  auto id_error = [&](int id, const char* what) {
    return RtError{ErrorCode::kBadTensorId,
                   "ModelDef: bad tensor id " + std::to_string(id) + " for " + what};
  };
  if (bad_id(input_tensor)) return id_error(input_tensor, "model input");
  if (bad_id(output_tensor)) return id_error(output_tensor, "model output");
  for (const TensorDef& t : tensors) {
    if (t.elements() < 1)
      return RtError{ErrorCode::kGraphInvalid, "ModelDef: empty tensor " + t.name};
    if (!std::isfinite(t.qp.scale))
      return RtError{ErrorCode::kGraphInvalid,
                     "ModelDef: non-finite quant scale on " + t.name};
    for (float s : t.channel_scales)
      if (!std::isfinite(s))
        return RtError{ErrorCode::kGraphInvalid,
                       "ModelDef: non-finite channel scale on " + t.name};
    if (t.is_const) {
      if (t.blob_offset < 0 ||
          t.blob_offset + t.storage_bytes() > static_cast<int64_t>(weights_blob.size()))
        return RtError{ErrorCode::kBlobOutOfRange,
                       "ModelDef: const tensor outside blob: " + t.name};
    }
  }
  for (const OpDef& op : ops) {
    if (static_cast<uint8_t>(op.type) >= static_cast<uint8_t>(OpType::kOpTypeCount))
      return RtError{ErrorCode::kBadOpType,
                     "ModelDef: op type " +
                         std::to_string(static_cast<int>(op.type)) +
                         " out of range"};
    if (static_cast<uint8_t>(op.act) >=
        static_cast<uint8_t>(Activation::kActivationCount))
      return RtError{ErrorCode::kBadOpType,
                     "ModelDef: activation " +
                         std::to_string(static_cast<int>(op.act)) +
                         " out of range"};
    // -1 marks an absent optional input (conv/FC bias); every other id must
    // resolve. Negative ids other than -1 used to slip through here and
    // reach the planner.
    for (int id : op.inputs)
      if (id != -1 && bad_id(id)) return id_error(id, op_type_name(op.type));
    if (bad_id(op.output)) return id_error(op.output, op_type_name(op.type));
    // Ops write arena tensors; a const (blob-backed) output would let an
    // invoke silently scribble over "flash" contents.
    if (tensors[static_cast<size_t>(op.output)].is_const)
      return RtError{ErrorCode::kGraphInvalid,
                     std::string("ModelDef: ") + op_type_name(op.type) +
                         " writes const tensor " +
                         tensors[static_cast<size_t>(op.output)].name};
    if (is_weighted(op.type)) {
      if (op.inputs.size() < 2 || op.inputs[0] < 0 || op.inputs[1] < 0)
        return RtError{ErrorCode::kGraphInvalid,
                       std::string("ModelDef: ") + op_type_name(op.type) +
                           " needs weights input"};
      const TensorDef& w = tensors[static_cast<size_t>(op.inputs[1])];
      const int want_rank = op.type == OpType::kFullyConnected ? 2 : 4;
      if (w.shape.rank() != want_rank)
        return RtError{ErrorCode::kGraphInvalid,
                       std::string("ModelDef: ") + op_type_name(op.type) +
                           " weights must be rank-" + std::to_string(want_rank) +
                           ", got " + w.shape.to_string()};
    } else if (op.inputs.empty() || op.inputs[0] < 0) {
      return RtError{ErrorCode::kGraphInvalid,
                     std::string("ModelDef: ") + op_type_name(op.type) +
                         " needs an input"};
    }
    if (op.type == OpType::kConv2D || op.type == OpType::kDepthwiseConv2D ||
        op.type == OpType::kAvgPool2D || op.type == OpType::kMaxPool2D) {
      const TensorDef& in = tensors[static_cast<size_t>(op.inputs[0])];
      const TensorDef& out = tensors[static_cast<size_t>(op.output)];
      if (in.shape.rank() != 3 || out.shape.rank() != 3)
        return RtError{ErrorCode::kGraphInvalid,
                       std::string("ModelDef: ") + op_type_name(op.type) +
                           " activations must be rank-3 (HWC)"};
    }
    if (op.type == OpType::kAdd &&
        (op.inputs.size() < 2 || op.inputs[0] < 0 || op.inputs[1] < 0))
      return RtError{ErrorCode::kGraphInvalid, "ModelDef: ADD needs two inputs"};
  }
  // The interpreter's rules, all checked here so that a model which loads
  // also runs: invoke itself checks nothing.
  for (size_t i = 0; i < ops.size(); ++i)
    if (auto err = check_op_runnable(*this, i)) return err;
  for (int id : {input_tensor, output_tensor}) {
    const TensorDef& t = tensors[static_cast<size_t>(id)];
    if (t.bits != 8 && t.bits != 4)
      return RtError{ErrorCode::kUnsupportedOp,
                     "ModelDef: model input/output " + t.name + " is " +
                         std::to_string(t.bits) + "-bit, not int8 or int4"};
  }
  return check_dataflow(*this);
}

void ModelDef::validate() const {
  if (auto err = check()) throw_rt_error(*err);
}

}  // namespace mn::rt
