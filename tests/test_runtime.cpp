// Unit tests: model format, memory planner, converter, interpreter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>

#include "models/backbones.hpp"
#include "nn/trainer.hpp"
#include "runtime/converter.hpp"
#include "runtime/interpreter.hpp"
#include "runtime/planner.hpp"
#include "runtime/summary.hpp"
#include "tensor/rng.hpp"

namespace mn::rt {
namespace {

TensorF random_batch(Shape feature, int64_t n, uint64_t seed) {
  Rng rng(seed);
  Shape s = feature.rank() == 3
                ? Shape{n, feature.dim(0), feature.dim(1), feature.dim(2)}
                : Shape{n, feature.dim(0)};
  TensorF t(s);
  for (int64_t i = 0; i < t.size(); ++i)
    t[i] = static_cast<float>(rng.normal(0.0, 0.5));
  return t;
}

// Small trained-ish graph (random weights + calibration) for structural tests.
ModelDef tiny_model(uint64_t seed = 1, int act_bits = 8, int weight_bits = 8) {
  models::DsCnnConfig cfg;
  cfg.input = Shape{12, 8, 1};
  cfg.num_classes = 4;
  cfg.stem_channels = 8;
  cfg.stem_kh = 3;
  cfg.stem_kw = 3;
  cfg.blocks = {{8, 1}, {12, 1}};
  models::BuildOptions opt;
  opt.seed = seed;
  opt.qat = false;
  nn::Graph g = models::build_ds_cnn(cfg, opt);
  const TensorF batch = random_batch(cfg.input, 2, seed + 1);
  const RangeMap ranges = calibrate_ranges(g, batch);
  ConvertOptions co;
  co.name = "tiny";
  co.act_bits = act_bits;
  co.weight_bits = weight_bits;
  return convert(g, co, &ranges);
}

TEST(ModelDef, OpCountsFollowPaperConvention) {
  const ModelDef m = tiny_model();
  // Stride-2 stem conv: out 6x4x8, kernel 3x3x1 -> 6*4*8 * 9 MACs.
  const OpDef& stem = m.ops.front();
  ASSERT_EQ(stem.type, OpType::kConv2D);
  EXPECT_EQ(stem.macs(m.tensors), 6 * 4 * 8 * 9);
  EXPECT_EQ(stem.op_count(m.tensors), 2 * stem.macs(m.tensors));
  // Total ops = 2 * MACs plus the (small) pool/elementwise contribution.
  EXPECT_GE(m.total_ops(), 2 * m.total_macs());
  EXPECT_LT(m.total_ops(), 2 * m.total_macs() + m.total_macs() / 2 + 4096);
}

TEST(ModelDef, SerializationRoundTrip) {
  const ModelDef m = tiny_model();
  const auto bytes = m.serialize();
  // The serialized blob and the flatbuffer-size model agree to first order.
  EXPECT_GT(static_cast<int64_t>(bytes.size()), m.weights_bytes());
  EXPECT_LT(static_cast<int64_t>(bytes.size()), 2 * m.flatbuffer_bytes());
  const ModelDef back = ModelDef::deserialize(bytes);
  EXPECT_EQ(back.name, m.name);
  EXPECT_EQ(back.tensors.size(), m.tensors.size());
  EXPECT_EQ(back.ops.size(), m.ops.size());
  EXPECT_EQ(back.weights_blob, m.weights_blob);
  EXPECT_EQ(back.input_tensor, m.input_tensor);
  for (size_t i = 0; i < m.tensors.size(); ++i) {
    EXPECT_EQ(back.tensors[i].shape, m.tensors[i].shape);
    EXPECT_EQ(back.tensors[i].bits, m.tensors[i].bits);
    EXPECT_FLOAT_EQ(back.tensors[i].qp.scale, m.tensors[i].qp.scale);
  }
}

TEST(ModelDef, SaveLoadFile) {
  const ModelDef m = tiny_model();
  const std::string path = "/tmp/mn_test_model.bin";
  m.save(path);
  const ModelDef back = ModelDef::load(path);
  EXPECT_EQ(back.serialize(), m.serialize());
  std::remove(path.c_str());
}

TEST(ModelDef, DeserializeRejectsGarbage) {
  std::vector<uint8_t> junk{1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_THROW(ModelDef::deserialize(junk), std::runtime_error);
}

TEST(ModelDef, ValidateCatchesBadIndices) {
  ModelDef m = tiny_model();
  m.ops.front().inputs[0] = 999;
  EXPECT_THROW(m.validate(), std::runtime_error);
}

// Appends an op of `type` that reads the model output (twice for ADD) and
// writes a new tensor of `shape`, which becomes the model output.
ModelDef with_head(ModelDef m, OpType type, Shape shape) {
  TensorDef out = m.tensors[static_cast<size_t>(m.output_tensor)];
  out.name = "head";
  out.shape = shape;
  m.tensors.push_back(out);
  OpDef op;
  op.type = type;
  op.inputs = {m.output_tensor};
  if (type == OpType::kAdd) op.inputs.push_back(m.output_tensor);
  op.output = static_cast<int>(m.tensors.size()) - 1;
  m.ops.push_back(op);
  m.output_tensor = op.output;
  return m;
}

TensorDef& tensor(ModelDef& m, int id) {
  return m.tensors[static_cast<size_t>(id)];
}

TEST(ModelDef, CheckRejectsUnrunnableGraphs) {
  // Every rule the interpreter relies on is checked at load time, so an
  // unrunnable graph fails with the same typed error from check(), from
  // try_deserialize of its image, and from Interpreter construction.
  // tiny_model: conv, dw, conv, dw, conv (stem/blocks), avg pool, FC.
  const ModelDef m8 = tiny_model(15);
  const ModelDef m4 = tiny_model(15, 4, 4);
  ASSERT_EQ(m8.ops[5].type, OpType::kAvgPool2D);
  ASSERT_EQ(m8.ops[6].type, OpType::kFullyConnected);
  struct Case {
    const char* name;
    ModelDef model;
    ErrorCode code;
  };
  std::vector<Case> cases;
  const auto add = [&](const char* name, ModelDef m, ErrorCode code,
                       const std::function<void(ModelDef&)>& mutate) {
    mutate(m);
    cases.push_back({name, std::move(m), code});
  };
  const ErrorCode kOp = ErrorCode::kUnsupportedOp;
  const ErrorCode kGraph = ErrorCode::kGraphInvalid;
  // Precision.
  add("int32 activations", m8, kOp,
      [](ModelDef& m) { tensor(m, m.input_tensor).bits = 32; });
  add("int4 weights on an int8 conv", m8, kOp,
      [](ModelDef& m) { tensor(m, m.ops[0].inputs[1]).bits = 4; });
  add("int8 output of an int4 conv", m4, kOp,
      [](ModelDef& m) { tensor(m, m.ops[0].output).bits = 8; });
  add("int4 softmax", with_head(m4, OpType::kSoftmax, Shape{4}), kOp,
      [](ModelDef&) {});
  add("int4 clamp outside [-8, 7]", m4, kOp,
      [](ModelDef& m) { tensor(m, m.ops[0].output).qp.zero_point = 9; });
  add("int32 model output", m8, kOp,
      [](ModelDef& m) { m.output_tensor = m.ops[6].inputs[2]; });
  // Sizes.
  add("conv output channels", m8, kGraph,
      [](ModelDef& m) { tensor(m, m.ops[0].output).shape = Shape{6, 4, 4}; });
  add("conv input channels", m8, kGraph,
      [](ModelDef& m) { tensor(m, m.input_tensor).shape = Shape{12, 8, 2}; });
  add("depthwise channels", m8, kGraph,
      [](ModelDef& m) { tensor(m, m.ops[1].output).shape = Shape{6, 4, 4}; });
  add("fc input elements", m8, kGraph,
      [](ModelDef& m) { tensor(m, m.ops[5].output).shape = Shape{1, 2, 12}; });
  add("fc output elements", m8, kGraph,
      [](ModelDef& m) { tensor(m, m.ops[6].output).shape = Shape{5}; });
  add("add operand sizes", with_head(m8, OpType::kAdd, Shape{3}), kGraph,
      [](ModelDef&) {});
  add("bias length", m8, kGraph,
      [](ModelDef& m) { tensor(m, m.ops[0].inputs[2]).shape = Shape{7}; });
  add("bias bits", m8, kGraph,
      [](ModelDef& m) { tensor(m, m.ops[6].inputs[2]).bits = 8; });
  add("channel scale count", m8, kGraph, [](ModelDef& m) {
    tensor(m, m.ops[0].inputs[1]).channel_scales.resize(7, 1.f);
  });
  add("avg pool output channels", m8, kGraph,
      [](ModelDef& m) { tensor(m, m.ops[5].output).shape = Shape{1, 1, 1}; });
  add("max pool output channels", m8, kGraph, [](ModelDef& m) {
    // A 1x1 max pool from 6x4x12 into 6x4x1 would write 6*4*12 bytes into
    // a 6*4-byte arena slot.
    OpDef& pool = m.ops[5];
    pool.type = OpType::kMaxPool2D;
    pool.kh = pool.kw = 1;
    tensor(m, pool.output).shape = Shape{6, 4, 1};
  });
  add("softmax output size", with_head(m8, OpType::kSoftmax, Shape{2}),
      kGraph, [](ModelDef&) {});
  add("empty tensor", m8, kGraph,
      [](ModelDef& m) { tensor(m, m.ops[1].output).shape = Shape{6, 0, 8}; });
  // Dataflow: the lifetimes the planner derives.
  add("const model input", m8, kGraph, [](ModelDef& m) {
    tensor(m, m.input_tensor).is_const = true;
    tensor(m, m.input_tensor).blob_offset = 0;
  });
  add("orphan tensor", m8, kGraph, [](ModelDef& m) {
    TensorDef orphan;
    orphan.name = "orphan";
    orphan.shape = Shape{4};
    m.tensors.push_back(orphan);
  });
  add("dead tensor", m8, kGraph, [](ModelDef& m) {
    TensorDef dead = tensor(m, m.output_tensor);
    dead.name = "dead";
    m.tensors.push_back(dead);
    OpDef writer = m.ops.back();
    writer.output = static_cast<int>(m.tensors.size()) - 1;
    m.ops.push_back(writer);
  });
  add("read before write", m8, kGraph,
      [](ModelDef& m) { std::swap(m.ops[1], m.ops[2]); });
  add("tensor written twice", m8, kGraph,
      [](ModelDef& m) { m.ops[3].output = m.ops[1].output; });

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto err = c.model.check();
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->code, c.code) << err->message;
    const auto loaded = ModelDef::try_deserialize(c.model.serialize());
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.code(), c.code) << loaded.error().message;
    const std::string tag = std::string("[") + error_code_name(c.code) + "]";
    try {
      Interpreter interp(c.model);
      ADD_FAILURE() << "expected the constructor to throw";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind(tag, 0), 0u) << e.what();
    }
  }
  // The unmutated models pass all three.
  for (const ModelDef* m : {&m8, &m4}) {
    EXPECT_FALSE(m->check().has_value());
    EXPECT_TRUE(ModelDef::try_deserialize(m->serialize()).ok());
    EXPECT_NO_THROW(Interpreter{*m});
  }
}

TEST(Planner, LifetimesDoNotOverlapInArena) {
  const ModelDef m = tiny_model();
  const MemoryPlan plan = plan_memory(m);
  for (size_t i = 0; i < plan.allocations.size(); ++i) {
    for (size_t j = i + 1; j < plan.allocations.size(); ++j) {
      const auto& a = plan.allocations[i];
      const auto& b = plan.allocations[j];
      const bool lifetime_overlap = a.first_op <= b.last_op && b.first_op <= a.last_op;
      const bool space_overlap =
          a.offset < b.offset + b.bytes && b.offset < a.offset + a.bytes;
      EXPECT_FALSE(lifetime_overlap && space_overlap)
          << "tensors " << a.tensor_id << " and " << b.tensor_id << " collide";
    }
  }
}

TEST(Planner, ArenaSmallerThanUnplannedSum) {
  const ModelDef m = tiny_model();
  const MemoryPlan plan = plan_memory(m);
  EXPECT_LT(plan.arena_bytes, unplanned_activation_bytes(m));
  EXPECT_GT(plan.arena_bytes, 0);
}

TEST(Planner, ArenaAtLeastLargestConcurrentPair) {
  const ModelDef m = tiny_model();
  const MemoryPlan plan = plan_memory(m);
  // Every op needs its input and output live simultaneously.
  for (const OpDef& op : m.ops) {
    const TensorAllocation* in = plan.find(op.inputs[0]);
    const TensorAllocation* out = plan.find(op.output);
    if (in != nullptr && out != nullptr) {
      EXPECT_GE(plan.arena_bytes, in->bytes + out->bytes);
    }
  }
}

TEST(Interpreter, MixedPrecisionConvIsRejected) {
  // int4 weights driving int8 activations is not a supported kernel combo:
  // the model is refused at load time with kUnsupportedOp, before any
  // invoke.
  ModelDef m = tiny_model(15);
  const OpDef& stem = m.ops.front();
  ASSERT_EQ(stem.type, OpType::kConv2D);
  m.tensors[static_cast<size_t>(stem.inputs[1])].bits = 4;
  try {
    Interpreter interp(std::move(m));
    FAIL() << "expected the constructor to throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("kUnsupportedOp"), std::string::npos) << what;
    EXPECT_NE(what.find("mixed-precision"), std::string::npos) << what;
  }
}

TEST(Interpreter, OutOfRangeInt4InputIsAnInputMismatch) {
  // A caller-supplied int4 value outside [-8, 7] cannot be packed into a
  // nibble: it is refused as kInputMismatch naming the element, not wrapped
  // and not reported as an unsupported op.
  Interpreter interp(tiny_model(15, 4, 4));
  TensorI8 in(Shape{12, 8, 1});
  in.fill(0);
  in[5] = 8;
  const auto r = interp.try_invoke_quantized(in);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kInputMismatch);
  EXPECT_NE(r.error().message.find("element 5"), std::string::npos)
      << r.error().message;
  in[5] = -9;
  EXPECT_EQ(interp.try_invoke_quantized(in).code(), ErrorCode::kInputMismatch);
  EXPECT_THROW(interp.invoke_quantized(in), std::invalid_argument);
  in[5] = -8;
  EXPECT_TRUE(interp.try_invoke_quantized(in).ok());
}

TEST(Interpreter, Int4ClampOutsideNibbleRangeIsRejectedAtLoad) {
  // A fused relu(6) whose output zero point lies above 7 would clamp an
  // int4 result to values no nibble holds; construction refuses the model.
  ModelDef m = tiny_model(15, 4, 4);
  const OpDef& stem = m.ops.front();
  ASSERT_EQ(stem.type, OpType::kConv2D);
  ASSERT_NE(stem.act, Activation::kNone);
  m.tensors[static_cast<size_t>(stem.output)].qp.zero_point = 9;
  try {
    Interpreter interp(std::move(m));
    FAIL() << "expected the constructor to throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("kUnsupportedOp"), std::string::npos) << what;
    EXPECT_NE(what.find("outside [-8, 7]"), std::string::npos) << what;
  }
}

TEST(Converter, FoldsBatchNormExactly) {
  // A float graph with BN must produce (nearly) the same function after
  // conversion as the float forward pass in inference mode.
  models::DsCnnConfig cfg;
  cfg.input = Shape{8, 8, 1};
  cfg.num_classes = 3;
  cfg.stem_channels = 4;
  cfg.stem_kh = 3;
  cfg.stem_kw = 3;
  cfg.blocks = {{8, 1}};
  models::BuildOptions opt;
  opt.seed = 5;
  opt.qat = false;
  nn::Graph g = models::build_ds_cnn(cfg, opt);
  // Perturb BN running stats away from the identity so folding is exercised.
  TensorF warm = random_batch(cfg.input, 8, 6);
  for (int i = 0; i < 20; ++i) g.forward(warm, true);

  const TensorF batch = random_batch(cfg.input, 4, 7);
  const RangeMap ranges = calibrate_ranges(g, batch);
  ModelDef m = convert(g, {.name = "bnfold"}, &ranges);
  Interpreter interp(std::move(m));

  // Compare float graph vs int8 runtime on fresh inputs.
  const TensorF probe = random_batch(cfg.input, 1, 8);
  const TensorF float_out = g.forward(probe, false);
  TensorF img = probe.reshaped(Shape{8, 8, 1});
  const TensorF q_out = interp.invoke(img);
  ASSERT_EQ(q_out.size(), float_out.size());
  float max_abs = 1e-3f;
  for (int64_t i = 0; i < float_out.size(); ++i)
    max_abs = std::max(max_abs, std::abs(float_out[i]));
  for (int64_t i = 0; i < q_out.size(); ++i)
    EXPECT_NEAR(q_out[i], float_out[i], 0.25f * max_abs)
        << "logit " << i << " diverged after conversion";
}

TEST(Converter, RequiresRangesForFloatGraphs) {
  models::DsCnnConfig cfg;
  cfg.input = Shape{8, 8, 1};
  cfg.num_classes = 2;
  cfg.stem_channels = 4;
  cfg.blocks = {{4, 1}};
  models::BuildOptions opt;
  opt.qat = false;
  nn::Graph g = models::build_ds_cnn(cfg, opt);
  EXPECT_THROW(convert(g, {.name = "noranges"}), std::runtime_error);
}

TEST(Converter, QatGraphNeedsNoCalibration) {
  models::DsCnnConfig cfg;
  cfg.input = Shape{8, 8, 1};
  cfg.num_classes = 2;
  cfg.stem_channels = 4;
  cfg.blocks = {{4, 1}};
  models::BuildOptions opt;
  opt.qat = true;
  nn::Graph g = models::build_ds_cnn(cfg, opt);
  g.forward(random_batch(cfg.input, 2, 9), true);  // calibrate FakeQuants
  const ModelDef m = convert(g, {.name = "qat"});
  EXPECT_GT(m.total_ops(), 0);
}

TEST(Converter, AppendSoftmaxAddsOp) {
  models::DsCnnConfig cfg;
  cfg.input = Shape{8, 8, 1};
  cfg.num_classes = 3;
  cfg.stem_channels = 4;
  cfg.blocks = {{4, 1}};
  models::BuildOptions opt;
  opt.qat = true;
  nn::Graph g = models::build_ds_cnn(cfg, opt);
  g.forward(random_batch(cfg.input, 2, 10), true);
  ConvertOptions co;
  co.name = "sm";
  co.append_softmax = true;
  ModelDef m = convert(g, co);
  EXPECT_EQ(m.ops.back().type, OpType::kSoftmax);
  Interpreter interp(std::move(m));
  const TensorF out = interp.invoke(TensorF(Shape{8, 8, 1}, 0.1f));
  double sum = 0;
  for (int64_t i = 0; i < out.size(); ++i) {
    sum += out[i];
    EXPECT_GE(out[i], 0.f);
  }
  EXPECT_NEAR(sum, 1.0, 0.05);
}

TEST(Interpreter, DeterministicAcrossInvocations) {
  Interpreter interp(tiny_model(3));
  const TensorF img(Shape{12, 8, 1}, 0.25f);
  const TensorF a = interp.invoke(img);
  const TensorF b = interp.invoke(img);
  EXPECT_EQ(a, b);
  EXPECT_EQ(interp.invocation_count(), 2);
}

TEST(Interpreter, RejectsWrongInputSize) {
  Interpreter interp(tiny_model(4));
  TensorI8 bad(Shape{5});
  EXPECT_THROW(interp.invoke_quantized(bad), std::invalid_argument);
}

TEST(Interpreter, MemoryReportConsistent) {
  const ModelDef m = tiny_model(5);
  const int64_t weights = m.weights_bytes();
  const int64_t graph_def = m.graph_def_bytes();
  Interpreter interp(m);
  const MemoryReport r = interp.memory_report();
  EXPECT_EQ(r.weights_bytes, weights);
  EXPECT_EQ(r.graph_def_bytes, graph_def);
  EXPECT_EQ(r.total_sram(), r.arena_bytes + r.persistent_bytes + r.runtime_sram_bytes);
  EXPECT_EQ(r.total_flash(), r.weights_bytes + r.graph_def_bytes + r.code_flash_bytes);
  EXPECT_EQ(r.code_flash_bytes, TflmOverheads::kCodeFlashBytes);
  EXPECT_GT(r.arena_bytes, 0);
}

TEST(Interpreter, Int4ModelRunsAndUsesHalfTheWeightBytes) {
  const ModelDef m8 = tiny_model(6, 8, 8);
  const ModelDef m4 = tiny_model(6, 4, 4);
  // int4 halves the weight payload; int32 biases are shared, so the whole
  // blob shrinks by less than 2x on this bias-heavy tiny model.
  EXPECT_LT(m4.weights_bytes(), m8.weights_bytes() * 7 / 10);
  Interpreter i4(m4);
  EXPECT_LT(i4.memory_plan().arena_bytes, Interpreter(m8).memory_plan().arena_bytes);
  const TensorF out = i4.invoke(TensorF(Shape{12, 8, 1}, 0.3f));
  EXPECT_EQ(out.size(), 4);
}

TEST(Interpreter, Int4TracksInt8Predictions) {
  // The int4 model is a coarser version of the same function; argmax should
  // usually agree on strongly-classified inputs.
  models::DsCnnConfig cfg;
  cfg.input = Shape{8, 8, 1};
  cfg.num_classes = 2;
  cfg.stem_channels = 8;
  cfg.blocks = {{8, 1}};
  models::BuildOptions opt;
  opt.seed = 11;
  opt.qat = false;
  nn::Graph g = models::build_ds_cnn(cfg, opt);
  const TensorF batch = random_batch(cfg.input, 4, 12);
  const RangeMap ranges = calibrate_ranges(g, batch);
  ConvertOptions c8{.name = "m8", .weight_bits = 8, .act_bits = 8};
  ConvertOptions c4{.name = "m4", .weight_bits = 4, .act_bits = 4};
  Interpreter i8(convert(g, c8, &ranges));
  Interpreter i4(convert(g, c4, &ranges));
  int agree = 0, total = 0;
  Rng rng(13);
  for (int t = 0; t < 20; ++t) {
    TensorF img(Shape{8, 8, 1});
    for (int64_t i = 0; i < img.size(); ++i)
      img[i] = static_cast<float>(rng.normal(0.0, 0.5));
    const TensorF o8 = i8.invoke(img);
    const TensorF o4 = i4.invoke(img);
    ++total;
    if ((o8[1] > o8[0]) == (o4[1] > o4[0])) ++agree;
  }
  EXPECT_GE(agree, total * 3 / 5);
}

TEST(Summary, ModelSummaryGoldenTable) {
  // Golden per-op table: conversion is deterministic given the seed, so any
  // drift in op enumeration, shape printing, or the paper's MAC convention
  // shows up as a diff against this literal.
  const ModelDef m = tiny_model();
  const char* kGolden =
      "model 'tiny': 7 ops, 20 tensors\n"
      "#    op                   input              output                     MACs\n"
      "0    CONV_2D              [12, 8, 1]         [6, 4, 8]                  1728\n"
      "1    DEPTHWISE_CONV_2D    [6, 4, 8]          [6, 4, 8]                  1728\n"
      "2    CONV_2D              [6, 4, 8]          [6, 4, 8]                  1536\n"
      "3    DEPTHWISE_CONV_2D    [6, 4, 8]          [6, 4, 8]                  1728\n"
      "4    CONV_2D              [6, 4, 8]          [6, 4, 12]                 2304\n"
      "5    AVERAGE_POOL_2D      [6, 4, 12]         [1, 1, 12]                    0\n"
      "6    FULLY_CONNECTED      [1, 1, 12]         [4]                          48\n"
      "totals: 0.02 Mops (0.01 MMACs), 0 KB weights, 3 KB model\n";
  EXPECT_EQ(model_summary(m), kGolden);
}

TEST(Summary, DeploymentSummaryMatchesPlanAndReport) {
  Interpreter interp(tiny_model());
  const std::string s = deployment_summary(interp);
  // Starts with the model table, then renders every planned allocation with
  // its exact [offset, end) and lifetime, then the memory-report totals.
  EXPECT_EQ(s.find(model_summary(interp.model())), 0u);
  const MemoryPlan& plan = interp.memory_plan();
  char line[128];
  for (const TensorAllocation& a : plan.allocations) {
    const TensorDef& t =
        interp.model().tensors.at(static_cast<size_t>(a.tensor_id));
    std::snprintf(line, sizeof(line), "  [%7lld, %7lld) %-24s life ops [%d, %d]\n",
                  static_cast<long long>(a.offset),
                  static_cast<long long>(a.offset + a.bytes), t.name.c_str(),
                  a.first_op, a.last_op);
    EXPECT_NE(s.find(line), std::string::npos) << "missing plan line: " << line;
  }
  const MemoryReport r = interp.memory_report();
  std::snprintf(line, sizeof(line),
                "SRAM: %lld KB (arena %lld + persistent %lld + runtime %lld)\n",
                static_cast<long long>(r.total_sram() / 1024),
                static_cast<long long>(r.arena_bytes / 1024),
                static_cast<long long>(r.persistent_bytes / 1024),
                static_cast<long long>(r.runtime_sram_bytes / 1024));
  EXPECT_NE(s.find(line), std::string::npos);
  std::snprintf(line, sizeof(line), "flash: %lld KB (model %lld + code %lld)\n",
                static_cast<long long>(r.total_flash() / 1024),
                static_cast<long long>(r.model_flash() / 1024),
                static_cast<long long>(r.code_flash_bytes / 1024));
  EXPECT_NE(s.find(line), std::string::npos);
}

TEST(Interpreter, MemoryReportArenaMatchesPlanExactly) {
  const ModelDef m = tiny_model(7);
  Interpreter interp(m);
  const MemoryPlan& plan = interp.memory_plan();
  const MemoryReport r = interp.memory_report();
  // The report's arena number is the planner's, byte for byte, and the plan
  // itself is tight: arena_bytes equals the furthest allocation end.
  EXPECT_EQ(r.arena_bytes, plan.arena_bytes);
  int64_t max_end = 0;
  for (const TensorAllocation& a : plan.allocations)
    max_end = std::max(max_end, a.offset + a.bytes);
  EXPECT_EQ(plan.arena_bytes, max_end);
  EXPECT_EQ(r.persistent_bytes, TflmOverheads::persistent_sram_bytes(m));
  EXPECT_EQ(r.model_sram(), r.arena_bytes + r.persistent_bytes);
  // The live arena span covers plan + both guard bands.
  EXPECT_EQ(static_cast<int64_t>(interp.mutable_arena().size()),
            plan.arena_bytes + 2 * Interpreter::kArenaGuardBytes);
}

TEST(TflmOverheadsModel, ScalesWithGraphSize) {
  const ModelDef small = tiny_model(14);
  ModelDef big = small;
  big.ops.insert(big.ops.end(), small.ops.begin(), small.ops.end());
  EXPECT_GT(TflmOverheads::persistent_sram_bytes(big),
            TflmOverheads::persistent_sram_bytes(small));
}

}  // namespace
}  // namespace mn::rt
