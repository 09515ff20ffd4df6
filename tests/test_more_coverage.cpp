// Additional cross-module coverage: converter patterns (residual IBN, max
// pooling, VALID padding), int4 end-to-end summaries, the paper's VWW
// distillation recipe, checkpoints on MobileNetV2 graphs, MBv2 black-box
// search, and anomaly AE dataset invariants.
#include <gtest/gtest.h>

#include "core/blackbox.hpp"
#include "datasets/anomaly.hpp"
#include "datasets/vww.hpp"
#include "mcu/perf_model.hpp"
#include "models/backbones.hpp"
#include "nn/checkpoint.hpp"
#include "nn/graph.hpp"
#include "nn/trainer.hpp"
#include "runtime/converter.hpp"
#include "runtime/interpreter.hpp"
#include "runtime/summary.hpp"

namespace mn {
namespace {

TensorF random_batch(Shape in, int64_t n, uint64_t seed) {
  Rng rng(seed);
  TensorF t = in.rank() == 1 ? TensorF(Shape{n, in.dim(0)})
                             : TensorF(Shape{n, in.dim(0), in.dim(1), in.dim(2)});
  for (int64_t i = 0; i < t.size(); ++i)
    t[i] = static_cast<float>(rng.normal(0.0, 0.5));
  return t;
}

// --- converter: residual IBN blocks through the integer runtime ------------

TEST(ConverterCoverage, ResidualIbnMatchesFloatGraph) {
  models::MobileNetV2Config cfg;
  cfg.input = Shape{12, 12, 1};
  cfg.num_classes = 2;
  cfg.stem_channels = 8;
  cfg.blocks = {{8, 8, 1}, {48, 8, 1}};  // both blocks end in residual adds
  cfg.head_channels = 16;
  models::BuildOptions opt;
  opt.seed = 3;
  opt.qat = false;
  nn::Graph g = models::build_mobilenet_v2(cfg, opt);
  TensorF warm = random_batch(cfg.input, 8, 5);
  for (int i = 0; i < 10; ++i) g.forward(warm, true);
  const rt::RangeMap ranges = rt::calibrate_ranges(g, random_batch(cfg.input, 4, 7));
  rt::ModelDef m = rt::convert(g, {.name = "resid"}, &ranges);
  // The converted graph carries ADD ops.
  int adds = 0;
  for (const rt::OpDef& op : m.ops)
    if (op.type == rt::OpType::kAdd) ++adds;
  EXPECT_EQ(adds, 2);
  rt::Interpreter interp(std::move(m));
  const TensorF probe = random_batch(cfg.input, 1, 9);
  const TensorF fl = g.forward(probe, false);
  const TensorF qt = interp.invoke(probe.reshaped(cfg.input));
  float scale = 1e-3f;
  for (int64_t i = 0; i < fl.size(); ++i) scale = std::max(scale, std::abs(fl[i]));
  for (int64_t i = 0; i < qt.size(); ++i)
    EXPECT_NEAR(qt[i], fl[i], 0.3f * scale);
}

TEST(ConverterCoverage, MaxPoolAndValidPaddingPaths) {
  nn::GraphBuilder b(11);
  b.set_qat(true);
  int x = b.input(Shape{12, 12, 2});
  x = b.fake_quant(x, 8);
  nn::Conv2DOptions c;
  c.out_channels = 4;
  c.padding = nn::Padding::kValid;  // exercises zero-pad conv geometry
  x = b.conv_bn_relu(x, c);
  x = b.max_pool(x, {2, 2, 2, nn::Padding::kValid});
  x = b.global_avg_pool(x);
  x = b.dense(x, 3);
  x = b.fake_quant(x, 8);
  nn::Graph g = b.build(x);
  g.forward(random_batch(Shape{12, 12, 2}, 2, 13), true);
  rt::ModelDef m = rt::convert(g, {.name = "pool"});
  bool has_max = false;
  for (const rt::OpDef& op : m.ops)
    if (op.type == rt::OpType::kMaxPool2D) has_max = true;
  EXPECT_TRUE(has_max);
  rt::Interpreter interp(std::move(m));
  const TensorF out = interp.invoke(TensorF(Shape{12, 12, 2}, 0.2f));
  EXPECT_EQ(out.size(), 3);
}

TEST(ConverterCoverage, Int4ModelSummaryAndFootprint) {
  models::DsCnnConfig cfg;
  cfg.input = Shape{12, 8, 1};
  cfg.num_classes = 3;
  cfg.stem_channels = 8;
  cfg.stem_kh = 3;
  cfg.stem_kw = 3;
  cfg.blocks = {{8, 1}};
  models::BuildOptions opt;
  opt.seed = 17;
  opt.qat = false;
  nn::Graph g = models::build_ds_cnn(cfg, opt);
  const rt::RangeMap ranges = rt::calibrate_ranges(g, random_batch(cfg.input, 2, 19));
  rt::ConvertOptions co;
  co.name = "i4";
  co.weight_bits = 4;
  co.act_bits = 4;
  rt::ModelDef m = rt::convert(g, co, &ranges);
  for (const rt::TensorDef& t : m.tensors)
    if (t.bits != 32) {
      EXPECT_EQ(t.bits, 4) << t.name;
    }
  rt::Interpreter interp(m);
  const std::string s = rt::deployment_summary(interp);
  EXPECT_NE(s.find("arena plan"), std::string::npos);
  // int4 halves per-element activation storage.
  const rt::TensorDef& in_t = m.tensors.at(static_cast<size_t>(m.input_tensor));
  EXPECT_EQ(in_t.storage_bytes(), (in_t.elements() + 1) / 2);
}

// --- distillation: the paper's VWW finetuning recipe ------------------------

TEST(Distillation, StudentApproachesTeacherOnVww) {
  data::VwwConfig vcfg;
  vcfg.resolution = 24;
  data::Dataset all = data::make_vww_dataset(vcfg, 60, 21);
  auto [train, test] = data::split(all, 0.25);

  // Teacher: wider net, trained normally.
  models::MobileNetV2Config tcfg;
  tcfg.input = train.input_shape;
  tcfg.num_classes = 2;
  tcfg.stem_channels = 8;
  tcfg.stem_stride = 1;
  tcfg.blocks = {{8, 8, 2}, {32, 16, 2}};
  tcfg.head_channels = 32;
  models::BuildOptions topt;
  topt.seed = 23;
  topt.qat = false;
  nn::Graph teacher = models::build_mobilenet_v2(tcfg, topt);
  nn::TrainConfig tc;
  tc.epochs = 16;
  tc.batch_size = 30;
  tc.lr_start = 0.08;
  nn::fit(teacher, train, tc);
  const double teacher_acc = nn::evaluate(teacher, test);
  ASSERT_GE(teacher_acc, 0.68);

  // Student: much thinner, distilled with the paper's KD settings
  // (coefficient 0.5, temperature 4).
  models::MobileNetV2Config scfg = tcfg;
  scfg.stem_channels = 8;
  scfg.blocks = {{8, 8, 2}, {24, 12, 2}};
  scfg.head_channels = 16;
  models::BuildOptions sopt;
  sopt.seed = 29;
  sopt.qat = false;
  nn::Graph student = models::build_mobilenet_v2(scfg, sopt);
  nn::TrainConfig sc = tc;
  sc.teacher = &teacher;
  sc.distill_alpha = 0.5f;
  sc.distill_temperature = 4.f;
  nn::fit(student, train, sc);
  const double student_acc = nn::evaluate(student, test);
  EXPECT_GT(student_acc, 0.6);
  EXPECT_GT(student_acc, teacher_acc - 0.25);
}

// --- checkpoints on MobileNetV2 graphs (residuals + QAT) --------------------

TEST(CheckpointCoverage, Mbv2QatGraphRoundTrip) {
  models::MobileNetV2Config cfg;
  cfg.input = Shape{10, 10, 1};
  cfg.num_classes = 2;
  cfg.stem_channels = 4;
  cfg.blocks = {{4, 4, 1}, {24, 4, 1}};
  cfg.head_channels = 8;
  models::BuildOptions opt;
  opt.seed = 31;
  opt.qat = true;
  nn::Graph g1 = models::build_mobilenet_v2(cfg, opt);
  for (int i = 0; i < 4; ++i)
    g1.forward(random_batch(cfg.input, 4, 33 + static_cast<uint64_t>(i)), true);
  models::BuildOptions opt2 = opt;
  opt2.seed = 77;
  nn::Graph g2 = models::build_mobilenet_v2(cfg, opt2);
  nn::copy_parameters(g1, g2);
  const TensorF probe = random_batch(cfg.input, 2, 35);
  EXPECT_LT(max_abs_diff(g1.forward(probe, false), g2.forward(probe, false)), 1e-6f);
  // Conversion of the restored graph works without recalibration: the
  // FakeQuant ranges travelled with the checkpoint.
  rt::ModelDef m = rt::convert(g2, {.name = "ckpt-mbv2"});
  EXPECT_GT(m.total_ops(), 0);
}

// --- black-box search over the MBv2 supernet --------------------------------

TEST(BlackBoxCoverage, Mbv2SupernetRandomSearchRespectsWmBudget) {
  core::MbV2SearchSpace space;
  space.input = Shape{16, 16, 1};
  space.num_classes = 2;
  space.stem_max = 8;
  space.blocks = {{8, 8, 1}, {32, 12, 2}};
  space.head_max = 16;
  space.width_fracs = {0.5, 1.0};
  models::BuildOptions opt;
  opt.seed = 41;
  core::Supernet net = core::build_mbv2_supernet(space, opt);

  data::Dataset dummy;
  dummy.num_classes = 2;
  dummy.input_shape = space.input;
  Rng rng(43);
  for (int i = 0; i < 12; ++i) {
    data::Example e;
    e.input = random_batch(space.input, 1, 45 + static_cast<uint64_t>(i))
                  .reshaped(space.input);
    e.label = i % 2;
    dummy.examples.push_back(std::move(e));
  }

  core::SearchConfig sc;
  sc.evaluations = 24;
  sc.seed = 47;
  // Tight working-memory budget: only narrow architectures qualify.
  core::ArchSample widest;
  widest.width_choices.assign(net.width_decisions.size(), 1);
  widest.skip_choices.assign(net.skip_decisions.size(), 0);
  const double max_wm = core::arch_cost(net, widest).peak_working_memory;
  sc.constraints.sram_budget_bytes = static_cast<int64_t>(max_wm * 0.8);
  const core::SearchResult r = core::random_search(net, dummy, sc);
  ASSERT_TRUE(r.feasible);
  EXPECT_LE(r.best_cost.peak_working_memory, max_wm * 0.8 * 1.001);
}

// --- anomaly AE dataset invariants ------------------------------------------

TEST(AnomalyAeDataset, ShapesLabelsAndDeterminism) {
  data::AnomalyConfig cfg;
  const data::Dataset a = data::make_anomaly_ae_set(cfg, 2, 51, true);
  EXPECT_EQ(a.input_shape, (Shape{640}));
  int anomalous = 0;
  for (const data::Example& e : a.examples) {
    EXPECT_GE(e.label, 0);
    EXPECT_LT(e.label, cfg.num_machines);
    anomalous += e.anomaly ? 1 : 0;
  }
  EXPECT_GT(anomalous, 0);
  EXPECT_LT(anomalous, a.size());
  const data::Dataset b = data::make_anomaly_ae_set(cfg, 2, 51, true);
  ASSERT_EQ(a.size(), b.size());
  for (int64_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a.examples[static_cast<size_t>(i)].input,
              b.examples[static_cast<size_t>(i)].input);
}

TEST(AnomalyAeDataset, TrainVariantHasNoAnomalies) {
  data::AnomalyConfig cfg;
  const data::Dataset tr = data::make_anomaly_ae_set(cfg, 2, 53, false);
  for (const data::Example& e : tr.examples) EXPECT_FALSE(e.anomaly);
  // Custom frame-window length changes the feature dimension.
  const data::Dataset wide = data::make_anomaly_ae_set(cfg, 1, 53, false, 5);
  EXPECT_EQ(wide.input_shape, (Shape{5 * 64}));
}

// --- deployability corner: a model exactly at the SRAM boundary -------------

TEST(DeployCoverage, BoundaryConditionsAreInclusive) {
  rt::MemoryReport rep;
  rep.runtime_sram_bytes = 4 * 1024;
  rep.persistent_bytes = 0;
  rep.arena_bytes = mcu::stm32f446re().sram_bytes - 4 * 1024;  // exactly full
  rep.weights_bytes = mcu::stm32f446re().flash_bytes - 37 * 1024;
  rep.graph_def_bytes = 0;
  rep.code_flash_bytes = 37 * 1024;
  const mcu::DeployCheck chk = mcu::check_deployable(mcu::stm32f446re(), rep);
  EXPECT_TRUE(chk.sram_ok);
  EXPECT_TRUE(chk.flash_ok);
  rep.arena_bytes += 1;
  EXPECT_FALSE(mcu::check_deployable(mcu::stm32f446re(), rep).sram_ok);
}

}  // namespace
}  // namespace mn
