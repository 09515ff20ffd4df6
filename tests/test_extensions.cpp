// Unit tests for the library extensions: checkpoints, model summaries, the
// streaming audio front-end, and the direct-latency DNAS constraint.
#include <gtest/gtest.h>

#include <cstdio>

#include "core/dnas.hpp"
#include "datasets/kws.hpp"
#include "dsp/streaming.hpp"
#include "mcu/perf_model.hpp"
#include "models/backbones.hpp"
#include "nn/checkpoint.hpp"
#include "nn/trainer.hpp"
#include "runtime/converter.hpp"
#include "runtime/summary.hpp"

namespace mn {
namespace {

models::DsCnnConfig tiny_cfg() {
  models::DsCnnConfig cfg;
  cfg.input = Shape{12, 8, 1};
  cfg.num_classes = 3;
  cfg.stem_channels = 8;
  cfg.stem_kh = 3;
  cfg.stem_kw = 3;
  cfg.blocks = {{8, 1}, {12, 1}};
  return cfg;
}

TensorF random_batch(Shape in, int64_t n, uint64_t seed) {
  Rng rng(seed);
  TensorF t(Shape{n, in.dim(0), in.dim(1), in.dim(2)});
  for (int64_t i = 0; i < t.size(); ++i) t[i] = static_cast<float>(rng.normal());
  return t;
}

TEST(Checkpoint, RoundTripRestoresExactFunction) {
  models::BuildOptions a;
  a.seed = 3;
  nn::Graph g1 = models::build_ds_cnn(tiny_cfg(), a);
  // Move BN stats away from init so they are exercised too.
  const TensorF warm = random_batch(tiny_cfg().input, 4, 5);
  for (int i = 0; i < 5; ++i) g1.forward(warm, true);

  const auto bytes = nn::save_checkpoint(g1);
  models::BuildOptions b;
  b.seed = 99;  // different init: restore must overwrite it all
  nn::Graph g2 = models::build_ds_cnn(tiny_cfg(), b);
  nn::load_checkpoint(g2, bytes);

  const TensorF probe = random_batch(tiny_cfg().input, 2, 7);
  EXPECT_LT(max_abs_diff(g1.forward(probe, false), g2.forward(probe, false)), 1e-6f);
}

TEST(Checkpoint, FileRoundTrip) {
  models::BuildOptions a;
  a.seed = 11;
  nn::Graph g = models::build_ds_cnn(tiny_cfg(), a);
  const std::string path = "/tmp/mn_ckpt_test.bin";
  nn::save_checkpoint(g, path);
  nn::Graph g2 = models::build_ds_cnn(tiny_cfg(), models::BuildOptions{.seed = 12});
  nn::load_checkpoint(g2, path);
  const TensorF probe = random_batch(tiny_cfg().input, 1, 13);
  EXPECT_LT(max_abs_diff(g.forward(probe, false), g2.forward(probe, false)), 1e-6f);
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsStructuralMismatch) {
  models::BuildOptions a;
  nn::Graph g = models::build_ds_cnn(tiny_cfg(), a);
  const auto bytes = nn::save_checkpoint(g);
  models::DsCnnConfig other = tiny_cfg();
  other.blocks.push_back({8, 1});
  nn::Graph g2 = models::build_ds_cnn(other, a);
  EXPECT_THROW(nn::load_checkpoint(g2, bytes), std::runtime_error);
  models::DsCnnConfig wider = tiny_cfg();
  wider.stem_channels = 12;
  nn::Graph g3 = models::build_ds_cnn(wider, a);
  EXPECT_THROW(nn::load_checkpoint(g3, bytes), std::runtime_error);
}

TEST(Checkpoint, EnablesProgressiveQuantization) {
  // Train an 8-bit graph briefly, copy into a fresh graph, retarget to 4-bit;
  // function before finetuning should still be close at moderate ranges.
  models::BuildOptions a;
  a.seed = 21;
  a.qat = true;
  nn::Graph g8 = models::build_ds_cnn(tiny_cfg(), a);
  g8.forward(random_batch(tiny_cfg().input, 4, 23), true);
  nn::Graph g4 = models::build_ds_cnn(tiny_cfg(), a);
  nn::copy_parameters(g8, g4);
  models::set_graph_quantization(g4, 4, 4);
  const TensorF probe = random_batch(tiny_cfg().input, 1, 29);
  const TensorF o8 = g8.forward(probe, false);
  const TensorF o4 = g4.forward(probe, false);
  // Same weights, coarser quantizer: outputs correlated but not identical.
  EXPECT_GT(max_abs_diff(o8, o4), 0.f);
  int64_t agree = 0;
  for (int64_t c = 1; c < o8.size(); ++c)
    if ((o8[c] > o8[0]) == (o4[c] > o4[0])) ++agree;
  EXPECT_GE(agree, o8.size() / 2);
}

TEST(Summary, ContainsOpsAndTotals) {
  models::BuildOptions a;
  a.qat = true;
  nn::Graph g = models::build_ds_cnn(tiny_cfg(), a);
  g.forward(random_batch(tiny_cfg().input, 2, 31), true);
  rt::ModelDef m = rt::convert(g, {.name = "sum"});
  const std::string s = rt::model_summary(m);
  EXPECT_NE(s.find("CONV_2D"), std::string::npos);
  EXPECT_NE(s.find("DEPTHWISE_CONV_2D"), std::string::npos);
  EXPECT_NE(s.find("FULLY_CONNECTED"), std::string::npos);
  EXPECT_NE(s.find("totals:"), std::string::npos);
  rt::Interpreter interp(std::move(m));
  const std::string d = rt::deployment_summary(interp);
  EXPECT_NE(d.find("arena plan"), std::string::npos);
  EXPECT_NE(d.find("SRAM:"), std::string::npos);
}

TEST(Streaming, MatchesBatchMfcc) {
  dsp::MelConfig cfg;  // paper KWS front-end
  Rng rng(41);
  std::vector<float> sig(16000);
  for (auto& s : sig) s = static_cast<float>(rng.normal(0.0, 0.3));
  const TensorF batch = dsp::mfcc(sig, cfg);

  dsp::StreamingMfcc stream(cfg);
  // Push in awkward chunk sizes.
  size_t pos = 0;
  Rng crng(43);
  while (pos < sig.size()) {
    const size_t n = std::min(sig.size() - pos,
                              static_cast<size_t>(crng.uniform_int(1, 700)));
    stream.push(std::span<const float>(sig.data() + pos, n));
    pos += n;
  }
  ASSERT_EQ(stream.frames_emitted(), batch.shape().dim(0));
  const auto window = stream.window(static_cast<int>(batch.shape().dim(0)));
  ASSERT_TRUE(window.has_value());
  EXPECT_EQ(window->shape(), (Shape{49, 10, 1}));
  for (int64_t i = 0; i < batch.size(); ++i)
    EXPECT_NEAR((*window)[i], batch[i], 1e-4f) << "frame element " << i;
}

TEST(Streaming, WindowUnavailableUntilEnoughFrames) {
  dsp::MelConfig cfg;
  dsp::StreamingMfcc stream(cfg);
  EXPECT_FALSE(stream.window(1).has_value());
  std::vector<float> chunk(static_cast<size_t>(cfg.frame_length), 0.1f);
  stream.push(chunk);
  EXPECT_TRUE(stream.window(1).has_value());
  EXPECT_FALSE(stream.window(2).has_value());
  stream.reset();
  EXPECT_EQ(stream.frames_emitted(), 0);
  EXPECT_FALSE(stream.window(1).has_value());
}

TEST(Streaming, PosteriorSmootherFiresOnceWithRefractory) {
  dsp::PosteriorSmoother sm(3, 4, 0.6f, /*refractory=*/8, /*background=*/0);
  const std::vector<float> quiet{0.8f, 0.1f, 0.1f};  // class 0 = background
  const std::vector<float> hot{0.05f, 0.9f, 0.05f};
  // Background first: class 0 may dominate but that's the "silence" class in
  // a real pipeline; here we just check class 1 detection + refractory.
  int fired = 0;
  for (int i = 0; i < 8; ++i)
    if (sm.push(hot) == 1) ++fired;
  EXPECT_EQ(fired, 1) << "refractory must suppress repeated triggers";
  for (int i = 0; i < 10; ++i) sm.push(quiet);
  // After the refractory and window flush, a new utterance fires again.
  int refired = 0;
  for (int i = 0; i < 8; ++i)
    if (sm.push(hot) == 1) ++refired;
  EXPECT_EQ(refired, 1);
}

TEST(Streaming, SmootherValidatesInput) {
  EXPECT_THROW(dsp::PosteriorSmoother(1, 4, 0.5f), std::invalid_argument);
  dsp::PosteriorSmoother sm(3, 4, 0.5f);
  const std::vector<float> wrong{0.5f, 0.5f};
  EXPECT_THROW(sm.push(wrong), std::invalid_argument);
}

TEST(LatencyConstraint, ExpectedLatencyTracksMcuModelShape) {
  core::DsCnnSearchSpace space;
  space.input = Shape{12, 8, 1};
  space.num_classes = 3;
  space.stem_max = 16;
  space.stem_kh = 3;
  space.stem_kw = 3;
  space.blocks = {{16, 1, false}, {16, 1, false}};
  space.width_fracs = {0.5, 1.0};
  models::BuildOptions opt;
  opt.seed = 47;
  core::Supernet net = core::build_ds_cnn_supernet(space, opt);
  net.ctx().arch_frozen = true;
  TensorF batch(Shape{1, 12, 8, 1}, 0.1f);
  net.graph.forward(batch, true);
  const core::CostBreakdown cost =
      core::evaluate_cost(net, &mcu::stm32f746zg());
  EXPECT_GT(cost.expected_latency_s, 0.0);
  // The smooth estimate should be within ~2x of the (wobbled) MCU model for
  // the materialized architecture.
  models::DsCnnConfig extracted = core::extract_ds_cnn(net, space);
  models::BuildOptions fo;
  fo.seed = 47;
  fo.qat = true;
  nn::Graph g = models::build_ds_cnn(extracted, fo);
  g.forward(batch, true);
  const rt::ModelDef m = rt::convert(g, {.name = "lat"});
  const double real = mcu::model_latency_s(mcu::stm32f746zg(), m);
  EXPECT_GT(cost.expected_latency_s, real * 0.3);
  EXPECT_LT(cost.expected_latency_s, real * 2.0);
}

TEST(LatencyConstraint, DirectLatencySearchShrinksLatency) {
  data::KwsConfig kcfg;
  kcfg.num_keywords = 2;
  kcfg.num_unknown_words = 3;
  const data::Dataset train = data::make_kws_dataset(kcfg, 8, 51);
  core::DsCnnSearchSpace space;
  space.input = train.input_shape;
  space.num_classes = train.num_classes;
  space.stem_max = 24;
  space.blocks = {{24, 1, true}};
  space.width_fracs = {0.25, 0.5, 0.75, 1.0};
  models::BuildOptions opt;
  opt.seed = 53;

  auto run = [&](double latency_budget) {
    core::Supernet net = core::build_ds_cnn_supernet(space, opt);
    core::DnasConfig cfg;
    cfg.epochs = 6;
    cfg.warmup_epochs = 1;
    cfg.batch_size = 16;
    cfg.seed = 55;
    if (latency_budget > 0) {
      cfg.constraints.latency_budget_s = latency_budget;
      cfg.constraints.latency_device = &mcu::stm32f446re();
      cfg.constraints.lambda_latency = 8.0;
    }
    core::run_dnas(net, train, cfg);
    net.ctx().arch_frozen = true;
    TensorF batch(Shape{1, space.input.dim(0), space.input.dim(1), 1}, 0.1f);
    net.graph.forward(batch, true);
    return core::evaluate_cost(net, &mcu::stm32f446re()).expected_latency_s;
  };
  const double tight = run(0.0008);
  const double free_run = run(0.0);
  EXPECT_LT(tight, free_run);
}

}  // namespace
}  // namespace mn
