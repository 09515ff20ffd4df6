// PR 3: the deterministic parallel pool and golden-vector kernel equivalence.
//
// Two halves:
//   1. Pool semantics — empty ranges, ranges smaller than the thread count,
//      nested parallel_for (runs serially inline), exception propagation,
//      and the purity of the chunk schedule (depends on problem size only).
//   2. Golden vectors — every integer kernel produces output at threads in
//      {2, 8} that is byte-identical to threads=1, across randomized shapes
//      including channel counts not divisible by 4 and stride-2 depthwise.
//      The kernels are serial; these guard that none reads the thread
//      count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "kernels/kernels.hpp"
#include "parallel/pool.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace mn {
namespace {

// Restores the default thread resolution after every test so an override
// can never leak into another test binary run.
class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override { parallel::set_threads(0); }
};

// --- pool semantics ---------------------------------------------------------

TEST_F(ParallelTest, EmptyRangeRunsNothing) {
  parallel::set_threads(8);
  std::atomic<int> calls{0};
  parallel::parallel_for(0, 0, [&](int64_t, int64_t) { ++calls; });
  parallel::parallel_for(5, 5, [&](int64_t, int64_t) { ++calls; });
  parallel::parallel_for(7, 3, [&](int64_t, int64_t) { ++calls; });  // inverted
  parallel::for_chunks(0, [&](int64_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  EXPECT_EQ(parallel::num_chunks(0, 1), 0);
  EXPECT_EQ(parallel::num_chunks(-4, 1), 0);
}

TEST_F(ParallelTest, RangeSmallerThanThreadCountCoversEachIndexOnce) {
  parallel::set_threads(8);
  ASSERT_EQ(parallel::max_threads(), 8);
  std::vector<std::atomic<int>> hits(3);
  parallel::parallel_for(0, 3, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) hits[static_cast<size_t>(i)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_F(ParallelTest, LargeRangeCoversEachIndexOnce) {
  parallel::set_threads(8);
  constexpr int64_t kN = 10007;  // prime: uneven chunk boundaries
  std::vector<std::atomic<int>> hits(kN);
  parallel::parallel_for(17, 17 + kN, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) hits[static_cast<size_t>(i - 17)]++;
  }, /*grain=*/7);
  for (int64_t i = 0; i < kN; ++i) EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << i;
}

TEST_F(ParallelTest, ChunkScheduleDependsOnlyOnProblemSize) {
  // The determinism contract: chunk count and boundaries are pure functions
  // of (n, grain) — asking with different thread overrides changes nothing.
  for (const int threads : {1, 2, 8}) {
    parallel::set_threads(threads);
    EXPECT_EQ(parallel::num_chunks(100, 1), 64);  // capped at kMaxChunks
    EXPECT_EQ(parallel::num_chunks(100, 50), 2);
    EXPECT_EQ(parallel::num_chunks(3, 1), 3);
  }
  // Ranges are contiguous, exhaustive, and near-equal.
  const int64_t n = 1001, chunks = parallel::num_chunks(n, 1);
  int64_t cursor = 0;
  for (int64_t c = 0; c < chunks; ++c) {
    const parallel::Range r = parallel::chunk_range(n, chunks, c);
    EXPECT_EQ(r.begin, cursor);
    EXPECT_LE(r.end - r.begin, n / chunks + 1);
    cursor = r.end;
  }
  EXPECT_EQ(cursor, n);
}

TEST_F(ParallelTest, NestedParallelForRunsSeriallyInline) {
  parallel::set_threads(4);
  EXPECT_FALSE(parallel::in_parallel_region());
  std::atomic<int> inner_total{0};
  std::atomic<bool> nested_on_same_thread{true};
  std::atomic<bool> saw_region_flag{true};
  parallel::parallel_for(0, 8, [&](int64_t lo, int64_t hi) {
    if (!parallel::in_parallel_region()) saw_region_flag = false;
    const std::thread::id outer = std::this_thread::get_id();
    // The nested region must not fan out: every inner chunk executes
    // inline on the thread that issued it.
    parallel::parallel_for(lo * 10, hi * 10, [&](int64_t ilo, int64_t ihi) {
      if (std::this_thread::get_id() != outer) nested_on_same_thread = false;
      inner_total += static_cast<int>(ihi - ilo);
    });
  });
  EXPECT_FALSE(parallel::in_parallel_region());
  EXPECT_TRUE(saw_region_flag.load());
  EXPECT_TRUE(nested_on_same_thread.load());
  EXPECT_EQ(inner_total.load(), 80);
}

TEST_F(ParallelTest, ExceptionPropagatesToCaller) {
  parallel::set_threads(4);
  std::atomic<int> ran{0};
  auto throwing = [&] {
    parallel::for_chunks(16, [&](int64_t i) {
      ++ran;
      if (i == 5) throw std::runtime_error("chunk 5 failed");
    });
  };
  EXPECT_THROW(throwing(), std::runtime_error);
  // All chunks still ran (the schedule is not truncated by the error).
  EXPECT_EQ(ran.load(), 16);
  // The pool is intact afterwards.
  std::atomic<int> after{0};
  parallel::for_chunks(8, [&](int64_t) { ++after; });
  EXPECT_EQ(after.load(), 8);
}

TEST_F(ParallelTest, ExceptionPropagatesFromSerialFallback) {
  parallel::set_threads(1);
  EXPECT_THROW(
      parallel::parallel_for(0, 4,
                             [](int64_t, int64_t) { throw std::logic_error("x"); }),
      std::logic_error);
}

TEST_F(ParallelTest, TreeReduceUsesFixedStrideDoublingOrder) {
  // The reduction order is a pure function of `parts` — record it.
  std::vector<std::pair<int64_t, int64_t>> order;
  parallel::tree_reduce(5, [&](int64_t d, int64_t s) { order.emplace_back(d, s); });
  const std::vector<std::pair<int64_t, int64_t>> expected{
      {0, 1}, {2, 3}, {0, 2}, {0, 4}};
  EXPECT_EQ(order, expected);
  // And it actually reduces: sum of parts lands in slot 0.
  std::vector<double> parts{1, 2, 3, 4, 5, 6, 7};
  parallel::tree_reduce(static_cast<int64_t>(parts.size()),
                        [&](int64_t d, int64_t s) { parts[d] += parts[s]; });
  EXPECT_DOUBLE_EQ(parts[0], 28.0);
}

TEST_F(ParallelTest, SetThreadsOverridesAndRestores) {
  parallel::set_threads(3);
  EXPECT_EQ(parallel::max_threads(), 3);
  parallel::set_threads(0);
  EXPECT_GE(parallel::max_threads(), 1);
}

TEST_F(ParallelTest, MnThreadsParsesStrictlyAndFallsBackToHardware) {
  const char* saved = std::getenv("MN_THREADS");
  const std::string restore = saved ? saved : "";
  ASSERT_EQ(unsetenv("MN_THREADS"), 0);
  const int hw = parallel::threads_from_env();
  EXPECT_GE(hw, 1);
  ASSERT_EQ(setenv("MN_THREADS", "3", 1), 0);
  EXPECT_EQ(parallel::threads_from_env(), 3);
  ASSERT_EQ(setenv("MN_THREADS", "100000", 1), 0);
  EXPECT_EQ(parallel::threads_from_env(), 256);  // capped at the pool limit
  // Garbage, trailing characters, 0, negatives and overflow warn once on
  // stderr and mean hardware concurrency (atoi read "abc" as 0 and "2x"
  // as 2).
  for (const char* bad : {"abc", "2x", " ", "0", "-4", "99999999999999999999"}) {
    ASSERT_EQ(setenv("MN_THREADS", bad, 1), 0);
    EXPECT_EQ(parallel::threads_from_env(), hw) << "MN_THREADS='" << bad << "'";
  }
  ASSERT_EQ(setenv("MN_THREADS", "", 1), 0);
  EXPECT_EQ(parallel::threads_from_env(), hw);
  if (saved)
    setenv("MN_THREADS", restore.c_str(), 1);
  else
    unsetenv("MN_THREADS");
}

// --- golden-vector kernel equivalence ---------------------------------------

kernels::RequantParams test_rq(int bits) {
  kernels::RequantParams rq;
  rq.mult = quant::quantize_multiplier(0.01);
  const quant::QRange r = quant::qrange(bits);
  rq.act_min = r.qmin;
  rq.act_max = r.qmax;
  return rq;
}

kernels::ConvGeometry make_geom(int32_t in_h, int32_t in_w, int32_t in_ch,
                                int32_t out_ch, int32_t k, int32_t stride,
                                int32_t pad) {
  kernels::ConvGeometry g;
  g.in_h = in_h;
  g.in_w = in_w;
  g.in_ch = in_ch;
  g.out_ch = out_ch;
  g.kh = g.kw = k;
  g.stride = stride;
  g.pad_h = g.pad_w = pad;
  g.out_h = (in_h + 2 * pad - k) / stride + 1;
  g.out_w = (in_w + 2 * pad - k) / stride + 1;
  return g;
}

TensorI8 random_i8(Shape shape, int lo, int hi, uint64_t seed) {
  TensorI8 t(shape);
  Rng rng(seed);
  for (int64_t i = 0; i < t.size(); ++i)
    t[i] = static_cast<int8_t>(rng.uniform_int(lo, hi));
  return t;
}

std::vector<int32_t> random_bias(int64_t n, uint64_t seed) {
  std::vector<int32_t> b(static_cast<size_t>(n));
  Rng rng(seed);
  for (auto& v : b) v = static_cast<int32_t>(rng.uniform_int(-500, 500));
  return b;
}

// Shapes chosen to hit the awkward cases: channels not divisible by 4,
// odd output heights (int4 outputs ending mid-byte), stride 2, and pad 0.
struct ShapeCase {
  int32_t in_h, in_w, in_ch, out_ch, k, stride, pad;
};
const ShapeCase kConvCases[] = {
    {9, 9, 3, 5, 3, 1, 1},    // tiny, odd channels
    {12, 12, 8, 16, 3, 1, 1}, // even everything
    {11, 7, 7, 9, 3, 2, 1},   // stride 2, odd dims, ch % 4 != 0
    {6, 6, 5, 4, 1, 1, 0},    // 1x1 conv
    {15, 15, 4, 6, 5, 2, 2},  // 5x5 stride 2 -> odd out_h
};

template <typename RunFn>
void expect_thread_invariant(const RunFn& run) {
  parallel::set_threads(1);
  const auto golden = run();
  for (const int threads : {2, 8}) {
    parallel::set_threads(threads);
    const auto got = run();
    ASSERT_EQ(got.size(), golden.size());
    for (size_t i = 0; i < golden.size(); ++i)
      ASSERT_EQ(got[i], golden[i]) << "threads=" << threads << " index=" << i;
  }
  parallel::set_threads(0);
}

TEST_F(ParallelTest, Conv2dS8MatchesSerialGolden) {
  uint64_t seed = 100;
  for (const ShapeCase& sc : kConvCases) {
    const auto g = make_geom(sc.in_h, sc.in_w, sc.in_ch, sc.out_ch, sc.k,
                             sc.stride, sc.pad);
    const TensorI8 x = random_i8(Shape{g.in_h, g.in_w, g.in_ch}, -127, 127, seed++);
    const TensorI8 w =
        random_i8(Shape{g.out_ch, g.kh, g.kw, g.in_ch}, -127, 127, seed++);
    const auto bias = random_bias(g.out_ch, seed++);
    const auto rq = test_rq(8);
    expect_thread_invariant([&] {
      std::vector<int8_t> y(static_cast<size_t>(int64_t{g.out_h} * g.out_w * g.out_ch));
      kernels::conv2d_s8(x.span(), w.span(), bias, y, g, rq);
      return y;
    });
  }
}

TEST_F(ParallelTest, DepthwiseConv2dS8MatchesSerialGolden) {
  uint64_t seed = 300;
  // Depthwise: out_ch == in_ch; include stride-2 and ch % 4 != 0.
  const ShapeCase cases[] = {
      {10, 10, 7, 7, 3, 1, 1},
      {13, 9, 6, 6, 3, 2, 1},
      {8, 8, 16, 16, 3, 2, 1},
  };
  for (const ShapeCase& sc : cases) {
    const auto g = make_geom(sc.in_h, sc.in_w, sc.in_ch, sc.out_ch, sc.k,
                             sc.stride, sc.pad);
    const TensorI8 x = random_i8(Shape{g.in_h, g.in_w, g.in_ch}, -127, 127, seed++);
    const TensorI8 w = random_i8(Shape{g.kh, g.kw, g.in_ch}, -127, 127, seed++);
    const auto bias = random_bias(g.in_ch, seed++);
    const auto rq = test_rq(8);
    expect_thread_invariant([&] {
      std::vector<int8_t> y(static_cast<size_t>(int64_t{g.out_h} * g.out_w * g.out_ch));
      kernels::depthwise_conv2d_s8(x.span(), w.span(), bias, y, g, rq);
      return y;
    });
  }
}

TEST_F(ParallelTest, FullyConnectedS8MatchesSerialGolden) {
  uint64_t seed = 400;
  for (const auto& [in_f, out_f] : {std::pair{37, 11}, {256, 63}, {100, 2}}) {
    const TensorI8 x = random_i8(Shape{in_f}, -127, 127, seed++);
    const TensorI8 w = random_i8(Shape{out_f, in_f}, -127, 127, seed++);
    const auto bias = random_bias(out_f, seed++);
    const auto rq = test_rq(8);
    expect_thread_invariant([&] {
      std::vector<int8_t> y(static_cast<size_t>(out_f));
      kernels::fully_connected_s8(x.span(), w.span(), bias, y, in_f, out_f, rq);
      return y;
    });
  }
}

TEST_F(ParallelTest, Conv2dS4MatchesSerialGolden) {
  uint64_t seed = 500;
  for (const ShapeCase& sc : kConvCases) {
    const auto g = make_geom(sc.in_h, sc.in_w, sc.in_ch, sc.out_ch, sc.k,
                             sc.stride, sc.pad);
    const TensorI8 x = random_i8(Shape{g.in_h, g.in_w, g.in_ch}, -8, 7, seed++);
    const TensorI8 w =
        random_i8(Shape{g.out_ch, g.kh, g.kw, g.in_ch}, -8, 7, seed++);
    const auto xp = quant::pack_int4(x);
    const auto wp = quant::pack_int4(w);
    const auto bias = random_bias(g.out_ch, seed++);
    const auto rq = test_rq(4);
    expect_thread_invariant([&] {
      std::vector<uint8_t> yp(static_cast<size_t>(
          kernels::packed_size_s4(int64_t{g.out_h} * g.out_w * g.out_ch)));
      kernels::conv2d_s4(xp, wp, bias, yp, g, rq);
      return yp;
    });
  }
}

TEST_F(ParallelTest, DepthwiseConv2dS4MatchesSerialGolden) {
  uint64_t seed = 600;
  // Odd out_h exercises the row-pair tail (last chunk covers a lone row);
  // odd out_h*out_w*out_ch means chunks share no output byte only because
  // row pairs keep every boundary byte-aligned.
  const ShapeCase cases[] = {
      {9, 9, 5, 5, 3, 1, 1},   // out 9x9 (odd rows)
      {11, 7, 3, 3, 3, 2, 1},  // stride 2 -> out 6x4
      {8, 8, 10, 10, 3, 2, 1}, // out 4x4
  };
  for (const ShapeCase& sc : cases) {
    const auto g = make_geom(sc.in_h, sc.in_w, sc.in_ch, sc.out_ch, sc.k,
                             sc.stride, sc.pad);
    const TensorI8 x = random_i8(Shape{g.in_h, g.in_w, g.in_ch}, -8, 7, seed++);
    const TensorI8 w = random_i8(Shape{g.kh, g.kw, g.in_ch}, -8, 7, seed++);
    const auto xp = quant::pack_int4(x);
    const auto wp = quant::pack_int4(w);
    const auto bias = random_bias(g.in_ch, seed++);
    const auto rq = test_rq(4);
    expect_thread_invariant([&] {
      std::vector<uint8_t> yp(static_cast<size_t>(
          kernels::packed_size_s4(int64_t{g.out_h} * g.out_w * g.out_ch)));
      kernels::depthwise_conv2d_s4(xp, wp, bias, yp, g, rq);
      return yp;
    });
  }
}

TEST_F(ParallelTest, FullyConnectedS4MatchesSerialGolden) {
  uint64_t seed = 700;
  // Odd out_features: the final output-feature pair is a lone feature.
  for (const auto& [in_f, out_f] : {std::pair{40, 9}, {64, 33}, {17, 4}}) {
    const TensorI8 x = random_i8(Shape{in_f}, -8, 7, seed++);
    const TensorI8 w = random_i8(Shape{out_f, in_f}, -8, 7, seed++);
    const auto xp = quant::pack_int4(x);
    const auto wp = quant::pack_int4(w);
    const auto bias = random_bias(out_f, seed++);
    const auto rq = test_rq(4);
    expect_thread_invariant([&] {
      std::vector<uint8_t> yp(
          static_cast<size_t>(kernels::packed_size_s4(out_f)));
      kernels::fully_connected_s4(xp, wp, bias, yp, in_f, out_f, rq);
      return yp;
    });
  }
}

}  // namespace
}  // namespace mn
