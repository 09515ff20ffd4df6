// PR 4: observability subsystem. Counter/gauge registry semantics, the
// fixed-capacity trace ring (wrap + drop accounting), exporter output
// (chrome://tracing JSON, metrics JSON), interpreter per-op profiling with
// mcu-predicted latencies, pool statistics — and the determinism guard: with
// tracing and profiling ON, training produces bit-identical journal bytes,
// checkpoint images, and RNG fingerprints to a run with everything OFF.
//
// Compiled in both MN_OBS configurations. In -DMN_OBS=OFF builds the
// MN_OBS_DISABLED branches assert the no-op collapse instead: counters pin
// to zero, tracing cannot be enabled, spans record nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "datasets/dataset.hpp"
#include "kernels/kernels.hpp"
#include "mcu/perf_model.hpp"
#include "models/backbones.hpp"
#include "nn/checkpoint.hpp"
#include "nn/graph.hpp"
#include "nn/trainer.hpp"
#include "obs/eventlog.hpp"
#include "obs/export.hpp"
#include "obs/histogram.hpp"
#include "obs/obs.hpp"
#include "parallel/pool.hpp"
#include "runtime/converter.hpp"
#include "runtime/interpreter.hpp"
#include "tensor/rng.hpp"

namespace mn {
namespace {

namespace fs = std::filesystem;

// Every test starts from a clean registry and a quiet ring.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_tracing(false);
    obs::reset_all();
  }
  void TearDown() override {
    obs::set_tracing(false);
    obs::reset_all();
  }
};

#if !defined(MN_OBS_DISABLED)

TEST_F(ObsTest, CountersAccumulateAndReset) {
  EXPECT_EQ(obs::counter_value(obs::Counter::kKernelMacs), 0);
  obs::counter_add(obs::Counter::kKernelMacs, 100);
  obs::counter_add(obs::Counter::kKernelMacs, 23);
  EXPECT_EQ(obs::counter_value(obs::Counter::kKernelMacs), 123);
  obs::reset_counters();
  EXPECT_EQ(obs::counter_value(obs::Counter::kKernelMacs), 0);
}

TEST_F(ObsTest, GaugesKeepHighWaterMark) {
  obs::gauge_set_max(obs::Gauge::kArenaPeakBytes, 512);
  obs::gauge_set_max(obs::Gauge::kArenaPeakBytes, 64);   // lower: ignored
  EXPECT_EQ(obs::gauge_value(obs::Gauge::kArenaPeakBytes), 512);
  obs::gauge_set_max(obs::Gauge::kArenaPeakBytes, 1024);
  EXPECT_EQ(obs::gauge_value(obs::Gauge::kArenaPeakBytes), 1024);
}

TEST_F(ObsTest, KernelCallCountsMacsAndBytes) {
  // 3-in, 2-out FC: 6 MACs, reads 3 input + 6 weight bytes, writes 2.
  const std::vector<int8_t> in{1, 2, 3}, w{1, 0, 0, 0, 1, 0};
  std::vector<int8_t> out(2);
  kernels::RequantParams rq;
  rq.mult = quant::quantize_multiplier(0.5);
  kernels::fully_connected_s8(in, w, {}, out, 3, 2, rq);
  EXPECT_EQ(obs::counter_value(obs::Counter::kKernelMacs), 6);
  EXPECT_EQ(obs::counter_value(obs::Counter::kKernelBytesRead), 9);
  EXPECT_EQ(obs::counter_value(obs::Counter::kKernelBytesWritten), 2);
}

TEST_F(ObsTest, SpanRecordsOnlyWhileTracing) {
  { obs::SpanScope s("untraced_span", obs::Cat::kBench); }
  EXPECT_EQ(obs::trace_size(), 0u);
  obs::set_tracing(true);
  { obs::SpanScope s("traced_span", obs::Cat::kBench, "k", 42); }
  obs::set_tracing(false);
  ASSERT_EQ(obs::trace_size(), 1u);
  const auto events = obs::trace_snapshot();
  EXPECT_STREQ(events[0].name, "traced_span");
  EXPECT_EQ(events[0].cat, obs::Cat::kBench);
  EXPECT_STREQ(events[0].arg_a_name, "k");
  EXPECT_EQ(events[0].arg_a, 42);
  EXPECT_GE(events[0].dur_ns, 0);
}

TEST_F(ObsTest, RingEvictsOldestAndCountsDrops) {
  obs::trace_reserve(16);  // the documented minimum
  EXPECT_EQ(obs::trace_capacity(), 16u);
  obs::set_tracing(true);
  static const char* const kNames[] = {"ring_a", "ring_b"};
  for (int i = 0; i < 24; ++i) {
    obs::TraceEvent e;
    e.name = kNames[i >= 8 ? 1 : 0];  // first 8 get evicted
    e.start_ns = i;
    obs::trace_emit(e);
  }
  obs::set_tracing(false);
  EXPECT_EQ(obs::trace_size(), 16u);
  EXPECT_EQ(obs::trace_dropped(), 8);
  EXPECT_EQ(obs::counter_value(obs::Counter::kTraceDropped), 8);
  const auto events = obs::trace_snapshot();
  ASSERT_EQ(events.size(), 16u);
  for (const obs::TraceEvent& e : events) EXPECT_STREQ(e.name, "ring_b");
  // Oldest-first order survived the wrap.
  for (size_t i = 1; i < events.size(); ++i)
    EXPECT_GT(events[i].start_ns, events[i - 1].start_ns);
  obs::trace_clear();
  EXPECT_EQ(obs::trace_size(), 0u);
  EXPECT_EQ(obs::trace_capacity(), 16u);
}

TEST_F(ObsTest, ResetAllClearsCountersGaugesAndRing) {
  obs::counter_add(obs::Counter::kKernelMacs, 5);
  obs::gauge_set_max(obs::Gauge::kArenaPeakBytes, 99);
  obs::set_tracing(true);
  { obs::SpanScope s("reset_me", obs::Cat::kBench); }
  obs::set_tracing(false);
  ASSERT_EQ(obs::trace_size(), 1u);
  obs::reset_all();
  EXPECT_EQ(obs::counter_value(obs::Counter::kKernelMacs), 0);
  EXPECT_EQ(obs::gauge_value(obs::Gauge::kArenaPeakBytes), 0);
  EXPECT_EQ(obs::trace_size(), 0u);
  // reset_counters alone keeps the ring (the doc'd contrast with reset_all).
  obs::set_tracing(true);
  { obs::SpanScope s("survives_counter_reset", obs::Cat::kBench); }
  obs::set_tracing(false);
  obs::reset_counters();
  EXPECT_EQ(obs::trace_size(), 1u);
}

TEST_F(ObsTest, CounterTrackRecordsSamplesInOrder) {
  obs::trace_reserve(64);
  // Counters only record while tracing, like spans.
  obs::trace_counter("arena_bytes", 100.0);
  EXPECT_EQ(obs::trace_size(), 0u);
  obs::set_tracing(true);
  obs::trace_counter("arena_bytes", 100.0);
  obs::trace_counter("arena_bytes", 250.5);
  obs::trace_counter("cumulative_macs", 1e6);
  obs::set_tracing(false);
  ASSERT_EQ(obs::trace_size(), 3u);
  EXPECT_EQ(obs::counter_value(obs::Counter::kCounterSamples), 3);
  const auto events = obs::trace_snapshot();
  for (const obs::TraceEvent& e : events)
    EXPECT_EQ(e.ph, obs::Ph::kCounter);
  EXPECT_STREQ(events[0].name, "arena_bytes");
  EXPECT_DOUBLE_EQ(events[0].value, 100.0);
  EXPECT_DOUBLE_EQ(events[1].value, 250.5);
  EXPECT_STREQ(events[2].name, "cumulative_macs");
  // Samples on one track export in nondecreasing timestamp order.
  EXPECT_LE(events[0].start_ns, events[1].start_ns);
}

TEST_F(ObsTest, CounterTrackExportsAsChromeCounterEvents) {
  obs::trace_reserve(64);
  obs::set_tracing(true);
  { obs::SpanScope s("beside_counters", obs::Cat::kBench); }
  obs::trace_counter("scratch_bytes", 4096.0);
  obs::set_tracing(false);
  const std::string j = obs::chrome_trace_json();
  // Spans and counters interleave in one traceEvents array.
  EXPECT_NE(j.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(j.find("\"name\": \"scratch_bytes\""), std::string::npos);
  EXPECT_NE(j.find("\"args\": {\"value\": 4096}"), std::string::npos);
}

TEST_F(ObsTest, ChromeTraceJsonStructure) {
  obs::trace_reserve(64);
  obs::set_tracing(true);
  { obs::SpanScope s("json_span\"quoted", obs::Cat::kKernel, "macs", 7); }
  obs::set_tracing(false);
  const std::string j = obs::chrome_trace_json();
  EXPECT_NE(j.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(j.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(j.find("json_span\\\"quoted"), std::string::npos);  // escaped
  EXPECT_NE(j.find("\"cat\": \"kernel\""), std::string::npos);
  EXPECT_NE(j.find("\"macs\": 7"), std::string::npos);
}

TEST_F(ObsTest, PoolStatsCountChunksAndRegions) {
  parallel::set_threads(4);
  std::vector<int64_t> sums(64, 0);
  parallel::parallel_for(0, 64, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) sums[static_cast<size_t>(i)] = i;
  });
  parallel::set_threads(0);
  const parallel::PoolStats s = parallel::pool_stats();
  EXPECT_EQ(s.regions, 1);
  EXPECT_EQ(s.chunks, parallel::num_chunks(64, 1));
  EXPECT_EQ(s.max_region_chunks, parallel::num_chunks(64, 1));
  EXPECT_GE(s.stolen_chunks, 0);
  EXPECT_LE(s.stolen_chunks, s.chunks);
  EXPECT_GE(s.stolen_fraction(), 0.0);
  EXPECT_LE(s.stolen_fraction(), 1.0);
}

// --- request-lifecycle flight recorder (PR 10) -------------------------------

obs::Event lifecycle_event(obs::EventKind kind, int64_t seq, int64_t tick) {
  obs::Event ev;
  ev.kind = kind;
  ev.tenant = 0;
  ev.seq = seq;
  ev.tick = tick;
  ev.a = seq * 3;
  ev.b = tick + 1;
  return ev;
}

TEST_F(ObsTest, EventRingEvictsOldestAndCountsDrops) {
  obs::event_reserve(16);
  EXPECT_EQ(obs::event_capacity(), 16u);
  for (int i = 0; i < 24; ++i)
    obs::event_emit(lifecycle_event(obs::EventKind::kAdmit, i, 100 + i));
  EXPECT_EQ(obs::event_size(), 16u);
  EXPECT_EQ(obs::event_dropped(), 8);
  EXPECT_EQ(obs::counter_value(obs::Counter::kEventsDropped), 8);
  EXPECT_EQ(obs::counter_value(obs::Counter::kEventsEmitted), 24);
  const auto events = obs::event_snapshot();
  ASSERT_EQ(events.size(), 16u);
  // The first 8 were evicted; survivors stay oldest-first.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, static_cast<int64_t>(8 + i));
    EXPECT_EQ(events[i].tick, static_cast<int64_t>(108 + i));
  }
  obs::event_clear();
  EXPECT_EQ(obs::event_size(), 0u);
  EXPECT_EQ(obs::event_capacity(), 16u);  // clear keeps the reservation
}

TEST_F(ObsTest, EventFingerprintIsOrderExactAndCapacityIndependent) {
  // Same emission order at a tiny capacity (everything evicted) and a large
  // one (nothing evicted) folds to the same fingerprint: the fold happens at
  // emit time, before eviction.
  obs::event_reserve(16);
  const uint64_t fresh = obs::event_fingerprint();
  for (int i = 0; i < 64; ++i)
    obs::event_emit(lifecycle_event(obs::EventKind::kDispatch, i, i));
  const uint64_t small_ring = obs::event_fingerprint();
  EXPECT_NE(small_ring, fresh);
  obs::event_reserve(1024);
  for (int i = 0; i < 64; ++i)
    obs::event_emit(lifecycle_event(obs::EventKind::kDispatch, i, i));
  EXPECT_EQ(obs::event_fingerprint(), small_ring);
  // Swapping two events changes the fold: the hash is order-exact.
  obs::event_clear();
  for (int i = 63; i >= 0; --i)
    obs::event_emit(lifecycle_event(obs::EventKind::kDispatch, i, i));
  EXPECT_NE(obs::event_fingerprint(), small_ring);
}

TEST_F(ObsTest, PostmortemCapturesTrailingEventsLatestWins) {
  obs::event_reserve(256);
  EXPECT_EQ(obs::postmortem_count(), 0);
  EXPECT_EQ(obs::postmortem_latest().reason, nullptr);
  for (int i = 0; i < 100; ++i)
    obs::event_emit(lifecycle_event(obs::EventKind::kComplete, i, i));
  obs::event_postmortem("first_incident", 99);
  EXPECT_EQ(obs::postmortem_count(), 1);
  obs::PostmortemDump dump = obs::postmortem_latest();
  EXPECT_STREQ(dump.reason, "first_incident");
  EXPECT_EQ(dump.tick, 99);
  ASSERT_EQ(dump.events.size(), obs::kPostmortemDepth);
  // The capture is the TAIL of the stream: seqs 36..99.
  for (size_t i = 0; i < dump.events.size(); ++i)
    EXPECT_EQ(dump.events[i].seq,
              static_cast<int64_t>(100 - obs::kPostmortemDepth + i));
  obs::event_emit(lifecycle_event(obs::EventKind::kBreakerTrip, 100, 100));
  obs::event_postmortem("second_incident", 100);
  EXPECT_EQ(obs::postmortem_count(), 2);
  dump = obs::postmortem_latest();
  EXPECT_STREQ(dump.reason, "second_incident");
  EXPECT_EQ(dump.events.back().seq, 100);
  // A capture on a short stream keeps everything recorded so far.
  obs::event_clear();
  obs::event_emit(lifecycle_event(obs::EventKind::kWatchdogStall, 7, 7));
  obs::event_postmortem("short_stream", 7);
  EXPECT_EQ(obs::postmortem_latest().events.size(), 1u);
}

TEST_F(ObsTest, MnObsRingEnvOverridesRingDefault) {
  ASSERT_EQ(unsetenv("MN_OBS_RING"), 0);
  EXPECT_EQ(obs::ring_capacity_from_env(4096), 4096u);
  ASSERT_EQ(setenv("MN_OBS_RING", "128", 1), 0);
  EXPECT_EQ(obs::ring_capacity_from_env(4096), 128u);
  // Unparseable values warn once on stderr and keep the fallback.
  ASSERT_EQ(setenv("MN_OBS_RING", "lots", 1), 0);
  EXPECT_EQ(obs::ring_capacity_from_env(4096), 4096u);
  ASSERT_EQ(setenv("MN_OBS_RING", "-5", 1), 0);
  EXPECT_EQ(obs::ring_capacity_from_env(4096), 4096u);
  ASSERT_EQ(unsetenv("MN_OBS_RING"), 0);
}

TEST_F(ObsTest, EventLogJsonRendersStreamAndPostmortem) {
  obs::event_reserve(64);
  obs::event_emit(lifecycle_event(obs::EventKind::kAdmit, 1, 10));
  obs::event_emit(lifecycle_event(obs::EventKind::kReimage, -1, 11));
  std::string j = obs::event_log_json();
  EXPECT_NE(j.find("\"fingerprint\": \"0x"), std::string::npos);
  EXPECT_NE(j.find("\"dropped\": 0"), std::string::npos);
  EXPECT_NE(j.find("\"kind\": \"admit\""), std::string::npos);
  EXPECT_NE(j.find("\"kind\": \"reimage\""), std::string::npos);
  // Without a capture the postmortem document is explicit about it.
  EXPECT_NE(obs::postmortem_json().find("\"reason\": null"),
            std::string::npos);
  obs::event_postmortem("json_incident", 11);
  j = obs::postmortem_json();
  EXPECT_NE(j.find("\"reason\": \"json_incident\""), std::string::npos);
  EXPECT_NE(j.find("\"captures\": 1"), std::string::npos);
  EXPECT_NE(j.find("\"tick\": 11"), std::string::npos);
}

// Regression test for the PR 10 reset_all fix: every serving-era registry —
// ALL counters and gauges (enumerated, so a new enumerator can't dodge the
// reset), the event ring + fingerprint, and the postmortem capture — must
// return to the fresh-process state.
TEST_F(ObsTest, ResetAllClearsServingEraState) {
  const uint64_t fresh_fp = obs::event_fingerprint();
  for (uint32_t i = 0; i < static_cast<uint32_t>(obs::Counter::kCount); ++i)
    obs::counter_add(static_cast<obs::Counter>(i), 3);
  for (uint32_t i = 0; i < static_cast<uint32_t>(obs::Gauge::kCount); ++i)
    obs::gauge_set_max(static_cast<obs::Gauge>(i), 5);
  obs::event_reserve(64);
  for (int i = 0; i < 8; ++i)
    obs::event_emit(lifecycle_event(obs::EventKind::kRetry, i, i));
  obs::event_postmortem("reset_me", 7);
  ASSERT_NE(obs::event_fingerprint(), fresh_fp);
  ASSERT_GT(obs::postmortem_count(), 0);
  obs::reset_all();
  for (uint32_t i = 0; i < static_cast<uint32_t>(obs::Counter::kCount); ++i)
    EXPECT_EQ(obs::counter_value(static_cast<obs::Counter>(i)), 0)
        << obs::counter_name(static_cast<obs::Counter>(i));
  for (uint32_t i = 0; i < static_cast<uint32_t>(obs::Gauge::kCount); ++i)
    EXPECT_EQ(obs::gauge_value(static_cast<obs::Gauge>(i)), 0)
        << obs::gauge_name(static_cast<obs::Gauge>(i));
  EXPECT_EQ(obs::trace_size(), 0u);
  EXPECT_EQ(obs::event_size(), 0u);
  EXPECT_EQ(obs::event_dropped(), 0);
  EXPECT_EQ(obs::event_fingerprint(), fresh_fp);
  EXPECT_EQ(obs::postmortem_count(), 0);
  EXPECT_EQ(obs::postmortem_latest().reason, nullptr);
  EXPECT_TRUE(obs::postmortem_latest().events.empty());
}

#else  // MN_OBS_DISABLED: the whole registry is compiled out.

TEST_F(ObsTest, DisabledBuildEventLogIsNoOp) {
  obs::event_reserve(64);
  obs::Event ev;
  ev.kind = obs::EventKind::kAdmit;
  obs::event_emit(ev);
  EXPECT_EQ(obs::event_size(), 0u);
  EXPECT_EQ(obs::event_capacity(), 0u);
  EXPECT_EQ(obs::event_dropped(), 0);
  EXPECT_EQ(obs::event_fingerprint(), 0u);
  EXPECT_TRUE(obs::event_snapshot().empty());
  obs::event_postmortem("ignored", 1);
  EXPECT_EQ(obs::postmortem_count(), 0);
  EXPECT_EQ(obs::postmortem_latest().reason, nullptr);
  EXPECT_EQ(obs::ring_capacity_from_env(2048), 2048u);
  // The name table stays linked in every configuration.
  EXPECT_STREQ(obs::event_kind_name(obs::EventKind::kWatchdogStall),
               "watchdog_stall");
}

TEST_F(ObsTest, DisabledBuildPinsEverythingToZero) {
  obs::counter_add(obs::Counter::kKernelMacs, 123);
  obs::gauge_set_max(obs::Gauge::kArenaPeakBytes, 456);
  EXPECT_EQ(obs::counter_value(obs::Counter::kKernelMacs), 0);
  EXPECT_EQ(obs::gauge_value(obs::Gauge::kArenaPeakBytes), 0);
  obs::set_tracing(true);
  EXPECT_FALSE(obs::tracing_enabled());
  { obs::SpanScope s("noop", obs::Cat::kKernel); }
  obs::trace_counter("arena_bytes", 123.0);  // counter tracks collapse too
  obs::reset_all();                          // and reset_all is a safe no-op
  EXPECT_EQ(obs::trace_size(), 0u);
  EXPECT_TRUE(obs::trace_snapshot().empty());
  const parallel::PoolStats stats = parallel::pool_stats();
  EXPECT_EQ(stats.chunks, 0);
}

TEST_F(ObsTest, DisabledBuildExportersStillRender) {
  // Exporters stay linked (names compile unconditionally) so tooling that
  // writes metrics files works in every configuration — values are zeros.
  const std::string m = obs::metrics_json();
  EXPECT_NE(m.find("\"kernel_macs\": 0"), std::string::npos);
  const std::string t = obs::chrome_trace_json();
  EXPECT_NE(t.find("\"traceEvents\": ["), std::string::npos);
}

#endif  // MN_OBS_DISABLED

// --- deterministic SLO histograms (plain value type: both configurations) ---

// Nearest-rank oracle matching serve::digest / TickHistogram::percentile:
// rank = ceil(q * n) clamped to [1, n], 1-indexed into the sorted samples.
int64_t oracle_percentile(std::vector<int64_t> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  int64_t rank = static_cast<int64_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  rank = std::clamp<int64_t>(rank, 1, static_cast<int64_t>(samples.size()));
  return samples[static_cast<size_t>(rank - 1)];
}

TEST_F(ObsTest, HistogramPercentilesExactInSingletonRange) {
  // Below 128 every bucket holds exactly one value, so the histogram
  // percentile equals the sorted-vector oracle for every quantile.
  Rng rng(21);
  obs::TickHistogram h;
  std::vector<int64_t> samples;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v =
        std::min<int64_t>(127, std::abs(static_cast<int64_t>(
                                   rng.normal(0.0, 40.0))));
    samples.push_back(v);
    h.record(v);
  }
  EXPECT_EQ(h.count(), 2000);
  for (double q : {0.01, 0.25, 0.50, 0.95, 0.99, 0.999, 1.0})
    EXPECT_EQ(h.percentile(q), oracle_percentile(samples, q)) << "q=" << q;
}

TEST_F(ObsTest, HistogramPercentileBoundsLargeValues) {
  // Above the singleton range the reported value is the bucket lower bound:
  // never above the true order statistic, and within one log-bucket width
  // (1/64 relative) below it.
  Rng rng(22);
  obs::TickHistogram h;
  std::vector<int64_t> samples;
  for (int i = 0; i < 4000; ++i) {
    const int64_t v = 1 + std::abs(static_cast<int64_t>(
                              rng.normal(0.0, 1e6)));
    samples.push_back(v);
    h.record(v);
  }
  for (double q : {0.50, 0.95, 0.99, 0.999}) {
    const int64_t hp = h.percentile(q);
    const int64_t op = oracle_percentile(samples, q);
    EXPECT_LE(hp, op) << "q=" << q;
    EXPECT_LT(op, hp + std::max<int64_t>(1, hp >> 6) + 1) << "q=" << q;
  }
  EXPECT_EQ(h.max(), *std::max_element(samples.begin(), samples.end()));
}

TEST_F(ObsTest, HistogramMergeIsAssociativeAndMatchesUnion) {
  Rng rng(23);
  obs::TickHistogram a, b, c, all;
  for (int i = 0; i < 900; ++i) {
    const int64_t v = std::abs(static_cast<int64_t>(rng.normal(0.0, 500.0)));
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).record(v);
    all.record(v);
  }
  // (a + b) + c == a + (b + c): bucket counts are elementwise sums.
  obs::TickHistogram left = a;
  left.merge(b);
  left.merge(c);
  obs::TickHistogram bc = b;
  bc.merge(c);
  obs::TickHistogram right = a;
  right.merge(bc);
  EXPECT_TRUE(left == right);
  // And both equal the histogram of the union stream, regardless of the
  // insertion order (merge is commutative).
  EXPECT_TRUE(left == all);
  obs::TickHistogram rev = c;
  rev.merge(b);
  rev.merge(a);
  EXPECT_TRUE(rev == all);
  EXPECT_EQ(left.count(), 900);
  EXPECT_EQ(left.percentile(0.99), all.percentile(0.99));
}

TEST_F(ObsTest, HistogramEdgeCases) {
  obs::TickHistogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.percentile(0.99), 0);  // empty: no samples to rank
  h.record(-17);                     // negative latencies clamp to 0
  EXPECT_EQ(h.percentile(0.5), 0);
  EXPECT_EQ(h.max(), 0);
  h.record(1);
  h.record(1);
  EXPECT_EQ(h.count(), 3);
  EXPECT_EQ(h.percentile(1.0), 1);
}

TEST_F(ObsTest, MetricsJsonListsEveryCounterAndGauge) {
  const std::string j = obs::metrics_json();
  for (uint32_t i = 0; i < static_cast<uint32_t>(obs::Counter::kCount); ++i)
    EXPECT_NE(j.find(obs::counter_name(static_cast<obs::Counter>(i))),
              std::string::npos);
  for (uint32_t i = 0; i < static_cast<uint32_t>(obs::Gauge::kCount); ++i)
    EXPECT_NE(j.find(obs::gauge_name(static_cast<obs::Gauge>(i))),
              std::string::npos);
  const auto flat = obs::metrics_flat();
  EXPECT_EQ(flat.size(), static_cast<size_t>(obs::Counter::kCount) +
                             static_cast<size_t>(obs::Gauge::kCount));
}

// --- interpreter profiling (works in both MN_OBS configurations) ------------

rt::ModelDef profiled_model(uint64_t seed) {
  models::DsCnnConfig cfg;
  cfg.input = Shape{12, 8, 1};
  cfg.num_classes = 4;
  cfg.stem_channels = 8;
  cfg.blocks = {{8, 1}};
  models::BuildOptions opt;
  opt.seed = seed;
  opt.qat = false;
  nn::Graph g = models::build_ds_cnn(cfg, opt);
  Rng rng(seed + 1);
  TensorF batch(Shape{2, 12, 8, 1});
  for (int64_t i = 0; i < batch.size(); ++i)
    batch[i] = static_cast<float>(rng.normal(0.0, 0.5));
  const rt::RangeMap ranges = rt::calibrate_ranges(g, batch);
  rt::ConvertOptions co;
  co.name = "profiled";
  return rt::convert(g, co, &ranges);
}

TEST_F(ObsTest, ProfileReportMeasuresEveryOp) {
  rt::Interpreter interp(profiled_model(3));
  interp.set_profiling(true);
  const TensorF input(Shape{12, 8, 1}, 0.25f);
  interp.invoke(input);
  interp.invoke(input);
  const rt::ProfileReport prof = interp.profile_report();
  EXPECT_EQ(prof.model_name, "profiled");
  EXPECT_EQ(prof.invocations, 2);
  ASSERT_EQ(prof.ops.size(), interp.model().ops.size());
  int64_t mac_total = 0;
  for (const rt::OpProfile& op : prof.ops) {
    EXPECT_EQ(op.invocations, 2);
    EXPECT_GE(op.wall_ns, 0);
    mac_total += op.macs;
  }
  EXPECT_EQ(mac_total, interp.model().total_macs());
  EXPECT_GT(prof.total_wall_ns(), 0);
  EXPECT_FALSE(prof.has_predictions());
  // reset_profile zeroes timings but keeps the per-op structure.
  interp.reset_profile();
  const rt::ProfileReport fresh = interp.profile_report();
  EXPECT_EQ(fresh.invocations, 0);
  EXPECT_EQ(fresh.total_wall_ns(), 0);
  EXPECT_EQ(fresh.ops.size(), prof.ops.size());
}

TEST_F(ObsTest, AnnotateProfileFillsPredictionsAndTableRenders) {
  rt::Interpreter interp(profiled_model(4));
  interp.set_profiling(true);
  interp.invoke(TensorF(Shape{12, 8, 1}, 0.1f));
  rt::ProfileReport prof = interp.profile_report();
  const mcu::Device& dev = mcu::stm32f746zg();
  mcu::annotate_profile(dev, interp.model(), &prof);
  EXPECT_TRUE(prof.has_predictions());
  EXPECT_EQ(prof.device_name, dev.name);
  EXPECT_DOUBLE_EQ(prof.clock_mhz, dev.clock_mhz);
  double pred_sum = 0.0;
  for (size_t i = 0; i < prof.ops.size(); ++i) {
    EXPECT_GT(prof.ops[i].predicted_s, 0.0) << "op " << i;
    EXPECT_GT(prof.predicted_cycles(i), 0) << "op " << i;
    pred_sum += prof.ops[i].predicted_s;
  }
  EXPECT_DOUBLE_EQ(prof.total_predicted_s(), pred_sum);
  // Sum of per-op predictions stays below the whole-model latency (which
  // adds the interpreter dispatch overhead) but accounts for most of it.
  const double model_s = mcu::model_latency_s(dev, interp.model());
  EXPECT_LT(pred_sum, model_s);
  EXPECT_GT(pred_sum, 0.5 * model_s);
  const std::string table = prof.table();
  EXPECT_NE(table.find("CONV_2D"), std::string::npos);
  EXPECT_NE(table.find("pred cycles"), std::string::npos);
  EXPECT_NE(table.find(dev.name), std::string::npos);
  // annotate_profile also attributes per-op energy (power x predicted time).
  double uj_sum = 0.0;
  for (const rt::OpProfile& op : prof.ops) {
    EXPECT_GT(op.predicted_uj, 0.0);
    uj_sum += op.predicted_uj;
  }
  const double power_w =
      mcu::model_power_w(dev, mcu::model_structure_hash(interp.model()));
  EXPECT_NEAR(uj_sum, power_w * prof.total_predicted_s() * 1e6, 1e-6);
}

// --- arena lifetime telemetry (works in both MN_OBS configurations) ---------

TEST_F(ObsTest, MemoryPlanLifetimesAreConsistent) {
  rt::Interpreter interp(profiled_model(6));
  const rt::MemoryPlan& plan = interp.memory_plan();
  const int num_ops = static_cast<int>(interp.model().ops.size());
  ASSERT_FALSE(plan.allocations.empty());
  int64_t alloc_sum = 0;
  for (const rt::TensorAllocation& a : plan.allocations) {
    EXPECT_GE(a.offset, 0);
    EXPECT_LE(a.offset + a.bytes, plan.arena_bytes);  // fits in the arena
    EXPECT_LE(a.first_op, a.last_op);
    EXPECT_GE(a.first_op, -1);       // -1: model input, live before op 0
    EXPECT_LE(a.last_op, num_ops);   // ops.size(): output, live past the end
    alloc_sum += a.bytes;
  }
  // Per-op live bytes: timeline == live_bytes_at pointwise, peak == max,
  // and the packed arena is sandwiched between the true peak and the naive
  // no-reuse sum (the gap to the peak is planner fragmentation).
  const std::vector<int64_t> timeline = plan.occupancy_timeline(num_ops);
  ASSERT_EQ(timeline.size(), static_cast<size_t>(num_ops));
  int64_t max_seen = 0;
  for (int op = 0; op < num_ops; ++op) {
    EXPECT_EQ(timeline[static_cast<size_t>(op)], plan.live_bytes_at(op));
    max_seen = std::max(max_seen, timeline[static_cast<size_t>(op)]);
  }
  EXPECT_EQ(plan.peak_live_bytes(num_ops), max_seen);
  EXPECT_GT(max_seen, 0);
  EXPECT_LE(max_seen, plan.arena_bytes);
  EXPECT_LE(plan.arena_bytes, alloc_sum);
  EXPECT_EQ(alloc_sum, rt::unplanned_activation_bytes(interp.model()));
  // The interpreter caches the same timeline for its counter track.
  EXPECT_EQ(interp.op_live_bytes(), timeline);
}

TEST_F(ObsTest, EnergyTableMustMatchOpCount) {
  rt::Interpreter interp(profiled_model(7));
  const std::vector<double> good =
      mcu::per_op_energy_uj(mcu::stm32f746zg(), interp.model());
  ASSERT_EQ(good.size(), interp.model().ops.size());
  for (double uj : good) EXPECT_GT(uj, 0.0);
  EXPECT_NO_THROW(interp.set_op_energy_uj(good));
  EXPECT_THROW(interp.set_op_energy_uj(std::vector<double>(good.size() + 1)),
               std::runtime_error);
}

#if !defined(MN_OBS_DISABLED)

TEST_F(ObsTest, InterpreterEmitsCounterTracksPerOp) {
  rt::Interpreter interp(profiled_model(8));
  interp.set_op_energy_uj(
      mcu::per_op_energy_uj(mcu::stm32f746zg(), interp.model()));
  obs::trace_reserve(1024);
  obs::set_tracing(true);
  interp.invoke(TensorF(Shape{12, 8, 1}, 0.2f));
  obs::set_tracing(false);
  const size_t num_ops = interp.model().ops.size();
  size_t arena = 0, scratch = 0, macs = 0, energy = 0;
  int64_t last_cum_macs = -1;
  std::vector<double> arena_values;
  for (const obs::TraceEvent& e : obs::trace_snapshot()) {
    if (e.ph != obs::Ph::kCounter) continue;
    const std::string name = e.name;
    if (name == "arena_bytes") {
      ++arena;
      arena_values.push_back(e.value);
    } else if (name == "scratch_bytes") {
      ++scratch;
    } else if (name == "cumulative_macs") {
      // Cumulative: nondecreasing across the invoke.
      EXPECT_GE(static_cast<int64_t>(e.value), last_cum_macs);
      last_cum_macs = static_cast<int64_t>(e.value);
      ++macs;
    } else if (name == "op_energy_uj") {
      EXPECT_GT(e.value, 0.0);
      ++energy;
    }
  }
  // One sample per op on each of the four tracks.
  EXPECT_EQ(arena, num_ops);
  EXPECT_EQ(scratch, num_ops);
  EXPECT_EQ(macs, num_ops);
  EXPECT_EQ(energy, num_ops);
  // The arena track replays the planner's occupancy timeline.
  ASSERT_EQ(arena_values.size(), interp.op_live_bytes().size());
  for (size_t i = 0; i < arena_values.size(); ++i)
    EXPECT_DOUBLE_EQ(arena_values[i],
                     static_cast<double>(interp.op_live_bytes()[i]));
  // And the final cumulative-MAC sample equals the global counter.
  EXPECT_EQ(last_cum_macs, obs::counter_value(obs::Counter::kKernelMacs));
  EXPECT_EQ(obs::gauge_value(obs::Gauge::kArenaLiveBytesPeak),
            interp.memory_plan().peak_live_bytes(static_cast<int>(num_ops)));
}

#endif  // !MN_OBS_DISABLED

// --- the determinism guard ---------------------------------------------------

struct GuardRun {
  std::vector<uint8_t> journal;   // MNJ1 file bytes
  std::vector<uint8_t> weights;   // save_checkpoint image
  std::vector<uint64_t> rng_fingerprints;
  double final_loss = 0.0;
};

data::Dataset guard_dataset(int n_per_class, uint64_t seed) {
  Rng rng(seed);
  data::Dataset ds;
  ds.num_classes = 2;
  ds.input_shape = Shape{4, 4, 1};
  for (int cls = 0; cls < 2; ++cls) {
    for (int i = 0; i < n_per_class; ++i) {
      data::Example e;
      e.input = TensorF(Shape{4, 4, 1});
      const float base = cls == 0 ? -0.5f : 0.5f;
      for (int64_t k = 0; k < 16; ++k)
        e.input[k] = base + static_cast<float>(rng.normal(0, 0.3));
      e.label = cls;
      ds.examples.push_back(std::move(e));
    }
  }
  return ds;
}

nn::Graph guard_graph(uint64_t seed) {
  nn::GraphBuilder b(seed);
  int x = b.input(Shape{4, 4, 1});
  nn::Conv2DOptions opt;
  opt.out_channels = 4;
  x = b.conv2d(x, opt);
  x = b.relu(x);
  x = b.global_avg_pool(x);
  x = b.dense(x, 2);
  return b.build(x);
}

GuardRun run_guarded_fit(const std::string& journal_path, bool observe) {
  if (observe) {
    obs::trace_reserve(4096);
    obs::set_tracing(true);
  }
  nn::Graph g = guard_graph(9);
  const data::Dataset ds = guard_dataset(16, 5);
  nn::TrainConfig cfg;
  cfg.epochs = 3;
  cfg.batch_size = 8;
  cfg.lr_start = 0.1;
  cfg.seed = 33;
  cfg.mixup_alpha = 0.2f;  // RNG-hungry path: any extra draw would show
  cfg.journal_path = journal_path;
  GuardRun run;
  cfg.on_epoch = [&](const nn::EpochInfo& ep) {
    run.rng_fingerprints.push_back(ep.rng_fingerprint);
  };
  const nn::TrainStats stats = nn::fit(g, ds, cfg);
  if (observe) obs::set_tracing(false);
  run.final_loss = stats.final_loss;
  run.weights = nn::save_checkpoint(g);
  run.journal = nn::read_file_bytes(journal_path).take_or_throw();
  return run;
}

TEST_F(ObsTest, TracingNeverPerturbsTrainingArtifacts) {
  const fs::path dir =
      fs::temp_directory_path() / "mn_obs_determinism_guard";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const GuardRun off = run_guarded_fit((dir / "off.journal").string(), false);
  const GuardRun on = run_guarded_fit((dir / "on.journal").string(), true);
  // Observation ON vs OFF: journal bytes, checkpoint image, RNG stream
  // positions, and losses are all bit-identical. This is the contract that
  // keeps PR 2's resume-equivalence and PR 3's thread-invariance intact
  // under tracing.
  EXPECT_EQ(on.journal, off.journal);
  EXPECT_EQ(on.weights, off.weights);
  EXPECT_EQ(on.rng_fingerprints, off.rng_fingerprints);
  EXPECT_DOUBLE_EQ(on.final_loss, off.final_loss);
  ASSERT_FALSE(off.journal.empty());
  ASSERT_FALSE(off.weights.empty());
#if !defined(MN_OBS_DISABLED)
  // The observed run actually recorded spans (it wasn't a silent no-op).
  EXPECT_GT(obs::trace_size(), 0u);
  EXPECT_GE(obs::counter_value(obs::Counter::kTrainerEpochs), 3);
#endif
  fs::remove_all(dir);
}

TEST_F(ObsTest, EpochInfoReportsSamplesPerSec) {
#if !defined(MN_OBS_DISABLED)
  obs::trace_reserve(256);
  obs::set_tracing(true);
#endif
  nn::Graph g = guard_graph(11);
  const data::Dataset ds = guard_dataset(8, 7);
  nn::TrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch_size = 8;
  cfg.seed = 13;
  std::vector<double> sps;
  cfg.on_epoch = [&](const nn::EpochInfo& ep) {
    sps.push_back(ep.samples_per_sec);
  };
  nn::fit(g, ds, cfg);
  ASSERT_EQ(sps.size(), 2u);
  for (double v : sps) EXPECT_GT(v, 0.0);  // wall-clock throughput, not zero
#if !defined(MN_OBS_DISABLED)
  obs::set_tracing(false);
  // Each epoch emitted a train_epoch span carrying the throughput arg.
  int spans = 0;
  for (const obs::TraceEvent& e : obs::trace_snapshot()) {
    if (std::string(e.name) != "train_epoch") continue;
    EXPECT_STREQ(e.arg_a_name, "epoch");
    EXPECT_STREQ(e.arg_b_name, "samples_per_sec");
    EXPECT_GT(e.arg_b, 0);
    ++spans;
  }
  EXPECT_EQ(spans, 2);
#endif
}

}  // namespace
}  // namespace mn
