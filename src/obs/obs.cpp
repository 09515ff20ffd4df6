#include "obs/obs.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>

#include "obs/eventlog.hpp"

namespace mn::obs {

// Name tables compile in every configuration: the exporters render (empty)
// documents even when the subsystem is disabled.
const char* counter_name(Counter c) {
  switch (c) {
    case Counter::kPoolRegions: return "pool_regions";
    case Counter::kPoolChunks: return "pool_chunks";
    case Counter::kPoolStolenChunks: return "pool_stolen_chunks";
    case Counter::kTrainerEpochs: return "trainer_epochs";
    case Counter::kDnasEpochs: return "dnas_epochs";
    case Counter::kTraceDropped: return "trace_dropped";
    case Counter::kCounterSamples: return "counter_samples";
    case Counter::kServeAdmitted: return "serve_admitted";
    case Counter::kServeShed: return "serve_shed";
    case Counter::kServeRetries: return "serve_retries";
    case Counter::kServeQuarantines: return "serve_quarantines";
    case Counter::kServeDegraded: return "serve_degraded";
    case Counter::kEventsEmitted: return "events_emitted";
    case Counter::kEventsDropped: return "events_dropped";
    case Counter::kPostmortemDumps: return "postmortem_dumps";
    case Counter::kCount: break;
  }
  return "unknown_counter";
}

const char* gauge_name(Gauge g) {
  switch (g) {
    case Gauge::kArenaPeakBytes: return "arena_peak_bytes";
    case Gauge::kScratchPeakBytes: return "scratch_peak_bytes";
    case Gauge::kPoolWorkers: return "pool_workers";
    case Gauge::kPoolRegionChunksMax: return "pool_region_chunks_max";
    case Gauge::kTraceHighWater: return "trace_high_water";
    case Gauge::kArenaLiveBytesPeak: return "arena_live_bytes_peak";
    case Gauge::kServeQueueDepthPeak: return "serve_queue_depth_peak";
    case Gauge::kServeInflightPeak: return "serve_inflight_peak";
    case Gauge::kEventHighWater: return "event_high_water";
    case Gauge::kCount: break;
  }
  return "unknown_gauge";
}

const char* cat_name(Cat c) {
  switch (c) {
    case Cat::kKernel: return "kernel";
    case Cat::kRuntime: return "runtime";
    case Cat::kTrain: return "train";
    case Cat::kSearch: return "search";
    case Cat::kParallel: return "parallel";
    case Cat::kBench: return "bench";
  }
  return "unknown";
}

}  // namespace mn::obs

#if !defined(MN_OBS_DISABLED)

namespace mn::obs {

namespace {

constexpr size_t kNumCounters = static_cast<size_t>(Counter::kCount);
constexpr size_t kNumGauges = static_cast<size_t>(Gauge::kCount);
constexpr size_t kDefaultTraceCapacity = 16384;
constexpr size_t kMinTraceCapacity = 16;

std::atomic<int64_t> g_counters[kNumCounters];
std::atomic<int64_t> g_gauges[kNumGauges];
std::atomic<bool> g_tracing{false};

// The ring buffer. Span emission is per-op / per-region / per-epoch — far off
// the per-element hot path — so a mutex keeps wrap-around writes race-free
// (and TSan-clean) without complicating the store path. The buffer itself is
// preallocated by trace_reserve(); push never allocates.
std::mutex g_trace_m;
std::vector<TraceEvent> g_ring;   // capacity() fixed after reserve
size_t g_head = 0;                // index of the oldest resident event
size_t g_size = 0;                // resident events (<= capacity)

std::atomic<uint32_t> g_next_tid{0};
thread_local uint32_t tl_tid = UINT32_MAX;

std::chrono::steady_clock::time_point trace_epoch() {
  static const auto t0 = std::chrono::steady_clock::now();
  return t0;
}

}  // namespace

void counter_add(Counter c, int64_t delta) {
  g_counters[static_cast<size_t>(c)].fetch_add(delta, std::memory_order_relaxed);
}

int64_t counter_value(Counter c) {
  return g_counters[static_cast<size_t>(c)].load(std::memory_order_relaxed);
}

void gauge_set_max(Gauge g, int64_t value) {
  std::atomic<int64_t>& slot = g_gauges[static_cast<size_t>(g)];
  int64_t cur = slot.load(std::memory_order_relaxed);
  while (value > cur &&
         !slot.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

int64_t gauge_value(Gauge g) {
  return g_gauges[static_cast<size_t>(g)].load(std::memory_order_relaxed);
}

void reset_counters() {
  for (auto& c : g_counters) c.store(0, std::memory_order_relaxed);
  for (auto& g : g_gauges) g.store(0, std::memory_order_relaxed);
}

void reset_all() {
  reset_counters();
  trace_clear();
  // Serving-era state (PRs 6-10): the flight-recorder ring, its running
  // fingerprint, and the stored postmortem capture must also reset, or
  // back-to-back bench phases inherit each other's incident history.
  event_clear();
  postmortem_clear();
}

void trace_reserve(size_t capacity) {
  std::lock_guard<std::mutex> lk(g_trace_m);
  g_ring.assign(std::max(capacity, kMinTraceCapacity), TraceEvent{});
  g_head = 0;
  g_size = 0;
}

void set_tracing(bool on) {
  if (on) {
    std::lock_guard<std::mutex> lk(g_trace_m);
    if (g_ring.empty()) {
      g_ring.assign(std::max(ring_capacity_from_env(kDefaultTraceCapacity),
                             kMinTraceCapacity),
                    TraceEvent{});
      g_head = 0;
      g_size = 0;
    }
  }
  trace_epoch();  // pin the epoch no later than the first enable
  g_tracing.store(on, std::memory_order_release);
}

bool tracing_enabled() { return g_tracing.load(std::memory_order_acquire); }

void trace_clear() {
  std::lock_guard<std::mutex> lk(g_trace_m);
  g_head = 0;
  g_size = 0;
}

size_t trace_size() {
  std::lock_guard<std::mutex> lk(g_trace_m);
  return g_size;
}

size_t trace_capacity() {
  std::lock_guard<std::mutex> lk(g_trace_m);
  return g_ring.size();
}

int64_t trace_dropped() { return counter_value(Counter::kTraceDropped); }

std::vector<TraceEvent> trace_snapshot() {
  std::lock_guard<std::mutex> lk(g_trace_m);
  std::vector<TraceEvent> out;
  out.reserve(g_size);
  for (size_t i = 0; i < g_size; ++i)
    out.push_back(g_ring[(g_head + i) % g_ring.size()]);
  return out;
}

void trace_emit(const TraceEvent& ev) {
  if (!tracing_enabled()) return;
  std::lock_guard<std::mutex> lk(g_trace_m);
  if (g_ring.empty()) return;
  if (g_size == g_ring.size()) {
    // Full: evict the oldest so the buffer always holds the latest events.
    g_ring[g_head] = ev;
    g_head = (g_head + 1) % g_ring.size();
    counter_add(Counter::kTraceDropped, 1);
  } else {
    g_ring[(g_head + g_size) % g_ring.size()] = ev;
    ++g_size;
    gauge_set_max(Gauge::kTraceHighWater, static_cast<int64_t>(g_size));
  }
}

void trace_counter(const char* track, double value, Cat cat) {
  if (!tracing_enabled()) return;
  TraceEvent ev;
  ev.name = track;
  ev.cat = cat;
  ev.ph = Ph::kCounter;
  ev.tid = thread_ordinal();
  ev.start_ns = now_ns();
  ev.value = value;
  counter_add(Counter::kCounterSamples, 1);
  trace_emit(ev);
}

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - trace_epoch())
      .count();
}

uint32_t thread_ordinal() {
  if (tl_tid == UINT32_MAX)
    tl_tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return tl_tid;
}

SpanScope::SpanScope(const char* name, Cat cat, const char* arg_a_name,
                     int64_t arg_a, const char* arg_b_name, int64_t arg_b) {
  if (!tracing_enabled()) return;
  ev_.name = name;
  ev_.cat = cat;
  ev_.tid = thread_ordinal();
  ev_.arg_a_name = arg_a_name;
  ev_.arg_a = arg_a;
  ev_.arg_b_name = arg_b_name;
  ev_.arg_b = arg_b;
  ev_.start_ns = now_ns();
  armed_ = true;
}

SpanScope::~SpanScope() {
  if (!armed_) return;
  ev_.dur_ns = now_ns() - ev_.start_ns;
  trace_emit(ev_);
}

}  // namespace mn::obs

#endif  // !MN_OBS_DISABLED
