#include "obs/eventlog.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "obs/obs.hpp"
#include "tensor/rng.hpp"

namespace mn::obs {

// The kind name table compiles in every configuration so exporters render
// (empty) documents even when the subsystem is disabled.
const char* event_kind_name(EventKind k) {
  static_assert(static_cast<int>(EventKind::kEventKindCount) == 12,
                "EventKind changed: update event_kind_name() and this assert");
  switch (k) {
    case EventKind::kAdmit: return "admit";
    case EventKind::kReject: return "reject";
    case EventKind::kDispatch: return "dispatch";
    case EventKind::kRetry: return "retry";
    case EventKind::kComplete: return "complete";
    case EventKind::kQuarantine: return "quarantine";
    case EventKind::kReimage: return "reimage";
    case EventKind::kCanaryDetect: return "canary_detect";
    case EventKind::kBreakerTrip: return "breaker_trip";
    case EventKind::kWatchdogStall: return "watchdog_stall";
    case EventKind::kDegradeEnter: return "degrade_enter";
    case EventKind::kDegradeExit: return "degrade_exit";
    case EventKind::kEventKindCount: break;  // sentinel
  }
  return "unknown_event";
}

}  // namespace mn::obs

#if !defined(MN_OBS_DISABLED)

namespace mn::obs {

namespace {

constexpr size_t kDefaultEventCapacity = 16384;
constexpr size_t kMinEventCapacity = 16;
// Distinct from the engine fingerprint seed so an event stream can
// never collide with a schedule fingerprint by construction.
constexpr uint64_t kEventFingerprintSeed = 0x3C79AC492BA7B653ULL;

// Same single-mutex ring discipline as the span buffer in obs.cpp: emission
// is per-scheduling-transition, far off the per-element hot path.
std::mutex g_event_m;
std::vector<Event> g_events;  // capacity fixed after reserve
size_t g_ev_head = 0;         // index of the oldest resident event
size_t g_ev_size = 0;         // resident events (<= capacity)
uint64_t g_ev_fingerprint = kEventFingerprintSeed;

std::mutex g_pm_m;
PostmortemDump g_pm_latest;

uint64_t fold(uint64_t fp, const Event& ev) {
  const uint64_t head = static_cast<uint64_t>(ev.kind) << 40 |
                        (static_cast<uint64_t>(static_cast<uint32_t>(ev.tenant)) << 8);
  return hash_combine(
      fp, hash_combine(head,
                       hash_combine(static_cast<uint64_t>(ev.seq),
                                    hash_combine(static_cast<uint64_t>(ev.tick),
                                                 hash_combine(static_cast<uint64_t>(ev.a),
                                                              static_cast<uint64_t>(ev.b))))));
}

// Must be called with g_event_m held.
void reserve_locked(size_t capacity) {
  g_events.assign(std::max(capacity, kMinEventCapacity), Event{});
  g_ev_head = 0;
  g_ev_size = 0;
  g_ev_fingerprint = kEventFingerprintSeed;
}

}  // namespace

std::size_t ring_capacity_from_env(std::size_t fallback) {
  const char* env = std::getenv("MN_OBS_RING");
  if (!env || !*env) return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(env, &end, 10);
  if (end && *end == '\0' && v > 0) return static_cast<std::size_t>(v);
  static bool warned = false;
  if (!warned) {
    warned = true;
    std::fprintf(stderr,
                 "mn: MN_OBS_RING='%s' is not a positive integer; "
                 "using default ring capacity %zu\n",
                 env, fallback);
  }
  return fallback;
}

void event_reserve(std::size_t capacity) {
  std::lock_guard<std::mutex> lk(g_event_m);
  reserve_locked(capacity);
}

void event_clear() {
  std::lock_guard<std::mutex> lk(g_event_m);
  g_ev_head = 0;
  g_ev_size = 0;
  g_ev_fingerprint = kEventFingerprintSeed;
}

std::size_t event_size() {
  std::lock_guard<std::mutex> lk(g_event_m);
  return g_ev_size;
}

std::size_t event_capacity() {
  std::lock_guard<std::mutex> lk(g_event_m);
  return g_events.size();
}

int64_t event_dropped() { return counter_value(Counter::kEventsDropped); }

void event_emit(const Event& ev) {
  std::lock_guard<std::mutex> lk(g_event_m);
  if (g_events.empty())
    reserve_locked(ring_capacity_from_env(kDefaultEventCapacity));
  // Fold before any eviction: the fingerprint covers the full emission
  // stream, so it cannot depend on ring capacity.
  g_ev_fingerprint = fold(g_ev_fingerprint, ev);
  counter_add(Counter::kEventsEmitted, 1);
  if (g_ev_size == g_events.size()) {
    g_events[g_ev_head] = ev;
    g_ev_head = (g_ev_head + 1) % g_events.size();
    counter_add(Counter::kEventsDropped, 1);
  } else {
    g_events[(g_ev_head + g_ev_size) % g_events.size()] = ev;
    ++g_ev_size;
    gauge_set_max(Gauge::kEventHighWater, static_cast<int64_t>(g_ev_size));
  }
}

uint64_t event_fingerprint() {
  std::lock_guard<std::mutex> lk(g_event_m);
  return g_ev_fingerprint;
}

std::vector<Event> event_snapshot() {
  std::lock_guard<std::mutex> lk(g_event_m);
  std::vector<Event> out;
  out.reserve(g_ev_size);
  for (size_t i = 0; i < g_ev_size; ++i)
    out.push_back(g_events[(g_ev_head + i) % g_events.size()]);
  return out;
}

void event_postmortem(const char* reason, int64_t tick) {
  PostmortemDump dump;
  dump.reason = reason;
  dump.tick = tick;
  {
    std::lock_guard<std::mutex> lk(g_event_m);
    const size_t n = std::min(g_ev_size, kPostmortemDepth);
    dump.events.reserve(n);
    for (size_t i = g_ev_size - n; i < g_ev_size; ++i)
      dump.events.push_back(g_events[(g_ev_head + i) % g_events.size()]);
  }
  counter_add(Counter::kPostmortemDumps, 1);
  std::lock_guard<std::mutex> lk(g_pm_m);
  g_pm_latest = std::move(dump);
}

int64_t postmortem_count() { return counter_value(Counter::kPostmortemDumps); }

PostmortemDump postmortem_latest() {
  std::lock_guard<std::mutex> lk(g_pm_m);
  return g_pm_latest;
}

void postmortem_clear() {
  std::lock_guard<std::mutex> lk(g_pm_m);
  g_pm_latest = PostmortemDump{};
}

}  // namespace mn::obs

#endif  // !MN_OBS_DISABLED
