#include "serve/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/eventlog.hpp"
#include "obs/obs.hpp"
#include "parallel/pool.hpp"
#include "reliability/fault_injector.hpp"
#include "tensor/rng.hpp"

namespace mn::serve {

namespace {

constexpr int64_t kLatencyWindow = 128;  // per-tenant p99 ring size

bool is_shed(Outcome o) {
  return o == Outcome::kRejectedQueueFull || o == Outcome::kRejectedBreaker ||
         o == Outcome::kDroppedOldest || o == Outcome::kExpiredInQueue;
}

double percentile(const std::vector<int64_t>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  // Nearest-rank on the sorted samples; exact and deterministic.
  const auto n = static_cast<int64_t>(sorted.size());
  int64_t rank = static_cast<int64_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<int64_t>(rank, 1, n);
  return static_cast<double>(sorted[static_cast<size_t>(rank - 1)]);
}

}  // namespace

const char* outcome_name(Outcome o) {
  // Exhaustiveness guard: bump the expected count (and add a case below)
  // whenever an Outcome enumerator is added — a new disposition silently
  // returning "unknown" would corrupt bench metrics and logs. The switch has
  // no default, so -Wswitch also flags a missing case at compile time.
  static_assert(static_cast<int>(Outcome::kOutcomeCount) == 8,
                "Outcome changed: update outcome_name() and this assert");
  switch (o) {
    case Outcome::kServed: return "served";
    case Outcome::kServedDegraded: return "served_degraded";
    case Outcome::kServedLate: return "served_late";
    case Outcome::kRejectedQueueFull: return "rejected_queue_full";
    case Outcome::kRejectedBreaker: return "rejected_breaker";
    case Outcome::kDroppedOldest: return "dropped_oldest";
    case Outcome::kExpiredInQueue: return "expired_in_queue";
    case Outcome::kFailed: return "failed";
    case Outcome::kOutcomeCount: break;  // sentinel, never a disposition
  }
  return "unknown";
}

LatencyDigest digest(const std::vector<int64_t>& samples) {
  LatencyDigest d;
  d.count = static_cast<int64_t>(samples.size());
  if (samples.empty()) return d;
  std::vector<int64_t> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  d.p50 = percentile(sorted, 0.50);
  d.p95 = percentile(sorted, 0.95);
  d.p99 = percentile(sorted, 0.99);
  d.p999 = percentile(sorted, 0.999);
  d.max = sorted.back();
  return d;
}

ServingEngine::Tenant::Tenant(TenantConfig c)
    : cfg(std::move(c)),
      queue(cfg.queue_capacity, cfg.shed_policy),
      breaker(cfg.breaker_threshold, cfg.breaker_cooldown_ticks),
      watchdog(reliability::WatchdogConfig{
          /*stuck_window=*/8, /*stuck_epsilon=*/1e-6f,
          /*timeout_ticks=*/cfg.watchdog_timeout_ticks}) {}

ServingEngine::ServingEngine(EngineConfig cfg)
    : cfg_(cfg), chaos_(cfg.chaos) {}

int ServingEngine::register_tenant(TenantConfig cfg, VariantSpec primary,
                                   std::optional<VariantSpec> fallback,
                                   std::vector<TensorF> inputs) {
  if (inputs.empty())
    throw std::invalid_argument("ServingEngine: tenant needs >= 1 input");
  Tenant t(std::move(cfg));
  t.primary = pool_.add_variant(std::move(primary));
  if (fallback) t.fallback = pool_.add_variant(std::move(*fallback));
  variant_dispatches_.resize(static_cast<size_t>(pool_.num_variants()), 0);
  t.inputs = std::move(inputs);
  const int id = static_cast<int>(tenants_.size());
  tenants_.push_back(std::move(t));
  return id;
}

int64_t ServingEngine::variant_dispatches(int variant) const {
  return variant_dispatches_.at(static_cast<size_t>(variant));
}

const obs::TickHistogram& ServingEngine::tenant_histogram(int tenant) const {
  return tenants_.at(static_cast<size_t>(tenant)).hist;
}

obs::TickHistogram ServingEngine::latency_histogram() const {
  obs::TickHistogram merged;
  for (const Tenant& t : tenants_) merged.merge(t.hist);
  return merged;
}

rt::Expected<int64_t> ServingEngine::submit(int tenant, Tick deadline_budget) {
  Tenant& t = tenants_.at(static_cast<size_t>(tenant));
  ++t.stats.submitted;
  ++stats_.submitted;
  if (!t.breaker.allow(now_)) {
    ++t.stats.rejected_breaker;
    ++stats_.rejected_breaker;
    obs::counter_add(obs::Counter::kServeShed, 1);
    obs::event_emit({obs::EventKind::kReject, tenant, /*seq=*/-1, now_,
                     static_cast<int64_t>(Outcome::kRejectedBreaker),
                     t.queue.size()});
    fingerprint_ = hash_combine(
        fingerprint_,
        hash_combine(static_cast<uint64_t>(tenant) << 32 |
                         static_cast<uint64_t>(Outcome::kRejectedBreaker),
                     static_cast<uint64_t>(now_)));
    return rt::RtError{rt::ErrorCode::kCircuitOpen,
                       "serve: tenant circuit breaker is open"};
  }
  Request r;
  r.tenant = tenant;
  r.seq = t.next_seq++;
  r.input_index = r.seq % static_cast<int64_t>(t.inputs.size());
  r.arrival = now_;
  const Tick budget =
      deadline_budget > 0 ? deadline_budget : t.cfg.deadline_ticks;
  r.deadline = now_ + budget;
  r.not_before = now_;
  const int64_t seq = r.seq;
  TenantQueue::AdmitResult res = t.queue.push(std::move(r));
  if (!res.admitted) {
    ++t.stats.rejected_queue_full;
    ++stats_.rejected_queue_full;
    obs::counter_add(obs::Counter::kServeShed, 1);
    obs::event_emit({obs::EventKind::kReject, tenant, seq, now_,
                     static_cast<int64_t>(Outcome::kRejectedQueueFull),
                     t.queue.size()});
    fingerprint_ = hash_combine(
        fingerprint_,
        hash_combine(static_cast<uint64_t>(tenant) << 32 |
                         static_cast<uint64_t>(Outcome::kRejectedQueueFull),
                     static_cast<uint64_t>(seq)));
    return rt::RtError{rt::ErrorCode::kOverloaded,
                       "serve: tenant queue full (kRejectNewest)"};
  }
  if (res.evicted) finish(*res.evicted, Outcome::kDroppedOldest, now_);
  ++t.stats.admitted;
  ++stats_.admitted;
  obs::counter_add(obs::Counter::kServeAdmitted, 1);
  obs::gauge_set_max(obs::Gauge::kServeQueueDepthPeak, t.queue.size());
  obs::event_emit({obs::EventKind::kAdmit, tenant, seq, now_, t.queue.size(),
                   now_ + budget});
  return seq;
}

void ServingEngine::step() {
  process_completions();
  run_watchdogs();
  run_soft_errors();
  run_canary();
  evaluate_degradation();
  dispatch();
  obs::gauge_set_max(obs::Gauge::kServeInflightPeak,
                     static_cast<int64_t>(inflight_.size()));
  if (obs::tracing_enabled()) {
    obs::trace_counter("serve_queue_depth",
                       static_cast<double>(total_queue_depth()),
                       obs::Cat::kRuntime);
    obs::trace_counter("serve_inflight", static_cast<double>(inflight_.size()),
                       obs::Cat::kRuntime);
    // Per-tenant SLO tracks (counter names must be static literals, so the
    // first kMaxTenantTracks tenants get their own Perfetto track).
    static constexpr int kMaxTenantTracks = 8;
    static constexpr const char* kP50Track[kMaxTenantTracks] = {
        "serve_t0_p50_ticks", "serve_t1_p50_ticks", "serve_t2_p50_ticks",
        "serve_t3_p50_ticks", "serve_t4_p50_ticks", "serve_t5_p50_ticks",
        "serve_t6_p50_ticks", "serve_t7_p50_ticks"};
    static constexpr const char* kP99Track[kMaxTenantTracks] = {
        "serve_t0_p99_ticks", "serve_t1_p99_ticks", "serve_t2_p99_ticks",
        "serve_t3_p99_ticks", "serve_t4_p99_ticks", "serve_t5_p99_ticks",
        "serve_t6_p99_ticks", "serve_t7_p99_ticks"};
    for (size_t i = 0; i < tenants_.size() &&
                       i < static_cast<size_t>(kMaxTenantTracks);
         ++i) {
      const obs::TickHistogram& h = tenants_[i].hist;
      if (h.count() == 0) continue;
      obs::trace_counter(kP50Track[i], static_cast<double>(h.percentile(0.50)),
                         obs::Cat::kRuntime);
      obs::trace_counter(kP99Track[i], static_cast<double>(h.percentile(0.99)),
                         obs::Cat::kRuntime);
    }
  }
  ++now_;
}

int64_t ServingEngine::drain(Tick max_ticks) {
  int64_t stepped = 0;
  while (!idle() && stepped < max_ticks) {
    step();
    ++stepped;
  }
  return stepped;
}

bool ServingEngine::idle() const {
  if (!inflight_.empty()) return false;
  for (const Tenant& t : tenants_)
    if (!t.queue.empty() || !t.retry_queue.empty()) return false;
  return true;
}

int64_t ServingEngine::queue_depth(int tenant) const {
  const Tenant& t = tenants_.at(static_cast<size_t>(tenant));
  return t.queue.size() + static_cast<int64_t>(t.retry_queue.size());
}

int64_t ServingEngine::total_queue_depth() const {
  int64_t n = 0;
  for (size_t i = 0; i < tenants_.size(); ++i)
    n += queue_depth(static_cast<int>(i));
  return n;
}

bool ServingEngine::degraded(int tenant) const {
  return tenants_.at(static_cast<size_t>(tenant)).degraded;
}

CircuitBreaker::State ServingEngine::breaker_state(int tenant) const {
  return tenants_.at(static_cast<size_t>(tenant)).breaker.state();
}

const ServeStats& ServingEngine::tenant_stats(int tenant) const {
  return tenants_.at(static_cast<size_t>(tenant)).stats;
}

reliability::StreamWatchdog& ServingEngine::tenant_watchdog(int tenant) {
  return tenants_.at(static_cast<size_t>(tenant)).watchdog;
}

LatencyDigest ServingEngine::wall_latency_us() const {
  std::vector<int64_t> us;
  us.reserve(wall_ns_.size());
  for (int64_t ns : wall_ns_) us.push_back(ns / 1000);
  return digest(us);
}

Tick ServingEngine::min_service_ticks(const Tenant& t) const {
  Tick m = pool_.service_ticks(t.primary);
  if (t.fallback >= 0) m = std::min(m, pool_.service_ticks(t.fallback));
  return m;
}

Tick ServingEngine::tenant_window_p99(const Tenant& t) const {
  if (t.lat_window.empty()) return 0;
  std::vector<int64_t> sorted(t.lat_window.begin(), t.lat_window.end());
  std::sort(sorted.begin(), sorted.end());
  return static_cast<Tick>(percentile(sorted, 0.99));
}

// --- completion path --------------------------------------------------------

void ServingEngine::process_completions() {
  if (inflight_.empty()) return;
  // Indices of records due at this tick, in deterministic order: completion
  // tick, then tenant, then sequence — never insertion or thread order.
  std::vector<size_t> due;
  for (size_t i = 0; i < inflight_.size(); ++i)
    if (inflight_[i].completes <= now_) due.push_back(i);
  if (due.empty()) return;
  std::sort(due.begin(), due.end(), [&](size_t a, size_t b) {
    const Inflight& x = inflight_[a];
    const Inflight& y = inflight_[b];
    if (x.completes != y.completes) return x.completes < y.completes;
    if (x.req.tenant != y.req.tenant) return x.req.tenant < y.req.tenant;
    return x.req.seq < y.req.seq;
  });
  std::vector<Inflight> done;
  done.reserve(due.size());
  for (size_t idx : due) done.push_back(std::move(inflight_[idx]));
  std::vector<Inflight> rest;
  rest.reserve(inflight_.size() - due.size());
  for (size_t i = 0; i < inflight_.size(); ++i)
    if (inflight_[i].completes > now_) rest.push_back(std::move(inflight_[i]));
  inflight_ = std::move(rest);
  for (Inflight& rec : done) complete(std::move(rec));
}

void ServingEngine::record_breaker_trips(Tenant& t, int64_t before) {
  const int64_t delta = t.breaker.trips() - before;
  t.stats.breaker_trips += delta;
  stats_.breaker_trips += delta;
  if (delta > 0) {
    // Breaker open: a flight-recorder incident. Capture the trailing events
    // so the postmortem shows what the tenant was doing when it tripped.
    const auto id = static_cast<int32_t>(&t - tenants_.data());
    obs::event_emit({obs::EventKind::kBreakerTrip, id, /*seq=*/-1, now_,
                     t.breaker.trips(), delta});
    obs::event_postmortem("breaker_open", now_);
  }
}

void ServingEngine::complete(Inflight rec) {
  Tenant& t = tenants_[static_cast<size_t>(rec.req.tenant)];
  --t.inflight;
  switch (rec.result) {
    case rt::ErrorCode::kOk: {
      t.breaker.on_success();
      t.watchdog.record_progress();
      t.stall_latched = false;
      // Deadline first; then classify by the variant the request ran on.
      const Outcome o = rec.completes > rec.req.deadline ? Outcome::kServedLate
                        : rec.variant == t.fallback ? Outcome::kServedDegraded
                                                    : Outcome::kServed;
      const Tick lat = rec.completes - rec.req.arrival;
      virtual_lat_.push_back(lat);
      wall_ns_.push_back(rec.wall_ns);
      t.hist.record(lat);
      if (static_cast<int64_t>(t.lat_window.size()) < kLatencyWindow) {
        t.lat_window.push_back(lat);
      } else {
        t.lat_window[static_cast<size_t>(t.lat_seen % kLatencyWindow)] = lat;
      }
      ++t.lat_seen;
      finish(rec.req, o, rec.completes);
      break;
    }
    case rt::ErrorCode::kCrcMismatch:
    case rt::ErrorCode::kArenaOverrun: {
      // Instance fault: the replica's memory is poisoned. Quarantine it and
      // retry the request elsewhere — the fault is the machine's, not the
      // request's, so it does not count against the tenant's breaker.
      ++t.stats.instance_faults;
      ++stats_.instance_faults;
      pool_.quarantine(rec.instance, now_ + cfg_.quarantine_cooldown_ticks);
      ++t.stats.quarantines;
      ++stats_.quarantines;
      obs::counter_add(obs::Counter::kServeQuarantines, 1);
      obs::event_emit({obs::EventKind::kQuarantine, rec.req.tenant,
                       rec.req.seq, now_, rec.instance,
                       now_ + cfg_.quarantine_cooldown_ticks});
      Request retry = rec.req;
      ++retry.attempt;
      const Tick backoff = t.cfg.retry_backoff_ticks
                           << std::min(retry.attempt - 1, 16);
      retry.not_before = now_ + std::max<Tick>(backoff, 1);
      const bool feasible =
          retry.not_before + min_service_ticks(t) <= retry.deadline;
      if (retry.attempt <= t.cfg.max_retries && feasible) {
        obs::event_emit({obs::EventKind::kRetry, retry.tenant, retry.seq,
                         now_, retry.attempt, retry.not_before});
        t.retry_queue.push_back(std::move(retry));
        ++t.stats.retries;
        ++stats_.retries;
        obs::counter_add(obs::Counter::kServeRetries, 1);
      } else if (!feasible) {
        finish(rec.req, Outcome::kExpiredInQueue, now_);
      } else {
        finish(rec.req, Outcome::kFailed, now_);
      }
      break;
    }
    default: {
      // Request fault (non-finite input/output, shape mismatch): the
      // request itself is bad — fail it and let the breaker count it.
      const int64_t before = t.breaker.trips();
      t.breaker.on_failure(now_);
      record_breaker_trips(t, before);
      finish(rec.req, Outcome::kFailed, now_);
      break;
    }
  }
}

void ServingEngine::finish(const Request& req, Outcome o, Tick completion) {
  Tenant& t = tenants_[static_cast<size_t>(req.tenant)];
  switch (o) {
    case Outcome::kServed: ++t.stats.served; ++stats_.served; break;
    case Outcome::kServedDegraded:
      ++t.stats.served_degraded;
      ++stats_.served_degraded;
      obs::counter_add(obs::Counter::kServeDegraded, 1);
      break;
    case Outcome::kServedLate: ++t.stats.served_late; ++stats_.served_late; break;
    case Outcome::kDroppedOldest:
      ++t.stats.dropped_oldest;
      ++stats_.dropped_oldest;
      break;
    case Outcome::kExpiredInQueue:
      ++t.stats.expired_in_queue;
      ++stats_.expired_in_queue;
      break;
    case Outcome::kFailed: ++t.stats.failed; ++stats_.failed; break;
    case Outcome::kRejectedQueueFull:
    case Outcome::kRejectedBreaker:
    case Outcome::kOutcomeCount:
      break;  // recorded at submit (or sentinel); never reach finish()
  }
  if (is_shed(o)) obs::counter_add(obs::Counter::kServeShed, 1);
  // The one terminal emission point: every admitted request flows through
  // finish() exactly once, so the event accounting invariant (one kComplete
  // per kAdmit) holds by construction — mn_regress gates it as exact-zero.
  obs::event_emit({obs::EventKind::kComplete, req.tenant, req.seq, completion,
                   static_cast<int64_t>(o), completion - req.arrival});
  fingerprint_ = hash_combine(
      fingerprint_,
      hash_combine(static_cast<uint64_t>(req.tenant) << 32 |
                       static_cast<uint64_t>(o),
                   hash_combine(static_cast<uint64_t>(req.seq),
                                static_cast<uint64_t>(completion))));
}

// --- background phases ------------------------------------------------------

void ServingEngine::run_watchdogs() {
  for (Tenant& t : tenants_) {
    t.watchdog.advance(1);
    // Liveness only means anything while the tenant has outstanding work; an
    // idle stream is quiet, not stalled.
    const bool has_work =
        !t.queue.empty() || !t.retry_queue.empty() || t.inflight > 0;
    if (t.watchdog.stalled() && has_work) {
      if (!t.stall_latched) {
        t.stall_latched = true;
        ++t.stats.watchdog_stalls;
        ++stats_.watchdog_stalls;
        const auto id = static_cast<int32_t>(&t - tenants_.data());
        obs::event_emit({obs::EventKind::kWatchdogStall, id, /*seq=*/-1, now_,
                         t.queue.size(),
                         static_cast<int64_t>(t.retry_queue.size())});
        const int64_t before = t.breaker.trips();
        t.breaker.force_open(now_);
        record_breaker_trips(t, before);
        // Capture last (after the forced breaker trip) so the stall
        // postmortem includes the whole incident, trip included.
        obs::event_postmortem("watchdog_stall", now_);
      }
    } else if (!t.watchdog.stalled()) {
      t.stall_latched = false;
    }
  }
}

void ServingEngine::run_soft_errors() {
  if (!chaos_.soft_error_at(now_)) return;
  const int n = pool_.num_instances();
  if (n == 0) return;
  // Deterministic idle victim: start from a hashed index, take the first
  // replica not currently executing (corrupting a busy replica would race
  // with its kernel threads).
  const int start = static_cast<int>(
      hash_combine(chaos_.config().seed, static_cast<uint64_t>(now_)) %
      static_cast<uint64_t>(n));
  for (int k = 0; k < n; ++k) {
    const int idx = (start + k) % n;
    if (pool_.instance(idx).busy_until > now_) continue;
    std::span<uint8_t> arena = pool_.interp(idx).mutable_arena();
    if (arena.empty()) continue;
    arena[0] ^= 0x3C;  // leading guard-band byte: silent SRAM corruption
    break;
  }
}

void ServingEngine::run_canary() {
  if (cfg_.canary_period_ticks <= 0 || pool_.num_instances() == 0) return;
  if (now_ % cfg_.canary_period_ticks != 0) return;
  const int idx = static_cast<int>((now_ / cfg_.canary_period_ticks) %
                                   pool_.num_instances());
  if (pool_.instance(idx).busy_until > now_) return;  // only idle replicas
  if (pool_.health_check(idx)) {
    pool_.quarantine(idx, now_ + cfg_.quarantine_cooldown_ticks);
    ++stats_.canary_detections;
    ++stats_.quarantines;
    obs::counter_add(obs::Counter::kServeQuarantines, 1);
    obs::event_emit({obs::EventKind::kCanaryDetect, /*tenant=*/-1, /*seq=*/-1,
                     now_, idx, now_ + cfg_.quarantine_cooldown_ticks});
    fingerprint_ = hash_combine(
        fingerprint_, hash_combine(0xCA11A57ULL | static_cast<uint64_t>(idx)
                                                      << 32,
                                   static_cast<uint64_t>(now_)));
  }
}

void ServingEngine::evaluate_degradation() {
  for (Tenant& t : tenants_) {
    if (t.fallback < 0) continue;
    const bool depth_hot = t.cfg.degrade_queue_depth > 0 &&
                           t.queue.size() > t.cfg.degrade_queue_depth;
    const bool p99_hot = t.cfg.degrade_p99_ticks > 0 &&
                         t.lat_seen >= kLatencyWindow / 8 &&
                         tenant_window_p99(t) > t.cfg.degrade_p99_ticks;
    if (depth_hot || p99_hot) {
      t.degrade_ok_run = 0;
      if (!t.degraded) {
        t.degraded = true;
        ++t.stats.degrade_enters;
        ++stats_.degrade_enters;
        obs::event_emit({obs::EventKind::kDegradeEnter,
                         static_cast<int32_t>(&t - tenants_.data()),
                         /*seq=*/-1, now_, t.queue.size(),
                         tenant_window_p99(t)});
      }
    } else if (t.degraded) {
      // Hysteresis: require degrade_hold_ticks of calm before recovering.
      if (++t.degrade_ok_run >= t.cfg.degrade_hold_ticks) {
        t.degraded = false;
        t.degrade_ok_run = 0;
        ++t.stats.degrade_exits;
        ++stats_.degrade_exits;
        obs::event_emit({obs::EventKind::kDegradeExit,
                         static_cast<int32_t>(&t - tenants_.data()),
                         /*seq=*/-1, now_, t.queue.size(),
                         tenant_window_p99(t)});
      }
    }
  }
}

// --- dispatch ---------------------------------------------------------------

void ServingEngine::dispatch() {
  if (tenants_.empty()) return;
  std::vector<size_t> fresh;
  bool any = true;
  // Round-robin fairness: one dispatch per tenant per sweep, sweeping until
  // no tenant can make progress (out of work or out of free instances).
  while (any) {
    any = false;
    for (size_t k = 0; k < tenants_.size(); ++k) {
      const int ti = static_cast<int>((static_cast<size_t>(rr_) + k) %
                                      tenants_.size());
      if (dispatch_one(ti, &fresh)) any = true;
    }
  }
  rr_ = static_cast<int>((static_cast<size_t>(rr_) + 1) % tenants_.size());
  if (!fresh.empty()) execute_batch(fresh);
}

bool ServingEngine::dispatch_one(int tenant_index, std::vector<size_t>* fresh) {
  Tenant& t = tenants_[static_cast<size_t>(tenant_index)];
  // Shed work whose deadline already passed — it consumes no capacity.
  while (!t.queue.empty() && now_ >= t.queue.front().deadline)
    finish(t.queue.pop(), Outcome::kExpiredInQueue, now_);
  for (auto it = t.retry_queue.begin(); it != t.retry_queue.end();) {
    if (now_ >= it->deadline) {
      finish(*it, Outcome::kExpiredInQueue, now_);
      it = t.retry_queue.erase(it);
    } else {
      ++it;
    }
  }
  // Candidate: the first backoff-expired retry wins over fresh queue work
  // (it has already consumed an execution and is closest to its deadline).
  auto retry_it = t.retry_queue.end();
  for (auto it = t.retry_queue.begin(); it != t.retry_queue.end(); ++it)
    if (it->not_before <= now_) { retry_it = it; break; }
  const bool from_retry = retry_it != t.retry_queue.end();
  if (!from_retry && t.queue.empty()) return false;
  const Request& cand = from_retry ? *retry_it : t.queue.front();

  // Variant choice: degraded tenants route to the fallback; budget
  // propagation routes there anyway when only the cheaper variant still
  // fits the remaining deadline budget.
  int variant = (t.degraded && t.fallback >= 0) ? t.fallback : t.primary;
  const Tick remaining = cand.deadline - now_;
  if (pool_.service_ticks(variant) > remaining && t.fallback >= 0 &&
      pool_.service_ticks(t.fallback) <= remaining)
    variant = t.fallback;
  if (pool_.service_ticks(variant) > remaining) {
    // No variant can meet the deadline — shed now rather than serve late.
    Request r = from_retry ? *retry_it : t.queue.front();
    if (from_retry) t.retry_queue.erase(retry_it);
    else t.queue.pop();
    finish(r, Outcome::kExpiredInQueue, now_);
    return true;
  }
  const int idx = pool_.acquire(variant, now_);
  if (idx < 0) return false;  // pool saturated; request stays queued

  Inflight rec;
  rec.req = from_retry ? *retry_it : t.queue.front();
  if (from_retry) t.retry_queue.erase(retry_it);
  else t.queue.pop();
  rec.instance = idx;
  rec.variant = variant;
  rec.dispatched = now_;
  rec.fault = chaos_.fault_for(tenant_index, rec.req.seq, rec.req.attempt);
  Tick service = pool_.service_ticks(variant);
  if (rec.fault == FaultKind::kStall) service += chaos_.config().stall_ticks;
  rec.completes = now_ + service;
  pool_.instance(idx).busy_until = rec.completes;
  ++variant_dispatches_[static_cast<size_t>(variant)];
  ++t.inflight;
  obs::event_emit({obs::EventKind::kDispatch, rec.req.tenant, rec.req.seq,
                   now_, variant, rec.req.attempt});
  inflight_.push_back(std::move(rec));
  fresh->push_back(inflight_.size() - 1);
  return true;
}

// --- execution --------------------------------------------------------------

void ServingEngine::execute_batch(const std::vector<size_t>& fresh) {
  // Real inference for every dispatch, fanned out across the worker pool.
  // Each record owns a distinct instance, so the only shared state threads
  // touch is their own Inflight slot. The kernels are serial, so this is the
  // only parallel region a dispatch opens.
  parallel::parallel_for(
      0, static_cast<int64_t>(fresh.size()),
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
          execute_one(inflight_[fresh[static_cast<size_t>(i)]]);
      });
}

void ServingEngine::execute_one(Inflight& rec) {
  Tenant& t = tenants_[static_cast<size_t>(rec.req.tenant)];
  rt::Interpreter& interp = pool_.interp(rec.instance);
  obs::SpanScope span("serve_invoke", obs::Cat::kRuntime, "tenant",
                      rec.req.tenant, "seq", rec.req.seq);
  const TensorF& base =
      t.inputs[static_cast<size_t>(rec.req.input_index) % t.inputs.size()];

  // Inject this execution's scheduled fault before invoking. Bit flips are
  // persistent (flash aging): the CRC check catches them, the engine
  // quarantines the replica, and the rebuild restores the pristine image.
  switch (rec.fault) {
    case FaultKind::kWeightsBitFlip: {
      reliability::FaultInjector fi(
          chaos_.fault_seed(rec.req.tenant, rec.req.seq, rec.req.attempt));
      fi.flip_exact_bits(interp.mutable_weights(),
                         chaos_.config().flip_bits);
      break;
    }
    case FaultKind::kArenaGuardFlip: {
      std::span<uint8_t> arena = interp.mutable_arena();
      if (!arena.empty()) arena[arena.size() - 1] ^= 0x5A;
      break;
    }
    case FaultKind::kNone:
    case FaultKind::kStall:
    case FaultKind::kNonFiniteInput:
      break;
  }

  const auto t0 = std::chrono::steady_clock::now();
  rt::Expected<TensorF> out = [&] {
    if (rec.fault == FaultKind::kNonFiniteInput) {
      TensorF poisoned = base;
      poisoned[rec.req.seq % poisoned.size()] =
          std::numeric_limits<float>::quiet_NaN();
      return interp.try_invoke(poisoned);
    }
    return interp.try_invoke(base);
  }();
  rec.wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  rec.result = out.ok() ? rt::ErrorCode::kOk : out.error().code;
}

}  // namespace mn::serve
