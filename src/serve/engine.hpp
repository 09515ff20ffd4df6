// ServingEngine: the resilient multi-tenant request scheduler (DESIGN.md §12).
//
// Failure-handling state machine per request:
//
//   submit ──breaker open──▶ kRejectedBreaker
//         ──queue full────▶ kRejectedQueueFull (kRejectNewest)
//         ──queue full────▶ evict oldest → kDroppedOldest (kDropOldest)
//         ──admitted──▶ QUEUED
//   QUEUED ──deadline passed──▶ kExpiredInQueue
//          ──budget < any variant's cost──▶ kExpiredInQueue (shed early)
//          ──instance free──▶ EXECUTING  (fallback variant when degraded, or
//                                         when only its cost fits the budget)
//   EXECUTING ──ok──▶ kServed / kServedDegraded / kServedLate
//             ──instance fault (CRC, canary)──▶ quarantine + re-plan replica,
//                       retry with backoff ──retries left──▶ QUEUED
//                                          ──exhausted─────▶ kFailed
//             ──request fault (non-finite)──▶ kFailed, breaker counts it
//
// All transitions run in virtual ticks; see serve.hpp for the determinism
// contract. The engine advances one tick per step(): completions first, then
// watchdog liveness, background chaos, canary health checks, degradation
// triggers, and finally dispatch — new dispatches execute their real
// inference in parallel across the worker pool before the tick ends.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "obs/histogram.hpp"
#include "reliability/watchdog.hpp"
#include "runtime/rt_error.hpp"
#include "serve/admission.hpp"
#include "serve/chaos.hpp"
#include "serve/pool.hpp"
#include "serve/serve.hpp"
#include "tensor/tensor.hpp"

namespace mn::serve {

struct EngineConfig {
  // Health-check cadence: every `canary_period_ticks` one idle replica gets
  // a canary + weights-CRC scan (round-robin; 0 disables).
  Tick canary_period_ticks = 16;
  // How long a quarantined replica stays out of rotation after its re-plan.
  Tick quarantine_cooldown_ticks = 4;
  ChaosConfig chaos;
};

class ServingEngine {
 public:
  explicit ServingEngine(EngineConfig cfg = {});

  // Registers a tenant with its primary model variant, an optional fallback
  // (smaller/int4) variant for graceful degradation, and the pool of input
  // tensors its simulated streams cycle through. Each variant is added to the
  // pool with its own replicas. Returns the tenant id.
  int register_tenant(TenantConfig cfg, VariantSpec primary,
                      std::optional<VariantSpec> fallback,
                      std::vector<TensorF> inputs);

  // Dispatches per pool variant (indexed by variant id).
  int64_t variant_dispatches(int variant) const;

  int num_tenants() const { return static_cast<int>(tenants_.size()); }

  // Cumulative per-tenant SLO histogram over served virtual latencies
  // (deterministic log buckets, obs/histogram.hpp) and the merged fleet
  // view. Unlike the lat_window ring these never evict, so p50/p95/p99/p999
  // cover the whole run; like everything tick-derived they are bit-identical
  // at any MN_THREADS.
  const obs::TickHistogram& tenant_histogram(int tenant) const;
  obs::TickHistogram latency_histogram() const;

  // Submits one request for the tenant at the current tick. Deadline budget
  // defaults to the tenant's configured deadline_ticks. Returns the admitted
  // request's sequence number, or a typed rejection: kCircuitOpen (breaker),
  // kOverloaded (queue full under kRejectNewest).
  rt::Expected<int64_t> submit(int tenant, Tick deadline_budget = -1);

  // Advances virtual time by one tick (see class comment for phase order).
  void step();
  // Steps until no queued/retrying/in-flight work remains, at most
  // `max_ticks`. Returns the number of ticks stepped.
  int64_t drain(Tick max_ticks);

  Tick now() const { return now_; }
  bool idle() const;
  int64_t inflight() const { return static_cast<int64_t>(inflight_.size()); }
  int64_t queue_depth(int tenant) const;
  int64_t total_queue_depth() const;
  bool degraded(int tenant) const;
  CircuitBreaker::State breaker_state(int tenant) const;

  const ServeStats& stats() const { return stats_; }
  const ServeStats& tenant_stats(int tenant) const;
  InterpreterPool& pool() { return pool_; }
  const InterpreterPool& pool() const { return pool_; }
  // Per-tenant liveness watchdog (exposed so the timeout can be retuned at
  // runtime, e.g. tightened under load).
  reliability::StreamWatchdog& tenant_watchdog(int tenant);

  // Virtual-time latency of served requests (deterministic) and measured
  // host wall-clock per invoke (microseconds; informational).
  LatencyDigest virtual_latency() const { return digest(virtual_lat_); }
  LatencyDigest wall_latency_us() const;

  // Order-exact hash over every terminal outcome (tenant, seq, outcome,
  // completion tick) — the thread-invariance witness: identical schedules
  // must produce identical fingerprints at any thread count.
  uint64_t fingerprint() const { return fingerprint_; }

 private:
  struct Tenant {
    explicit Tenant(TenantConfig c);

    TenantConfig cfg;
    int primary = -1;
    int fallback = -1;  // -1 = no degradation target
    TenantQueue queue;
    std::deque<Request> retry_queue;  // backoff-gated re-executions
    CircuitBreaker breaker;
    reliability::StreamWatchdog watchdog;
    bool degraded = false;
    Tick degrade_ok_run = 0;   // consecutive ticks below the triggers
    bool stall_latched = false;
    std::vector<Tick> lat_window;  // ring of recent virtual latencies
    int64_t lat_seen = 0;
    obs::TickHistogram hist;       // cumulative served-latency histogram
    int64_t inflight = 0;
    int64_t next_seq = 0;
    std::vector<TensorF> inputs;
    ServeStats stats;
  };

  struct Inflight {
    Request req;
    int instance = -1;
    int variant = -1;
    Tick dispatched = 0;
    Tick completes = 0;
    FaultKind fault = FaultKind::kNone;
    // Written by the parallel executor:
    rt::ErrorCode result = rt::ErrorCode::kOk;
    int64_t wall_ns = 0;
  };

  void process_completions();
  void complete(Inflight rec);
  void finish(const Request& req, Outcome o, Tick completion);
  void record_breaker_trips(Tenant& t, int64_t before);
  void run_watchdogs();
  void run_soft_errors();
  void run_canary();
  void evaluate_degradation();
  void dispatch();
  bool dispatch_one(int tenant_index, std::vector<size_t>* fresh);
  void execute_batch(const std::vector<size_t>& fresh);
  void execute_one(Inflight& rec);
  Tick min_service_ticks(const Tenant& t) const;
  Tick tenant_window_p99(const Tenant& t) const;

  EngineConfig cfg_;
  ChaosSchedule chaos_;
  InterpreterPool pool_;
  std::vector<Tenant> tenants_;
  std::vector<Inflight> inflight_;
  Tick now_ = 0;
  int rr_ = 0;  // round-robin dispatch cursor
  ServeStats stats_;
  std::vector<int64_t> variant_dispatches_;  // indexed by pool variant id
  std::vector<int64_t> virtual_lat_;
  std::vector<int64_t> wall_ns_;
  uint64_t fingerprint_ = 0x9E3779B97F4A7C15ULL;
};

}  // namespace mn::serve
