// serve:: — resilient multi-tenant fleet serving over pooled interpreters.
//
// The serving layer multiplexes many logical device streams (a simulated
// fleet) over a small pool of pre-planned rt::Interpreter instances. Its
// headline contract is robustness, not just throughput: bounded per-tenant
// queues with explicit shed policies, per-request deadlines with budget
// propagation, retry/backoff for transient instance faults, canary health
// checks with quarantine + re-plan, a per-tenant circuit breaker, and
// graceful degradation to a registered smaller/int4 model variant under
// pressure (DESIGN.md §12).
//
// Scheduling runs in *virtual time*: every scheduling decision (admission,
// shedding, deadlines, quarantine cadence) depends only on integer ticks and
// the request sequence, never on host wall-clock — so served/shed/retried
// counts are bit-identical at every thread count, the same guarantee the
// rest of the library makes. Real inference still executes for every served
// request; host wall-clock is *measured* per invoke for the latency
// percentiles but never feeds back into a decision.
#pragma once

#include <cstdint>
#include <string>

#include "compile/compile.hpp"
#include "kernels/backend.hpp"
#include "runtime/model.hpp"

namespace mn::serve {

// Virtual scheduler time. One tick is the engine's scheduling quantum; model
// variants declare their service cost in ticks (see VariantSpec).
using Tick = int64_t;

// What to do when a tenant's bounded queue is full at admission.
enum class ShedPolicy : uint8_t {
  kRejectNewest,  // refuse the arriving request (typed kOverloaded error)
  kDropOldest,    // evict the oldest queued request, admit the new one
};

// Terminal disposition of a request. Every *admitted* request ends in
// exactly one of the completed states; rejected requests never enter the
// queue (their disposition is returned to the caller as a typed error).
enum class Outcome : uint8_t {
  kServed = 0,         // completed on the primary variant within deadline
  kServedDegraded,     // completed on the fallback variant within deadline
  kServedLate,         // completed, but after its deadline (a violation)
  kRejectedQueueFull,  // never admitted: queue full under kRejectNewest
  kRejectedBreaker,    // never admitted: tenant circuit breaker open
  kDroppedOldest,      // admitted, later evicted under kDropOldest
  kExpiredInQueue,     // deadline passed before it could be (re)executed
  kFailed,             // typed request-level failure (e.g. non-finite input)
  // Sentinel, not a disposition. Keep last; outcome_name() static_asserts
  // against it so adding an enumerator without a name fails to compile.
  kOutcomeCount,
};
const char* outcome_name(Outcome o);

// One model variant a tenant serves on. `service_ticks` is the virtual-time
// cost of one invoke on this variant (deterministic; derive it from
// model.total_macs() or calibrate it — the engine never infers it from
// wall-clock). `instances` replicas are pre-planned into the pool.
struct VariantSpec {
  rt::ModelDef model;
  Tick service_ticks = 1;
  int instances = 1;
  // Kernel backend the variant's replicas execute on (default: fast).
  // Weight panels are packed once per variant and shared by every replica,
  // including quarantine rebuilds — outputs are bit-identical either
  // way, so fingerprints and golden vectors do not depend on this choice.
  kernels::BackendConfig backend{};
  // Ignored. It exists only so the zoo benchmark's pins (zoobench/pins.cpp)
  // keep building, and goes away when the benchmark is next revised.
  compile::CompileConfig compile;
};

struct TenantConfig {
  std::string name;
  int64_t queue_capacity = 64;
  ShedPolicy shed_policy = ShedPolicy::kRejectNewest;
  Tick deadline_ticks = 64;        // default per-request budget
  int max_retries = 2;             // re-executions after transient faults
  Tick retry_backoff_ticks = 1;    // delay doubles with each attempt
  int breaker_threshold = 8;       // consecutive request failures to trip
  Tick breaker_cooldown_ticks = 32;
  // Graceful degradation triggers (either; <= 0 disables that trigger).
  // When tripped, new dispatches route to the fallback variant until the
  // pressure stays below the trigger for degrade_hold_ticks.
  int64_t degrade_queue_depth = -1;
  Tick degrade_p99_ticks = -1;
  Tick degrade_hold_ticks = 16;
  // Liveness: ticks without a served request before the tenant's watchdog
  // declares the stream stalled and force-opens the breaker (0 = off).
  Tick watchdog_timeout_ticks = 0;
};

// Aggregate counters. Per-tenant and engine-wide views share this shape.
struct ServeStats {
  int64_t submitted = 0;           // submit() calls
  int64_t admitted = 0;            // entered a queue
  int64_t rejected_queue_full = 0;
  int64_t rejected_breaker = 0;
  int64_t dropped_oldest = 0;
  int64_t expired_in_queue = 0;
  int64_t served = 0;              // on-time, primary variant
  int64_t served_degraded = 0;     // on-time, fallback variant
  int64_t served_late = 0;         // deadline violations
  int64_t failed = 0;              // request-level typed failures
  int64_t retries = 0;             // re-executions scheduled
  int64_t instance_faults = 0;     // invokes failed on a poisoned instance
  int64_t quarantines = 0;         // instances quarantined + re-planned
  int64_t canary_detections = 0;   // corruption caught by cadence checks
  int64_t degrade_enters = 0;
  int64_t degrade_exits = 0;
  int64_t breaker_trips = 0;
  int64_t watchdog_stalls = 0;
  // Always zero: no outcome increments them. They remain only because the
  // zoo benchmark (zoobench/main.cpp) still reads them, and go when that
  // benchmark is next revised.
  int64_t served_shadowed = 0;
  int64_t served_rollback = 0;

  int64_t total_served() const {
    return served + served_degraded + served_late;
  }
  // Admitted-or-refused requests that were never served.
  int64_t total_shed() const {
    return rejected_queue_full + rejected_breaker + dropped_oldest +
           expired_in_queue;
  }
  // Every admitted request must end in exactly one completed state.
  int64_t completed() const {
    return total_served() + failed + dropped_oldest + expired_in_queue;
  }
};

}  // namespace mn::serve
