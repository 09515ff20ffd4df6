// Serving-engine suite (ctest label "serve"): admission control and shed
// policies, deadlines with budget propagation, quarantine + recovery, the
// circuit breaker and watchdog liveness, graceful degradation, and the
// thread-invariance of the virtual-time scheduler (shed/served counts and
// the outcome fingerprint are bit-identical at any thread count).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "kernels/backend.hpp"
#include "models/backbones.hpp"
#include "obs/eventlog.hpp"
#include "obs/histogram.hpp"
#include "parallel/pool.hpp"
#include "runtime/converter.hpp"
#include "runtime/planner.hpp"
#include "serve/engine.hpp"
#include "tensor/rng.hpp"

using namespace mn;

namespace {

rt::ModelDef tiny_model(uint64_t seed = 1, int weight_bits = 8,
                        int64_t stem = 8) {
  models::DsCnnConfig cfg;
  cfg.input = Shape{12, 8, 1};
  cfg.num_classes = 4;
  cfg.stem_channels = stem;
  cfg.stem_kh = 3;
  cfg.stem_kw = 3;
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
  co.name = "serve_tiny";
  co.weight_bits = weight_bits;
  co.act_bits = weight_bits;
  return rt::convert(g, co, &ranges);
}

std::vector<TensorF> clean_inputs(int n, uint64_t seed = 9) {
  Rng rng(seed);
  std::vector<TensorF> v;
  for (int i = 0; i < n; ++i) {
    TensorF t(Shape{12, 8, 1});
    for (int64_t k = 0; k < t.size(); ++k)
      t[k] = static_cast<float>(rng.normal(0.0, 0.5));
    v.push_back(std::move(t));
  }
  return v;
}

std::vector<TensorF> nan_inputs(int n) {
  std::vector<TensorF> v = clean_inputs(n);
  for (TensorF& t : v) t[0] = std::numeric_limits<float>::quiet_NaN();
  return v;
}

serve::VariantSpec make_variant(serve::Tick service_ticks, int instances,
                                uint64_t seed = 1, int bits = 8) {
  serve::VariantSpec v;
  v.model = tiny_model(seed, bits);
  v.service_ticks = service_ticks;
  v.instances = instances;
  return v;
}

}  // namespace

// --- outcome taxonomy --------------------------------------------------------

TEST(ServeOutcome, EveryDispositionHasAUniqueName) {
  // outcome_name() static_asserts its switch against Outcome::kOutcomeCount,
  // so a new enumerator without a name fails to compile. This guards the
  // runtime half of that contract: every real disposition maps to a distinct
  // non-"unknown" string (bench metrics and logs key on these names), and
  // the sentinel itself is not a nameable disposition.
  std::set<std::string> names;
  for (int i = 0; i < static_cast<int>(serve::Outcome::kOutcomeCount); ++i) {
    const char* name = serve::outcome_name(static_cast<serve::Outcome>(i));
    EXPECT_STRNE(name, "unknown") << "enumerator " << i;
    EXPECT_TRUE(names.insert(name).second) << "duplicate name: " << name;
  }
  EXPECT_EQ(names.size(),
            static_cast<size_t>(serve::Outcome::kOutcomeCount));
  EXPECT_STREQ(serve::outcome_name(serve::Outcome::kOutcomeCount), "unknown");
}

// --- admission control -------------------------------------------------------

TEST(ServeAdmission, RejectNewestReturnsOverloaded) {
  serve::ServingEngine eng;
  serve::TenantConfig tc;
  tc.queue_capacity = 2;
  tc.shed_policy = serve::ShedPolicy::kRejectNewest;
  tc.deadline_ticks = 100;
  eng.register_tenant(tc, make_variant(4, 1), std::nullopt, clean_inputs(2));

  EXPECT_TRUE(eng.submit(0).ok());
  EXPECT_TRUE(eng.submit(0).ok());
  const auto rejected = eng.submit(0);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), rt::ErrorCode::kOverloaded);
  EXPECT_EQ(eng.stats().rejected_queue_full, 1);
  EXPECT_EQ(eng.stats().admitted, 2);
  EXPECT_EQ(eng.stats().total_shed(), 1);
}

TEST(ServeAdmission, DropOldestEvictsAndAccounts) {
  serve::ServingEngine eng;
  serve::TenantConfig tc;
  tc.queue_capacity = 2;
  tc.shed_policy = serve::ShedPolicy::kDropOldest;
  tc.deadline_ticks = 100;
  eng.register_tenant(tc, make_variant(4, 1), std::nullopt, clean_inputs(2));

  const auto a = eng.submit(0);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(eng.submit(0).ok());
  const auto c = eng.submit(0);  // evicts request a
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(eng.stats().dropped_oldest, 1);
  EXPECT_EQ(eng.stats().admitted, 3);

  ASSERT_GT(eng.drain(1000), 0);
  EXPECT_TRUE(eng.idle());
  // Every admitted request ended in exactly one completed state.
  EXPECT_EQ(eng.stats().admitted, eng.stats().completed());
  EXPECT_EQ(eng.stats().served, 2);
}

// --- deadlines ---------------------------------------------------------------

TEST(ServeDeadline, QueuedRequestPastBudgetIsShed) {
  serve::ServingEngine eng;
  serve::TenantConfig tc;
  tc.queue_capacity = 8;
  eng.register_tenant(tc, make_variant(4, 1), std::nullopt, clean_inputs(2));

  // Both requests want the single instance; budget 4 covers exactly one
  // service interval, so the second cannot possibly finish in time.
  EXPECT_TRUE(eng.submit(0, 4).ok());
  EXPECT_TRUE(eng.submit(0, 4).ok());
  eng.drain(100);
  EXPECT_EQ(eng.stats().served, 1);
  EXPECT_EQ(eng.stats().expired_in_queue, 1);
  EXPECT_EQ(eng.stats().served_late, 0);  // shed early, never served late
  EXPECT_EQ(eng.stats().admitted, eng.stats().completed());
}

TEST(ServeDeadline, UnderCapacityBaselineHasZeroViolationsAndZeroShed) {
  serve::ServingEngine eng;
  serve::TenantConfig tc;
  tc.queue_capacity = 16;
  tc.deadline_ticks = 24;
  eng.register_tenant(tc, make_variant(4, 2), std::nullopt, clean_inputs(4));

  for (int tick = 0; tick < 200; ++tick) {
    if (tick % 3 == 0) {  // 0.33 req/tick < 0.5 capacity
      ASSERT_TRUE(eng.submit(0).ok());
    }
    eng.step();
  }
  eng.drain(200);
  EXPECT_TRUE(eng.idle());
  EXPECT_EQ(eng.stats().total_shed(), 0);
  EXPECT_EQ(eng.stats().served_late, 0);
  EXPECT_EQ(eng.stats().served, eng.stats().admitted);
  EXPECT_TRUE(eng.pool().all_healthy());
}

TEST(ServeDeadline, BudgetPropagationRoutesToFallback) {
  serve::ServingEngine eng;
  serve::TenantConfig tc;
  tc.queue_capacity = 8;
  eng.register_tenant(tc, make_variant(8, 1, 1), make_variant(2, 1, 2, 4),
                      clean_inputs(2));

  // Budget 4 < primary's 8 service ticks but >= fallback's 2: the dispatcher
  // must route to the fallback even though the tenant is not degraded.
  ASSERT_TRUE(eng.submit(0, 4).ok());
  eng.drain(100);
  EXPECT_EQ(eng.stats().served_degraded, 1);
  EXPECT_EQ(eng.stats().served, 0);
  EXPECT_EQ(eng.stats().expired_in_queue, 0);
  EXPECT_FALSE(eng.degraded(0));
}

// --- quarantine & recovery ---------------------------------------------------

TEST(ServeQuarantine, PoisonedReplicaIsQuarantinedRetriedAndRecovers) {
  serve::EngineConfig cfg;
  cfg.quarantine_cooldown_ticks = 2;
  cfg.chaos.seed = 5;
  cfg.chaos.fault_rate = 0.25;  // heavy: weights flips, stalls, NaNs, guards
  serve::ServingEngine eng(cfg);
  serve::TenantConfig tc;
  tc.queue_capacity = 32;
  tc.deadline_ticks = 64;
  tc.max_retries = 3;
  eng.register_tenant(tc, make_variant(2, 2), std::nullopt, clean_inputs(4));

  for (int tick = 0; tick < 160; ++tick) {
    if (tick % 2 == 0) (void)eng.submit(0);
    eng.step();
  }
  eng.drain(1000);
  ASSERT_TRUE(eng.idle());
  const serve::ServeStats& s = eng.stats();
  EXPECT_GT(s.instance_faults, 0);
  EXPECT_GT(s.quarantines, 0);
  EXPECT_GT(s.retries, 0);
  EXPECT_EQ(s.admitted, s.completed());  // nothing lost under faults
  // Shutdown scrub: any replica poisoned after its last canary gets caught
  // and rebuilt, after which the whole pool matches its golden images.
  for (int i = 0; i < eng.pool().num_instances(); ++i)
    if (eng.pool().health_check(i)) eng.pool().quarantine(i, eng.now());
  EXPECT_TRUE(eng.pool().all_healthy());
  // Rebuilds happened through the shared pre-planned MemoryPlan.
  int64_t rebuilds = 0;
  for (int i = 0; i < eng.pool().num_instances(); ++i)
    rebuilds += eng.pool().instance(i).rebuilds;
  EXPECT_GE(rebuilds, s.quarantines);
}

TEST(ServeQuarantine, CanaryCadenceCatchesSilentArenaCorruption) {
  serve::EngineConfig cfg;
  cfg.canary_period_ticks = 4;
  cfg.chaos.arena_soft_error_period = 6;  // background-only corruption
  serve::ServingEngine eng(cfg);
  serve::TenantConfig tc;
  eng.register_tenant(tc, make_variant(2, 2), std::nullopt, clean_inputs(2));

  // No traffic at all: only the soft-error schedule and the canary cadence
  // are running. Detections must come from the cadence, not from requests.
  for (int tick = 0; tick < 64; ++tick) eng.step();
  EXPECT_GT(eng.stats().canary_detections, 0);
  EXPECT_EQ(eng.stats().instance_faults, 0);
}

// --- circuit breaker & watchdog ----------------------------------------------

TEST(ServeBreaker, TripsOnRequestFailuresThenHalfOpenProbe) {
  serve::ServingEngine eng;
  serve::TenantConfig tc;
  tc.queue_capacity = 16;
  tc.deadline_ticks = 50;
  tc.breaker_threshold = 2;
  tc.breaker_cooldown_ticks = 6;
  // Every input is NaN: every served attempt is a request-level failure.
  eng.register_tenant(tc, make_variant(1, 1), std::nullopt, nan_inputs(2));

  ASSERT_TRUE(eng.submit(0).ok());
  ASSERT_TRUE(eng.submit(0).ok());
  eng.drain(50);
  EXPECT_EQ(eng.stats().failed, 2);
  EXPECT_EQ(eng.breaker_state(0), serve::CircuitBreaker::State::kOpen);
  EXPECT_EQ(eng.stats().breaker_trips, 1);

  // While open, admissions are refused with a typed error.
  const auto refused = eng.submit(0);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), rt::ErrorCode::kCircuitOpen);
  EXPECT_EQ(eng.stats().rejected_breaker, 1);

  // After the cooldown, exactly one probe is admitted (half-open); its
  // failure re-trips the breaker.
  for (int i = 0; i < 8; ++i) eng.step();
  ASSERT_TRUE(eng.submit(0).ok());
  const auto second = eng.submit(0);  // probe outstanding -> still refused
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.code(), rt::ErrorCode::kCircuitOpen);
  eng.drain(50);
  EXPECT_EQ(eng.breaker_state(0), serve::CircuitBreaker::State::kOpen);
  EXPECT_EQ(eng.stats().breaker_trips, 2);
}

TEST(ServeWatchdog, StallForceOpensBreakerViaRuntimeTimeout) {
  serve::ServingEngine eng;
  serve::TenantConfig tc;
  tc.queue_capacity = 64;
  tc.deadline_ticks = 200;
  tc.breaker_threshold = 1000;   // only the watchdog can open it
  tc.watchdog_timeout_ticks = 0;  // off at registration...
  eng.register_tenant(tc, make_variant(2, 1), std::nullopt, nan_inputs(2));
  // ...armed at runtime through the exposed per-tenant watchdog.
  eng.tenant_watchdog(0).set_timeout_ticks(10);
  EXPECT_EQ(eng.tenant_watchdog(0).timeout_ticks(), 10);

  // Failing requests keep the tenant busy but never make progress; after
  // the timeout the watchdog declares the stream stalled.
  for (int tick = 0; tick < 40; ++tick) {
    (void)eng.submit(0);
    eng.step();
  }
  EXPECT_GE(eng.stats().watchdog_stalls, 1);
  EXPECT_GE(eng.stats().breaker_trips, 1);
  EXPECT_GT(eng.tenant_stats(0).rejected_breaker, 0);
}

// --- graceful degradation ----------------------------------------------------

TEST(ServeDegrade, EntersUnderPressureExitsAfterHold) {
  serve::ServingEngine eng;
  serve::TenantConfig tc;
  tc.queue_capacity = 64;
  tc.deadline_ticks = 100;
  tc.degrade_queue_depth = 4;
  tc.degrade_hold_ticks = 6;
  eng.register_tenant(tc, make_variant(4, 1, 1), make_variant(1, 2, 2, 4),
                      clean_inputs(4));

  // Burst far above capacity: the queue blows past the trigger.
  for (int i = 0; i < 12; ++i) ASSERT_TRUE(eng.submit(0).ok());
  for (int tick = 0; tick < 4; ++tick) eng.step();
  EXPECT_TRUE(eng.degraded(0));
  EXPECT_EQ(eng.stats().degrade_enters, 1);
  EXPECT_EQ(eng.stats().degrade_exits, 0);

  // Let it drain; after degrade_hold_ticks of calm the tenant recovers.
  eng.drain(400);
  for (int tick = 0; tick < 8; ++tick) eng.step();
  EXPECT_FALSE(eng.degraded(0));
  EXPECT_EQ(eng.stats().degrade_exits, 1);
  // Pressure was absorbed by the fallback variant.
  EXPECT_GT(eng.stats().served_degraded, 0);
  EXPECT_EQ(eng.stats().total_shed(), 0);
}

// --- pre-planned interpreter construction ------------------------------------

TEST(ServePool, SharedPlanConstructionMatchesPerInstancePlanning) {
  const rt::ModelDef m = tiny_model(3);
  const rt::MemoryPlan plan = rt::plan_memory(m);
  rt::Interpreter pre(m, plan);
  rt::Interpreter solo(m);
  EXPECT_EQ(pre.memory_plan().arena_bytes, solo.memory_plan().arena_bytes);
  const std::vector<TensorF> in = clean_inputs(1);
  const TensorF a = pre.invoke(in[0]);
  const TensorF b = solo.invoke(in[0]);
  for (int64_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(ServePool, MismatchedPlanIsRejected) {
  const rt::ModelDef m = tiny_model(3);
  const rt::ModelDef other = tiny_model(4, 8, 12);  // different widths
  const rt::MemoryPlan wrong = rt::plan_memory(other);
  EXPECT_THROW(rt::Interpreter(m, wrong), std::runtime_error);
}

TEST(ServePool, QuarantineRebuildsOntoItsOwnVariantBitIdentically) {
  // Every replica, the quarantine rebuild included, comes from
  // make_replica: it aliases the variant's packed panels, stays on its own
  // variant, and serves outputs bit-identical to the pre-poison replica and
  // to a reference-backend interpreter of the same model.
  serve::InterpreterPool pool;
  pool.add_variant(make_variant(2, 1, 9));
  const int v = pool.add_variant(make_variant(2, 2, 1));
  ASSERT_EQ(pool.num_instances(), 3);
  const int idx = 1;  // first replica of `v`
  ASSERT_EQ(pool.instance(idx).variant, v);
  const TensorF in = clean_inputs(1)[0];
  const auto* panels = pool.interp(idx).packed_model().get();
  ASSERT_NE(panels, nullptr);
  EXPECT_EQ(pool.interp(idx + 1).packed_model().get(), panels);
  const auto golden = pool.interp(idx).try_invoke(in);
  ASSERT_TRUE(golden.ok());
  const rt::ModelDef m = tiny_model(1);
  rt::Interpreter reference(m, rt::plan_memory(m),
                            kernels::BackendConfig::reference());
  const TensorF ref_out = reference.invoke(in);
  ASSERT_EQ(ref_out.size(), golden.value().size());

  // Poison the live weights: the per-invoke CRC and the health check see it.
  pool.interp(idx).mutable_weights()[0] ^= 0xFF;
  ASSERT_TRUE(pool.health_check(idx).has_value());
  const auto poisoned = pool.interp(idx).try_invoke(in);
  ASSERT_FALSE(poisoned.ok());
  EXPECT_EQ(poisoned.error().code, rt::ErrorCode::kCrcMismatch);

  pool.quarantine(idx, /*until=*/5);
  EXPECT_EQ(pool.instance(idx).variant, v);
  EXPECT_EQ(pool.instance(idx).rebuilds, 1);
  EXPECT_EQ(pool.instance(idx).busy_until, 5);
  EXPECT_FALSE(pool.health_check(idx).has_value());
  EXPECT_EQ(pool.interp(idx).packed_model().get(), panels);
  // acquire() respects the cooldown, then hands the rebuilt replica out.
  EXPECT_EQ(pool.acquire(v, /*now=*/0), idx + 1);
  EXPECT_EQ(pool.acquire(v, /*now=*/5), idx);

  const auto rebuilt = pool.interp(idx).try_invoke(in);
  ASSERT_TRUE(rebuilt.ok());
  auto fresh = pool.make_replica(v);
  EXPECT_EQ(fresh->packed_model().get(), panels);
  const auto fresh_out = fresh->try_invoke(in);
  ASSERT_TRUE(fresh_out.ok());
  for (int64_t i = 0; i < golden.value().size(); ++i) {
    EXPECT_EQ(rebuilt.value()[i], golden.value()[i]) << i;
    EXPECT_EQ(fresh_out.value()[i], golden.value()[i]) << i;
    EXPECT_EQ(ref_out[i], golden.value()[i]) << i;
  }
  EXPECT_TRUE(pool.all_healthy());
}

// --- thread invariance -------------------------------------------------------

namespace {

struct ChaosRunResult {
  uint64_t fingerprint = 0;
  serve::ServeStats stats;
  int64_t p99_ticks = 0;
  int64_t tick_samples = 0;     // latency_histogram().count()
  int64_t host_us_samples = 0;  // wall_latency_us().count()
};

ChaosRunResult chaos_result(const serve::ServingEngine& eng) {
  ChaosRunResult r;
  r.fingerprint = eng.fingerprint();
  r.stats = eng.stats();
  const obs::TickHistogram ticks = eng.latency_histogram();
  r.p99_ticks = ticks.percentile(0.99);
  r.tick_samples = ticks.count();
  r.host_us_samples = eng.wall_latency_us().count();
  return r;
}

ChaosRunResult chaos_run() {
  serve::EngineConfig cfg;
  cfg.canary_period_ticks = 8;
  cfg.chaos.seed = 77;
  cfg.chaos.fault_rate = 0.10;
  cfg.chaos.arena_soft_error_period = 9;
  serve::ServingEngine eng(cfg);
  serve::TenantConfig t0;
  t0.queue_capacity = 16;
  t0.shed_policy = serve::ShedPolicy::kDropOldest;
  t0.deadline_ticks = 24;
  t0.degrade_queue_depth = 5;
  eng.register_tenant(t0, make_variant(4, 2, 1), make_variant(2, 1, 2, 4),
                      clean_inputs(4));
  serve::TenantConfig t1;
  t1.queue_capacity = 8;
  t1.deadline_ticks = 16;
  eng.register_tenant(t1, make_variant(3, 1, 5), std::nullopt,
                      clean_inputs(4, 11));
  for (int tick = 0; tick < 240; ++tick) {
    (void)eng.submit(0);
    if (tick % 3 == 0) (void)eng.submit(1);
    eng.step();
  }
  eng.drain(2000);
  return chaos_result(eng);
}

}  // namespace

TEST(ServeThreadInvariance, ShedServedCountsAndFingerprintAreBitIdentical) {
  const ChaosRunResult ref = chaos_run();  // current thread resolution
  for (const int threads : {1, 2, 8}) {
    parallel::set_threads(threads);
    const ChaosRunResult r = chaos_run();
    parallel::set_threads(0);
    EXPECT_EQ(r.fingerprint, ref.fingerprint) << "threads=" << threads;
    EXPECT_EQ(r.stats.served, ref.stats.served) << "threads=" << threads;
    EXPECT_EQ(r.stats.served_degraded, ref.stats.served_degraded);
    EXPECT_EQ(r.stats.served_late, ref.stats.served_late);
    EXPECT_EQ(r.stats.total_shed(), ref.stats.total_shed());
    EXPECT_EQ(r.stats.failed, ref.stats.failed);
    EXPECT_EQ(r.stats.retries, ref.stats.retries);
    EXPECT_EQ(r.stats.quarantines, ref.stats.quarantines);
    EXPECT_EQ(r.stats.canary_detections, ref.stats.canary_detections);
    EXPECT_EQ(r.p99_ticks, ref.p99_ticks);
  }
}

TEST(ServeHistogram, ChaosRunRecordsEveryServedRequestOnce) {
  // Both latency views are histograms fed once per served request in
  // complete(): the per-tenant tick histograms (merged) and the engine's
  // host-microsecond histogram.
  const ChaosRunResult r = chaos_run();
  ASSERT_GT(r.stats.total_served(), 0);
  EXPECT_EQ(r.tick_samples, r.stats.total_served());
  EXPECT_EQ(r.host_us_samples, r.stats.total_served());
}

// --- kernel backends ---------------------------------------------------------

namespace {

// Same chaos workload as chaos_run(), but with every variant built on the
// given kernel backend. The backend only changes how conv/FC ops execute;
// outputs are bit-identical, so scheduling, quarantine decisions, and the
// completion-order fingerprint must not move at all.
ChaosRunResult chaos_run_on(kernels::BackendConfig backend) {
  serve::EngineConfig cfg;
  cfg.canary_period_ticks = 8;
  cfg.chaos.seed = 77;
  cfg.chaos.fault_rate = 0.10;
  cfg.chaos.arena_soft_error_period = 9;
  serve::ServingEngine eng(cfg);
  serve::TenantConfig t0;
  t0.queue_capacity = 16;
  t0.shed_policy = serve::ShedPolicy::kDropOldest;
  t0.deadline_ticks = 24;
  t0.degrade_queue_depth = 5;
  serve::VariantSpec primary = make_variant(4, 2, 1);
  primary.backend = backend;
  serve::VariantSpec degraded = make_variant(2, 1, 2, 4);
  degraded.backend = backend;
  eng.register_tenant(t0, std::move(primary), std::move(degraded),
                      clean_inputs(4));
  serve::TenantConfig t1;
  t1.queue_capacity = 8;
  t1.deadline_ticks = 16;
  serve::VariantSpec solo = make_variant(3, 1, 5);
  solo.backend = backend;
  eng.register_tenant(t1, std::move(solo), std::nullopt, clean_inputs(4, 11));
  for (int tick = 0; tick < 240; ++tick) {
    (void)eng.submit(0);
    if (tick % 3 == 0) (void)eng.submit(1);
    eng.step();
  }
  eng.drain(2000);
  return chaos_result(eng);
}

}  // namespace

TEST(ServeBackend, FastPoolFingerprintMatchesReference) {
  const ChaosRunResult ref = chaos_run_on(kernels::BackendConfig::reference());
  const ChaosRunResult fast = chaos_run_on(kernels::BackendConfig::fast());
  EXPECT_EQ(fast.fingerprint, ref.fingerprint);
  EXPECT_EQ(fast.stats.served, ref.stats.served);
  EXPECT_EQ(fast.stats.served_degraded, ref.stats.served_degraded);
  EXPECT_EQ(fast.stats.total_shed(), ref.stats.total_shed());
  EXPECT_EQ(fast.stats.failed, ref.stats.failed);
  EXPECT_EQ(fast.stats.quarantines, ref.stats.quarantines);
  EXPECT_EQ(fast.p99_ticks, ref.p99_ticks);
}

// --- per-tenant SLO histograms -----------------------------------------------

TEST(ServeHistogram, TenantHistogramsMergeToFleet) {
  serve::ServingEngine eng{serve::EngineConfig{}};
  serve::TenantConfig t0;
  t0.deadline_ticks = 48;
  eng.register_tenant(t0, make_variant(4, 2, 1), std::nullopt,
                      clean_inputs(4));
  serve::TenantConfig t1;
  t1.deadline_ticks = 48;
  eng.register_tenant(t1, make_variant(2, 1, 5), std::nullopt,
                      clean_inputs(4, 11));
  for (int tick = 0; tick < 200; ++tick) {
    if (tick % 2 == 0) (void)eng.submit(0);
    if (tick % 3 == 0) (void)eng.submit(1);
    eng.step();
  }
  eng.drain(2000);
  // The fleet view is exactly the merge of the per-tenant views, and every
  // served request is in it.
  obs::TickHistogram merged = eng.tenant_histogram(0);
  merged.merge(eng.tenant_histogram(1));
  EXPECT_TRUE(eng.latency_histogram() == merged);
  EXPECT_EQ(merged.count(), eng.stats().total_served());
  EXPECT_EQ(eng.tenant_histogram(0).count(),
            eng.tenant_stats(0).total_served());
}

// --- request-lifecycle flight recorder ---------------------------------------

TEST(ServeEvents, EveryAdmittedRequestReachesExactlyOneTerminalEvent) {
  obs::event_reserve(1 << 16);
  obs::event_clear();
  const ChaosRunResult r = chaos_run();
#if !defined(MN_OBS_DISABLED)
  // Replay the stream: each admitted (tenant, seq) must see exactly one
  // kComplete, and no terminal may appear for a request never admitted.
  std::map<std::pair<int32_t, int64_t>, std::pair<int, int>> reqs;
  int64_t admits = 0;
  for (const obs::Event& e : obs::event_snapshot()) {
    if (e.kind == obs::EventKind::kAdmit) {
      ++admits;
      ++reqs[{e.tenant, e.seq}].first;
    } else if (e.kind == obs::EventKind::kComplete) {
      ++reqs[{e.tenant, e.seq}].second;
    }
  }
  EXPECT_EQ(obs::event_dropped(), 0);  // ring sized for the whole run
  EXPECT_EQ(admits, r.stats.admitted);
  for (const auto& [key, counts] : reqs) {
    if (counts.first > 0)
      EXPECT_EQ(counts.second, 1)
          << "tenant " << key.first << " seq " << key.second;
    else
      EXPECT_EQ(counts.second, 0)
          << "orphan terminal: tenant " << key.first << " seq " << key.second;
  }
#else
  EXPECT_TRUE(obs::event_snapshot().empty());  // no-op collapse
  EXPECT_GT(r.stats.admitted, 0);
#endif
}

TEST(ServeEvents, EventFingerprintIsThreadInvariant) {
  // The flight-recorder fold joins the engine fingerprint in the
  // thread-invariance contract. (Trivially zero in -DMN_OBS=OFF builds.)
  obs::event_reserve(1 << 16);
  std::vector<uint64_t> folds;
  for (const int threads : {1, 2, 8}) {
    parallel::set_threads(threads);
    obs::event_clear();
    (void)chaos_run();
    folds.push_back(obs::event_fingerprint());
    parallel::set_threads(0);
  }
  EXPECT_EQ(folds[0], folds[1]);
  EXPECT_EQ(folds[0], folds[2]);
}

TEST(ServeEvents, BreakerOpenCapturesPostmortemDump) {
  obs::event_reserve(1 << 12);
  obs::event_clear();
  obs::postmortem_clear();
  [[maybe_unused]] const int64_t pm_before = obs::postmortem_count();
  serve::ServingEngine eng{serve::EngineConfig{}};
  serve::TenantConfig tc;
  tc.breaker_threshold = 3;
  tc.breaker_cooldown_ticks = 64;
  eng.register_tenant(tc, make_variant(2, 1, 1), std::nullopt, nan_inputs(2));
  for (int tick = 0; tick < 32; ++tick) {
    (void)eng.submit(0);
    eng.step();
  }
  eng.drain(256);
  ASSERT_GE(eng.stats().breaker_trips, 1);
#if !defined(MN_OBS_DISABLED)
  EXPECT_GE(obs::postmortem_count() - pm_before, 1);
  const obs::PostmortemDump dump = obs::postmortem_latest();
  EXPECT_STREQ(dump.reason, "breaker_open");
  ASSERT_FALSE(dump.events.empty());
  bool saw_trip = false;
  for (const obs::Event& e : dump.events)
    if (e.kind == obs::EventKind::kBreakerTrip) saw_trip = true;
  EXPECT_TRUE(saw_trip);  // the dump carries the incident itself
#else
  EXPECT_EQ(obs::postmortem_count(), 0);
#endif
}
