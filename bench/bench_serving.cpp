// Fleet-serving bench: sustained streams/minute and tail latency for the
// resilient multi-tenant serving engine (serve::ServingEngine), at baseline
// and under a deterministic chaos schedule.
//
// Two phases, each on a fresh engine:
//   baseline  — arrivals sized under pool capacity; the contract is ZERO
//               deadline violations and ZERO shed requests, plus a sustained
//               throughput floor (>= 100k simulated streams/minute).
//   chaos     — tenant 0 is deliberately overloaded while the chaos schedule
//               injects weight bit-flips, arena soft errors, stalls, and
//               NaN inputs. The contract flips from "perfect" to "graceful":
//               no crash, no hang, bounded shedding, quarantined replicas
//               recover, and every count is bit-deterministic (the virtual
//               -time scheduler) so the regression gate pins them EXACTLY.
//
// All scheduling counts are virtual-time deterministic; only the *_host_us
// and streams_per_min metrics read the host clock, and the regression gate
// applies tail/throughput rules (not exact) to those.
//
// Flags: --full, --chaos=<seed>:<rate> (shared with bench_fault_tolerance),
// --trace-out=PATH (chrome://tracing spans + serve_queue_depth/serve_inflight
// counter tracks), --skip-throughput-floor (for sanitizer smoke runs, where
// instrumentation slows invokes 10x+).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "obs/eventlog.hpp"
#include "obs/histogram.hpp"
#include "obs/obs.hpp"
#include "serve/engine.hpp"

using namespace mn;

namespace {

rt::ModelDef kws_variant(uint64_t seed, int weight_bits, int64_t stem,
                         std::vector<models::DsCnnBlock> blocks,
                         const std::string& name) {
  models::DsCnnConfig cfg;
  cfg.input = Shape{12, 8, 1};
  cfg.num_classes = 4;
  cfg.stem_channels = stem;
  cfg.stem_kh = 3;
  cfg.stem_kw = 3;
  cfg.blocks = std::move(blocks);
  models::BuildOptions bo;
  bo.seed = seed;
  bo.qat = false;
  nn::Graph g = models::build_ds_cnn(cfg, bo);
  return bench::calibrated_model(g, cfg.input, name, weight_bits, weight_bits);
}

std::vector<TensorF> make_inputs(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<TensorF> inputs;
  for (int i = 0; i < n; ++i) {
    TensorF t(Shape{12, 8, 1});
    for (int64_t k = 0; k < t.size(); ++k)
      t[k] = static_cast<float>(rng.normal(0.0, 0.5));
    inputs.push_back(std::move(t));
  }
  return inputs;
}

serve::TenantConfig tenant_kws(const std::string& name) {
  serve::TenantConfig tc;
  tc.name = name;
  tc.queue_capacity = 32;
  tc.deadline_ticks = 24;
  tc.max_retries = 2;
  tc.retry_backoff_ticks = 1;
  tc.breaker_threshold = 8;
  tc.breaker_cooldown_ticks = 16;
  return tc;
}

// A latency histogram's percentile as a metric value.
double pct(const obs::TickHistogram& h, double q) {
  return static_cast<double>(h.percentile(q));
}

struct PhaseResult {
  serve::ServeStats stats;
  obs::TickHistogram wall_us;                    // host us per served invoke
  obs::TickHistogram fleet_hist;                 // merged per-tenant SLO view
  std::vector<obs::TickHistogram> tenant_hists;  // one per tenant
  double wall_seconds = 0.0;
  uint64_t fingerprint = 0;
  int64_t final_sweep_detections = 0;
  bool drained = false;
  bool healthy = false;
};

// Runs `ticks` of the submit schedule then drains; finishes with a shutdown
// integrity scrub so replicas poisoned by a late soft error (after the last
// canary) are also caught and rebuilt.
template <typename SubmitFn>
PhaseResult run_phase(serve::ServingEngine& engine, int64_t ticks,
                      SubmitFn&& submit) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int64_t tick = 0; tick < ticks; ++tick) {
    submit(engine, tick);
    engine.step();
  }
  PhaseResult r;
  r.drained = engine.drain(ticks * 4 + 1024) >= 0 && engine.idle();
  for (int idx = 0; idx < engine.pool().num_instances(); ++idx) {
    if (engine.pool().health_check(idx)) {
      engine.pool().quarantine(idx, engine.now());
      ++r.final_sweep_detections;
    }
  }
  r.wall_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  r.stats = engine.stats();
  r.wall_us = engine.wall_latency_us();
  r.fleet_hist = engine.latency_histogram();
  for (int t = 0; t < engine.num_tenants(); ++t)
    r.tenant_hists.push_back(engine.tenant_histogram(t));
  r.fingerprint = engine.fingerprint();
  r.healthy = engine.pool().all_healthy();
  return r;
}

// Request-lifecycle accounting over the flight-recorder event stream: every
// admitted (tenant, seq) must reach exactly one terminal (kComplete) event,
// and no terminal may appear without its admit. All three violation counts
// gate as zero-exact in mn_regress. Empty stream (MN_OBS=OFF) => all zero.
struct EventAccounting {
  int64_t admits = 0;
  int64_t terminals = 0;
  int64_t unterminated = 0;    // admitted but never reached a terminal event
  int64_t multi_terminal = 0;  // more than one terminal for one request
  int64_t orphan_terminal = 0; // terminal without a matching admit
};

EventAccounting account_events(const std::vector<obs::Event>& events) {
  EventAccounting acc;
  std::map<std::pair<int32_t, int64_t>, std::pair<int64_t, int64_t>> reqs;
  for (const obs::Event& e : events) {
    if (e.kind == obs::EventKind::kAdmit) {
      ++acc.admits;
      ++reqs[{e.tenant, e.seq}].first;
    } else if (e.kind == obs::EventKind::kComplete) {
      ++acc.terminals;
      ++reqs[{e.tenant, e.seq}].second;
    }
  }
  for (const auto& [key, counts] : reqs) {
    (void)key;
    if (counts.first > 0 && counts.second == 0) ++acc.unterminated;
    if (counts.second > 1) ++acc.multi_terminal;
    if (counts.first == 0 && counts.second > 0) ++acc.orphan_terminal;
  }
  return acc;
}

void print_stats(const serve::ServeStats& s) {
  std::printf(
      "  submitted %lld  admitted %lld  served %lld (degraded %lld, late "
      "%lld)\n  shed %lld (queue_full %lld, breaker %lld, dropped %lld, "
      "expired %lld)\n  failed %lld  retries %lld  quarantines %lld (canary "
      "%lld)  degrade %lld/%lld  trips %lld\n",
      static_cast<long long>(s.submitted), static_cast<long long>(s.admitted),
      static_cast<long long>(s.total_served()),
      static_cast<long long>(s.served_degraded),
      static_cast<long long>(s.served_late),
      static_cast<long long>(s.total_shed()),
      static_cast<long long>(s.rejected_queue_full),
      static_cast<long long>(s.rejected_breaker),
      static_cast<long long>(s.dropped_oldest),
      static_cast<long long>(s.expired_in_queue),
      static_cast<long long>(s.failed), static_cast<long long>(s.retries),
      static_cast<long long>(s.quarantines),
      static_cast<long long>(s.canary_detections),
      static_cast<long long>(s.degrade_enters),
      static_cast<long long>(s.degrade_exits),
      static_cast<long long>(s.breaker_trips));
}

int register_fleet(serve::ServingEngine& engine, uint64_t seed,
                   bool with_fallback) {
  // Tenant 0: KWS int8 primary + a smaller int4 fallback, drop-oldest.
  serve::VariantSpec primary;
  primary.model = kws_variant(seed, 8, 8, {{8, 1}, {12, 1}}, "kws_int8");
  primary.service_ticks = 4;
  primary.instances = 3;
  serve::VariantSpec fallback;
  fallback.model = kws_variant(seed + 7, 4, 4, {{8, 1}}, "kws_int4");
  fallback.service_ticks = 2;
  fallback.instances = 2;
  serve::TenantConfig t0 = tenant_kws("kws_dropoldest");
  t0.shed_policy = serve::ShedPolicy::kDropOldest;
  t0.degrade_queue_depth = 6;
  t0.degrade_hold_ticks = 8;
  engine.register_tenant(
      t0, std::move(primary),
      with_fallback ? std::optional<serve::VariantSpec>(std::move(fallback))
                    : std::nullopt,
      make_inputs(8, seed + 100));

  // Tenant 1: its own smaller primary, reject-newest, no fallback.
  serve::VariantSpec p1;
  p1.model = kws_variant(seed + 13, 8, 8, {{8, 1}}, "kws_b");
  p1.service_ticks = 4;
  p1.instances = 2;
  serve::TenantConfig t1 = tenant_kws("kws_reject");
  t1.shed_policy = serve::ShedPolicy::kRejectNewest;
  t1.deadline_ticks = 16;
  engine.register_tenant(t1, std::move(p1), std::nullopt,
                         make_inputs(8, seed + 200));
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opt = bench::parse_args(argc, argv);
  bool skip_throughput_floor = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--skip-throughput-floor") == 0)
      skip_throughput_floor = true;

  bench::print_header("Fleet serving: throughput & tails under chaos");
  bench::start_trace_if_requested(opt);
  // Size the flight recorder so the chaos phase never evicts: the accounting
  // metrics below require the complete event stream (drops would read as
  // unterminated requests).
  obs::event_reserve(1 << 17);
  bench::Reporter rep("serving", opt);
  int failures = 0;

  const int64_t base_ticks = opt.full ? 6000 : 1500;
  const int64_t chaos_ticks = opt.full ? 4000 : 1200;

  // --- phase 1: baseline (no chaos, arrivals under capacity) ----------------
  rep.phase("baseline");
  bench::print_subheader("baseline (no faults, under capacity)");
  obs::event_clear();  // per-phase event stream
  PhaseResult base;
  {
    serve::ServingEngine engine{serve::EngineConfig{}};
    register_fleet(engine, opt.seed, /*with_fallback=*/true);
    // Arrivals 0.5 and 0.25 req/tick against per-tenant capacities 0.75 and
    // 0.5 — comfortably under capacity, so any shed or late completion here
    // is a scheduling bug, not an overload artifact.
    base = run_phase(engine, base_ticks,
                     [](serve::ServingEngine& e, int64_t tick) {
                       if (tick % 2 == 0) (void)e.submit(0);
                       if (tick % 4 == 0) (void)e.submit(1);
                     });
  }
  print_stats(base.stats);
  const double base_streams_per_min =
      base.wall_seconds > 0.0
          ? static_cast<double>(base.stats.total_served()) /
                base.wall_seconds * 60.0
          : 0.0;
  std::printf(
      "  virtual p50/p99: %.0f/%.0f ticks   host p50/p99: %.0f/%.0f us\n"
      "  %.0f streams/min over %.2fs\n",
      pct(base.fleet_hist, 0.50), pct(base.fleet_hist, 0.99),
      pct(base.wall_us, 0.50), pct(base.wall_us, 0.99), base_streams_per_min,
      base.wall_seconds);

  const int64_t base_violations =
      base.stats.served_late;  // late completions = deadline violations
  if (base_violations != 0 || base.stats.total_shed() != 0) {
    std::printf("  FAIL: baseline must shed nothing and violate no deadline\n");
    ++failures;
  }
  if (!base.drained || !base.healthy) {
    std::printf("  FAIL: baseline engine did not drain healthy\n");
    ++failures;
  }
  if (!skip_throughput_floor && base_streams_per_min < 100000.0) {
    std::printf("  FAIL: sustained throughput below 100k streams/min\n");
    ++failures;
  }
  rep.metric("baseline_submitted_count",
             static_cast<double>(base.stats.submitted));
  rep.metric("baseline_served_count",
             static_cast<double>(base.stats.total_served()));
  rep.metric("baseline_shed_count",
             static_cast<double>(base.stats.total_shed()));
  rep.metric("baseline_deadline_violations",
             static_cast<double>(base_violations));
  rep.metric("baseline_shed_rate",
             base.stats.submitted > 0
                 ? static_cast<double>(base.stats.total_shed()) /
                       static_cast<double>(base.stats.submitted)
                 : 0.0);
  rep.metric("baseline_p50_host_us", pct(base.wall_us, 0.50));
  rep.metric("baseline_p95_host_us", pct(base.wall_us, 0.95));
  rep.metric("baseline_p99_host_us", pct(base.wall_us, 0.99));
  rep.metric("baseline_p999_host_us", pct(base.wall_us, 0.999));
  rep.metric("baseline_streams_per_min", base_streams_per_min);
  // Whole-run SLO histogram (deterministic log buckets): the merge of the
  // per-tenant views, never evicting, so every *_ticks metric gates EXACT.
  rep.metric("baseline_fleet_p50_ticks", pct(base.fleet_hist, 0.50));
  rep.metric("baseline_fleet_p95_ticks", pct(base.fleet_hist, 0.95));
  rep.metric("baseline_fleet_p99_ticks", pct(base.fleet_hist, 0.99));
  rep.metric("baseline_fleet_p999_ticks", pct(base.fleet_hist, 0.999));

  // --- phase 2: chaos (overload + injected faults) --------------------------
  rep.phase("chaos");
  bench::print_subheader("chaos (overload + fault schedule)");
  serve::EngineConfig ecfg;
  ecfg.canary_period_ticks = 8;
  ecfg.quarantine_cooldown_ticks = 4;
  ecfg.chaos.seed = opt.chaos.enabled ? opt.chaos.seed : 42;
  ecfg.chaos.fault_rate = opt.chaos.enabled ? opt.chaos.rate : 0.05;
  ecfg.chaos.stall_ticks = 8;
  ecfg.chaos.flip_bits = 4;
  ecfg.chaos.arena_soft_error_period = 7;
  std::printf("  chaos schedule: seed %llu, rate %g\n",
              static_cast<unsigned long long>(ecfg.chaos.seed),
              ecfg.chaos.fault_rate);
  obs::event_clear();  // chaos gets its own event stream + fingerprint
  PhaseResult chaos;
  {
    serve::ServingEngine engine{ecfg};
    register_fleet(engine, opt.seed, /*with_fallback=*/true);
    // Tenant 0 is overloaded (1 req/tick vs 0.75 capacity): the queue climbs
    // past the degradation trigger, the engine routes to the int4 fallback,
    // and drop-oldest bounds the backlog. Tenant 1 stays under capacity but
    // rides through the same fault schedule.
    chaos = run_phase(engine, chaos_ticks,
                      [](serve::ServingEngine& e, int64_t tick) {
                        (void)e.submit(0);
                        if (tick % 4 == 0) (void)e.submit(1);
                      });
  }
  print_stats(chaos.stats);
  std::printf("  fingerprint %016llx  final-sweep detections %lld\n",
              static_cast<unsigned long long>(chaos.fingerprint),
              static_cast<long long>(chaos.final_sweep_detections));

  // Graceful-degradation contract: survived, drained, recovered, accounted.
  if (!chaos.drained) {
    std::printf("  FAIL: chaos engine did not drain (hang)\n");
    ++failures;
  }
  if (!chaos.healthy) {
    std::printf("  FAIL: poisoned replicas did not recover\n");
    ++failures;
  }
  if (chaos.stats.admitted != chaos.stats.completed()) {
    std::printf("  FAIL: admitted %lld != completed %lld (lost requests)\n",
                static_cast<long long>(chaos.stats.admitted),
                static_cast<long long>(chaos.stats.completed()));
    ++failures;
  }
  if (chaos.stats.served_degraded == 0 || chaos.stats.quarantines == 0 ||
      chaos.stats.retries == 0) {
    std::printf("  FAIL: chaos run did not exercise degrade/quarantine/retry\n");
    ++failures;
  }

  const double chaos_shed_rate =
      chaos.stats.submitted > 0
          ? static_cast<double>(chaos.stats.total_shed()) /
                static_cast<double>(chaos.stats.submitted)
          : 0.0;
  rep.metric("chaos_submitted_count",
             static_cast<double>(chaos.stats.submitted));
  rep.metric("chaos_served_count",
             static_cast<double>(chaos.stats.total_served()));
  rep.metric("chaos_degraded_count",
             static_cast<double>(chaos.stats.served_degraded));
  rep.metric("chaos_late_count", static_cast<double>(chaos.stats.served_late));
  rep.metric("chaos_shed_count", static_cast<double>(chaos.stats.total_shed()));
  rep.metric("chaos_failed_count", static_cast<double>(chaos.stats.failed));
  rep.metric("chaos_retries_count", static_cast<double>(chaos.stats.retries));
  rep.metric("chaos_quarantines_count",
             static_cast<double>(chaos.stats.quarantines));
  rep.metric("chaos_canary_detections_count",
             static_cast<double>(chaos.stats.canary_detections));
  rep.metric("chaos_breaker_trips_count",
             static_cast<double>(chaos.stats.breaker_trips));
  rep.metric("chaos_final_sweep_count",
             static_cast<double>(chaos.final_sweep_detections));
  rep.metric("chaos_shed_rate", chaos_shed_rate);
  rep.metric("chaos_p99_host_us", pct(chaos.wall_us, 0.99));
  rep.metric("chaos_p999_host_us", pct(chaos.wall_us, 0.999));
  rep.metric("chaos_fleet_p50_ticks", pct(chaos.fleet_hist, 0.50));
  rep.metric("chaos_fleet_p95_ticks", pct(chaos.fleet_hist, 0.95));
  rep.metric("chaos_fleet_p99_ticks", pct(chaos.fleet_hist, 0.99));
  rep.metric("chaos_fleet_p999_ticks", pct(chaos.fleet_hist, 0.999));
  // Per-tenant SLO tails: tenant 0 is the overloaded drop-oldest stream,
  // tenant 1 the under-capacity bystander riding the same fault schedule.
  rep.metric("chaos_t0_p99_ticks", pct(chaos.tenant_hists[0], 0.99));
  rep.metric("chaos_t0_p999_ticks", pct(chaos.tenant_hists[0], 0.999));
  rep.metric("chaos_t1_p99_ticks", pct(chaos.tenant_hists[1], 0.99));
  rep.metric("chaos_t1_p999_ticks", pct(chaos.tenant_hists[1], 0.999));
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(chaos.fingerprint));
  rep.metric("chaos_fingerprint", std::string(fp));
  rep.metric("recovered_healthy_count", chaos.healthy ? 1.0 : 0.0);

  // Flight-recorder witness for the chaos phase. Snapshot BEFORE the
  // postmortem probe below — the probe engine shares the global ring and
  // would otherwise pollute the stream accounting and fingerprint.
  const std::vector<obs::Event> chaos_events = obs::event_snapshot();
  const EventAccounting acc = account_events(chaos_events);
  std::printf(
      "  flight recorder: %zu events (%lld dropped), %lld admits -> %lld "
      "terminals\n",
      chaos_events.size(), static_cast<long long>(obs::event_dropped()),
      static_cast<long long>(acc.admits),
      static_cast<long long>(acc.terminals));
#if !defined(MN_OBS_DISABLED)
  if (acc.unterminated != 0 || acc.multi_terminal != 0 ||
      acc.orphan_terminal != 0) {
    std::printf("  FAIL: event accounting violated (%lld/%lld/%lld)\n",
                static_cast<long long>(acc.unterminated),
                static_cast<long long>(acc.multi_terminal),
                static_cast<long long>(acc.orphan_terminal));
    ++failures;
  }
  if (acc.admits != chaos.stats.admitted) {
    std::printf("  FAIL: event admits %lld != stats admitted %lld\n",
                static_cast<long long>(acc.admits),
                static_cast<long long>(chaos.stats.admitted));
    ++failures;
  }
#endif
  rep.metric("chaos_event_count", static_cast<double>(chaos_events.size()));
  rep.metric("chaos_events_dropped_count",
             static_cast<double>(obs::event_dropped()));
  rep.metric("chaos_accounting_unterminated",
             static_cast<double>(acc.unterminated));
  rep.metric("chaos_accounting_multi_terminal",
             static_cast<double>(acc.multi_terminal));
  rep.metric("chaos_accounting_orphan_terminal",
             static_cast<double>(acc.orphan_terminal));
  char efp[32];
  std::snprintf(efp, sizeof(efp), "%016llx",
                static_cast<unsigned long long>(obs::event_fingerprint()));
  rep.metric("chaos_event_fingerprint", std::string(efp));

  // Postmortem probe: a deliberately broken micro-fleet (all-NaN inputs,
  // tight breaker, 8-tick watchdog) that deterministically trips the breaker
  // and stalls the watchdog — the witness that incident captures fire and
  // carry recent event history into the dump.
  bench::print_subheader("postmortem probe (NaN inputs, breaker + watchdog)");
  const int64_t pm_before = obs::postmortem_count();
  int64_t probe_trips = 0, probe_stalls = 0;
  {
    serve::ServingEngine probe{serve::EngineConfig{}};
    serve::VariantSpec pv;
    pv.model = kws_variant(opt.seed + 31, 8, 4, {{8, 1}}, "kws_probe");
    pv.service_ticks = 2;
    pv.instances = 1;
    serve::TenantConfig ptc = tenant_kws("probe_nan");
    ptc.breaker_threshold = 3;
    ptc.breaker_cooldown_ticks = 64;
    ptc.watchdog_timeout_ticks = 8;
    std::vector<TensorF> bad = make_inputs(2, opt.seed + 300);
    for (TensorF& t : bad)
      for (int64_t k = 0; k < t.size(); ++k)
        t[k] = std::numeric_limits<float>::quiet_NaN();
    probe.register_tenant(ptc, std::move(pv), std::nullopt, std::move(bad));
    for (int64_t tick = 0; tick < 64; ++tick) {
      (void)probe.submit(0);
      probe.step();
    }
    (void)probe.drain(256);
    probe_trips = probe.stats().breaker_trips;
    probe_stalls = probe.stats().watchdog_stalls;
  }
  const int64_t probe_postmortems = obs::postmortem_count() - pm_before;
  std::printf("  probe: %lld breaker trip(s), %lld stall(s), %lld postmortem "
              "capture(s)\n",
              static_cast<long long>(probe_trips),
              static_cast<long long>(probe_stalls),
              static_cast<long long>(probe_postmortems));
  if (probe_trips < 1 || probe_stalls < 1) {
    std::printf("  FAIL: probe did not trip breaker + watchdog\n");
    ++failures;
  }
#if !defined(MN_OBS_DISABLED)
  if (probe_postmortems < 1 || obs::postmortem_latest().events.empty()) {
    std::printf("  FAIL: incident did not capture a postmortem dump\n");
    ++failures;
  }
#endif
  rep.metric("chaos_postmortem_count", static_cast<double>(probe_postmortems));

  rep.finish();
  bench::write_trace_if_requested(opt);
  bench::write_events_if_requested(opt);
  if (failures > 0) {
    std::printf("\nbench_serving: %d contract failure(s)\n", failures);
    return 1;
  }
  std::printf("\nbench_serving: all serving contracts held\n");
  return 0;
}
