#include "fleet.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "calib.hpp"
#include "models/backbones.hpp"
#include "obs/eventlog.hpp"
#include "obs/obs.hpp"
#include "quant/quant.hpp"
#include "runtime/planner.hpp"
#include "tensor/rng.hpp"

namespace zb {

namespace {

constexpr int64_t kWindowTicks = 1000;
constexpr int kInputsPerTenant = 8;
const mn::Shape kFleetInput{12, 8, 1};

mn::nn::Graph tiny_ds_cnn(uint64_t model_seed, int64_t stem,
                          std::vector<mn::models::DsCnnBlock> blocks) {
  mn::models::DsCnnConfig cfg;
  cfg.input = kFleetInput;
  cfg.num_classes = 4;
  cfg.stem_channels = stem;
  cfg.stem_kh = 3;
  cfg.stem_kw = 3;
  cfg.blocks = std::move(blocks);
  mn::models::BuildOptions bo;
  bo.seed = model_seed;
  bo.qat = false;
  return mn::models::build_ds_cnn(cfg, bo);
}

mn::serve::TenantConfig tenant_config(int t) {
  mn::serve::TenantConfig tc;
  tc.name = "tenant" + std::to_string(t);
  tc.queue_capacity = 32;
  tc.shed_policy = mn::serve::ShedPolicy::kDropOldest;
  tc.deadline_ticks = 24;
  tc.max_retries = 2;
  tc.retry_backoff_ticks = 1;
  tc.breaker_threshold = 8;
  tc.breaker_cooldown_ticks = 16;
  tc.degrade_queue_depth = 6;
  tc.degrade_hold_ticks = 8;
  return tc;
}

// kSteady: each tenant submits every other tick (0.5 req/tick against a
// primary capacity of 3 replicas / 4 ticks = 0.75), staggered so four
// tenants submit on every tick. kChaos: every tenant submits every tick.
bool submits_at(FleetMode mode, int tenant, int64_t tick) {
  return mode == FleetMode::kChaos || (tick + tenant) % 2 == 0;
}

int64_t total_dispatches(const mn::serve::ServingEngine& e) {
  int64_t n = 0;
  for (int v = 0; v < e.pool().num_variants(); ++v) n += e.variant_dispatches(v);
  return n;
}

}  // namespace

FleetModels build_fleet_models(uint64_t seed, SetupCost* cost) {
  FleetModels fm;
  for (int t = 0; t < kTenants; ++t) {
    FleetModels::Tenant ten;
    const uint64_t ms = 1000 + static_cast<uint64_t>(t);
    ten.primary = convert_model([&] { return tiny_ds_cnn(ms, 8, {{8, 1}, {12, 1}}); },
                                kFleetInput, "fleet_int8_" + std::to_string(t), 8, cost);
    ten.fallback = convert_model([&] { return tiny_ds_cnn(ms + 500, 4, {{8, 1}}); },
                                 kFleetInput, "fleet_int4_" + std::to_string(t), 4, cost);
    mn::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0xF1EE7 + static_cast<uint64_t>(t));
    for (int k = 0; k < kInputsPerTenant; ++k) {
      mn::TensorF x(kFleetInput);
      for (int64_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(rng.normal(0.0, 0.5));
      ten.inputs.push_back(std::move(x));
    }
    fm.tenants.push_back(std::move(ten));
  }
  return fm;
}

void time_plan_pack(const Program& program, const FleetModels& models,
                    SetupCost* cost) {
  for (const FleetModels::Tenant& ten : models.tenants)
    for (const mn::rt::ModelDef* m : {&ten.primary, &ten.fallback}) {
      int64_t t0 = now_ns();
      {
        const mn::obs::SpanScope span("runtime.plan", mn::obs::Cat::kBench);
        (void)mn::rt::plan_memory(*m);
      }
      cost->plan_us += static_cast<double>(now_ns() - t0) / 1e3;
      t0 = now_ns();
      {
        const mn::obs::SpanScope span("runtime.pack", mn::obs::Cat::kBench);
        (void)program.pack(*m);
      }
      cost->pack_us += static_cast<double>(now_ns() - t0) / 1e3;
    }
}

std::unique_ptr<mn::serve::ServingEngine> make_engine(const Program& program,
                                                      const FleetModels& models,
                                                      FleetMode mode,
                                                      uint64_t seed,
                                                      SetupCost* cost) {
  const int64_t t0 = now_ns();
  const mn::obs::SpanScope span("serve.engine_ctor", mn::obs::Cat::kBench);
  mn::serve::EngineConfig ecfg;
  if (mode == FleetMode::kChaos) {
    ecfg.canary_period_ticks = 8;
    ecfg.quarantine_cooldown_ticks = 4;
    ecfg.chaos.seed = seed * 0x2545F4914F6CDD1DULL + 0xC4A05;
    ecfg.chaos.fault_rate = 0.05;
    ecfg.chaos.stall_ticks = 8;
    ecfg.chaos.flip_bits = 4;
    ecfg.chaos.arena_soft_error_period = 7;
  }
  auto engine = std::make_unique<mn::serve::ServingEngine>(ecfg);
  for (int t = 0; t < kTenants; ++t) {
    const FleetModels::Tenant& ten = models.tenants[static_cast<size_t>(t)];
    engine->register_tenant(tenant_config(t), program.variant(ten.primary, 4, 3),
                            program.variant(ten.fallback, 3, 3), ten.inputs);
  }
  cost->ctor_us += static_cast<double>(now_ns() - t0) / 1e3;
  return engine;
}

Episode run_episode(mn::serve::ServingEngine& engine, FleetMode mode,
                    int64_t ticks) {
  using mn::obs::Counter;
  Episode ep;
  const bool traced = mn::obs::tracing_enabled();
  if (traced) mn::obs::event_clear();
  const int64_t regions0 = mn::obs::counter_value(Counter::kPoolRegions);
  const int64_t chunks0 = mn::obs::counter_value(Counter::kPoolChunks);
  const int64_t stolen0 = mn::obs::counter_value(Counter::kPoolStolenChunks);
  const int64_t events0 = mn::obs::counter_value(Counter::kEventsEmitted);

  // Raw host times of the current window; close_window calibrates them with
  // the calibration passes either side of the window (calib.hpp).
  struct Window {
    double busy_us = 0.0;  // Σ submit + step time
    double submit_us = 0.0, dispatch_us = 0.0;
    std::vector<double> dispatch_ticks, idle_ticks;
    int64_t served0 = 0;
  } w;
  Calib calib_before = calibrate();
  auto close_window = [&](bool in_schedule) {
    const Calib calib_after = calibrate();
    const double scale = calib_before.scale(CalibKind::kCompute, calib_after);
    calib_before = calib_after;
    const int64_t served = engine.stats().total_served();
    if (in_schedule) {
      ep.window_served_per_s.push_back(static_cast<double>(served - w.served0) /
                                       (scale * w.busy_us / 1e6));
      ep.window_dispatch_p50_us.push_back(scale * quantile(w.dispatch_ticks, 0.5));
      ep.window_dispatch_p99_us.push_back(scale * quantile(w.dispatch_ticks, 0.99));
      ep.window_scale.push_back(scale);
    }
    for (double us : w.idle_ticks) ep.idle_tick_us.push_back(scale * us);
    ep.dispatch_tick_us_total += scale * w.dispatch_us;
    ep.submit_ns_total += scale * w.submit_us * 1e3;
    w = Window{};
    w.served0 = served;
  };
  auto step = [&] {
    const int64_t before = total_dispatches(engine);
    const int64_t t0 = now_ns();
    {
      const mn::obs::SpanScope span("serve.step", mn::obs::Cat::kBench);
      engine.step();
    }
    const double us = static_cast<double>(now_ns() - t0) / 1e3;
    w.busy_us += us;
    const int64_t width = total_dispatches(engine) - before;
    if (width > 0) {
      w.dispatch_us += us;
      w.dispatch_ticks.push_back(us);
      ++ep.dispatch_ticks;
      ep.dispatches += width;
    } else {
      w.idle_ticks.push_back(us);
    }
  };
  for (int64_t tick = 0; tick < ticks; ++tick) {
    const int64_t s0 = now_ns();
    for (int t = 0; t < kTenants; ++t) {
      if (!submits_at(mode, t, tick)) continue;
      const mn::obs::SpanScope span("serve.submit", mn::obs::Cat::kBench);
      (void)engine.submit(t);
      ++ep.submits;
    }
    const double submit_us = static_cast<double>(now_ns() - s0) / 1e3;
    w.submit_us += submit_us;
    w.busy_us += submit_us;
    step();
    if ((tick + 1) % kWindowTicks == 0) close_window(true);
  }
  const int64_t max_drain = 4 * ticks + 1024;
  int64_t drained = 0;
  {
    const mn::obs::SpanScope span("serve.drain", mn::obs::Cat::kBench);
    while (!engine.idle() && drained < max_drain) {
      step();
      ++drained;
    }
  }
  close_window(false);

  // Operator scrub after drain: a soft error that landed after the last
  // canary leaves a poisoned idle replica; catch and rebuild it.
  for (int idx = 0; idx < engine.pool().num_instances(); ++idx) {
    std::optional<mn::rt::RtError> bad;
    {
      const mn::obs::SpanScope span("serve.health_check", mn::obs::Cat::kBench);
      bad = engine.pool().health_check(idx);
    }
    if (bad) {
      engine.pool().quarantine(idx, engine.now());
      ++ep.final_sweep;
    }
  }
  ep.stats = engine.stats();
  ep.fingerprint = engine.fingerprint();
  const bool healthy = engine.pool().all_healthy();
  const bool accounted = ep.stats.admitted == ep.stats.completed();
  const bool clean = mode == FleetMode::kChaos ||
                     (ep.stats.total_shed() == 0 && ep.stats.served_late == 0 &&
                      ep.stats.failed == 0);
  ep.checks_ok = engine.idle() && healthy && accounted && clean;
  if (!ep.checks_ok)
    std::fprintf(stderr,
                 "zoobench: fleet episode check failed: idle %d healthy %d "
                 "admitted %lld completed %lld shed %lld late %lld failed %lld\n",
                 engine.idle() ? 1 : 0, healthy ? 1 : 0,
                 static_cast<long long>(ep.stats.admitted),
                 static_cast<long long>(ep.stats.completed()),
                 static_cast<long long>(ep.stats.total_shed()),
                 static_cast<long long>(ep.stats.served_late),
                 static_cast<long long>(ep.stats.failed));

  for (int v = 0; v < engine.pool().num_variants(); ++v)
    ep.variant_dispatches.push_back(engine.variant_dispatches(v));
  ep.regions = mn::obs::counter_value(Counter::kPoolRegions) - regions0;
  ep.chunks = mn::obs::counter_value(Counter::kPoolChunks) - chunks0;
  ep.stolen = mn::obs::counter_value(Counter::kPoolStolenChunks) - stolen0;
  ep.events = mn::obs::counter_value(Counter::kEventsEmitted) - events0;

  if (traced) {
    // Queue wait: admit tick to first dispatch tick, from the flight
    // recorder (empty in MN_OBS=OFF builds; evicted admits are skipped).
    std::map<std::pair<int32_t, int64_t>, int64_t> admitted_at;
    for (const mn::obs::Event& e : mn::obs::event_snapshot()) {
      if (e.kind == mn::obs::EventKind::kAdmit) {
        admitted_at[{e.tenant, e.seq}] = e.tick;
      } else if (e.kind == mn::obs::EventKind::kDispatch && e.b == 0) {
        auto it = admitted_at.find({e.tenant, e.seq});
        if (it != admitted_at.end())
          ep.queue_wait_ticks.push_back(static_cast<double>(e.tick - it->second));
      }
    }
  }
  return ep;
}

FleetCosts measure_fleet_costs(mn::serve::ServingEngine& engine,
                               const FleetModels& models) {
  FleetCosts c;
  mn::serve::InterpreterPool& pool = engine.pool();
  // Runs `measure` between two calibration passes; returns its scale.
  auto calibrated = [](const auto& measure) {
    const Calib before = calibrate();
    measure();
    return before.scale(CalibKind::kCompute, calibrate());
  };
  constexpr int kReps = 200;
  std::vector<double> float_path, crc;
  // The invokes are timed without obs tracing: its per-op spans would land
  // in every path alike but inflate standalone_us.
  const bool tracing = mn::obs::tracing_enabled();
  mn::obs::set_tracing(false);
  for (int v = 0; v < pool.num_variants(); ++v) {
    const FleetModels::Tenant& ten = models.tenants[static_cast<size_t>(v / 2)];
    std::unique_ptr<mn::rt::Interpreter> r = pool.make_replica(v);
    const mn::rt::TensorDef& in_t =
        r->model().tensors[static_cast<size_t>(r->model().input_tensor)];
    const mn::TensorI8 q = mn::quant::quantize(ten.inputs[0], in_t.qp, in_t.bits);
    // Interleaved so host noise hits every path alike.
    std::vector<double> full, quantized, unverified;
    const double scale = calibrated([&] {
      for (int k = 0; k < kReps; ++k) {
        int64_t t0 = now_ns();
        (void)r->try_invoke(ten.inputs[0]);
        full.push_back(static_cast<double>(now_ns() - t0) / 1e3);
        t0 = now_ns();
        (void)r->try_invoke_quantized(q);
        quantized.push_back(static_cast<double>(now_ns() - t0) / 1e3);
        r->set_verify_weights_each_invoke(false);
        t0 = now_ns();
        (void)r->try_invoke_quantized(q);
        unverified.push_back(static_cast<double>(now_ns() - t0) / 1e3);
        r->set_verify_weights_each_invoke(true);
      }
    });
    c.standalone_us.push_back(scale * median(full));
    if (v % 2 == 0) {
      float_path.push_back(scale * (median(full) - median(quantized)));
      crc.push_back(scale * (median(quantized) - median(unverified)));
    }
  }
  c.float_path_us = mean(float_path);
  c.crc_verify_us = mean(crc);
  mn::obs::set_tracing(tracing);

  std::vector<double> rebuild, check;
  const double rebuild_scale = calibrated([&] {
    for (int k = 0; k < 20; ++k)
      for (int v = 0; v < pool.num_variants(); v += 2) {
        const int64_t t0 = now_ns();
        {
          const mn::obs::SpanScope span("serve.rebuild", mn::obs::Cat::kBench);
          (void)pool.make_replica(v);
        }
        rebuild.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      }
  });
  const double check_scale = calibrated([&] {
    for (int k = 0; k < 5; ++k)
      for (int idx = 0; idx < pool.num_instances(); ++idx) {
        const int64_t t0 = now_ns();
        {
          const mn::obs::SpanScope span("serve.health_check", mn::obs::Cat::kBench);
          (void)pool.health_check(idx);
        }
        check.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      }
  });
  c.rebuild_us = rebuild_scale * median(rebuild);
  c.health_check_us = check_scale * median(check);
  return c;
}

void report_fleet(const std::vector<Episode>& episodes, Ledger* out) {
  std::vector<double> served, p50, p99, raw_served, raw_p50, raw_p99;
  for (const Episode& ep : episodes) {
    for (size_t k = 0; k < ep.window_scale.size(); ++k) {
      raw_served.push_back(ep.window_served_per_s[k] * ep.window_scale[k]);
      raw_p50.push_back(ep.window_dispatch_p50_us[k] / ep.window_scale[k]);
      raw_p99.push_back(ep.window_dispatch_p99_us[k] / ep.window_scale[k]);
    }
    served.insert(served.end(), ep.window_served_per_s.begin(),
                  ep.window_served_per_s.end());
    p50.insert(p50.end(), ep.window_dispatch_p50_us.begin(),
               ep.window_dispatch_p50_us.end());
    p99.insert(p99.end(), ep.window_dispatch_p99_us.begin(),
               ep.window_dispatch_p99_us.end());
  }
  std::printf("  fleet: %zu episode(s), %zu windows of %lld ticks\n",
              episodes.size(), served.size(), static_cast<long long>(kWindowTicks));
  std::printf("  uncalibrated: served_per_s %.1f dispatch_tick_p50_us %.3f "
              "dispatch_tick_p99_us %.3f (calibration scale %.4f)\n",
              median(raw_served), median(raw_p50), median(raw_p99),
              median([&] {
                std::vector<double> v;
                for (const Episode& ep : episodes)
                  v.insert(v.end(), ep.window_scale.begin(), ep.window_scale.end());
                return v;
              }()));
  out->set("served_per_s", median(served), "1/s");
  out->set("dispatch_tick_p50_us", median(p50), "us");
  out->set("dispatch_tick_p99_us", median(p99), "us");
}

void report_fleet_layers(const std::vector<Episode>& untraced,
                         const std::vector<Episode>& traced,
                         const FleetCosts& costs, int threads, Ledger* out) {
  const Episode& first = untraced.front();
  double submit_ns = 0.0, submits = 0.0, dispatch_us = 0.0, dispatches = 0.0,
         dispatch_ticks = 0.0, regions = 0.0, chunks = 0.0, stolen = 0.0,
         events = 0.0, standalone_us = 0.0;
  std::vector<double> idle, waits;
  for (const Episode& ep : untraced) {
    submit_ns += ep.submit_ns_total;
    submits += static_cast<double>(ep.submits);
    dispatch_us += ep.dispatch_tick_us_total;
    dispatch_ticks += static_cast<double>(ep.dispatch_ticks);
    dispatches += static_cast<double>(ep.dispatches);
    regions += static_cast<double>(ep.regions);
    chunks += static_cast<double>(ep.chunks);
    stolen += static_cast<double>(ep.stolen);
    events += static_cast<double>(ep.events);
    idle.insert(idle.end(), ep.idle_tick_us.begin(), ep.idle_tick_us.end());
    for (size_t v = 0; v < ep.variant_dispatches.size(); ++v)
      standalone_us += static_cast<double>(ep.variant_dispatches[v]) *
                       costs.standalone_us[v];
  }
  for (const Episode& ep : traced)
    waits.insert(waits.end(), ep.queue_wait_ticks.begin(), ep.queue_wait_ticks.end());
  auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  out->set("serve.submit_ns", per(submit_ns, submits), "ns");
  out->set("serve.idle_tick_us", median(idle), "us");
  out->set("serve.dispatch_width", per(dispatches, dispatch_ticks), "requests");
  out->set("serve.queue_wait_ticks_p99", quantile(waits, 0.99), "ticks");
  out->set("serve.shed", static_cast<double>(first.stats.total_shed()), "count");
  out->set("serve.retries", static_cast<double>(first.stats.retries), "count");
  out->set("serve.degraded", static_cast<double>(first.stats.served_degraded), "count");
  out->set("serve.quarantines", static_cast<double>(first.stats.quarantines), "count");
  out->set("serve.canary_detections",
           static_cast<double>(first.stats.canary_detections), "count");
  out->set("serve.rebuild_us", costs.rebuild_us, "us");
  out->set("serve.health_check_us", costs.health_check_us, "us");
  out->set("parallel.regions", per(regions, dispatches), "1/invoke");
  out->set("parallel.chunks", per(chunks, dispatches), "1/invoke");
  out->set("parallel.stolen_share", per(stolen, chunks), "share");
  out->set("parallel.fanout_efficiency",
           per(standalone_us, static_cast<double>(threads) * dispatch_us), "share");
  out->set("obs.events_emitted", per(events, dispatches), "1/invoke");
  out->set("runtime.float_path_us", costs.float_path_us, "us");
  out->set("runtime.crc_verify_us", costs.crc_verify_us, "us");
}

}  // namespace zb
