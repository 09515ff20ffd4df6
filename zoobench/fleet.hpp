// The fleet: eight tenants on the serving engine, each with a tiny int8
// DS-CNN primary and an int4 fallback, driven on a fixed virtual-tick
// schedule. kSteady stays under pool capacity; kChaos overloads every
// tenant under the seed-derived chaos schedule.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ledger.hpp"
#include "pins.hpp"
#include "serve/engine.hpp"
#include "setup.hpp"

namespace zb {

enum class FleetMode { kSteady, kChaos };

inline constexpr int kTenants = 8;

struct FleetModels {
  struct Tenant {
    mn::rt::ModelDef primary, fallback;
    std::vector<mn::TensorF> inputs;  // generated from the seed
  };
  std::vector<Tenant> tenants;
};

// Builds every tenant's two models (calibrate and convert timed into `cost`).
FleetModels build_fleet_models(uint64_t seed, SetupCost* cost);

// Times plan_memory and weight packing of every fleet model on standalone
// calls into cost->plan_us / pack_us. The engine plans and packs inside its
// construction, so these are timed apart from SetupCost::total_s.
void time_plan_pack(const Program& program, const FleetModels& models,
                    SetupCost* cost);

// Registers the fleet on a fresh engine (timed into cost->ctor_us). Variant
// ids: tenant t's primary is 2t, its fallback 2t+1.
std::unique_ptr<mn::serve::ServingEngine> make_engine(const Program& program,
                                                      const FleetModels& models,
                                                      FleetMode mode,
                                                      uint64_t seed,
                                                      SetupCost* cost);

struct Episode {
  mn::serve::ServeStats stats;
  uint64_t fingerprint = 0;
  int64_t final_sweep = 0;  // poisoned idle replicas caught after drain
  bool checks_ok = false;
  // Calibrated host timing (calib.hpp), per 1000-tick window of the fixed
  // schedule: served per second of submit + step time, and the p50/p99 of
  // the steps that dispatched at least one request.
  std::vector<double> window_served_per_s, window_dispatch_p50_us,
      window_dispatch_p99_us, window_scale;
  std::vector<double> idle_tick_us;  // steps that dispatched nothing
  double dispatch_tick_us_total = 0.0;
  double submit_ns_total = 0.0;
  int64_t submits = 0;
  int64_t dispatch_ticks = 0;
  int64_t dispatches = 0;
  std::vector<int64_t> variant_dispatches;
  // obs counter deltas over the episode.
  int64_t regions = 0, chunks = 0, stolen = 0, events = 0;
  // Traced episodes only: admit-to-dispatch waits from the flight recorder.
  std::vector<double> queue_wait_ticks;
};

// Runs `ticks` ticks of the mode's submit schedule, drains, scrubs idle
// replicas, and checks: admitted == completed, all_healthy(), and for
// kSteady zero shed and zero late.
Episode run_episode(mn::serve::ServingEngine& engine, FleetMode mode,
                    int64_t ticks);

// Host cost of the per-request paths, measured on standalone replicas and
// calibrated.
struct FleetCosts {
  std::vector<double> standalone_us;  // per variant: try_invoke, CRC on
  double float_path_us = 0.0;         // try_invoke - try_invoke_quantized
  double crc_verify_us = 0.0;         // verify on - verify off
  double rebuild_us = 0.0;            // InterpreterPool::make_replica
  double health_check_us = 0.0;       // InterpreterPool::health_check
};
FleetCosts measure_fleet_costs(mn::serve::ServingEngine& engine,
                               const FleetModels& models);

// End-to-end fleet metrics (served_per_s, dispatch_tick_*) over `episodes`.
void report_fleet(const std::vector<Episode>& episodes, Ledger* out);

// Per-layer serve/parallel/obs/runtime metrics: host times and counters
// from `untraced` episodes (obs span emission stays out of them), queue
// waits from the flight recorder of `traced` episodes.
void report_fleet_layers(const std::vector<Episode>& untraced,
                         const std::vector<Episode>& traced,
                         const FleetCosts& costs, int threads, Ledger* out);

}  // namespace zb
