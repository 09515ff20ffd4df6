// zoobench: the zoo-and-fleet benchmark. See zoobench/README.md.
//
//   zoobench --workload zoo|serve_steady|serve_chaos --seed N --seconds S
//            --trace 0|1 [--trace-out PATH]
//   zoobench --self-test
//
// Prints run metadata, per-phase request accounting and every metric by
// name with its unit; the last stdout line is the JSON result. Exits 1 when
// an output check fails, 2 on bad arguments or a sanitizer build.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "calib.hpp"
#include "fleet.hpp"
#include "ledger.hpp"
#include "obs/eventlog.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "pins.hpp"
#include "zoo.hpp"

namespace zb {
namespace {

// Fixed sizes: these define the benchmark; changing one re-baselines it.
constexpr int kZooInputs = 2;           // inputs per zoo model
constexpr int kZooSetupReps = 9;        // zoo setups per run (median reported)
constexpr int kFleetSetupReps = 100;    // fleet setups per run
constexpr int kMinCycles = 3;          // measurement cycles per pass, at least
constexpr int kEpisodesPerCycle = 4;    // fleet episodes per zoo round on serve_*
constexpr int64_t kFleetEpisodeTicks = 10000;  // serve_* episodes
constexpr int64_t kFleetProbeTicks = 4000;     // steady episodes on zoo
constexpr int64_t kSelfTestTicks = 3000;
constexpr size_t kTraceEvents = size_t{1} << 17;  // span ring of traced runs

const std::vector<std::string> kEndToEnd = {
    "setup_s",           "peak_rss_mb",        "served_share",
    "zoo_geomean_p50_us", "zoo_geomean_p90_us", "kws_m_p50_us",
    "vww_s_p50_us",      "vww_m_p50_us",       "kws_int4_p50_us",
    "zoo_gmac_per_s",    "served_per_s",       "dispatch_tick_p50_us",
    "dispatch_tick_p99_us"};

const std::vector<std::string> kPerLayer = {
    "kernels.conv2d_s8.self_us", "kernels.depthwise_s8.self_us",
    "kernels.fc_s8.self_us", "kernels.add_s8.self_us", "kernels.pool_s8.self_us",
    "kernels.softmax_s8.self_us", "kernels.conv2d_s4.self_us",
    "kernels.depthwise_s4.self_us", "kernels.other_s4.self_us",
    "kernels.conv2d_s8.gmac_per_s", "kernels.depthwise_s8.gmac_per_s",
    "kernels.fc_s8.gmac_per_s", "kernels.conv2d_s4.gmac_per_s",
    "kernels.depthwise_s4.gmac_per_s", "kernels.conv2d_s8.bytes_per_invoke",
    "kernels.depthwise_s8.bytes_per_invoke", "kernels.fc_s8.bytes_per_invoke",
    "kernels.conv2d_s4.bytes_per_invoke", "kernels.depthwise_s4.bytes_per_invoke",
    "kernels.depthwise_s8.share.kws_m", "kernels.depthwise_s8.share.vww_s",
    "kernels.r2_host_vs_ops.kws_m", "runtime.dispatch_us_per_invoke",
    "runtime.float_path_us", "runtime.crc_verify_us", "runtime.convert_ms",
    "runtime.plan_us", "runtime.pack_us", "runtime.ctor_us",
    "runtime.arena_bytes", "runtime.peak_live_bytes", "runtime.packed_bytes",
    "nn.calibrate_ms", "serve.submit_ns", "serve.idle_tick_us",
    "serve.dispatch_width", "serve.queue_wait_ticks_p99", "serve.shed",
    "serve.retries", "serve.degraded", "serve.quarantines",
    "serve.canary_detections", "serve.rebuild_us", "serve.health_check_us",
    "parallel.regions", "parallel.chunks", "parallel.stolen_share",
    "parallel.fanout_efficiency", "obs.events_emitted",
    "obs.trace_overhead_share"};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string trace_out;
  bool self_test = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "zoobench: %s\nusage: zoobench --workload zoo|serve_steady|"
               "serve_chaos --seed N --seconds S --trace 0|1 [--trace-out PATH]\n"
               "       zoobench --self-test\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") { a.self_test = true; continue; }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      size_t used = 0;
      if (flag == "--workload") {
        a.workload = v;
        have_workload = true;
        used = v.size();
      } else if (flag == "--seed") {
        if (v.empty() || v[0] == '-') throw std::invalid_argument(v);
        a.seed = std::stoull(v, &used);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v, &used);
        if (!(a.seconds > 0.0 && a.seconds <= 3600.0)) throw std::invalid_argument(v);
      } else if (flag == "--trace") {
        a.trace = std::stoi(v, &used);
        if (a.trace != 0 && a.trace != 1) throw std::invalid_argument(v);
      } else if (flag == "--trace-out") {
        a.trace_out = v;
        used = v.size();
      } else {
        usage("unknown flag " + flag);
      }
      if (used != v.size()) throw std::invalid_argument(v);
    } catch (const std::logic_error&) {
      usage("bad value '" + v + "' for " + flag);
    }
  }
  if (!a.self_test && !have_workload) usage("--workload is required");
  if (!a.self_test && a.workload != "zoo" && a.workload != "serve_steady" &&
      a.workload != "serve_chaos")
    usage("unknown workload '" + a.workload + "'");
  return a;
}

bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

int hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Attempted / succeeded / failed requests of one phase.
struct Phase {
  std::string name;
  int64_t attempted = 0, succeeded = 0, failed = 0;
};

int64_t on_time(const mn::serve::ServeStats& s) {
  return s.served + s.served_degraded + s.served_shadowed + s.served_rollback;
}

Phase fleet_phase(const std::string& name, const std::vector<Episode>& eps) {
  Phase p{name};
  for (const Episode& ep : eps) {
    p.attempted += ep.stats.submitted;
    p.succeeded += on_time(ep.stats);
  }
  p.failed = p.attempted - p.succeeded;
  return p;
}

void print_fleet_outputs(const char* label, const Episode& ep) {
  const mn::serve::ServeStats& s = ep.stats;
  std::printf(
      "  %s fingerprint %016llx submitted %lld admitted %lld served %lld "
      "degraded %lld late %lld shed %lld failed %lld retries %lld quarantines "
      "%lld canary %lld final_sweep %lld\n",
      label, static_cast<unsigned long long>(ep.fingerprint),
      static_cast<long long>(s.submitted), static_cast<long long>(s.admitted),
      static_cast<long long>(s.total_served()),
      static_cast<long long>(s.served_degraded),
      static_cast<long long>(s.served_late), static_cast<long long>(s.total_shed()),
      static_cast<long long>(s.failed), static_cast<long long>(s.retries),
      static_cast<long long>(s.quarantines),
      static_cast<long long>(s.canary_detections),
      static_cast<long long>(ep.final_sweep));
}

// Median of each setup component across repetitions.
void report_setup(const std::vector<SetupCost>& reps, Ledger* out) {
  auto med = [&](double SetupCost::*f) {
    std::vector<double> v;
    for (const SetupCost& c : reps) v.push_back(c.*f);
    return median(v);
  };
  out->set("setup_s", med(&SetupCost::total_s), "s");
  out->set("nn.calibrate_ms", med(&SetupCost::calibrate_ms), "ms");
  out->set("runtime.convert_ms", med(&SetupCost::convert_ms), "ms");
  out->set("runtime.plan_us", med(&SetupCost::plan_us), "us");
  out->set("runtime.pack_us", med(&SetupCost::pack_us), "us");
  out->set("runtime.ctor_us", med(&SetupCost::ctor_us), "us");
}

void report_bytes(const std::vector<const mn::rt::ModelDef*>& models,
                  const Program& program, Ledger* out) {
  double arena = 0, live = 0, packed = 0;
  for (const mn::rt::ModelDef* m : models) {
    const mn::rt::MemoryPlan plan = mn::rt::plan_memory(*m);
    arena += static_cast<double>(plan.arena_bytes);
    live += static_cast<double>(plan.peak_live_bytes(static_cast<int>(m->ops.size())));
    packed += static_cast<double>(program.pack(*m)->bytes());
  }
  out->set("runtime.arena_bytes", arena, "B");
  out->set("runtime.peak_live_bytes", live, "B");
  out->set("runtime.packed_bytes", packed, "B");
}

bool same_outputs(const Episode& a, const Episode& b) {
  const auto& x = a.stats;
  const auto& y = b.stats;
  return a.fingerprint == b.fingerprint && x.submitted == y.submitted &&
         x.admitted == y.admitted && x.total_served() == y.total_served() &&
         x.served_degraded == y.served_degraded && x.served_late == y.served_late &&
         x.total_shed() == y.total_shed() && x.failed == y.failed &&
         x.retries == y.retries && x.quarantines == y.quarantines &&
         x.canary_detections == y.canary_detections &&
         a.final_sweep == b.final_sweep;
}

int self_test(int threads) {
  int failures = 0;
  std::printf("self-test: fleet outputs at 1 and %d threads\n", threads);
  for (FleetMode mode : {FleetMode::kSteady, FleetMode::kChaos}) {
    SetupCost cost;
    const FleetModels models = build_fleet_models(7, &cost);
    std::vector<Episode> eps;
    for (int t : {1, threads}) {
      const Program program = pin_program(t);
      auto engine = make_engine(program, models, mode, 7, &cost);
      eps.push_back(run_episode(*engine, mode, kSelfTestTicks));
      print_fleet_outputs(mode == FleetMode::kSteady ? "steady" : "chaos ", eps.back());
    }
    if (!eps[0].checks_ok || !eps[1].checks_ok || !same_outputs(eps[0], eps[1])) {
      std::printf("  FAIL: fleet outputs differ across thread counts or checks failed\n");
      ++failures;
    }
  }
  std::printf("self-test: zoo outputs against the reference kernels\n");
  const Program program = pin_program(1);
  Zoo zoo = build_zoo(program, 7, 1);
  ZooRun run = begin_zoo_run(zoo, false);
  zoo_round(zoo, &run);
  end_zoo_run(zoo, &run);
  const int64_t clean = check_zoo_outputs(program, zoo, run, false);
  const int64_t corrupted = check_zoo_outputs(program, zoo, run, true);
  std::printf("  clean comparison: %lld mismatch(es); corrupted reference: %lld\n",
              static_cast<long long>(clean), static_cast<long long>(corrupted));
  if (clean != 0 || corrupted == 0 || run.errors != 0) {
    std::printf("  FAIL: the reference comparison is not discriminating\n");
    ++failures;
  }
  std::printf("self-test: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

// One measurement pass: the zoo run and the fleet episodes it interleaves.
struct Pass {
  ZooRun zoo;
  std::vector<Episode> fleet;
};

int run(const Args& args) {
  const bool is_zoo = args.workload == "zoo";
  // The zoo family always runs on one worker thread; the fleet runs on the
  // workload's thread count (steady on one thread as the zoo's probe).
  const int threads = is_zoo ? 1 : std::min(4, hardware_threads());
  const FleetMode fmode =
      args.workload == "serve_chaos" ? FleetMode::kChaos : FleetMode::kSteady;
  const std::vector<std::string> overrides = env_overrides();

  std::printf("zoobench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace);
  std::printf("  nproc %d  threads %d (zoo: 1)  build %s  compiler %s  MN_OBS %s\n",
              hardware_threads(), threads, ZB_BUILD_TYPE, ZB_COMPILER,
#if defined(MN_OBS_DISABLED)
              "off"
#else
              "on"
#endif
  );
  std::printf("  env overrides: %s\n", overrides.empty() ? "none" : "");
  for (const std::string& o : overrides) std::printf("    %s (ignored)\n", o.c_str());

  // --- setup: the workload's own family is set up repeatedly and timed ----
  Ledger m;
  const bool traced = args.trace == 1;
  if (traced) {
    mn::obs::trace_reserve(kTraceEvents);
    mn::obs::set_tracing(true);
  }
  const Program zoo_program = pin_program(1);
  std::vector<SetupCost> zoo_setups, fleet_setups;
  Zoo zoo;
  for (int r = 0; r < (is_zoo ? kZooSetupReps : 1); ++r) {
    const Calib calib_before = calibrate();
    zoo = build_zoo(zoo_program, args.seed, kZooInputs);
    zoo.cost.scale(calib_before.scale(CalibKind::kStreaming, calibrate()));
    zoo_setups.push_back(zoo.cost);
  }
  const Program program = pin_program(threads);
  FleetModels models;
  std::unique_ptr<mn::serve::ServingEngine> engine;
  for (int r = 0; r < (is_zoo ? 1 : kFleetSetupReps); ++r) {
    SetupCost cost;
    const Calib calib_before = calibrate();
    const int64_t t0 = now_ns();
    models = build_fleet_models(args.seed, &cost);
    engine = make_engine(program, models, fmode, args.seed, &cost);
    cost.total_s = static_cast<double>(now_ns() - t0) / 1e9;
    time_plan_pack(program, models, &cost);
    cost.scale(calib_before.scale(CalibKind::kStreaming, calibrate()));
    fleet_setups.push_back(cost);
  }
  report_setup(is_zoo ? zoo_setups : fleet_setups, &m);
  mn::obs::set_tracing(false);

  // --- measurement: main-family units interleaved with probe units --------
  const int64_t ticks = is_zoo ? kFleetProbeTicks : kFleetEpisodeTicks;
  auto episode = [&] {
    pin_program(threads);
    if (!engine) {
      SetupCost unused;
      engine = make_engine(program, models, fmode, args.seed, &unused);
    }
    Episode ep = run_episode(*engine, fmode, ticks);
    engine.reset();
    return ep;
  };
  auto measure = [&](double seconds, bool trace) {
    Pass pass;
    mn::obs::set_tracing(trace);
    pin_program(1);
    pass.zoo = begin_zoo_run(zoo, trace);
    const int64_t t0 = now_ns();
    do {
      for (int k = 0; k < (is_zoo ? 1 : kEpisodesPerCycle); ++k)
        pass.fleet.push_back(episode());
      pin_program(1);
      zoo_round(zoo, &pass.zoo);
    } while (pass.zoo.rounds < kMinCycles ||
             static_cast<double>(now_ns() - t0) / 1e9 < seconds);
    end_zoo_run(zoo, &pass.zoo);
    mn::obs::set_tracing(false);
    return pass;
  };
  // Traced runs measure twice: untraced, then traced (the overhead base).
  const Pass plain = measure(traced ? args.seconds / 2 : args.seconds, false);
  Pass tpass;
  if (traced) {
    if (mn::obs::event_capacity() < (1u << 19)) mn::obs::event_reserve(1u << 19);
    tpass = measure(args.seconds / 2, true);
  }

  // --- output checks (untimed) --------------------------------------------
  std::vector<Phase> phases;
  int64_t unexpected = 0;  // failures the workload does not allow
  bool checks_ok = true;
  const int64_t mismatches =
      check_zoo_outputs(zoo_program, zoo, plain.zoo, false);
  {
    Phase p{is_zoo ? "zoo" : "zoo-probe"};
    p.attempted = plain.zoo.invokes + tpass.zoo.invokes;
    p.failed = plain.zoo.errors + tpass.zoo.errors;
    p.succeeded = p.attempted - p.failed;
    phases.push_back(p);
    const int64_t compared = static_cast<int64_t>(zoo.models.size()) * kZooInputs;
    phases.push_back(Phase{"reference-check", compared, compared - mismatches, mismatches});
    unexpected += p.failed + mismatches;
  }
  std::vector<Episode> all = plain.fleet;
  all.insert(all.end(), tpass.fleet.begin(), tpass.fleet.end());
  for (const Episode& ep : all) {
    if (!ep.checks_ok) checks_ok = false;
    if (!same_outputs(ep, all.front())) {
      std::printf("FAIL: fleet episodes differ under the same seed\n");
      checks_ok = false;
    }
    unexpected += fmode == FleetMode::kSteady
                      ? ep.stats.submitted - on_time(ep.stats)
                      : std::max<int64_t>(0, ep.stats.admitted - ep.stats.completed());
  }
  phases.push_back(fleet_phase(is_zoo ? "fleet-probe" : "fleet", all));

  // --- report ---------------------------------------------------------------
  std::printf("\nzoo (%s, 1 thread, %d rounds, %.2f s):\n", is_zoo ? "main" : "probe",
              plain.zoo.rounds, plain.zoo.wall_s);
  report_zoo(zoo, plain.zoo, &m);
  std::printf("\nfleet (%s, %s, %d thread(s), %lld ticks per episode):\n",
              is_zoo ? "probe" : "main", fmode == FleetMode::kChaos ? "chaos" : "steady",
              threads, static_cast<long long>(ticks));
  report_fleet(plain.fleet, &m);
  print_fleet_outputs("exact:", all.front());

  int64_t attempted = 0, failed = 0;
  std::printf("\nphases (attempted / succeeded / failed):\n");
  for (const Phase& p : phases) {
    std::printf("  %-16s %10lld %10lld %10lld\n", p.name.c_str(),
                static_cast<long long>(p.attempted), static_cast<long long>(p.succeeded),
                static_cast<long long>(p.failed));
    if (p.name != "reference-check") {
      attempted += p.attempted;
      failed += p.failed;
    }
  }
  const double failed_share =
      attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0;
  std::printf("  failed_share %.6f\n", failed_share);
  m.set("served_share", 1.0 - failed_share, "share");

  bool accounted = true;
  if (traced) {
    std::printf("\ntraced zoo accounting (Σ op self + dispatch vs untraced invoke):\n");
    accounted = report_zoo_layers(zoo, tpass.zoo, &m);
    SetupCost unused;
    pin_program(threads);
    mn::obs::set_tracing(true);
    const FleetCosts costs = measure_fleet_costs(
        *make_engine(program, models, fmode, args.seed, &unused), models);
    mn::obs::set_tracing(false);
    report_fleet_layers(plain.fleet, tpass.fleet, costs, threads, &m);
    std::vector<const mn::rt::ModelDef*> defs;
    if (is_zoo) {
      for (const ZooModel& zm : zoo.models) defs.push_back(&zm.model);
    } else {
      for (const FleetModels::Tenant& t : models.tenants) {
        defs.push_back(&t.primary);
        defs.push_back(&t.fallback);
      }
    }
    report_bytes(defs, zoo_program, &m);
    if (!args.trace_out.empty()) {
      const std::filesystem::path p(args.trace_out);
      if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
      if (mn::obs::write_text_file(args.trace_out, mn::obs::chrome_trace_json()))
        std::printf("\ntrace: %zu span events (%lld evicted) in %s\n",
                    mn::obs::trace_size(),
                    static_cast<long long>(mn::obs::trace_dropped()),
                    args.trace_out.c_str());
      else
        std::fprintf(stderr, "zoobench: could not write %s\n", args.trace_out.c_str());
    }
  }
  m.set("peak_rss_mb", peak_rss_mb(), "MB");

  const bool correct = checks_ok && unexpected == 0 && accounted;
  const std::vector<std::string>& names = traced ? kPerLayer : kEndToEnd;
  std::printf("\n%s metrics:\n", traced ? "per-layer" : "end-to-end");
  m.print_table(names);
  if (!correct)
    std::printf("\nFAIL: output checks failed (%lld unexpected%s)\n",
                static_cast<long long>(unexpected),
                accounted ? "" : ", traced zoo accounting");
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(unexpected), m.json(names).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace zb

int main(int argc, char** argv) {
  const zb::Args args = zb::parse_args(argc, argv);
  if (zb::sanitized_build()) {
    std::fprintf(stderr,
                 "zoobench: refusing to report timings from a sanitizer build\n");
    return 2;
  }
  if (args.self_test) return zb::self_test(std::min(4, zb::hardware_threads()));
  return zb::run(args);
}
