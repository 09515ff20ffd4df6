// Host-speed calibration.
//
// On a shared host the same code runs up to ~2x slower for seconds or
// minutes at a time (co-tenant load the guest cannot see; thread CPU time
// slows with it), so raw host times from two runs minutes apart are not
// comparable. The benchmark therefore times frozen calibration kernels next
// to every burst and window it measures and reports calibrated times:
//
//   calibrated_us = raw_us * nominal_us / calib_us
//
// i.e. the time the measured code would take on a host where the
// calibration kernel takes its nominal time (about its uncontended time on
// the 4-core Xeon host the benchmark was tuned on). The kernels are
// compiled into the benchmark, not the library, so a change to the program
// never moves them. Slow host modes hurt memory traffic more than
// arithmetic, so each measurement uses the kernel that tracks it best:
//
//   kStreaming  int8 3x3 depthwise over a 48x48x64 map (L2-sized streams):
//               the int8 zoo models and set-up. Calibrated KWS-M / VWW-M
//               move ~6% between host modes where raw times move ~90%.
//   kCompute    an L1-resident int8 dot-product block: the fleet, whose
//               tiny models and scheduler stay in L1 (a single-threaded
//               fleet's served/s spread across runs drops from ~45% raw to
//               ~10%), and KWS int4, whose scalar nibble-unpacking kernels
//               are arithmetic-bound. They slow down less than this kernel
//               (~1.5x against ~1.8x), so calibration over-corrects them by
//               ~15%, where their raw times swing by ~45%.
#pragma once

namespace zb {

enum class CalibKind { kStreaming, kCompute };

// Host time of both calibration kernels at one moment (each the faster of
// two back-to-back passes; about 2.5 ms in all).
struct Calib {
  double streaming_us = 0.0;
  double compute_us = 0.0;

  // Scale for a measurement taken between this sample and `after`:
  // nominal / mean(before, after) for the kernel of kind `k`.
  double scale(CalibKind k, const Calib& after) const;
};

Calib calibrate();

}  // namespace zb
