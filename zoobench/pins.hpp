// The measured program's configuration, pinned in one place.
//
// The benchmark never lets the environment choose how the program runs:
// worker threads, the kernel backend and the graph compiler are all set
// explicitly here, and nowhere else in zoobench/ names BackendConfig or
// CompileConfig. When the library drops one of those knobs, this file is
// the only one that changes.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "runtime/interpreter.hpp"
#include "runtime/model.hpp"
#include "runtime/planner.hpp"
#include "serve/serve.hpp"

namespace zb {

// The one adapter: every construction below goes through the Program it
// returns. Sets the worker-thread count (parallel::set_threads) as a side
// effect; the kernel backend is the packed int8 path and the graph compiler
// is off.
struct Program {
  std::shared_ptr<const mn::rt::PackedModel> pack(
      const mn::rt::ModelDef& model) const;
  // Interpreter on the pinned backend with a shared plan and packed panels.
  std::unique_ptr<mn::rt::Interpreter> interpreter(
      const mn::rt::ModelDef& model, const mn::rt::MemoryPlan& plan,
      std::shared_ptr<const mn::rt::PackedModel> packed) const;
  // Interpreter on the reference kernels: the oracle outputs are checked
  // against.
  std::unique_ptr<mn::rt::Interpreter> reference(
      const mn::rt::ModelDef& model) const;
  mn::serve::VariantSpec variant(mn::rt::ModelDef model,
                                 mn::serve::Tick service_ticks,
                                 int instances) const;
};
Program pin_program(int threads);

// Environment knobs that would steer the program if it were not pinned.
// Each one that is set is warned about on stderr once and returned as
// "NAME=value" so the run metadata records it.
std::vector<std::string> env_overrides();

}  // namespace zb
