#include "pins.hpp"

#include <cstdio>
#include <cstdlib>

#include "compile/compile.hpp"
#include "kernels/backend.hpp"
#include "parallel/pool.hpp"

namespace zb {

namespace {
const mn::kernels::BackendConfig kBackend = mn::kernels::BackendConfig::fast();
const mn::compile::CompileConfig kCompile = mn::compile::CompileConfig::none();
}  // namespace

Program pin_program(int threads) {
  mn::parallel::set_threads(threads);
  return Program{};
}

std::shared_ptr<const mn::rt::PackedModel> Program::pack(
    const mn::rt::ModelDef& model) const {
  return mn::rt::pack_model_weights(model, kBackend);
}

std::unique_ptr<mn::rt::Interpreter> Program::interpreter(
    const mn::rt::ModelDef& model, const mn::rt::MemoryPlan& plan,
    std::shared_ptr<const mn::rt::PackedModel> packed) const {
  return std::make_unique<mn::rt::Interpreter>(model, plan, kBackend,
                                               std::move(packed));
}

std::unique_ptr<mn::rt::Interpreter> Program::reference(
    const mn::rt::ModelDef& model) const {
  return std::make_unique<mn::rt::Interpreter>(
      model, mn::rt::plan_memory(model), mn::kernels::BackendConfig::reference());
}

mn::serve::VariantSpec Program::variant(mn::rt::ModelDef model,
                                        mn::serve::Tick service_ticks,
                                        int instances) const {
  mn::serve::VariantSpec spec;
  spec.model = std::move(model);
  spec.service_ticks = service_ticks;
  spec.instances = instances;
  spec.backend = kBackend;
  spec.compile = kCompile;
  return spec;
}

std::vector<std::string> env_overrides() {
  static const std::vector<std::string> found = [] {
    std::vector<std::string> v;
    for (const char* name : {"MN_THREADS", "MN_BACKEND", "MN_COMPILE", "MN_OBS_RING"}) {
      const char* value = std::getenv(name);
      if (value == nullptr) continue;
      std::fprintf(stderr,
                   "zoobench: warning: %s=%s is set; the benchmark pins its own "
                   "configuration and records this override\n",
                   name, value);
      v.push_back(std::string(name) + "=" + value);
    }
    return v;
  }();
  return found;
}

}  // namespace zb
