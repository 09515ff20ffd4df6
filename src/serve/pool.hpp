// InterpreterPool: per-model arena pools of pre-planned rt::Interpreter
// replicas, with instance health checking and quarantine + re-plan.
//
// Each registered variant keeps its pristine ModelDef (the "golden flash
// image") and a MemoryPlan computed exactly once; every replica is built
// from that shared plan, so adding instances costs arena allocation but no
// re-planning. A replica whose live memory drifts from the golden image —
// weights-CRC mismatch or a clobbered arena guard band — is quarantined:
// rebuilt from the pristine model + shared plan and held out of rotation
// for a cooldown before it serves again.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "runtime/interpreter.hpp"
#include "serve/serve.hpp"

namespace mn::serve {

class InterpreterPool {
 public:
  struct Instance {
    std::unique_ptr<rt::Interpreter> interp;
    int variant = -1;
    Tick busy_until = 0;   // virtual tick at which the replica frees up
    int64_t rebuilds = 0;  // quarantine + re-plan events
  };

  // Registers a variant and builds `spec.instances` replicas (>= 1). Every
  // replica verifies its weights CRC on each invoke, so a poisoned flash
  // image is caught at the next request rather than producing garbage.
  // Returns the variant id.
  int add_variant(VariantSpec spec);

  int num_variants() const { return static_cast<int>(variants_.size()); }
  int num_instances() const { return static_cast<int>(instances_.size()); }
  Tick service_ticks(int variant) const {
    return variants_[static_cast<size_t>(variant)].service_ticks;
  }
  // A fresh standalone replica of `variant` (pristine image + shared plan
  // and panels, per-invoke CRC verification armed) that is NOT entered into
  // the pool. Every pool replica, quarantine rebuilds included, is built here.
  std::unique_ptr<rt::Interpreter> make_replica(int variant) const;

  // Lowest-index healthy replica of `variant` free at `now`, or -1. Does not
  // mark it busy — the engine stamps busy_until with the completion tick.
  int acquire(int variant, Tick now) const;

  Instance& instance(int idx) { return instances_[static_cast<size_t>(idx)]; }
  const Instance& instance(int idx) const {
    return instances_[static_cast<size_t>(idx)];
  }
  rt::Interpreter& interp(int idx) {
    return *instances_[static_cast<size_t>(idx)].interp;
  }

  // Canary + integrity scan of an (idle) replica: arena guard bands intact
  // and live weights CRC equal to the golden image's.
  std::optional<rt::RtError> health_check(int idx) const;

  // Quarantine + re-plan: rebuild the replica onto its own variant from the
  // pristine model and the shared plan, and hold it out of rotation until
  // `until`.
  void quarantine(int idx, Tick until);

  // True when every replica's live state matches its golden image (used by
  // tests/benches to prove quarantined instances recovered).
  bool all_healthy() const;

 private:
  struct Variant {
    rt::ModelDef pristine;
    rt::MemoryPlan plan;
    // Packed once alongside the plan; every replica (incl. quarantine
    // rebuilds) aliases the same immutable panels.
    kernels::BackendConfig backend{};
    std::shared_ptr<const rt::PackedModel> packed;
    Tick service_ticks = 1;
    uint32_t weights_crc = 0;
  };

  std::vector<Variant> variants_;
  std::vector<Instance> instances_;
};

}  // namespace mn::serve
