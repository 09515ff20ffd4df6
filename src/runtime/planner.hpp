// Arena memory planner: assigns non-overlapping byte offsets to activation
// tensors whose lifetimes intersect, using TFLM's greedy-by-size strategy.
#pragma once

#include <vector>

#include "runtime/model.hpp"

namespace mn::rt {

struct TensorAllocation {
  int tensor_id = -1;
  int64_t offset = 0;
  int64_t bytes = 0;
  int first_op = 0;  // op index that writes the tensor (-1 for model input)
  int last_op = 0;   // last op index that reads it (ops.size() for output)
};

struct MemoryPlan {
  std::vector<TensorAllocation> allocations;  // activation tensors only
  int64_t arena_bytes = 0;                    // peak arena requirement

  // Allocation entry for a tensor, or nullptr if not an arena tensor.
  const TensorAllocation* find(int tensor_id) const;

  // Sum of bytes of all tensors live while op `op_index` executes (lifetime
  // [first_op, last_op] covers the index). Always <= arena_bytes; the gap is
  // fragmentation the greedy planner could not pack away.
  int64_t live_bytes_at(int op_index) const;

  // live_bytes_at for every op index 0..num_ops-1 — the arena fill/drain
  // curve over the inference timeline (the paper's Fig. 2 memory map), ready
  // to emit as a counter track or a bench JSON series.
  std::vector<int64_t> occupancy_timeline(int num_ops) const;

  // max over the timeline: the tightest arena any planner could achieve for
  // these lifetimes (lower bound; arena_bytes >= this).
  int64_t peak_live_bytes(int num_ops) const;
};

// Plans all non-const tensors of the model into a single arena. The model
// must pass ModelDef::check(), whose dataflow rules are the lifetimes this
// derives.
MemoryPlan plan_memory(const ModelDef& model);

// Naive upper bound (sum of all activation tensors), used to quantify how
// much the lifetime-aware planner saves.
int64_t unplanned_activation_bytes(const ModelDef& model);

}  // namespace mn::rt
