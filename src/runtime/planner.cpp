#include "runtime/planner.hpp"

#include <algorithm>

namespace mn::rt {

const TensorAllocation* MemoryPlan::find(int tensor_id) const {
  for (const TensorAllocation& a : allocations)
    if (a.tensor_id == tensor_id) return &a;
  return nullptr;
}

int64_t MemoryPlan::live_bytes_at(int op_index) const {
  int64_t live = 0;
  for (const TensorAllocation& a : allocations)
    if (a.first_op <= op_index && op_index <= a.last_op) live += a.bytes;
  return live;
}

std::vector<int64_t> MemoryPlan::occupancy_timeline(int num_ops) const {
  std::vector<int64_t> out(static_cast<size_t>(std::max(num_ops, 0)));
  for (int i = 0; i < num_ops; ++i) out[static_cast<size_t>(i)] = live_bytes_at(i);
  return out;
}

int64_t MemoryPlan::peak_live_bytes(int num_ops) const {
  int64_t peak = 0;
  for (int i = 0; i < num_ops; ++i) peak = std::max(peak, live_bytes_at(i));
  return peak;
}

MemoryPlan plan_memory(const ModelDef& model) {
  // Lifetime per activation tensor: [first writer, last reader].
  std::vector<TensorAllocation> allocs;
  for (int id = 0; id < static_cast<int>(model.tensors.size()); ++id) {
    const TensorDef& t = model.tensors[static_cast<size_t>(id)];
    if (t.is_const) continue;
    TensorAllocation a;
    a.tensor_id = id;
    a.bytes = t.storage_bytes();
    a.first_op = id == model.input_tensor ? -1 : -2;  // -2 = not yet written
    a.last_op = id == model.output_tensor ? static_cast<int>(model.ops.size()) : -2;
    for (int oi = 0; oi < static_cast<int>(model.ops.size()); ++oi) {
      const OpDef& op = model.ops[static_cast<size_t>(oi)];
      if (op.output == id && a.first_op == -2) a.first_op = oi;
      for (int in : op.inputs)
        if (in == id) a.last_op = std::max(a.last_op, oi);
    }
    allocs.push_back(a);
  }

  // Greedy-by-size first-fit (TFLM GreedyMemoryPlanner).
  std::vector<size_t> order(allocs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    if (allocs[x].bytes != allocs[y].bytes) return allocs[x].bytes > allocs[y].bytes;
    return allocs[x].tensor_id < allocs[y].tensor_id;
  });
  std::vector<size_t> placed;
  int64_t arena = 0;
  for (size_t idx : order) {
    TensorAllocation& cur = allocs[idx];
    // Collect intervals blocked by already-placed, lifetime-overlapping
    // tensors, then take the lowest gap that fits.
    std::vector<std::pair<int64_t, int64_t>> busy;
    for (size_t p : placed) {
      const TensorAllocation& o = allocs[p];
      const bool overlap = cur.first_op <= o.last_op && o.first_op <= cur.last_op;
      if (overlap) busy.emplace_back(o.offset, o.offset + o.bytes);
    }
    std::sort(busy.begin(), busy.end());
    int64_t candidate = 0;
    for (const auto& [lo, hi] : busy) {
      if (candidate + cur.bytes <= lo) break;
      candidate = std::max(candidate, hi);
    }
    cur.offset = candidate;
    arena = std::max(arena, candidate + cur.bytes);
    placed.push_back(idx);
  }
  MemoryPlan plan;
  plan.allocations = std::move(allocs);
  plan.arena_bytes = arena;
  return plan;
}

int64_t unplanned_activation_bytes(const ModelDef& model) {
  int64_t total = 0;
  for (const TensorDef& t : model.tensors)
    if (!t.is_const) total += t.storage_bytes();
  return total;
}

}  // namespace mn::rt
