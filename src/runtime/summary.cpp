#include "runtime/summary.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

namespace mn::rt {

namespace {

std::string fmt(const char* format, ...) {
  char buf[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

}  // namespace

std::string model_summary(const ModelDef& model) {
  std::string out;
  out += fmt("model '%s': %zu ops, %zu tensors\n", model.name.c_str(),
             model.ops.size(), model.tensors.size());
  out += fmt("%-4s %-20s %-18s %-18s %12s\n", "#", "op", "input", "output", "MACs");
  for (size_t i = 0; i < model.ops.size(); ++i) {
    const OpDef& op = model.ops[i];
    const TensorDef& in = model.tensors.at(static_cast<size_t>(op.inputs.at(0)));
    const TensorDef& o = model.tensors.at(static_cast<size_t>(op.output));
    out += fmt("%-4zu %-20s %-18s %-18s %12lld\n", i, op_type_name(op.type),
               in.shape.to_string().c_str(), o.shape.to_string().c_str(),
               static_cast<long long>(op.macs(model.tensors)));
  }
  out += fmt("totals: %.2f Mops (%.2f MMACs), %lld KB weights, %lld KB model\n",
             static_cast<double>(model.total_ops()) / 1e6,
             static_cast<double>(model.total_macs()) / 1e6,
             static_cast<long long>(model.weights_bytes() / 1024),
             static_cast<long long>(model.flatbuffer_bytes() / 1024));
  return out;
}

std::string deployment_summary(const Interpreter& interp) {
  std::string out = model_summary(interp.model());
  const auto& backends = interp.op_backends();
  out += fmt("kernels: %s backend, %s ISA, %lld/%zu ops on the fast kernels\n",
             kernels::backend_name(interp.backend()),
             kernels::kernel_isa_name(interp.kernel_isa()),
             static_cast<long long>(std::count(backends.begin(), backends.end(),
                                               kernels::BackendKind::kFast)),
             backends.size());
  const MemoryPlan& plan = interp.memory_plan();
  out += fmt("arena plan (%lld KB):\n",
             static_cast<long long>(plan.arena_bytes / 1024));
  for (const TensorAllocation& a : plan.allocations) {
    const TensorDef& t = interp.model().tensors.at(static_cast<size_t>(a.tensor_id));
    out += fmt("  [%7lld, %7lld) %-24s life ops [%d, %d]\n",
               static_cast<long long>(a.offset),
               static_cast<long long>(a.offset + a.bytes), t.name.c_str(),
               a.first_op, a.last_op);
  }
  const MemoryReport r = interp.memory_report();
  out += fmt("SRAM: %lld KB (arena %lld + persistent %lld + runtime %lld)\n",
             static_cast<long long>(r.total_sram() / 1024),
             static_cast<long long>(r.arena_bytes / 1024),
             static_cast<long long>(r.persistent_bytes / 1024),
             static_cast<long long>(r.runtime_sram_bytes / 1024));
  out += fmt("flash: %lld KB (model %lld + code %lld)\n",
             static_cast<long long>(r.total_flash() / 1024),
             static_cast<long long>(r.model_flash() / 1024),
             static_cast<long long>(r.code_flash_bytes / 1024));
  return out;
}

}  // namespace mn::rt
