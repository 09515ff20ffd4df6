// Human-readable model summaries: per-op table (type, shapes, MACs, arena
// placement) plus totals — the analog of a TFLite model visualizer, used by
// the benches and handy when debugging converted graphs.
#pragma once

#include <string>

#include "runtime/interpreter.hpp"
#include "runtime/model.hpp"

namespace mn::rt {

// Multi-line per-op summary of a model.
std::string model_summary(const ModelDef& model);

// Summary including the kernel backend and instruction set that serve the
// interpreter with how many ops the fast kernels serve, the memory plan
// (tensor offsets/lifetimes) and the footprint report.
std::string deployment_summary(const Interpreter& interp);

}  // namespace mn::rt
