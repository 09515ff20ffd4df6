// Model construction shared by the zoo and the fleet, with every stage
// timed: graph build, calibration (nn), conversion, planning, packing and
// interpreter construction (runtime).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "nn/graph.hpp"
#include "runtime/model.hpp"
#include "tensor/shape.hpp"

namespace zb {

// Host time of one setup pass, summed over the models it builds.
struct SetupCost {
  double calibrate_ms = 0.0;  // rt::calibrate_ranges (a float forward pass)
  double convert_ms = 0.0;    // rt::convert
  double plan_us = 0.0;       // rt::plan_memory
  double pack_us = 0.0;       // weight-panel packing
  double ctor_us = 0.0;       // interpreter / engine construction
  double total_s = 0.0;       // wall time of the whole pass

  // Multiplies every time by `factor` (a calibration scale, calib.hpp).
  void scale(double factor);
};

// Builds the graph, calibrates it on a fixed random batch (the model is part
// of the program, so it does not depend on the workload seed) and converts
// it to a deployable model with `bits`-bit weights and activations.
mn::rt::ModelDef convert_model(const std::function<mn::nn::Graph()>& build,
                               mn::Shape input, const std::string& name,
                               int bits, SetupCost* cost);

}  // namespace zb
