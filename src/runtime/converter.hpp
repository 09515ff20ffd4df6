// Converter: lowers a trained nn::Graph to a deployable ModelDef —
// the TFLite-converter analog. Folds BatchNorm into the preceding
// convolution, quantizes weights per-channel (symmetric) and activations
// per-tensor (asymmetric, ranges from QAT FakeQuant nodes or a calibration
// pass), and emits fused conv+activation ops.
#pragma once

#include <map>
#include <string>

#include "nn/graph.hpp"
#include "runtime/model.hpp"

namespace mn::rt {

struct ConvertOptions {
  std::string name = "model";
  int weight_bits = 8;
  int act_bits = 8;
  // Append a softmax op after the final layer (8-bit models only).
  bool append_softmax = false;
};

// Observed activation range per graph node id, for converting float-trained
// graphs that carry no FakeQuant nodes.
using RangeMap = std::map<int, std::pair<float, float>>;

// Runs one forward pass (inference mode) and records per-node min/max.
RangeMap calibrate_ranges(nn::Graph& graph, const TensorF& sample_batch);

// Converts the graph. Supported node patterns: Input [FakeQuant],
// Conv2D/DepthwiseConv2D/Dense [BatchNorm] [Relu] [FakeQuant], Add [Relu]
// [FakeQuant], AvgPool/MaxPool/GlobalAvgPool [FakeQuant]. DNAS decision
// nodes must be resolved (architecture extracted) before conversion.
ModelDef convert(nn::Graph& graph, const ConvertOptions& opt,
                 const RangeMap* calibration = nullptr);

}  // namespace mn::rt
