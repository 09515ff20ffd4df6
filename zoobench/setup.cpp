#include "setup.hpp"

#include "ledger.hpp"
#include "obs/obs.hpp"
#include "runtime/converter.hpp"
#include "tensor/rng.hpp"

namespace zb {

void SetupCost::scale(double f) {
  calibrate_ms *= f;
  convert_ms *= f;
  plan_us *= f;
  pack_us *= f;
  ctor_us *= f;
  total_s *= f;
}

mn::rt::ModelDef convert_model(const std::function<mn::nn::Graph()>& build,
                               mn::Shape input, const std::string& name,
                               int bits, SetupCost* cost) {
  mn::nn::Graph graph = [&] {
    const mn::obs::SpanScope span("nn.build", mn::obs::Cat::kBench);
    return build();
  }();

  mn::Rng rng(0xCA11B);
  mn::TensorF batch(mn::Shape{2, input.dim(0), input.dim(1), input.dim(2)});
  for (int64_t i = 0; i < batch.size(); ++i)
    batch[i] = static_cast<float>(rng.normal(0.0, 0.5));
  int64_t t = now_ns();
  const mn::rt::RangeMap ranges = [&] {
    const mn::obs::SpanScope span("nn.calibrate", mn::obs::Cat::kBench);
    return mn::rt::calibrate_ranges(graph, batch);
  }();
  cost->calibrate_ms += static_cast<double>(now_ns() - t) / 1e6;

  mn::rt::ConvertOptions co;
  co.name = name;
  co.weight_bits = bits;
  co.act_bits = bits;
  t = now_ns();
  mn::rt::ModelDef model = [&] {
    const mn::obs::SpanScope span("runtime.convert", mn::obs::Cat::kBench);
    return mn::rt::convert(graph, co, &ranges);
  }();
  cost->convert_ms += static_cast<double>(now_ns() - t) / 1e6;
  return model;
}

}  // namespace zb
