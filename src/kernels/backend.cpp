#include "kernels/backend.hpp"

#include <cstring>

namespace mn::kernels {

const char* backend_name(BackendKind k) {
  switch (k) {
    case BackendKind::kReference: return "reference";
    case BackendKind::kFast: return "fast";
  }
  return "?";
}

int64_t conv_panel_bytes(int32_t out_ch, int64_t k) {
  const int64_t groups = (out_ch + kPanelLanes - 1) / kPanelLanes;
  return groups * ((k + 1) / 2) * 2 * kPanelLanes;
}

PackedOpWeights pack_conv_panel(std::span<const int8_t> weights,
                                int32_t out_ch, int64_t k) {
  PackedOpWeights p;
  p.out_ch = out_ch;
  p.k = k;
  p.values.assign(static_cast<size_t>(conv_panel_bytes(out_ch, k)), 0);
  const int64_t pairs = (k + 1) / 2;
  for (int32_t oc = 0; oc < out_ch; ++oc) {
    // Channel oc's tap pairs sit 16 bytes apart in its group.
    int8_t* dst = p.values.data() +
                  int64_t{oc / kPanelLanes} * pairs * 2 * kPanelLanes +
                  (oc % kPanelLanes) * 2;
    const int8_t* row = weights.data() + int64_t{oc} * k;
    for (int64_t t = 0; t + 1 < k; t += 2, dst += 2 * kPanelLanes)
      std::memcpy(dst, row + t, 2);
    if (k % 2 != 0) dst[0] = row[k - 1];
  }
  return p;
}

}  // namespace mn::kernels
