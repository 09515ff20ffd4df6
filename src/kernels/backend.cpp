#include "kernels/backend.hpp"

#include <cstring>
#include <stdexcept>

namespace mn::kernels {

const char* backend_name(BackendKind k) {
  switch (k) {
    case BackendKind::kReference: return "reference";
    case BackendKind::kFast: return "fast";
  }
  return "?";
}

int64_t conv_panel_pairs(int64_t k, int32_t rows) {
  if (rows < 1)
    throw std::invalid_argument("conv_panel_pairs: rows must be >= 1");
  return rows * ((k / rows + 1) / 2);
}

int64_t conv_panel_bytes(int32_t out_ch, int64_t k, int32_t rows) {
  const int64_t groups = (out_ch + kPanelLanes - 1) / kPanelLanes;
  return groups * conv_panel_pairs(k, rows) * 2 * kPanelLanes;
}

PackedOpWeights pack_conv_panel(std::span<const int8_t> weights,
                                int32_t out_ch, int64_t k, int32_t rows) {
  if (rows < 1 || k % rows != 0)
    throw std::invalid_argument(
        "pack_conv_panel: rows must divide k");
  PackedOpWeights p;
  p.out_ch = out_ch;
  p.k = k;
  p.rows = rows;
  p.values.assign(static_cast<size_t>(conv_panel_bytes(out_ch, k, rows)), 0);
  const int64_t row_len = k / rows;
  const int64_t group_bytes = conv_panel_pairs(k, rows) * 2 * kPanelLanes;
  for (int32_t oc = 0; oc < out_ch; ++oc) {
    // Channel oc's tap pairs sit 16 bytes apart in its group; each row
    // starts a pair, so a row of odd length ends in a zero weight.
    int8_t* dst = p.values.data() + int64_t{oc / kPanelLanes} * group_bytes +
                  (oc % kPanelLanes) * 2;
    const int8_t* w = weights.data() + int64_t{oc} * k;
    for (int32_t r = 0; r < rows; ++r, w += row_len) {
      int64_t t = 0;
      for (; t + 1 < row_len; t += 2, dst += 2 * kPanelLanes)
        std::memcpy(dst, w + t, 2);
      if (t < row_len) {
        dst[0] = w[t];
        dst += 2 * kPanelLanes;
      }
    }
  }
  return p;
}

}  // namespace mn::kernels
