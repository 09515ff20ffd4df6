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

int32_t panel_taps(KernelIsa isa) {
  return isa == KernelIsa::kAvx512Vnni ? 4 : 2;
}

int64_t conv_panel_steps(int64_t k, int32_t rows, int32_t taps) {
  if (rows < 1)
    throw std::invalid_argument("conv_panel_steps: rows must be >= 1");
  return rows * ((k / rows + taps - 1) / taps);
}

int64_t conv_panel_bytes(int32_t out_ch, int64_t k, int32_t rows,
                         int32_t taps) {
  const int64_t groups = (out_ch + kPanelLanes - 1) / kPanelLanes;
  const int64_t sums = taps == 4 ? groups * kPanelLanes * 4 : 0;
  return groups * conv_panel_steps(k, rows, taps) * taps * kPanelLanes + sums;
}

namespace {

// Channel oc's taps of one step sit kTaps * 8 bytes after its previous
// step's, starting at `dst`; each of the `rows` rows of `row_len` taps
// starts a step, so a row that does not fill its last one leaves zero
// weights there.
template <int kTaps>
void pack_channel(const int8_t* w, int64_t row_len, int32_t rows,
                  int8_t* dst) {
  constexpr int64_t kStep = kTaps * kPanelLanes;
  for (int32_t r = 0; r < rows; ++r, w += row_len) {
    int64_t t = 0;
    for (; t + kTaps <= row_len; t += kTaps, dst += kStep)
      std::memcpy(dst, w + t, kTaps);
    if (t < row_len) {
      std::memcpy(dst, w + t, static_cast<size_t>(row_len - t));
      dst += kStep;
    }
  }
}

}  // namespace

PackedOpWeights pack_conv_panel(std::span<const int8_t> weights,
                                int32_t out_ch, int64_t k, int32_t rows,
                                KernelIsa isa) {
  if (rows < 1 || k % rows != 0)
    throw std::invalid_argument(
        "pack_conv_panel: rows must divide k");
  if (isa == KernelIsa::kScalar)
    throw std::invalid_argument(
        "pack_conv_panel: no kernel reads a panel for kernel ISA scalar");
  PackedOpWeights p;
  p.out_ch = out_ch;
  p.k = k;
  p.rows = rows;
  p.taps = panel_taps(isa);
  const int64_t groups = (out_ch + kPanelLanes - 1) / kPanelLanes;
  const int64_t group_bytes =
      conv_panel_steps(k, rows, p.taps) * p.taps * kPanelLanes;
  p.values.assign(static_cast<size_t>(groups * group_bytes), 0);
  if (p.taps == 4) p.sums.assign(static_cast<size_t>(groups * kPanelLanes), 0);
  const int64_t row_len = k / rows;
  for (int32_t oc = 0; oc < out_ch; ++oc) {
    int8_t* dst = p.values.data() + int64_t{oc / kPanelLanes} * group_bytes +
                  (oc % kPanelLanes) * p.taps;
    const int8_t* w = weights.data() + int64_t{oc} * k;
    if (p.taps == 4) {
      pack_channel<4>(w, row_len, rows, dst);
      uint32_t sum = 0;  // wraps like the kernel's int32 sums
      for (int64_t t = 0; t < k; ++t) sum += static_cast<uint32_t>(w[t]);
      p.sums[static_cast<size_t>(oc)] = static_cast<int32_t>(sum);
    } else {
      pack_channel<2>(w, row_len, rows, dst);
    }
  }
  return p;
}

}  // namespace mn::kernels
