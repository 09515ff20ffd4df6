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

PackedOpWeights pack_rows_s8(std::span<const int8_t> weights, int64_t num_rows,
                             int64_t row_len) {
  PackedOpWeights p;
  p.row_len = row_len;
  p.row_stride = (row_len + kPackAlign - 1) / kPackAlign * kPackAlign;
  p.num_rows = static_cast<int32_t>(num_rows);
  p.rows.assign(static_cast<size_t>(num_rows * p.row_stride), 0);
  p.sum_w.assign(static_cast<size_t>(num_rows), 0);
  for (int64_t r = 0; r < num_rows; ++r) {
    const int8_t* src = weights.data() + r * row_len;
    std::memcpy(p.rows.data() + r * p.row_stride, src,
                static_cast<size_t>(row_len));
    int32_t s = 0;
    for (int64_t k = 0; k < row_len; ++k) s += src[k];
    p.sum_w[static_cast<size_t>(r)] = s;
  }
  return p;
}

}  // namespace mn::kernels
