#include "calib.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ledger.hpp"

namespace zb {

namespace {

constexpr double kStreamingNominalUs = 800.0;
constexpr double kComputeNominalUs = 160.0;

constexpr int kH = 48, kW = 48, kC = 64;  // streaming kernel map
constexpr int kRows = 64, kLen = 256;     // compute kernel block

struct Buffers {
  std::vector<int8_t> in, w, out, a, b;
  Buffers()
      : in(kH * kW * kC), w(9 * kC), out(kH * kW * kC), a(kRows * kLen),
        b(kRows * kLen) {
    uint32_t x = 0x12345678u;
    auto next = [&] {
      x ^= x << 13;
      x ^= x >> 17;
      x ^= x << 5;
      return static_cast<int8_t>(x & 0xFF);
    };
    for (auto* v : {&in, &w, &a, &b})
      for (int8_t& e : *v) e = next();
  }
};

// Both kernels are kept out of line and their results consumed, so neither
// pass is elided.
[[gnu::noinline]] int streaming_pass(Buffers& b) {
  for (int y = 0; y < kH; ++y)
    for (int x = 0; x < kW; ++x)
      for (int c = 0; c < kC; ++c) {
        int acc = 0;
        for (int ky = 0; ky < 3; ++ky) {
          const int iy = y + ky - 1;
          if (iy < 0 || iy >= kH) continue;
          for (int kx = 0; kx < 3; ++kx) {
            const int ix = x + kx - 1;
            if (ix < 0 || ix >= kW) continue;
            acc += (b.in[static_cast<size_t>((iy * kW + ix) * kC + c)] + 3) *
                   b.w[static_cast<size_t>((ky * 3 + kx) * kC + c)];
          }
        }
        b.out[static_cast<size_t>((y * kW + x) * kC + c)] =
            static_cast<int8_t>(std::clamp(acc >> 7, -128, 127));
      }
  return b.out[7];
}

[[gnu::noinline]] int compute_pass(const Buffers& b) {
  int total = 0;
  for (int i = 0; i < kRows; ++i)
    for (int j = 0; j < kRows; ++j) {
      int acc = 0;
      for (int k = 0; k < kLen; ++k)
        acc += b.a[static_cast<size_t>(i * kLen + k)] * b.b[static_cast<size_t>(j * kLen + k)];
      total += acc >> 3;
    }
  return total;
}

template <typename Pass>
double best_of_two_us(const Pass& pass) {
  static volatile int sink = 0;
  double best = 0.0;
  for (int k = 0; k < 2; ++k) {
    const int64_t t0 = now_ns();
    sink = sink + pass();
    const double us = static_cast<double>(now_ns() - t0) / 1e3;
    best = k == 0 ? us : std::min(best, us);
  }
  return best;
}

}  // namespace

double Calib::scale(CalibKind k, const Calib& after) const {
  if (k == CalibKind::kStreaming)
    return kStreamingNominalUs / (0.5 * (streaming_us + after.streaming_us));
  return kComputeNominalUs / (0.5 * (compute_us + after.compute_us));
}

Calib calibrate() {
  static Buffers buffers;
  Calib c;
  c.streaming_us = best_of_two_us([] { return streaming_pass(buffers); });
  c.compute_us = best_of_two_us([] { return compute_pass(buffers); });
  return c;
}

}  // namespace zb
