// Fast-backend kernels: argument checks and instruction-set dispatch (see
// backend.hpp for the panel layout, the claim domain and the bit-exactness
// contract).
//
// Conv2d and fully-connected run one register-tiled micro-kernel, each step
// exact in integer arithmetic. Its panel steps hold 2 taps (int16 pairs,
// SSE2 and AVX2) or 4 (u8 x s8 quads, AVX512-VNNI; panel_taps()):
//   1. Gather. A tile of 4 output pixels, walked row by row, is gathered
//      into im2col columns laid out [step][pixel][4 bytes] to match the
//      panel's [step][channel][taps], one kernel row at a time with vector
//      loads: an interior pixel's rows straight from the input, a border
//      pixel's from a patch of its window in which padding taps hold
//      input_zp. A pair step holds x - input_zp as two int16 (a padding tap
//      is 0, which is what the reference kernel's skipped taps contribute);
//      a quad step holds x ^ 0x80 = x + 128 as four u8 (a padding tap is
//      zp + 128, cancelled by the fold of step 2).
//   2. Multiply-accumulate. For each step, the panel's 8 output channels x
//      taps are loaded once per group (pairs widened to int16); each
//      pixel's step is broadcast and pmaddwd (vpdpwssd) sums the two
//      products per channel, or vpdpbusd the four, into int32. With the
//      zero point in int8 range, |x - zp| and x + 128 are at most 255 and
//      |w| <= 128, so a pair sum is at most 2 * 255 * 128 and a quad sum
//      4 * 255 * 128, both < 2^31 (vpdpbusd does not saturate): exact.
//      Accumulating in int32 wraps exactly like the reference's scalar int32
//      sum, and integer addition is order-free, so the tiling cannot change
//      a result. The accumulators start at the bias, in the quad form less
//      (128 + input_zp) * sum(w) (the panel's per-channel sums), since
//      sum(w * (x + 128)) - (128 + zp) * sum(w) = sum(w * (x - zp)); they
//      never need a horizontal reduction.
//   3. Store. Each pixel's 8 channels of a group are requantized at once
//      (exact, DESIGN.md §14) from the op's RequantTable, which is prepared
//      once per model, clamped in int16 and written with one 8-byte store;
//      a group with a lane outside the SIMD domain, or a clamp wider than
//      int8, requantizes through the scalar primitive instead.
// A fully-connected layer is the same kernel on a 1x1 conv of one pixel,
// run with a one-pixel tile. Depthwise needs no panel: it pairs taps on the
// raw weights, two per pmaddwd (vpdpwssd on AVX512-VNNI, where quads of
// rows would pad its 3-row kernels to 4), in tiles of output pixels along
// x, with the same requantization and table. Add rescales, sums and
// requantizes 16 elements per pass.
// All three are written once in fast_tile.hpp and compiled per instruction
// set (kernels_sse2.cpp, kernels_avx2.cpp, kernels_avx512vnni.cpp);
// active_kernel_isa() picks one per process. A call outside their domain
// (no variant available, an input zero point outside int8, a depthwise
// window outside 1..kDwMaxTaps taps) throws before it writes a byte; the
// fast backend claims no such op (fast_kernels_run()). Pool and softmax
// have no fast kernel.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "kernels/backend.hpp"
#include "kernels/fast_isa.hpp"

namespace mn::kernels {

namespace detail {

void requant_scalar(const int32_t* acc, int lanes, const RequantParams& rq,
                    int32_t oc0, int8_t* out) {
  for (int l = 0; l < lanes; ++l) {
    const int32_t v = quant::multiply_by_quantized_multiplier(
                          acc[l], rq.channel_mult(oc0 + l)) +
                      rq.output_zp;
    out[l] = static_cast<int8_t>(std::clamp(v, rq.act_min, rq.act_max));
  }
}

}  // namespace detail

namespace {

// Which variants this build carries and this CPU runs, and the widest of
// them: probed once per process, so a kernel call pays one table read.
struct IsaTable {
  // Indexed by KernelIsa; nullptr for kScalar and for a variant the build or
  // the CPU lacks.
  const detail::IsaKernels* kernels[4] = {};
  KernelIsa active = KernelIsa::kScalar;
};

IsaTable probe_isas() {
  IsaTable t;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse2"))
    t.kernels[static_cast<int>(KernelIsa::kSse2)] = detail::sse2_kernels();
  if (__builtin_cpu_supports("avx2"))
    t.kernels[static_cast<int>(KernelIsa::kAvx2)] = detail::avx2_kernels();
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("avx512vl") &&
      __builtin_cpu_supports("avx512vnni"))
    t.kernels[static_cast<int>(KernelIsa::kAvx512Vnni)] =
        detail::avx512vnni_kernels();
#endif
  for (const KernelIsa isa :
       {KernelIsa::kSse2, KernelIsa::kAvx2, KernelIsa::kAvx512Vnni})
    if (t.kernels[static_cast<int>(isa)] != nullptr) t.active = isa;
  return t;
}

const IsaTable& isa_table() {
  static const IsaTable table = probe_isas();
  return table;
}

// The compiled kernels of an available variant; throws for kScalar and for
// a variant the build or the CPU lacks.
const detail::IsaKernels& checked_isa(const char* who, KernelIsa isa) {
  if (!kernel_isa_available(isa))
    throw std::invalid_argument(std::string(who) + ": kernel ISA " +
                                kernel_isa_name(isa) +
                                " is not available on this host");
  return *isa_table().kernels[static_cast<int>(isa)];
}

// A panel must be packed for this op's shape, in its kernel rows, in the
// form `isa` reads, and hold every group (and, in the quad form, every
// group's sums) the kernel streams; anything else throws before a byte is
// read.
void check_panel(const char* who, const PackedOpWeights& p,
                 const ConvGeometry& g, KernelIsa isa) {
  const int64_t k = int64_t{g.kh} * g.kw * g.in_ch;
  const int64_t groups = (int64_t{g.out_ch} + kPanelLanes - 1) / kPanelLanes;
  if (p.taps != panel_taps(isa))
    throw std::invalid_argument(std::string(who) + ": panel packed for " +
                                std::to_string(p.taps) + " taps per step, " +
                                kernel_isa_name(isa) + " reads " +
                                std::to_string(panel_taps(isa)));
  if (g.kh < 1 || p.rows != g.kh || p.out_ch != g.out_ch || p.k != k ||
      static_cast<int64_t>(p.values.size()) <
          groups * conv_panel_steps(k, g.kh, p.taps) * p.taps * kPanelLanes ||
      static_cast<int64_t>(p.sums.size()) <
          (p.taps == 4 ? groups * kPanelLanes : 0))
    throw std::invalid_argument(std::string(who) +
                                ": packed panel/geometry mismatch");
}

inline bool zp_in_s8(int32_t zp) { return zp >= -128 && zp <= 127; }

// So must the requant table: one group per 8 of the op's channels. Its
// input zero point must lie in int8, which bounds every SIMD kernel's
// columns and tap pairs (x - zp, or x + 128 with zp folded into the bias).
void check_requant(const char* who, const RequantTable& t, int32_t channels) {
  if (t.channels != channels ||
      static_cast<int64_t>(t.groups.size()) !=
          (int64_t{channels} + kPanelLanes - 1) / kPanelLanes)
    throw std::invalid_argument(std::string(who) +
                                ": requant table/channel mismatch");
  if (!zp_in_s8(t.rq.input_zp))
    throw std::invalid_argument(std::string(who) +
                                ": input zero point outside int8");
}

// Fills lane l of `g` with multiplier m and reports whether m is in the
// SIMD requantization's domain (multiplier > 0, shift in [-31, 0]); a lane
// outside it keeps zero constants, and its group takes the scalar path.
bool set_requant_lane(RequantGroup& g, int l, const quant::FixedMultiplier& m) {
  if (m.multiplier <= 0 || m.shift > 0 || m.shift < -31) return false;
  const int r = -m.shift;
  // Even lanes 0, 2, 4, 6, then odd lanes 1, 3, 5, 7.
  const int slot = l % 2 * (kPanelLanes / 2) + l / 2;
  g.mult[l] = m.multiplier;
  g.round[slot] =
      (uint64_t{1} << 30) + (r == 0 ? 0 : uint64_t{1} << (30 + r));
  g.count[slot] = static_cast<uint64_t>(31 + r);
  return true;
}

// Calls fn(out_px, x, w, rows, cols) for every output pixel of a depthwise
// layer with its valid tap window [ky_lo, ky_hi) x [kx_lo, kx_hi) resolved
// once: `x` / `w` point at the window's first valid tap (channel 0) and the
// window is rows x cols taps, so the tap loops carry no bounds branch. An
// all-padding window has rows or cols 0 (and its pointers are never read).
template <typename Fn>
inline void for_each_dw_window(const ConvGeometry& g, const int8_t* input,
                               const int8_t* weights, int8_t* output, Fn&& fn) {
  const int32_t ch = g.in_ch;
  for (int32_t oy = 0; oy < g.out_h; ++oy) {
    const int32_t iy0 = oy * g.stride - g.pad_h;
    const int32_t ky_lo = std::max(0, -iy0);
    const int32_t rows = std::max(0, std::min(g.kh, g.in_h - iy0) - ky_lo);
    for (int32_t ox = 0; ox < g.out_w; ++ox) {
      const int32_t ix0 = ox * g.stride - g.pad_w;
      const int32_t kx_lo = std::max(0, -ix0);
      const int32_t cols = std::max(0, std::min(g.kw, g.in_w - ix0) - kx_lo);
      const int8_t* x = input;
      const int8_t* w = weights;
      if (rows > 0 && cols > 0) {
        x += (int64_t{iy0 + ky_lo} * g.in_w + (ix0 + kx_lo)) * ch;
        w += (int64_t{ky_lo} * g.kw + kx_lo) * ch;
      }
      fn(output + (int64_t{oy} * g.out_w + ox) * ch, x, w, rows, cols);
    }
  }
}

// The fast conv's scratch after its 16 bytes of alignment slack: one tile
// of columns in the pair form (int16 pairs; the quad form's u8 quads take
// at most as many bytes), one spare pair per pixel (a kernel row's last
// load may write one pair past the row), rounded to 16 bytes, then one
// patch of kh rows of ceil4(kw * in_ch) bytes per tile pixel.
struct ConvScratch {
  int64_t cols_bytes, patch_bytes;
};

ConvScratch conv_scratch(const ConvGeometry& g) {
  const int64_t row_len = int64_t{g.kw} * g.in_ch;
  const int64_t pairs = g.kh * ((row_len + 1) / 2) + 1;
  return {(pairs * 2 * detail::kTilePixels * 2 + 15) / 16 * 16,
          g.kh * ((row_len + 3) / 4 * 4) * detail::kTilePixels};
}

// Checks and runs one conv (or FC, as a 1x1 conv) on the fast
// backend; `who` names the public kernel in errors.
void conv_fast(const char* who, std::span<const int8_t> input,
               const PackedOpWeights& packed, std::span<const int32_t> bias,
               std::span<int8_t> output, std::span<int8_t> scratch,
               const ConvGeometry& g, const RequantTable& t, KernelIsa isa) {
  const detail::IsaKernels& simd = checked_isa(who, isa);
  check_panel(who, packed, g, isa);
  check_requant(who, t, g.out_ch);
  check_conv_buffers(who, input, packed.values, bias, output, g);
  if (static_cast<int64_t>(scratch.size()) < conv2d_fast_scratch_bytes(g))
    throw std::invalid_argument(std::string(who) + ": scratch too small");
  detail::ConvCall call;
  call.input = input.data();
  call.panel = packed.values.data();
  call.sums = packed.sums.data();
  call.bias = bias.empty() ? nullptr : bias.data();
  call.output = output.data();
  // Scratch: 16-byte alignment slack, the columns, then the patches.
  call.cols = reinterpret_cast<int8_t*>(
      (reinterpret_cast<uintptr_t>(scratch.data()) + 15) & ~uintptr_t{15});
  call.patches = call.cols + conv_scratch(g).cols_bytes;
  call.groups = t.groups.data();
  call.rq = &t.rq;
  call.g = g;
  simd.conv(call);
}

}  // namespace

const char* kernel_isa_name(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar: return "scalar";
    case KernelIsa::kSse2: return "sse2";
    case KernelIsa::kAvx2: return "avx2";
    case KernelIsa::kAvx512Vnni: return "avx512vnni";
  }
  return "?";
}

bool kernel_isa_available(KernelIsa isa) {
  const auto i = static_cast<size_t>(isa);
  return i < std::size(isa_table().kernels) &&
         isa_table().kernels[i] != nullptr;
}

KernelIsa active_kernel_isa() { return isa_table().active; }

bool fast_kernels_run(std::optional<int64_t> depthwise_taps) {
  return active_kernel_isa() != KernelIsa::kScalar &&
         (!depthwise_taps ||
          (*depthwise_taps >= 1 && *depthwise_taps <= detail::kDwMaxTaps));
}

RequantTable prepare_requant(RequantParams rq, int32_t channels) {
  if (channels < 0 || (!rq.per_channel.empty() &&
                       static_cast<int64_t>(rq.per_channel.size()) < channels))
    throw std::invalid_argument(
        "prepare_requant: fewer multipliers than channels");
  const bool clamp_in_s8 = rq.act_min >= -128 && rq.act_max <= 127;
  RequantTable t;
  t.channels = channels;
  t.groups.resize(
      static_cast<size_t>((channels + kPanelLanes - 1) / kPanelLanes));
  for (size_t gi = 0; gi < t.groups.size(); ++gi) {
    RequantGroup& rg = t.groups[gi];
    const int32_t oc0 = static_cast<int32_t>(gi) * kPanelLanes;
    rg.simd = clamp_in_s8;
    rg.uniform = true;
    for (int l = 0; l < kPanelLanes && oc0 + l < channels; ++l) {
      const quant::FixedMultiplier& m = rq.channel_mult(oc0 + l);
      rg.simd = set_requant_lane(rg, l, m) && rg.simd;
      rg.uniform = rg.uniform && m.shift == rq.channel_mult(oc0).shift;
    }
    // Lanes past the op's channels shift their (zero) products out whole.
    for (int l = channels - oc0; l < kPanelLanes; ++l)
      rg.count[l % 2 * (kPanelLanes / 2) + l / 2] = 64;
  }
  t.rq = std::move(rq);
  return t;
}

AddRequantTable prepare_add_requant(const AddParams& p) {
  bool simd = zp_in_s8(p.a_zp) && zp_in_s8(p.b_zp) && zp_in_s8(p.out_zp) &&
              zp_in_s8(p.act_min) && zp_in_s8(p.act_max) &&
              p.left_shift >= 0 && p.left_shift <= 22;
  AddRequantTable t{p, std::vector<RequantGroup>(3)};
  const quant::FixedMultiplier* mults[] = {&p.a_mult, &p.b_mult, &p.out_mult};
  for (size_t i = 0; i < 3; ++i)
    for (int l = 0; l < kPanelLanes; ++l)
      simd = set_requant_lane(t.groups[i], l, *mults[i]) && simd;
  for (RequantGroup& rg : t.groups) {
    rg.simd = simd;
    rg.uniform = true;
  }
  return t;
}

int64_t conv2d_fast_scratch_bytes(const ConvGeometry& g) {
  const ConvScratch s = conv_scratch(g);
  return 16 + s.cols_bytes + s.patch_bytes;
}

void conv2d_s8_fast(std::span<const int8_t> input, const PackedOpWeights& packed,
                    std::span<const int32_t> bias, std::span<int8_t> output,
                    std::span<int8_t> scratch, const ConvGeometry& g,
                    const RequantTable& rq, KernelIsa isa) {
  conv_fast("conv2d_s8_fast", input, packed, bias, output, scratch, g, rq,
            isa);
}

ConvGeometry fully_connected_geometry(int32_t in_features,
                                      int32_t out_features) {
  ConvGeometry g;
  g.in_h = g.in_w = g.out_h = g.out_w = g.kh = g.kw = 1;
  g.in_ch = in_features;
  g.out_ch = out_features;
  return g;
}

void fully_connected_s8_fast(std::span<const int8_t> input,
                             const PackedOpWeights& packed,
                             std::span<const int32_t> bias,
                             std::span<int8_t> output,
                             std::span<int8_t> scratch, int32_t in_features,
                             int32_t out_features, const RequantTable& rq,
                             KernelIsa isa) {
  conv_fast("fully_connected_s8_fast", input, packed, bias, output, scratch,
            fully_connected_geometry(in_features, out_features), rq, isa);
}

void depthwise_conv2d_s8_fast(std::span<const int8_t> input,
                              std::span<const int8_t> weights,
                              std::span<const int32_t> bias,
                              std::span<int8_t> output, const ConvGeometry& g,
                              const RequantTable& t, KernelIsa isa) {
  const char* who = "depthwise_conv2d_s8_fast";
  const detail::IsaKernels& simd = checked_isa(who, isa);
  check_depthwise_buffers(who, input, weights, bias, output, g);
  check_requant(who, t, g.out_ch);
  // The pass sizes its stack buffers (and weight chunks) by the taps.
  if (!fast_kernels_run(int64_t{g.kh} * g.kw))
    throw std::invalid_argument(std::string(who) +
                                ": window outside 1..kDwMaxTaps taps");
  const RequantParams& rq = t.rq;
  const int32_t ch = g.in_ch;
  int32_t c = 0;
  if (ch >= 4) {
    detail::DepthwiseCall call;
    call.input = input.data();
    call.weights = weights.data();
    call.bias = bias.empty() ? nullptr : bias.data();
    call.output = output.data();
    call.groups = t.groups.data();
    call.rq = &rq;
    call.g = g;
    call.channels = ch / 4 * 4;
    simd.depthwise(call);
    c = call.channels;
  }
  if (c == ch) return;
  // Scalar channel tail (ch % 4 channels, or all of fewer than 4): the
  // reference arithmetic over the same precomputed windows.
  const int64_t x_row = int64_t{g.in_w} * ch;
  const int64_t w_row = int64_t{g.kw} * ch;
  for_each_dw_window(
      g, input.data(), weights.data(), output.data(),
      [&](int8_t* out_px, const int8_t* x, const int8_t* w, int32_t rows,
          int32_t cols) {
        for (int32_t k = c; k < ch; ++k) {
          int32_t acc = bias.empty() ? 0 : bias[static_cast<size_t>(k)];
          for (int32_t dy = 0; dy < rows; ++dy) {
            const int8_t* xr = x + dy * x_row + k;
            const int8_t* wr = w + dy * w_row + k;
            for (int32_t dx = 0; dx < cols; ++dx)
              acc += (static_cast<int32_t>(xr[int64_t{dx} * ch]) -
                      rq.input_zp) *
                     static_cast<int32_t>(wr[int64_t{dx} * ch]);
          }
          detail::requant_scalar(&acc, 1, rq, k, out_px + k);
        }
      });
}

void add_s8_fast(std::span<const int8_t> a, std::span<const int8_t> b,
                 std::span<int8_t> output, const AddRequantTable& t,
                 KernelIsa isa) {
  const detail::IsaKernels& simd = checked_isa("add_s8_fast", isa);
  if (a.size() != b.size() || a.size() != output.size())
    throw std::invalid_argument("add_s8_fast: size mismatch");
  if (t.groups.size() != 3)
    throw std::invalid_argument("add_s8_fast: not a prepared add table");
  size_t i = 0;
  if (t.groups[0].simd) {
    detail::AddCall call;
    call.a = a.data();
    call.b = b.data();
    call.output = output.data();
    call.n = a.size();
    call.p = &t.p;
    call.groups = t.groups.data();
    i = simd.add(call);
  }
  // The tail and a call outside the SIMD domain: the oracle itself.
  if (i < a.size())
    add_s8(a.subspan(i), b.subspan(i), output.subspan(i), t.p);
}

}  // namespace mn::kernels
