// Kernel backends (DESIGN.md §14).
//
// A Backend names one execution strategy for the integer kernels. Selection
// follows the TFLite-delegate claim-or-fall-back pattern: a requested backend
// *claims* the ops it can execute and everything else falls back to
// kReference per-op, so a model never fails to run because a backend lacks a
// kernel — it just runs that op on the reference path.
//
//   kFast (the default) — the production int8 path. Conv2d and
//     fully-connected share one register-tiled micro-kernel: weights packed
//     once at model-load time into 8-channel panels, a tile of 4 output
//     pixels gathered as im2col columns, multiply-accumulated into int32
//     accumulators of 8 channels each (exact integer arithmetic — never a
//     source of divergence), and the requant→activation-clamp of 8
//     channels at a time in SIMD, exact like the reference kernels' scalar
//     primitive. A fully-connected layer is a 1x1 conv on one pixel. The
//     columns and panels come in one form per instruction set: int16 pairs
//     of x - input_zp against widened weights, two taps per pmaddwd (SSE2,
//     AVX2), or u8 quads of x + 128 against the int8 weights, four taps per
//     vpdpbusd, with (128 + input_zp) * sum(w) taken off the bias
//     (AVX512-VNNI). Depthwise pairs taps vertically on the raw weights:
//     16, 8 or 4 channels per pass, two taps per pmaddwd (vpdpwssd on
//     AVX512-VNNI), and no panel. The conv/FC tile, the depthwise pass and
//     the add pass are each written once (fast_tile.hpp) over an
//     instruction-set trait and compiled three times: for SSE2
//     (kernels_sse2.cpp, two xmm per accumulator, 4 pixels x 1 group per
//     tile), for AVX2 (kernels_avx2.cpp, one ymm per accumulator,
//     4 pixels x 2 groups, per-lane vpsrlvq requantization) and for
//     AVX512-VNNI (kernels_avx512vnni.cpp, the AVX2 trait with the quad
//     form, fused multiply-accumulates and 4 pixels x 4 groups). The widest
//     variant the build carries and the CPU runs is picked once per process
//     from CPUID (active_kernel_isa()); no setting selects it, since every
//     variant writes the same bytes. A host without one (non-x86,
//     -U__SSE2__) has no fast kernels. Add rescales, sums and requantizes
//     16 elements per pass on the same variant. Every SIMD requantization
//     is the one-multiply form, read from a table prepared once per model
//     next to the panels; no kernel builds constants during a call.
//     Claims what fast_kernels_run() admits: conv2d, depthwise (windows of
//     1-128 taps) and fully-connected when input, weights and output are
//     all int8 or all int4, and add when both inputs and the output are;
//     pool and softmax fall back. Int4 ops run these same kernels: the
//     interpreter unpacks their input into scratch and packs the result,
//     and their panels are packed from the unpacked weights (int4
//     depthwise: the unpacked weights as they are).
//   kReference — the naive loops in kernels_s8.cpp: the semantic ground
//     truth every claimed op must match byte-for-byte, at int4 through the
//     same unpack/pack staging. Reached only through
//     BackendConfig::reference() (test oracles, constant folding, the zoo
//     benchmark's check), the way TFLM keeps its reference ops to verify the
//     optimized ones.
//
// The contract that makes a second backend safe at all: for every geometry
// and every instruction-set variant, a claimed op's output is
// BYTE-IDENTICAL to the reference kernel's (tests/test_backends.cpp).
// Integer accumulation is order-free (no rounding), so tiling/SIMD
// reassociation cannot change results — which is why golden vectors,
// resume equivalence and serving fingerprints carry over unchanged whichever
// backend and variant served the op.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "kernels/kernels.hpp"

namespace mn::kernels {

enum class BackendKind : uint8_t {
  kReference = 0,
  kFast,
};

// Stable lowercase names ("reference", "fast") used by the profile table's
// backend column and the deployment summary.
const char* backend_name(BackendKind k);

// Per-interpreter backend request; the default is the packed fast path.
struct BackendConfig {
  BackendKind kind = BackendKind::kFast;

  static BackendConfig reference() { return {BackendKind::kReference}; }
  static BackendConfig fast() { return {BackendKind::kFast}; }
};

// --- instruction-set variants of the fast kernels ---------------------------

// The instruction set a fast conv, depthwise or FC call runs on.
enum class KernelIsa : uint8_t {
  kScalar = 0,  // no SIMD variant: the naive loops; no fast kernel runs
  kSse2,
  kAvx2,
  kAvx512Vnni,  // AVX2 plus AVX512VL and AVX512-VNNI (vpdpbusd, vpdpwssd)
};

// Stable lowercase names ("scalar", "sse2", "avx2", "avx512vnni") used by
// the deployment summary, the profile table and bench JSON.
const char* kernel_isa_name(KernelIsa isa);

// Whether this build compiled `isa`'s kernels and this CPU can run them.
// Never for kScalar, which has none.
bool kernel_isa_available(KernelIsa isa);

// The variant every fast kernel call runs by default: the widest available
// one, picked once per process from CPUID; kScalar when none is.
KernelIsa active_kernel_isa();

// Whether the fast kernels run an op on this host, which the fast backend
// claims it by: a SIMD variant is active and a depthwise window (its kh * kw
// `depthwise_taps`) has 1 to 128 taps. A fast kernel throws
// std::invalid_argument for a call outside this domain.
bool fast_kernels_run(std::optional<int64_t> depthwise_taps = std::nullopt);

// --- packed weight panels (fast backend, built once at model load) ----------

// Output channels per panel group and per SIMD accumulator; a conv tile is
// one (SSE2), two (AVX2) or four (AVX512-VNNI) groups wide.
inline constexpr int32_t kPanelLanes = 8;

// The taps one panel step holds for a variant's conv/FC tile: 4 on
// AVX512-VNNI (u8 x s8 quads for vpdpbusd), 2 on every other variant
// (int16 pairs for pmaddwd; SSE2 and AVX2 have no non-saturating u8 x s8
// multiply-add, pmaddubsw saturates).
int32_t panel_taps(KernelIsa isa);

// Weights a fast-served op reads from host memory instead of the model
// blob, prepared once at load.
//
// Conv and fully-connected weights (out_ch rows of k values: conv
// [out_ch][kh][kw][in_ch], k = kh*kw*in_ch; FC [out][in], k = in) are laid
// out for the micro-kernel as
//   [ceil(out_ch / 8) groups][steps][8 channels][taps]
// with taps = panel_taps(isa) of the variant packed for: one 16-byte load
// holds a tap pair for 8 output channels (taps = 2), one 32-byte load a tap
// quad (taps = 4). A conv panel is packed in `rows` = kh kernel rows of
// kw*in_ch taps (an FC panel in one row), and each row starts a step: a row
// whose length is not a multiple of `taps`, like a 1-channel stem's 3-tap
// row, ends in a step with zero weights, so that the kernel gathers whole
// kernel rows. steps = rows * ceil(k / rows / taps). Missing channels and
// padded taps are zero weights, whose products vanish. The quad form also
// holds each channel's weight sum in `sums` (ceil(out_ch / 8) * 8 lanes,
// zero past out_ch): its kernel multiplies x + 128 as u8 and takes
// (128 + input_zp) * sum(w) back off the bias. Int4 depthwise keeps its
// unpacked [kh, kw, ch] weights as they are in `values`, with
// out_ch = k = 0.
struct PackedOpWeights {
  std::vector<int8_t> values;
  std::vector<int32_t> sums;
  int32_t out_ch = 0;
  int64_t k = 0;
  int32_t rows = 1;
  int32_t taps = 2;

  // Every byte the op holds: the panel (or unpacked weights) and the sums.
  int64_t bytes() const {
    return static_cast<int64_t>(values.size() + sums.size() * sizeof(int32_t));
  }
};

// Steps per group of the panel for k weights packed in `rows` (>= 1, else
// std::invalid_argument) kernel rows of `taps` (2 or 4) taps per step, and
// PackedOpWeights::bytes() of that panel for out_ch channels.
int64_t conv_panel_steps(int64_t k, int32_t rows, int32_t taps);
int64_t conv_panel_bytes(int32_t out_ch, int64_t k, int32_t rows,
                         int32_t taps);

// Packs out_ch x k row-major int8 weights into the panel layout above, in
// the form `isa`'s kernels read (panel_taps(isa)); a conv passes rows = kh.
// Throws std::invalid_argument when rows does not divide k, and for
// kScalar, whose panel no kernel reads.
PackedOpWeights pack_conv_panel(std::span<const int8_t> weights,
                                int32_t out_ch, int64_t k, int32_t rows = 1,
                                KernelIsa isa = active_kernel_isa());

// --- prepared requantization (fast backend, built once per model) ----------

// One 8-channel group's requantization constants (TFLM's per-channel
// OpData, prepared once): the one-multiply form (DESIGN.md §14) turns
// multiply_by_quantized_multiplier(x, {M, -r}) into
//   sign(x) * floor((|x| * M + 2^30 - [x < 0] + 2^(30+r)) / 2^(31+r))
// (without the 2^(30+r) term at r = 0), so a lane needs its multiplier, its
// 64-bit rounding constant and its 64-bit shift count 31 + r. They are
// stored in the order the SIMD code loads them: `mult` holds lanes 0-7 and
// zero pads (a load from lane 1 puts the odd lanes' multipliers in the even
// 32-bit slots), and `round` and `count` each hold the even lanes 0, 2, 4, 6
// and then the odd lanes 1, 3, 5, 7. So an 8-lane AVX2 requantization loads
// each of them with one 32-byte load per parity, and the 4-lane SSE2 form
// one 16-byte load per parity and half. Lanes past the op's channels hold
// zero multipliers and a shift count of 64, so their results are 0, and
// are never stored. (16-byte alignment, not 64: an over-aligned vector
// element costs every table an aligned allocation, which measurably grows
// the zoo's peak RSS.)
struct alignas(16) RequantGroup {
  uint64_t round[kPanelLanes] = {};
  uint64_t count[kPanelLanes] = {};
  int32_t mult[kPanelLanes + 4] = {};
  // Every lane is in the SIMD domain (a multiplier > 0 and a shift in
  // [-31, 0]) and so is the op (a clamp inside int8; for add also see
  // prepare_add_requant): the group may requantize in SIMD.
  bool simd = false;
  // Every lane shares one shift count (always so for a per-tensor
  // multiplier), so one 64-bit shift serves both lanes of an SSE2 product.
  bool uniform = false;
};

// The prepared requantization of one conv, depthwise or fully-connected
// op: the RequantParams it was built from — the fast kernels' only source
// of zero points, clamp and (on their scalar requant paths) multipliers —
// and one group per 8 output channels.
struct RequantTable {
  RequantParams rq;
  int32_t channels = 0;
  std::vector<RequantGroup> groups;
};

// Builds the table for `channels` output channels of `rq`; throws
// std::invalid_argument when rq has fewer per-channel multipliers than
// that.
RequantTable prepare_requant(RequantParams rq, int32_t channels);

// The prepared requantization of one add: its AddParams and three uniform
// groups, for input a, input b and their sum.
struct AddRequantTable {
  AddParams p;
  std::vector<RequantGroup> groups;
};

// Builds add's table. Its groups are in the SIMD domain only when all three
// multipliers are, the zero points and the clamp lie in int8 range, and
// left_shift is in [0, 22], which keeps (x - zp) << left_shift and the sum
// of the two rescaled inputs inside int32.
AddRequantTable prepare_add_requant(const AddParams& p);

// --- fast-backend kernels ---------------------------------------------------

// Scratch for conv2d_s8_fast on `g`, in either panel form: 16 bytes of
// alignment slack, one tile of im2col columns and one window patch per tile
// pixel (a border pixel's window with its padding filled in).
int64_t conv2d_fast_scratch_bytes(const ConvGeometry& g);

// Conv2d, bit-identical to conv2d_s8 with rq.rq. `packed` must come from
// pack_conv_panel(weights, out_ch, kh*kw*in_ch, kh, isa), `rq` from
// prepare_requant(params, out_ch) and `scratch` hold at least
// conv2d_fast_scratch_bytes(g); a panel of another form or row layout
// throws std::invalid_argument before a byte is read. The micro-kernel
// computes a tile of 4 output pixels x 8 (SSE2), 16 (AVX2) or 32
// (AVX512-VNNI) output channels in int32 registers over int16 columns of
// (x - input_zp), or on AVX512-VNNI u8 columns of (x + 128), then
// requantizes 8 channels of each pixel at once and stores them with one
// 8-byte write.
//
// Every fast conv, depthwise, FC and add kernel runs on `isa`, which
// defaults to active_kernel_isa(); tests and benches name another
// available variant to hold it to the oracle or time it. An unavailable
// one (kScalar always) throws std::invalid_argument, and so does an input
// zero point outside int8, each before a byte is written.
void conv2d_s8_fast(std::span<const int8_t> input, const PackedOpWeights& packed,
                    std::span<const int32_t> bias, std::span<int8_t> output,
                    std::span<int8_t> scratch, const ConvGeometry& g,
                    const RequantTable& rq,
                    KernelIsa isa = active_kernel_isa());

// Depthwise conv2d (multiplier 1) on the raw [kh, kw, ch] weights,
// bit-identical to depthwise_conv2d_s8 with rq.rq; needs no packed panel
// and no scratch, and `rq` from prepare_requant(params, ch). Taps pair
// vertically, two per multiply-add, 16, 8 or 4 channels per pass; interior
// windows run in tiles of 2-4 output pixels along x that share each input
// column. The last ch % 4 channels (all of them below 4) run a scalar loop.
// A window outside 1..128 taps throws std::invalid_argument (the fast
// backend does not claim it).
void depthwise_conv2d_s8_fast(std::span<const int8_t> input,
                              std::span<const int8_t> weights,
                              std::span<const int32_t> bias,
                              std::span<int8_t> output, const ConvGeometry& g,
                              const RequantTable& rq,
                              KernelIsa isa = active_kernel_isa());

// The 1x1 conv on one pixel that a fully-connected layer is.
ConvGeometry fully_connected_geometry(int32_t in_features,
                                      int32_t out_features);

// Fully connected, bit-identical to fully_connected_s8 with rq.rq:
// conv2d_s8_fast on fully_connected_geometry. `packed` must come from
// pack_conv_panel(weights, out_features, in_features, 1, isa), `rq` from
// prepare_requant(params, out_features) and `scratch` hold
// conv2d_fast_scratch_bytes(fully_connected_geometry(...)).
void fully_connected_s8_fast(std::span<const int8_t> input,
                             const PackedOpWeights& packed,
                             std::span<const int32_t> bias,
                             std::span<int8_t> output,
                             std::span<int8_t> scratch, int32_t in_features,
                             int32_t out_features, const RequantTable& rq,
                             KernelIsa isa = active_kernel_isa());

// Elementwise add, bit-identical to add_s8 with rq.p; `rq` must come from
// prepare_add_requant. 16 elements per pass on `isa`, which defaults to
// active_kernel_isa() like the conv kernels' (an unavailable one throws);
// the n % 16 tail and a table outside the SIMD domain run add_s8 itself.
void add_s8_fast(std::span<const int8_t> a, std::span<const int8_t> b,
                 std::span<int8_t> output, const AddRequantTable& rq,
                 KernelIsa isa = active_kernel_isa());

}  // namespace mn::kernels
