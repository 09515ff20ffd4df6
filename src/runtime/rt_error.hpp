// Structured runtime errors for the hardened (no-throw) inference path.
//
// Deployed always-on systems cannot abort on a corrupted OTA model image or a
// flipped SRAM bit; they must detect, classify, and contain the fault. Every
// failure the runtime can encounter maps to an ErrorCode here, and the
// no-throw entry points (`ModelDef::try_deserialize`, `Interpreter::
// try_invoke*`) return `Expected<T>` instead of throwing. The historical
// throwing API remains as a thin wrapper for interactive/bench code.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <variant>

namespace mn::rt {

enum class ErrorCode : uint8_t {
  kOk = 0,
  // --- deserialization ------------------------------------------------------
  kTruncated,           // byte stream ended mid-record
  kBadMagic,            // not a ModelDef image
  kUnsupportedVersion,  // magic recognized but version unknown
  kCorruptString,       // negative/overlong string length
  kBadRank,             // tensor rank outside [1, 4]
  kAbsurdSize,          // count/size field implies a nonsensical allocation
  kTrailingBytes,       // bytes left over after the weights blob
  kCrcMismatch,         // stored CRC32 disagrees with the payload
  // --- graph validation -----------------------------------------------------
  kBadTensorId,         // tensor index out of range
  kBadOpType,           // op/activation enum value out of range
  kBlobOutOfRange,      // const tensor extends past the weights blob
  kGraphInvalid,        // structural inconsistency (missing weights input, ...)
  // --- execution ------------------------------------------------------------
  kInputMismatch,       // input element count does not match the model
  kNonFiniteInput,      // NaN/Inf in the float input image
  kNonFiniteOutput,     // NaN/Inf in the dequantized output (corrupt scales)
  kArenaOverrun,        // guard-band canary clobbered by a kernel overrun
  kUnsupportedOp,       // op/precision combination the kernels cannot run
                        // (refused at load by ModelDef::check)
  // --- environment ----------------------------------------------------------
  kIoError,             // file open/read failure
  // --- serving (admission / scheduling) -------------------------------------
  kOverloaded,          // tenant queue full under kReject shed policy
  kDeadlineExceeded,    // request deadline passed before/while serving
  kCircuitOpen,         // tenant circuit breaker tripped; request refused
};

const char* error_code_name(ErrorCode code);

struct RtError {
  ErrorCode code = ErrorCode::kOk;
  std::string message;

  // "[kCrcMismatch] ModelDef: weights blob CRC ..." — what the throwing
  // wrappers put into the exception they raise.
  std::string to_string() const;
};

// Minimal expected/result type (std::expected is C++23; this repo is C++20).
// Holds either a value or an RtError; the no-throw API returns these.
template <typename T>
class Expected {
 public:
  Expected(T value) : v_(std::move(value)) {}          // NOLINT(implicit)
  Expected(RtError error) : v_(std::move(error)) {}    // NOLINT(implicit)

  bool ok() const { return std::holds_alternative<T>(v_); }
  explicit operator bool() const { return ok(); }

  T& value() & { return std::get<T>(v_); }
  const T& value() const& { return std::get<T>(v_); }
  T&& value() && { return std::get<T>(std::move(v_)); }

  const RtError& error() const { return std::get<RtError>(v_); }
  ErrorCode code() const {
    return ok() ? ErrorCode::kOk : error().code;
  }

  // Throwing bridge used by the legacy API wrappers.
  T take_or_throw() &&;

 private:
  std::variant<T, RtError> v_;
};

[[noreturn]] void throw_rt_error(const RtError& e);

template <typename T>
T Expected<T>::take_or_throw() && {
  if (!ok()) throw_rt_error(error());
  return std::get<T>(std::move(v_));
}

// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte span.
// Chainable: pass the previous result as `seed` to extend a running CRC.
uint32_t crc32(std::span<const uint8_t> bytes, uint32_t seed = 0);

}  // namespace mn::rt
