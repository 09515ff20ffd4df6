// Graph-compiler configuration stub. The compiler itself is gone: it
// measured as a no-op on the converter's fused output for every zoo model.
// The empty config remains only because the zoo benchmark's pins
// (zoobench/pins.cpp) still name CompileConfig::none() and set
// serve::VariantSpec::compile; both go away when the benchmark is next
// revised.
#pragma once

namespace mn::compile {

struct CompileConfig {
  static CompileConfig none() { return {}; }
};

}  // namespace mn::compile
