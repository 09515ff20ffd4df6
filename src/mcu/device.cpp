#include "mcu/device.hpp"

#include <cstdio>
#include <stdexcept>

namespace mn::mcu {

// Throughput calibration: derived from the paper's Table 4. DS-CNN-L is
// ~50.6 MMACs (101 Mops with the paper's 1 MAC = 2 ops convention) and runs
// in 0.515 s on the F746ZG => ~196 Mops/s end to end (~0.45 MAC/cycle at
// 216 MHz for CMSIS-NN). The F446RE runs ~2x slower than the M7 parts
// (§3.1: no dual-issue + 17% lower clock).
// Power calibration: derived from Table 4 energy/latency pairs (e.g.
// KWS-M on F446RE: 70.56 mJ / 0.4258 s = 166 mW; on F746ZG: 445 mW).

namespace {

Device make_f446re() {
  Device d{.name = "STM32F446RE", .size_class = "S"};
  d.core = CoreType::kCortexM4;
  d.sram_bytes = 128 * 1024;
  d.flash_bytes = 512 * 1024;
  d.clock_mhz = 180.0;
  d.active_power_w = 0.166;
  d.sleep_power_w = 0.012;
  d.nominal_power_w = 0.1;
  d.price_usd = 3.0;
  d.conv_mops = 89.0;
  d.dwconv_mops = 70.0;
  d.fc_mops = 115.0;
  d.elementwise_mops = 150.0;
  return d;
}

Device make_f746zg() {
  Device d{.name = "STM32F746ZG", .size_class = "M"};
  d.core = CoreType::kCortexM7;
  d.sram_bytes = 320 * 1024;
  d.flash_bytes = 1024 * 1024;
  d.clock_mhz = 216.0;
  d.active_power_w = 0.445;
  d.sleep_power_w = 0.025;
  d.nominal_power_w = 0.3;
  d.price_usd = 5.0;
  d.conv_mops = 178.0;
  d.dwconv_mops = 140.0;
  d.fc_mops = 230.0;
  d.elementwise_mops = 300.0;
  return d;
}

Device make_f767zi() {
  Device d{.name = "STM32F767ZI", .size_class = "L"};
  d.core = CoreType::kCortexM7;
  d.sram_bytes = 512 * 1024;
  d.flash_bytes = 2048 * 1024;
  d.clock_mhz = 216.0;
  d.active_power_w = 0.46;
  d.sleep_power_w = 0.027;
  d.nominal_power_w = 0.3;
  d.price_usd = 8.0;
  d.conv_mops = 183.0;  // marginally faster flash interface than the F746ZG
  d.dwconv_mops = 144.0;
  d.fc_mops = 236.0;
  d.elementwise_mops = 308.0;
  return d;
}

}  // namespace

const Device& stm32f446re() {
  static const Device d = make_f446re();
  return d;
}
const Device& stm32f746zg() {
  static const Device d = make_f746zg();
  return d;
}
const Device& stm32f767zi() {
  static const Device d = make_f767zi();
  return d;
}

const std::vector<Device>& all_devices() {
  static const std::vector<Device> v{stm32f446re(), stm32f746zg(), stm32f767zi()};
  return v;
}

const Device& device_by_class(const std::string& size_class) {
  const Device* d = find_device_by_class(size_class);
  if (d == nullptr)
    throw std::invalid_argument("device_by_class: unknown class " + size_class);
  return *d;
}

const Device* find_device_by_class(const std::string& size_class) {
  for (const Device& d : all_devices())
    if (d.size_class == size_class) return &d;
  return nullptr;
}

namespace {
std::string fit_line(const char* what, int64_t req, int64_t cap) {
  char buf[128];
  const long long margin_kb = static_cast<long long>((cap - req) / 1024);
  if (req <= cap)
    std::snprintf(buf, sizeof(buf), "%s %lld/%lld KB (margin %lld KB)", what,
                  static_cast<long long>(req / 1024),
                  static_cast<long long>(cap / 1024), margin_kb);
  else
    std::snprintf(buf, sizeof(buf), "%s %lld/%lld KB (OVER by %lld KB)", what,
                  static_cast<long long>(req / 1024),
                  static_cast<long long>(cap / 1024), -margin_kb);
  return buf;
}
}  // namespace

std::string FitReport::describe() const {
  return device_name + ": " + fit_line("SRAM", sram_required, sram_capacity) +
         ", " + fit_line("flash", flash_required, flash_capacity);
}

FitReport check_fit(const Device& dev, int64_t sram_required,
                    int64_t flash_required) {
  FitReport r;
  r.device_name = dev.name;
  r.sram_required = sram_required;
  r.sram_capacity = dev.sram_bytes;
  r.flash_required = flash_required;
  r.flash_capacity = dev.flash_bytes;
  return r;
}

}  // namespace mn::mcu
