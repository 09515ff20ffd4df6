// Table 1: hardware comparison of the TinyML MCU targets (plus the Cloud /
// Mobile rows quoted from the paper for context).
#include "bench_util.hpp"

using namespace mn;

int main(int argc, char** argv) {
  bench::parse_args(argc, argv);
  bench::print_header("Table 1: CloudML / MobileML / TinyML hardware comparison");

  const std::vector<int> w{14, 16, 12, 12, 10, 8};
  bench::print_row({"Platform", "Architecture", "Memory", "Storage", "Power", "Price"}, w);
  bench::print_row({"CloudML", "GPU NV Volta", "HBM 16GB", "TB~PB", "250W", "$9K"}, w);
  bench::print_row({"MobileML", "CPU Arm A", "DRAM 4GB", "64GB", "~8W", "$750"}, w);
  for (const mcu::Device& d : mcu::all_devices()) {
    const char* core = d.core == mcu::CoreType::kCortexM4 ? "Arm M4" : "Arm M7";
    bench::print_row({"TinyML " + d.size_class, std::string("MCU ") + core,
                      "SRAM " + bench::fmt_kb(d.sram_bytes),
                      "eFlash " + bench::fmt_kb(d.flash_bytes),
                      bench::fmt(d.nominal_power_w, 1) + "W",
                      std::string("$").append(bench::fmt(d.price_usd, 0))},
                     w);
  }

  bench::print_subheader("Calibrated performance model (not in Table 1)");
  bench::print_row({"Device", "conv Mops/s", "dw Mops/s", "fc Mops/s", "P_active", "P_sleep"},
                   {14, 14, 12, 12, 10, 10});
  for (const mcu::Device& d : mcu::all_devices())
    bench::print_row({d.name, bench::fmt(d.conv_mops, 0), bench::fmt(d.dwconv_mops, 0),
                      bench::fmt(d.fc_mops, 0), bench::fmt(d.active_power_w, 3) + "W",
                      bench::fmt(d.sleep_power_w, 3) + "W"},
                     {14, 14, 12, 12, 10, 10});
  return 0;
}
