// Reproduces the Section V-A overhead analysis: PSR storage, HSC control
// wires, and the added area of the FLOV router modifications (paper:
// 2.8e-3 mm^2, ~3% of the baseline router at 32 nm).
#include <cstdio>

#include "common/config.hpp"
#include "power/overhead_model.hpp"

int main(int argc, char** argv) {
  using namespace flov;
  Config cfg;
  cfg.parse_args(argc, argv);
  reject_unread_keys(cfg);  // takes no keys
  const OverheadInputs in;
  const OverheadReport r = compute_overhead(in);
  std::printf("Section V-A — FLOV router overhead analysis (32 nm)\n\n");
  std::printf("PSR storage           : %d bits (2 sets x 4 entries x 2 bits)\n",
              r.psr_bits);
  std::printf("HSC wires per neighbor: %d (4 power-state + 1 drain + 1 "
              "assert)\n",
              r.hsc_wires_per_neighbor);
  std::printf("output latches        : %.4e mm^2 (4 x %d bits)\n",
              r.latch_area_mm2, in.flit_width_bits);
  std::printf("muxes + demuxes       : %.4e mm^2\n", r.mux_area_mm2);
  std::printf("PSRs                  : %.4e mm^2\n", r.psr_area_mm2);
  std::printf("HSC FSM               : %.4e mm^2\n", r.hsc_area_mm2);
  std::printf("total overhead        : %.4e mm^2 (paper: 2.8e-3 mm^2)\n",
              r.total_overhead_mm2);
  std::printf("fraction of router    : %.1f%% (paper: ~3%%)\n",
              100.0 * r.overhead_fraction);
  return 0;
}
