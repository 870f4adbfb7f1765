#include "cmp/benchmark_profile.hpp"

#include "common/log.hpp"

namespace flov {

std::vector<BenchmarkProfile> BenchmarkProfile::parsec_suite() {
  // name, mem_rate, wr_frac, share_frac, priv_blocks, shared_blocks,
  // base_insts, imbalance. Diversity mirrors the PARSEC characterization:
  // canneal = large footprint / fine-grained sharing; swaptions = tiny
  // footprint / coarse units / heavy imbalance; ferret & dedup = pipeline
  // parallel with substantial sharing; blackscholes = data-parallel and
  // cache-friendly; etc.
  // Final column: active-core fraction (thread scalability on 64 cores).
  return {
      {"blackscholes", 0.030, 0.20, 0.02, 512, 128, 40000, 0.50, 0.75},
      {"bodytrack",    0.050, 0.25, 0.15, 1024, 512, 40000, 0.35, 0.62},
      {"canneal",      0.090, 0.30, 0.30, 4096, 2048, 36000, 0.25, 0.50},
      {"dedup",        0.070, 0.35, 0.20, 2048, 1024, 40000, 0.45, 0.56},
      {"ferret",       0.080, 0.30, 0.25, 2048, 1024, 44000, 0.40, 0.62},
      {"fluidanimate", 0.060, 0.30, 0.12, 1536, 384, 40000, 0.30, 0.75},
      {"swaptions",    0.025, 0.20, 0.03, 384, 96, 36000, 0.60, 0.44},
      {"vips",         0.055, 0.30, 0.10, 1536, 512, 40000, 0.40, 0.62},
      {"x264",         0.065, 0.35, 0.18, 1536, 768, 42000, 0.55, 0.50},
  };
}

BenchmarkProfile BenchmarkProfile::by_name(const std::string& name) {
  std::string names;
  for (const auto& p : parsec_suite()) {
    if (p.name == name) return p;
    names += (names.empty() ? "" : ", ") + p.name;
  }
  FLOV_CHECK(false, "unknown benchmark profile " + name + " (one of " +
                        names + ")");
  return {};
}

}  // namespace flov
