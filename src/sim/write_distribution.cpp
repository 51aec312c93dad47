#include "sim/write_distribution.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "controller/memory_controller.hpp"

namespace srbsg::sim {

DistributionResult raa_write_distribution(const pcm::PcmConfig& cfg,
                                          const wl::SchemeSpec& spec, u64 writes,
                                          std::size_t points) {
  check(cfg.line_count == spec.lines, "write_distribution: scheme/pcm size mismatch");
  // Push the endurance out of reach so the run never "fails".
  pcm::PcmConfig unlimited = cfg;
  unlimited.endurance = std::max<u64>(cfg.endurance, writes + 1);

  ctl::MemoryController mc(unlimited, wl::make_scheme(spec));
  constexpr u64 kChunk = u64{1} << 22;
  u64 issued = 0;
  while (issued < writes) {
    const u64 n = std::min(kChunk, writes - issued);
    const auto out = mc.write_repeated(La{0}, pcm::LineData::mixed(0x5A), n);
    issued += out.writes_applied;
    check(out.writes_applied > 0, "write_distribution: no forward progress");
  }

  DistributionResult res;
  const auto wear = mc.bank().wear_counts();
  res.cumulative = normalized_cumulative(wear, points);
  res.linearity_deviation = cumulative_linearity_deviation(res.cumulative);
  res.metrics = compute_wear_metrics(wear);
  return res;
}

}  // namespace srbsg::sim
