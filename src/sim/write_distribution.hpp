#pragma once
// Write-distribution study (paper Fig. 16): how a scheme spreads a
// pinned-address write stream across the physical space.

#include <vector>

#include "common/stats.hpp"
#include "pcm/config.hpp"
#include "wl/factory.hpp"

namespace srbsg::sim {

struct DistributionResult {
  std::vector<double> cumulative;  ///< normalized accumulated writes (Fig. 16 y-axis)
  double linearity_deviation{0.0};  ///< max |curve - diagonal| (0 = perfectly even)
  WearMetrics metrics;
};

/// Issues `writes` RAA writes (single pinned logical address) through the
/// scheme and returns its cumulative wear curve and metrics. The endurance
/// limit is ignored — the study measures distribution, not failure.
[[nodiscard]] DistributionResult raa_write_distribution(const pcm::PcmConfig& cfg,
                                                        const wl::SchemeSpec& spec,
                                                        u64 writes, std::size_t points);

}  // namespace srbsg::sim
