#include <atomic>
#include <chrono>
#include <limits>
#include <optional>
#include <string>
#include <sstream>
#include <vector>

#include "common/check.hpp"
#include "mapping/feistel.hpp"
#include "verify/checks.hpp"

namespace srbsg::verify::detail {

namespace {

// The network internals round odd widths up (cycle-walking), so the
// exhaustive key domain is [0, 2^half_bits) per stage.
u32 feistel_half_bits(u32 width_bits) {
  const u32 even = width_bits + (width_bits & 1u);
  return even / 2;
}

std::vector<u64> tuple_keys(u64 tuple, u32 stages, u32 half_bits) {
  std::vector<u64> keys(stages);
  const u64 mask = (u64{1} << half_bits) - 1;
  for (u32 s = 0; s < stages; ++s) {
    keys[s] = (tuple >> (s * half_bits)) & mask;
  }
  return keys;
}

std::string format_keys(const std::vector<u64>& keys) {
  std::ostringstream os;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i) os << ',';
    os << keys[i];
  }
  return os.str();
}

// The lane evaluation of the inverse over the whole domain.
std::vector<u32> lane_inverse(const mapping::FeistelNetwork& net) {
  std::vector<u32> out(net.domain_size());
  net.unmap_range(0, out);
  return out;
}

}  // namespace

std::optional<std::string> replay_feistel_point(u32 width, const std::vector<u64>& keys, u64 x) {
  const u64 domain = u64{1} << width;
  check(x < domain, "feistel replay: x outside the width's domain");
  const mapping::FeistelNetwork net(width, keys);
  const u64 y = net.map(x);
  if (y >= domain) {
    return "map(" + std::to_string(x) + ")=" + std::to_string(y) + " escapes the domain";
  }
  const u64 back = net.unmap(y);
  if (back != x) {
    return "unmap(map(" + std::to_string(x) + "))=" + std::to_string(back);
  }
  const u64 lane = lane_inverse(net)[y];
  if (lane != x) {
    return "unmap_range gives " + std::to_string(lane) + " for " + std::to_string(y);
  }
  return std::nullopt;
}

CellResult run_feistel_cell(const Cell& cell, const Bounds& bounds, ThreadPool& pool) {
  const auto t0 = std::chrono::steady_clock::now();
  CellResult res;
  res.cell = cell;

  const u32 width = static_cast<u32>(cell.param);
  check(width >= 2 && width <= 20, "feistel cell width out of verifiable range");
  const u32 half = feistel_half_bits(width);
  const u64 domain = u64{1} << width;

  std::atomic<u64> states{0};
  for (u32 stages = 1; stages <= bounds.max_stages && res.pass; ++stages) {
    if (u64{half} * stages > bounds.key_budget_bits) break;
    const u64 tuples = u64{1} << (half * stages);

    // Lowest failing (tuple, x) wins so reruns report the same witness
    // regardless of shard interleaving.
    constexpr u64 kNone = std::numeric_limits<u64>::max();
    std::atomic<u64> best{kNone};
    parallel_for(
        pool, static_cast<std::size_t>(tuples),
        [&](std::size_t t) {
          if (best.load(std::memory_order_relaxed) != kNone) return;
          const std::vector<u64> keys = tuple_keys(t, stages, half);
          const mapping::FeistelNetwork net(width, keys);
          const std::vector<u32> lanes = lane_inverse(net);
          u64 checked = 0;
          for (u64 x = 0; x < domain; ++x) {
            const u64 y = net.map(x);
            ++checked;
            if (y < domain && net.unmap(y) == x && lanes[y] == x) continue;
            u64 enc = t * domain + x;
            u64 cur = best.load(std::memory_order_relaxed);
            while (enc < cur && !best.compare_exchange_weak(cur, enc)) {
            }
            break;
          }
          states.fetch_add(checked, std::memory_order_relaxed);
        },
        /*grain=*/64);

    const u64 enc = best.load();
    if (enc != kNone) {
      const u64 tuple = enc / domain;
      const u64 x = enc % domain;
      const std::vector<u64> keys = tuple_keys(tuple, stages, half);
      const mapping::FeistelNetwork net(width, keys);
      const u64 y = net.map(x);
      std::ostringstream msg;
      msg << "feistel width=" << width << " stages=" << stages << " keys=[" << format_keys(keys)
          << "]: map(" << x << ")=" << y;
      if (y >= domain) {
        msg << " escapes the domain [0," << domain << ")";
      } else if (net.unmap(y) != x) {
        msg << " but unmap(" << y << ")=" << net.unmap(y) << " != " << x;
      } else {
        msg << " but unmap_range gives " << lane_inverse(net)[y] << " for " << y;
      }
      Counterexample cex;
      cex.message = msg.str();
      std::ostringstream rp;
      rp << "check=" << kFeistelFamily << ";width=" << width << ";stages=" << stages
         << ";keys=" << format_keys(keys) << ";x=" << x;
      cex.replay = rp.str();
      cex.original_size = 1;  // a point witness is born minimal
      cex.size = 1;
      cex.minimized = true;
      res.pass = false;
      res.cex = std::move(cex);
    }
  }

  res.states = states.load();
  res.wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  return res;
}

}  // namespace srbsg::verify::detail
