#pragma once
// Common interface for invertible address randomizers. All mappers are
// bijections on [0, 2^width_bits).

#include <span>

#include "common/check.hpp"
#include "common/types.hpp"

namespace srbsg::mapping {

class AddressMapper {
 public:
  virtual ~AddressMapper() = default;

  /// Domain is [0, 2^width_bits()).
  [[nodiscard]] virtual u32 width_bits() const = 0;

  /// Forward mapping (bijective).
  [[nodiscard]] virtual u64 map(u64 x) const = 0;

  /// Inverse mapping: unmap(map(x)) == x.
  [[nodiscard]] virtual u64 unmap(u64 y) const = 0;

  /// out[i] = unmap(first + i) for every i, for callers that tabulate a
  /// block of the inverse permutation. The range must lie in the domain,
  /// and width_bits() must be <= 32. Mappers with a batched evaluation
  /// override this; the default calls unmap() per entry.
  virtual void unmap_range(u64 first, std::span<u32> out) const {
    check_range(first, out.size());
    // srbsg-analyze: suppress(a1-width) preimages are < 2^width_bits() <= 2^32 (checked above)
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = static_cast<u32>(unmap(first + i));
  }

  [[nodiscard]] u64 domain_size() const { return u64{1} << width_bits(); }

 protected:
  /// The precondition of unmap_range().
  void check_range(u64 first, u64 count) const {
    check(width_bits() <= 32, "AddressMapper: range evaluation needs width <= 32 (u32 entries)");
    check(first <= domain_size() && count <= domain_size() - first,
          "AddressMapper: range leaves the domain");
  }
};

}  // namespace srbsg::mapping
