#include "mapping/table_mapper.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/check.hpp"
#include "mapping/quality.hpp"

namespace srbsg::mapping {
namespace {

TEST(TableMapper, IsBijective) {
  Rng rng(3);
  TableMapper m(12, rng);
  EXPECT_TRUE(verify_bijection(m));
}

TEST(TableMapper, RoundTrips) {
  Rng rng(5);
  TableMapper m(14, rng);
  for (u64 x = 0; x < m.domain_size(); x += 11) {
    EXPECT_EQ(m.unmap(m.map(x)), x);
  }
}

TEST(TableMapper, DifferentSeedsDiffer) {
  Rng r1(7), r2(8);
  TableMapper a(10, r1), b(10, r2);
  int diff = 0;
  for (u64 x = 0; x < 1024; ++x) {
    if (a.map(x) != b.map(x)) ++diff;
  }
  EXPECT_GT(diff, 1000);
}

TEST(TableMapper, NearIdealAvalanche) {
  // A uniform random permutation has ~0.5 avalanche — the property the
  // cubing Feistel lacks (its T-function round saturates around 0.3).
  Rng seeder(9);
  TableMapper m(14, seeder);
  Rng rng(10);
  const auto q = measure_quality(m, 4000, 16, rng);
  EXPECT_NEAR(q.avalanche, 0.5, 0.05);
}

TEST(TableMapper, RangeCopiesTheInverseTable) {
  Rng rng(12);
  TableMapper m(9, rng);
  std::vector<u32> inv(100);
  m.unmap_range(300, inv);
  for (u64 i = 0; i < inv.size(); ++i) EXPECT_EQ(inv[i], m.unmap(300 + i));
  EXPECT_THROW(m.unmap_range(500, inv), CheckFailure);
}

TEST(TableMapper, RejectsHugeWidth) {
  Rng rng(11);
  EXPECT_THROW(TableMapper(40, rng), CheckFailure);
}

}  // namespace
}  // namespace srbsg::mapping
