#include "wl/dfn.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <unordered_set>

#include "common/check.hpp"

namespace srbsg::wl {

// Reaches the DFN's key epochs and lookup tables so tests can compare
// the table-driven paths with the scalar networks and corrupt entries.
struct DfnTestPeer {
  static const mapping::AddressMapper& current(const DynamicFeistelOuter& d) { return *d.enc_c_; }
  static const mapping::AddressMapper& previous(const DynamicFeistelOuter& d) { return *d.enc_p_; }
  /// isRemap of the LA whose ENC_Kp image is `slot`.
  static bool slot_remapped(const DynamicFeistelOuter& d, u64 slot) {
    return d.slot_remapped_[slot];
  }
  static bool is_spare_holder(const DynamicFeistelOuter& d, u64 la) {
    return d.spare_holder_ && *d.spare_holder_ == la;
  }
  static u64 ia_known(const DynamicFeistelOuter& d) {
    return static_cast<u64>(std::count(d.ia_known_.begin(), d.ia_known_.end(), true));
  }
  static u64 cinv_blocks_filled(const DynamicFeistelOuter& d) {
    return static_cast<u64>(std::count(d.cinv_blocks_.begin(), d.cinv_blocks_.end(),
                                       DynamicFeistelOuter::kFilled));
  }
  static void corrupt_ia(DynamicFeistelOuter& d, u64 la) { d.set_ia(la, d.ia(la) ^ 1); }
  static void corrupt_cinv(DynamicFeistelOuter& d, u64 slot) {
    (void)d.cinv(slot);  // the second read fills the block
    d.cinv_.set(slot, d.cinv(slot) ^ 1);
  }
};

namespace {

void expect_dfn_bijective(const DynamicFeistelOuter& d) {
  std::unordered_set<u64> used;
  for (u64 la = 0; la < d.lines(); ++la) {
    const u64 ia = d.translate(la);
    ASSERT_LE(ia, d.spare_ia());
    ASSERT_TRUE(used.insert(ia).second) << "collision at la " << la;
  }
}

TEST(Dfn, InitiallyConsistent) {
  DynamicFeistelOuter d(6, 7, Rng(1));
  EXPECT_EQ(d.lines(), 64u);
  EXPECT_EQ(d.spare_ia(), 64u);
  EXPECT_TRUE(d.round_idle());
  expect_dfn_bijective(d);
}

TEST(Dfn, BijectiveAfterEveryMovement) {
  DynamicFeistelOuter d(5, 3, Rng(2));
  for (int i = 0; i < 500; ++i) {
    d.advance();
    expect_dfn_bijective(d);
  }
}

TEST(Dfn, MovementDescribesDataFlow) {
  // Simulate the data array alongside the DFN and check that following
  // the reported movements keeps translate() pointing at each LA's data.
  DynamicFeistelOuter d(5, 3, Rng(3));
  const u64 n = d.lines();
  std::vector<u64> slot_data(n + 1, kInvalidAddr);  // slot -> la tag
  for (u64 la = 0; la < n; ++la) slot_data[d.translate(la)] = la;

  for (int i = 0; i < 800; ++i) {
    const auto mv = d.advance();
    slot_data[mv.to] = slot_data[mv.from];
    for (u64 la = 0; la < n; ++la) {
      ASSERT_EQ(slot_data[d.translate(la)], la) << "after movement " << i;
    }
  }
}

TEST(Dfn, RoundRemapsEveryLine) {
  DynamicFeistelOuter d(6, 7, Rng(4));
  const u64 n = d.lines();
  // Run exactly one full round.
  EXPECT_TRUE(d.round_idle());
  d.advance();
  EXPECT_FALSE(d.round_idle());
  u64 movements = 1;
  while (!d.round_idle()) {
    d.advance();
    ++movements;
    ASSERT_LT(movements, 3 * n) << "round did not terminate";
  }
  EXPECT_EQ(d.remapped_count(), n);
  // N fills + one eviction per permutation cycle.
  EXPECT_GE(movements, n + 1);
  EXPECT_LE(movements, 2 * n);
  EXPECT_EQ(d.rounds_completed(), 1u);
}

TEST(Dfn, MappingChangesAcrossRounds) {
  DynamicFeistelOuter d(7, 7, Rng(5));
  std::vector<u64> before(d.lines());
  for (u64 la = 0; la < d.lines(); ++la) before[la] = d.translate(la);
  d.advance();
  for (u64 movements = 1; !d.round_idle(); ++movements) {
    ASSERT_LT(movements, 3 * d.lines()) << "round did not terminate";
    d.advance();
  }
  u64 moved = 0;
  for (u64 la = 0; la < d.lines(); ++la) {
    if (d.translate(la) != before[la]) ++moved;
  }
  EXPECT_GT(moved, d.lines() * 9 / 10);  // fresh keys: almost all move
}

TEST(Dfn, SpareHolderTracked) {
  DynamicFeistelOuter d(4, 3, Rng(6));
  d.advance();  // first movement of a round is always an eviction
  bool any_on_spare = false;
  for (u64 la = 0; la < d.lines(); ++la) {
    if (d.translate(la) == d.spare_ia()) any_on_spare = true;
  }
  EXPECT_TRUE(any_on_spare);
}

TEST(Dfn, MovementsNeverReadTheGap) {
  // A movement's source must currently hold live data: some LA must
  // translate to it at the instant before the movement.
  DynamicFeistelOuter d(5, 5, Rng(7));
  for (int i = 0; i < 400; ++i) {
    std::unordered_set<u64> live;
    for (u64 la = 0; la < d.lines(); ++la) live.insert(d.translate(la));
    const auto mv = d.advance();
    EXPECT_TRUE(live.count(mv.from)) << "movement " << i << " read a dead slot";
  }
}

class DfnStages : public ::testing::TestWithParam<u32> {};

TEST_P(DfnStages, ThreeRoundsStayConsistent) {
  DynamicFeistelOuter d(6, GetParam(), Rng(40 + GetParam()));
  u64 rounds_target = d.rounds_completed() + 3;
  u64 guard = 0;
  while (d.rounds_completed() < rounds_target) {
    d.advance();
    ASSERT_LT(++guard, 10'000u);
  }
  expect_dfn_bijective(d);
}

INSTANTIATE_TEST_SUITE_P(Stages, DfnStages, ::testing::Values(1u, 3u, 6u, 7u, 12u, 20u));

TEST(DfnTablePrp, BijectiveThroughRounds) {
  DynamicFeistelOuter d(6, 1, Rng(60), OuterPrpKind::kTablePrp);
  EXPECT_EQ(d.prp_kind(), OuterPrpKind::kTablePrp);
  for (int i = 0; i < 400; ++i) {
    d.advance();
    expect_dfn_bijective(d);
  }
}

TEST(DfnTablePrp, DataFlowConsistent) {
  DynamicFeistelOuter d(5, 1, Rng(61), OuterPrpKind::kTablePrp);
  const u64 n = d.lines();
  std::vector<u64> slot_data(n + 1, kInvalidAddr);
  for (u64 la = 0; la < n; ++la) slot_data[d.translate(la)] = la;
  for (int i = 0; i < 600; ++i) {
    const auto mv = d.advance();
    slot_data[mv.to] = slot_data[mv.from];
    for (u64 la = 0; la < n; ++la) {
      ASSERT_EQ(slot_data[d.translate(la)], la) << "movement " << i;
    }
  }
}

TEST(Dfn, FreshTranslateMatchesCurrentKeys) {
  // The first translate() fills the IA table lazily; before any round
  // both key epochs are the boot permutation.
  for (const auto kind : {OuterPrpKind::kCubingFeistel, OuterPrpKind::kTablePrp}) {
    const DynamicFeistelOuter d(9, 7, Rng(70), kind);
    for (u64 la = 0; la < d.lines(); ++la) {
      ASSERT_EQ(d.translate(la), DfnTestPeer::current(d).map(la)) << "la " << la;
    }
    d.validate();
  }
}

TEST(Dfn, ShortRunEvaluatesOnlyWhatItReads) {
  // A fresh DFN that translates one LA and makes two movements knows at
  // most three IA entries and has filled no inverse block: each block's
  // first read in a round is a single evaluation.
  DynamicFeistelOuter d(12, 7, Rng(71));
  (void)d.translate(1000);
  d.advance();  // opens a cycle (scalar eviction)
  d.advance();  // one in-cycle movement: reads cinv[gap] and ia[loc]
  EXPECT_LE(DfnTestPeer::ia_known(d), 3u);
  EXPECT_EQ(DfnTestPeer::cinv_blocks_filled(d), 0u);
  d.validate();
}

TEST(Dfn, FullRoundFillsEveryInverseBlock) {
  // Every slot is the gap once per round, so a round reads each 64-slot
  // block 64 times: the second read fills it.
  DynamicFeistelOuter d(9, 7, Rng(72));
  u64 movements = 0;
  do {
    d.advance();
    ASSERT_LT(++movements, 2 * d.lines()) << "round did not terminate";
  } while (!d.round_idle());
  EXPECT_EQ(DfnTestPeer::cinv_blocks_filled(d), d.lines() / 64);
  EXPECT_EQ(DfnTestPeer::ia_known(d), d.lines());
  d.validate();
}

class DfnScalarEquivalence
    : public ::testing::TestWithParam<std::tuple<u32, OuterPrpKind>> {};

TEST_P(DfnScalarEquivalence, TablesMatchScalarNetworksAfterEveryMovement) {
  const auto [width, kind] = GetParam();
  DynamicFeistelOuter d(width, 7, Rng(80 + width), kind);
  const u64 n = d.lines();
  // Scalar images under both key epochs, recomputed whenever a round
  // draws new keys.
  std::vector<u64> enc_c(n);
  std::vector<u64> enc_p(n);
  const auto load_epochs = [&] {
    for (u64 la = 0; la < n; ++la) {
      enc_c[la] = DfnTestPeer::current(d).map(la);
      enc_p[la] = DfnTestPeer::previous(d).map(la);
    }
  };
  load_epochs();
  const u64 target = d.rounds_completed() + 3;
  u64 movements = 0;
  while (d.rounds_completed() < target) {
    const bool rekey = d.round_idle();
    d.advance();
    ASSERT_LT(++movements, 8 * n) << "rounds did not terminate";
    if (rekey) load_epochs();
    for (u64 la = 0; la < n; ++la) {
      const u64 want = DfnTestPeer::is_spare_holder(d, la)          ? d.spare_ia()
                       : DfnTestPeer::slot_remapped(d, enc_p[la]) ? enc_c[la]
                                                                  : enc_p[la];
      ASSERT_EQ(d.translate(la), want) << "width " << width << " movement " << movements
                                       << " la " << la;
    }
  }
  d.validate();
}

INSTANTIATE_TEST_SUITE_P(WidthsByPrp, DfnScalarEquivalence,
                         ::testing::Combine(::testing::Range(3u, 13u),
                                            ::testing::Values(OuterPrpKind::kCubingFeistel,
                                                              OuterPrpKind::kTablePrp)));

class DfnWideTables : public ::testing::TestWithParam<OuterPrpKind> {};

TEST_P(DfnWideTables, WideEntriesMatchScalarNetworks) {
  // Width 17 stores u32 entries. One full round, comparing translate()
  // with the scalar key epochs on a sample of LAs every 4099 movements,
  // then every LA at the round's end; validate() samples the tables too.
  DynamicFeistelOuter d(17, 7, Rng(85), GetParam());
  const u64 n = d.lines();
  const auto expected = [&](u64 la) {
    if (DfnTestPeer::is_spare_holder(d, la)) return d.spare_ia();
    const u64 prev = DfnTestPeer::previous(d).map(la);
    return DfnTestPeer::slot_remapped(d, prev) ? DfnTestPeer::current(d).map(la) : prev;
  };
  u64 movements = 0;
  do {
    d.advance();
    ASSERT_LT(++movements, 2 * n) << "round did not terminate";
    if (movements % 4099 != 0) continue;
    for (u64 la = movements % 97; la < n; la += 97) {
      ASSERT_EQ(d.translate(la), expected(la)) << "movement " << movements << " la " << la;
    }
    d.validate();
  } while (!d.round_idle());
  for (u64 la = 0; la < n; ++la) {
    ASSERT_EQ(d.translate(la), DfnTestPeer::current(d).map(la)) << "la " << la;
  }
  d.validate();
}

INSTANTIATE_TEST_SUITE_P(BothPrps, DfnWideTables,
                         ::testing::Values(OuterPrpKind::kCubingFeistel,
                                           OuterPrpKind::kTablePrp));

TEST(Dfn, ValidateCatchesCorruptIaEntry) {
  DynamicFeistelOuter d(7, 5, Rng(90));
  for (int i = 0; i < 40; ++i) d.advance();
  d.validate();
  DfnTestPeer::corrupt_ia(d, 3);
  EXPECT_THROW(d.validate(), CheckFailure);
}

TEST(Dfn, ValidateCatchesCorruptInverseEntry) {
  DynamicFeistelOuter d(7, 5, Rng(91));
  for (int i = 0; i < 40; ++i) d.advance();
  d.validate();
  DfnTestPeer::corrupt_cinv(d, 5);
  EXPECT_THROW(d.validate(), CheckFailure);
}

}  // namespace
}  // namespace srbsg::wl
