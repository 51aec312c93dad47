#pragma once
// Dynamic Feistel Network (DFN) outer-level mapping — the paper's core
// contribution (§IV.B, Figs. 8-10).
//
// LA→IA is a keyed permutation whose keys are re-randomized every
// remapping round, so a timing attacker never has enough writes to
// recover them before they change. One extra spare line (IA index N)
// plus a Gap register enable incremental migration of the whole address
// space from the previous permutation (ENC_Kp) to the current one
// (ENC_Kc); a per-line isRemap bit selects which one translates each LA.
//
// The permutation family is pluggable: the paper's multi-stage Feistel
// network with the cubing round function (kCubingFeistel) or an explicit
// uniform random permutation table (kTablePrp) — the latter is a
// hardware-unrealistic ablation upper bound quantifying how much wear
// uniformity the cubing round's weak diffusion costs.
//
// The paper walks a single permutation cycle starting at slot 0 (Fig. 9).
// A random key pair generally induces *multiple* cycles in
// ENC_Kp ∘ DEC_Kc, so this implementation generalizes the flowchart: when
// a cycle closes (the spare's content returns to the gap), the next slot
// whose resident has not been remapped is evicted to the spare and its
// cycle is walked, until every line has been remapped. Each advance()
// performs exactly one line copy; a round therefore takes N + (#cycles)
// movements, which is N + 1 in the paper's single-cycle illustration.
//
// The simulator keeps two per-line tables beside the paper's registers:
// ia[la], the current IA of every LA, and cinv[slot], DEC_Kc for the
// round in progress. translate() is then one lookup, and an in-cycle
// movement is two: loc = cinv[gap] and src = ia[loc], which is still
// ENC_Kp(loc) because loc has not been remapped yet; ia[loc] then takes
// the old gap. Both tables fill on demand, so a short run pays only for
// what it reads:
//   * ia entries start unknown. An unknown entry belongs to an LA that
//     has not moved since boot, so its IA is ENC_Kp(la) under the boot
//     keys; the first read evaluates and keeps it. Every LA moves once
//     per round, so after the first round every entry is known.
//   * cinv is refilled every round in blocks of 64 slots. The first read
//     of a block in a round evaluates just that slot; the second fills
//     the whole block with one range evaluation of the inverse network
//     in SIMD lanes (FeistelNetwork::unmap_range). Each slot is the gap
//     once per round, so a full round costs one lane evaluation per slot
//     plus one scalar call per block, while a run that stops after a few
//     movements pays what the scalar walk paid.
// Cycle openings, a few per round, evaluate the PRP one address at a
// time. The tables hold u16 entries for widths <= 16 and u32 above, 4 or
// 8 B per line, allocated untouched at construction.

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "mapping/mapper.hpp"

namespace srbsg::wl {

enum class OuterPrpKind : u8 {
  kCubingFeistel,  ///< the paper's design
  kTablePrp,       ///< ideal-randomizer ablation
};

class DynamicFeistelOuter {
 public:
  /// Address space of 2^width_bits lines; `stages` Feistel stages
  /// (ignored for kTablePrp).
  DynamicFeistelOuter(u32 width_bits, u32 stages, Rng rng,
                      OuterPrpKind kind = OuterPrpKind::kCubingFeistel);

  [[nodiscard]] u64 lines() const { return u64{1} << width_; }
  /// IA index of the spare line.
  [[nodiscard]] u64 spare_ia() const { return lines(); }
  [[nodiscard]] u32 stages() const { return stages_; }
  [[nodiscard]] OuterPrpKind prp_kind() const { return kind_; }

  /// Current IA of `la`, in [0, N] (N = spare, while `la`'s data is
  /// parked there mid-round).
  [[nodiscard]] u64 translate(u64 la) const;

  /// One remapping movement: the owner must copy the data of IA slot
  /// `from` into IA slot `to` (either may be the spare index N).
  struct Movement {
    u64 from;
    u64 to;
  };
  Movement advance();

  /// Movements executed so far in the current round (0 between rounds).
  [[nodiscard]] u64 round_movements() const { return round_movements_; }
  /// Logical lines already remapped to the current keys this round.
  [[nodiscard]] u64 remapped_count() const { return remapped_; }
  /// True when no round is in progress (all lines under one key array).
  [[nodiscard]] bool round_idle() const { return phase_ == Phase::kIdle; }
  /// Rounds completed since construction.
  [[nodiscard]] u64 rounds_completed() const { return rounds_completed_; }

  /// Full consistency audit of the DFN state machine: Gap/scan bounds,
  /// isRemap population vs. the remapped counter, spare-holder/phase
  /// agreement, bijectivity of both key epochs' permutations (for widths
  /// small enough to enumerate), and agreement of the filled lookup-table
  /// entries with them (every entry up to 16-bit widths, 2^16 evenly
  /// spaced ones above). Throws CheckFailure on violation.
  void validate() const;

 private:
  friend struct DfnTestPeer;

  /// Storage for one per-line table: u16 entries while line indices fit
  /// (widths <= 16), u32 above. Allocated untouched, so a page becomes
  /// resident only once an entry on it is written.
  class LineTable {
   public:
    explicit LineTable(u32 width);
    [[nodiscard]] u64 get(u64 i) const { return is_wide_ ? wide_[i] : narrow_[i]; }
    void set(u64 i, u64 v) {
      // srbsg-analyze: suppress(a1-width) entries are line indices < 2^width; u16 only for width <= 16
      if (is_wide_) wide_[i] = static_cast<u32>(v); else narrow_[i] = static_cast<u16>(v);
    }
    /// Entries [first, first + count) = prp.unmap(first + i).
    void fill_unmap(u64 first, u64 count, const mapping::AddressMapper& prp);

   private:
    bool is_wide_;
    std::unique_ptr<u16[]> narrow_;
    std::unique_ptr<u32[]> wide_;
  };

  /// Slots per cinv block.
  static constexpr u64 kCinvBlock = 64;
  /// Reads of a cinv block in the current round, saturating at kFilled.
  enum CinvBlock : u8 { kUnread = 0, kReadOnce = 1, kFilled = 2 };

  enum class Phase : u8 {
    kIdle,          ///< between rounds; next advance starts a round
    kInCycle,       ///< walking a cycle; gap_ is the empty slot
    kNeedNewCycle,  ///< cycle closed but lines remain; next advance evicts
  };

  [[nodiscard]] std::unique_ptr<mapping::AddressMapper> make_prp(u64 seed) const;
  /// ia[la]; an unknown entry is evaluated under the boot keys and kept.
  [[nodiscard]] u64 ia(u64 la) const;
  void set_ia(u64 la, u64 ia_slot);
  /// cinv[slot] = DEC_Kc(slot), filling its block on the second read.
  [[nodiscard]] u64 cinv(u64 slot);
  [[nodiscard]] u64 cinv_block_size() const { return std::min(kCinvBlock, lines()); }
  void begin_round();
  [[nodiscard]] u64 next_unremapped_slot();

  u32 width_;
  u32 stages_;
  OuterPrpKind kind_;
  Rng rng_;
  std::unique_ptr<mapping::AddressMapper> enc_p_;
  std::unique_ptr<mapping::AddressMapper> enc_c_;
  /// The paper's per-line isRemap bit, indexed by the LA's ENC_Kp slot
  /// rather than by LA, so the next-unremapped scan advances without a
  /// DEC_Kp evaluation per slot.
  std::vector<bool> slot_remapped_;
  mutable LineTable ia_;                ///< filled on demand, hence mutable
  mutable std::vector<bool> ia_known_;  ///< which ia_ entries are valid
  LineTable cinv_;
  std::vector<u8> cinv_blocks_;  ///< CinvBlock state per block, this round
  Phase phase_{Phase::kIdle};
  u64 gap_{0};                       ///< empty IA slot while kInCycle
  u64 cycle_start_{0};               ///< slot evicted into the spare
  std::optional<u64> spare_holder_;  ///< LA whose data sits in the spare
  u64 scan_{0};                      ///< next-unremapped scan pointer
  u64 remapped_{0};
  u64 round_movements_{0};
  u64 rounds_completed_{0};
};

}  // namespace srbsg::wl
