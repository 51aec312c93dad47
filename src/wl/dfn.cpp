#include "wl/dfn.hpp"

#include <algorithm>
#include <array>
#include <span>

#include "common/check.hpp"
#include "mapping/feistel.hpp"
#include "mapping/quality.hpp"
#include "mapping/table_mapper.hpp"

namespace srbsg::wl {

std::unique_ptr<mapping::AddressMapper> DynamicFeistelOuter::make_prp(u64 seed) const {
  Rng rng(seed);
  switch (kind_) {
    case OuterPrpKind::kCubingFeistel: {
      const auto keys = mapping::FeistelNetwork::random_keys(width_, stages_, rng);
      return std::make_unique<mapping::FeistelNetwork>(width_, keys);
    }
    case OuterPrpKind::kTablePrp:
      return std::make_unique<mapping::TableMapper>(width_, rng);
  }
  throw CheckFailure("DynamicFeistelOuter: unhandled PRP kind");
}

DynamicFeistelOuter::LineTable::LineTable(u32 width) : is_wide_(width > 16) {
  const u64 lines = u64{1} << width;
  if (is_wide_) {
    wide_ = std::make_unique_for_overwrite<u32[]>(lines);
  } else {
    narrow_ = std::make_unique_for_overwrite<u16[]>(lines);
  }
}

void DynamicFeistelOuter::LineTable::fill_unmap(u64 first, u64 count,
                                                const mapping::AddressMapper& prp) {
  if (is_wide_) {
    prp.unmap_range(first, std::span<u32>(wide_.get() + first, count));
    return;
  }
  std::array<u32, kCinvBlock> buf{};
  for (u64 done = 0; done < count; done += buf.size()) {
    const std::span<u32> out(buf.data(), std::min<u64>(buf.size(), count - done));
    prp.unmap_range(first + done, out);
    // srbsg-analyze: suppress(a1-width) values are line indices < 2^16 in the narrow table
    std::transform(out.begin(), out.end(), narrow_.get() + first + done, [](u32 v) { return static_cast<u16>(v); });
  }
}

u64 DynamicFeistelOuter::ia(u64 la) const {
  if (!ia_known_[la]) {
    // Only an LA that has not moved since boot can be unknown, and every
    // LA moves in the first round.
    check(rounds_completed_ == 0, "DFN: IA entry unknown after the first round");
    ia_.set(la, enc_p_->map(la));  // the boot keys: both epochs until round 1 ends
    ia_known_[la] = true;
  }
  return ia_.get(la);
}

void DynamicFeistelOuter::set_ia(u64 la, u64 ia_slot) {
  ia_.set(la, ia_slot);
  ia_known_[la] = true;
}

u64 DynamicFeistelOuter::cinv(u64 slot) {
  const u64 block = cinv_block_size();
  u8& state = cinv_blocks_[slot / block];
  if (state == kUnread) {
    state = kReadOnce;
    return enc_c_->unmap(slot);
  }
  if (state == kReadOnce) {
    cinv_.fill_unmap(slot / block * block, block, *enc_c_);
    state = kFilled;
  }
  return cinv_.get(slot);
}

namespace {
u32 checked_width(u32 width_bits) {
  check(width_bits >= 2 && width_bits <= 28, "DynamicFeistelOuter: width out of range");
  return width_bits;
}
}  // namespace

DynamicFeistelOuter::DynamicFeistelOuter(u32 width_bits, u32 stages, Rng rng,
                                         OuterPrpKind kind)
    : width_(checked_width(width_bits)),
      stages_(stages),
      kind_(kind),
      rng_(rng),
      ia_(width_),
      cinv_(width_) {
  check(stages >= 1, "DynamicFeistelOuter: need at least one stage");
  // Boot: both epochs use the same permutation, everything consistently
  // mapped, all lines counted as remapped so the first advance starts a
  // fresh round.
  const u64 seed0 = rng_.next();
  enc_p_ = make_prp(seed0);
  enc_c_ = make_prp(seed0);
  slot_remapped_.assign(lines(), true);
  remapped_ = lines();
  ia_known_.assign(lines(), false);
  cinv_blocks_.assign(lines() / cinv_block_size(), kUnread);
}

u64 DynamicFeistelOuter::translate(u64 la) const {
  check(la < lines(), "DynamicFeistelOuter: address out of range");
  if (spare_holder_ && *spare_holder_ == la) return spare_ia();
  return ia(la);
}

void DynamicFeistelOuter::begin_round() {
  // Every LA sits at ENC_Kc(la) now, which becomes ENC_Kp(la): the IA
  // table carries over and only the new network's inverse is refilled.
  enc_p_ = std::move(enc_c_);
  enc_c_ = make_prp(rng_.next());
  std::fill(cinv_blocks_.begin(), cinv_blocks_.end(), u8{kUnread});
  slot_remapped_.assign(lines(), false);
  remapped_ = 0;
  scan_ = 0;
}

u64 DynamicFeistelOuter::next_unremapped_slot() {
  // Scan slots in order (the paper starts at slot 0); a slot still holds
  // its previous-round resident DEC_Kp(slot) iff that LA has not been
  // remapped yet, which makes it a valid next cycle start. Scanning by
  // slot keeps the evicted LA key-dependent — scanning by LA would park
  // the same logical line on the (un-leveled) spare every single round.
  // The slot-indexed mirror spares the scan a DEC_Kp per probed slot.
  while (scan_ < lines() && slot_remapped_[scan_]) ++scan_;
  check(scan_ < lines(), "DynamicFeistelOuter: no unremapped slot left");
  return scan_;
}

DynamicFeistelOuter::Movement DynamicFeistelOuter::advance() {
  if (phase_ == Phase::kIdle) {
    begin_round();
    round_movements_ = 0;
  }
  ++round_movements_;
  if (phase_ == Phase::kIdle || phase_ == Phase::kNeedNewCycle) {
    phase_ = Phase::kInCycle;
    // Open a cycle: evict the first slot whose resident has not been
    // remapped yet into the spare.
    const u64 slot = next_unremapped_slot();
    const u64 la = enc_p_->unmap(slot);
    spare_holder_ = la;
    cycle_start_ = slot;
    gap_ = slot;
    return Movement{slot, spare_ia()};
  }

  // In-cycle movement (Fig. 9): the LA that belongs at the gap under the
  // current keys moves in; its old slot becomes the new gap.
  const u64 loc = cinv(gap_);
  const u64 old_gap = gap_;
  if (spare_holder_ && *spare_holder_ == loc) {
    // Cycle closes: loc's data was parked in the spare at eviction time
    // (its old ENC_Kp slot is the cycle start).
    spare_holder_.reset();
    set_ia(loc, old_gap);
    slot_remapped_[cycle_start_] = true;
    ++remapped_;
    if (remapped_ == lines()) {
      phase_ = Phase::kIdle;
      ++rounds_completed_;
    } else {
      phase_ = Phase::kNeedNewCycle;
    }
    return Movement{spare_ia(), old_gap};
  }
  const u64 src = ia(loc);  // ENC_Kp(loc): loc is not remapped yet
  set_ia(loc, old_gap);
  slot_remapped_[src] = true;
  ++remapped_;
  gap_ = src;
  return Movement{src, old_gap};
}

void DynamicFeistelOuter::validate() const {
  const u64 n = lines();
  const u64 populated =
      static_cast<u64>(std::count(slot_remapped_.begin(), slot_remapped_.end(), true));
  check_eq(populated, remapped_, "DFN: isRemap population disagrees with remapped counter");
  check_le(remapped_, n, "DFN: remapped counter exceeds line count");
  check_le(scan_, n, "DFN: scan pointer out of bounds");
  switch (phase_) {
    case Phase::kIdle:
      // Between rounds every line is consistently mapped under ENC_Kc.
      check_eq(remapped_, n, "DFN: idle phase with unremapped lines");
      check(!spare_holder_.has_value(), "DFN: idle phase but a line is parked in the spare");
      break;
    case Phase::kInCycle:
      check(spare_holder_.has_value(), "DFN: in-cycle phase but the spare is empty");
      check_lt(*spare_holder_, n, "DFN: spare holder out of range");
      check_lt(gap_, n, "DFN: Gap register out of bounds");
      check_lt(cycle_start_, n, "DFN: cycle start out of bounds");
      check_eq(enc_p_->map(*spare_holder_), cycle_start_,
               "DFN: spare holder was not evicted from the cycle start");
      check(!slot_remapped_[cycle_start_], "DFN: spare holder already marked remapped");
      check_eq(translate(*spare_holder_), spare_ia(),
               "DFN: spare holder does not translate to the spare");
      check_lt(remapped_, n, "DFN: in-cycle phase after every line was remapped");
      break;
    case Phase::kNeedNewCycle:
      check(!spare_holder_.has_value(), "DFN: closed cycle left a line in the spare");
      check_lt(remapped_, n, "DFN: need-new-cycle phase with all lines remapped");
      break;
  }
  // The two key epochs must each be bijections — exhaustively verifiable
  // for the widths the tests and scaled sims use.
  if (width_ <= 16) {
    check(mapping::verify_bijection(*enc_p_), "DFN: ENC_Kp is not a bijection");
    check(mapping::verify_bijection(*enc_c_), "DFN: ENC_Kc is not a bijection");
  }
  // The known table entries must agree with the scalar networks: every
  // entry up to 16-bit widths, 2^16 evenly spaced ones above. An LA is
  // remapped iff its ENC_Kp slot is; a parked spare holder is not, so its
  // entry is still its ENC_Kp slot.
  if (rounds_completed_ > 0) {
    check(std::find(ia_known_.begin(), ia_known_.end(), false) == ia_known_.end(),
          "DFN: IA entry unknown after the first round");
  }
  const u64 stride = width_ <= 16 ? 1 : n >> 16;
  for (u64 i = 0; i < n; i += stride) {
    if (ia_known_[i]) {
      const u64 prev = enc_p_->map(i);
      check_eq(ia_.get(i), slot_remapped_[prev] ? enc_c_->map(i) : prev,
               "DFN: IA table disagrees with the key epochs");
    }
    if (cinv_blocks_[i / cinv_block_size()] == kFilled) {
      check_eq(cinv_.get(i), enc_c_->unmap(i), "DFN: inverse table disagrees with ENC_Kc");
    }
  }
}

}  // namespace srbsg::wl
