#include "mapping/feistel.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

#include "common/bitops.hpp"
#include "common/check.hpp"

namespace srbsg::mapping {

namespace {
// (v XOR key)^3 mod 2^w with the mask precomputed — the hot-path form
// used by the stage loops, where the width check has already been done
// once at construction. t*t stays exact in 64 bits for any w <= 32.
inline u64 cube_masked(u64 v, u64 key, u64 mask) {
  const u64 t = (v ^ key) & mask;
  const u64 sq = (t * t) & mask;
  return (sq * t) & mask;
}

constexpr std::size_t kLanes = 8;      // u16 lanes per vector: one SSE2 register
constexpr std::size_t kChunkVecs = 4;  // vectors evaluated side by side
constexpr std::size_t kChunkLanes = kLanes * kChunkVecs;

// One half of the network state per lane. Half widths are <= 16 for
// networks of <= 32 bits, and the cube modulo 2^half only needs the low
// 16 bits of the product, so u16 lane arithmetic (which wraps modulo
// 2^16) is exact and SSE2's 16-bit multiply serves it natively. The GCC
// vector type keeps the loops in SIMD registers at every optimization
// level. A chunk's vectors are always evaluated together: their multiply
// chains are independent, so they overlap.
using HalfVec = u16 __attribute__((vector_size(kLanes * sizeof(u16))));
using Halves = std::array<HalfVec, kChunkVecs>;

// dst ^= ((src ^ key)^3 mod 2^half), lane by lane. src and key are below
// 2^half, so only the cube needs the mask.
inline void half_round(Halves& dst, const Halves& src, u16 key, u16 mask) {
#pragma GCC unroll 4
  for (std::size_t i = 0; i < kChunkVecs; ++i) {
    const HalfVec t = src[i] ^ key;
    dst[i] ^= (t * t * t) & mask;
  }
}

inline u16 lane_key(u64 key) {
  // srbsg-analyze: suppress(a1-width) keys are masked to the half width, <= 16 bits here
  return static_cast<u16>(key);
}

// The inverse network on the states (l[i], r[i]). A stage maps (L', R')
// back to (R' ^ f(L'), L'); instead of swapping the halves every stage,
// the stages alternate which half they update, so an odd stage count
// leaves the halves exchanged and one swap at the end restores them.
inline void inverse_pass(Halves& l, Halves& r, std::span<const u64> keys, u16 mask) {
  std::size_t j = keys.size();
  for (; j >= 2; j -= 2) {
    half_round(r, l, lane_key(keys[j - 1]), mask);
    half_round(l, r, lane_key(keys[j - 2]), mask);
  }
  if (j == 1) {
    half_round(r, l, lane_key(keys[0]), mask);
    std::swap(l, r);
  }
}

bool any_lane(const HalfVec& m) {
  std::array<u64, sizeof(HalfVec) / sizeof(u64)> words{};
  std::memcpy(words.data(), &m, sizeof m);
  u64 any = 0;
  for (const u64 w : words) any |= w;
  return any != 0;
}
}  // namespace

u64 cubing_round(u64 v, u64 key, u32 half_bits) {
  // (t^3) mod 2^half_bits. Half widths never exceed 32 bits in practice
  // (62-bit address spaces), so t*t fits in 64 bits after masking; mask
  // between multiplications to stay exact for any half width <= 32.
  check(half_bits <= 32, "cubing_round: half width too large");
  return cube_masked(v, key, low_mask(half_bits));
}

FeistelNetwork::FeistelNetwork(u32 width_bits, std::span<const u64> keys)
    : width_bits_(width_bits),
      even_bits_(width_bits % 2 == 0 ? width_bits : width_bits + 1),
      half_bits_(even_bits_ / 2),
      half_mask_(low_mask(half_bits_)),
      keys_(keys.begin(), keys.end()) {
  check(width_bits >= 2 && width_bits <= 62, "FeistelNetwork: width out of range");
  check(!keys_.empty(), "FeistelNetwork: need at least one stage");
  for (auto& k : keys_) k &= half_mask_;
}

u64 FeistelNetwork::round_once(u64 x, u64 key) const {
  const u64 left = x >> half_bits_;
  const u64 right = x & half_mask_;
  const u64 new_left = right;
  const u64 new_right = left ^ cube_masked(right, key, half_mask_);
  return (new_left << half_bits_) | new_right;
}

u64 FeistelNetwork::unround_once(u64 x, u64 key) const {
  const u64 new_left = x >> half_bits_;
  const u64 new_right = x & half_mask_;
  const u64 right = new_left;
  const u64 left = new_right ^ cube_masked(right, key, half_mask_);
  return (left << half_bits_) | right;
}

u64 FeistelNetwork::encrypt_even(u64 x) const {
  for (u64 k : keys_) x = round_once(x, k);
  return x;
}

u64 FeistelNetwork::decrypt_even(u64 x) const {
  for (auto it = keys_.rbegin(); it != keys_.rend(); ++it) x = unround_once(x, *it);
  return x;
}

u64 FeistelNetwork::map(u64 x) const {
  const u64 dom = u64{1} << width_bits_;
  check(x < dom, "FeistelNetwork::map: input out of domain");
  u64 y = encrypt_even(x);
  // Cycle-walk back into the domain for odd widths.
  while (y >= dom) y = encrypt_even(y);
  return y;
}

u64 FeistelNetwork::unmap(u64 y) const {
  const u64 dom = u64{1} << width_bits_;
  check(y < dom, "FeistelNetwork::unmap: input out of domain");
  u64 x = decrypt_even(y);
  while (x >= dom) x = decrypt_even(x);
  return x;
}

void FeistelNetwork::unmap_range(u64 first, std::span<u32> out) const {
  check_range(first, out.size());
  // Inputs are split into halves and evaluated kChunkLanes at a time.
  // Odd widths cycle-walk: a value is outside [0, 2^width) iff its high
  // half reaches 2^(half-1); while any lane of the chunk is outside, the
  // whole chunk is passed again and only the outside lanes take the new
  // value. Lanes past the end of the range evaluate `first`, whose walk
  // ends like any other; their outputs are dropped.
  // srbsg-analyze: suppress(a1-width) half widths are <= 16 at widths <= 32 (checked above)
  const auto half = static_cast<u16>(half_bits_);
  // srbsg-analyze: suppress(a1-width) the half mask has <= 16 bits at widths <= 32
  const auto mask = static_cast<u16>(half_mask_);
  const bool walk = width_bits_ != even_bits_;
  // srbsg-analyze: suppress(a1-width) 2^(half-1) < 2^16
  const auto lim = static_cast<u16>(walk ? u32{1} << (half - 1) : 0);
  std::array<u16, kChunkLanes> ls{};
  std::array<u16, kChunkLanes> rs{};
  Halves l{};
  Halves r{};
  for (std::size_t done = 0; done < out.size(); done += kChunkLanes) {
    const std::size_t len = std::min(kChunkLanes, out.size() - done);
    // srbsg-analyze: suppress(a1-width) inputs are < 2^width <= 2^32 (checked above)
    const auto base = static_cast<u32>(first + done);
    // srbsg-analyze: suppress(a1-width) as above
    const auto spare = static_cast<u32>(first);
    for (std::size_t i = 0; i < kChunkLanes; ++i) {
      // srbsg-analyze: suppress(a1-width) i < kChunkLanes
      const u32 y = i < len ? base + static_cast<u32>(i) : spare;
      // srbsg-analyze: suppress(a1-width) y < 2^32, so both halves fit in 16 bits
      ls[i] = static_cast<u16>(y >> half);
      // srbsg-analyze: suppress(a1-width) masked to the half width
      rs[i] = static_cast<u16>(y & mask);
    }
    std::memcpy(l.data(), ls.data(), sizeof l);
    std::memcpy(r.data(), rs.data(), sizeof r);
    inverse_pass(l, r, keys_, mask);
    while (walk) {
      Halves outside{};
      HalfVec any{};
      for (std::size_t i = 0; i < kChunkVecs; ++i) {
        outside[i] = __builtin_convertvector(l[i] >= lim, HalfVec);
        any |= outside[i];
      }
      if (!any_lane(any)) break;
      Halves next_l = l;
      Halves next_r = r;
      inverse_pass(next_l, next_r, keys_, mask);
      for (std::size_t i = 0; i < kChunkVecs; ++i) {
        l[i] = (next_l[i] & outside[i]) | (l[i] & ~outside[i]);
        r[i] = (next_r[i] & outside[i]) | (r[i] & ~outside[i]);
      }
    }
    std::memcpy(ls.data(), l.data(), sizeof l);
    std::memcpy(rs.data(), r.data(), sizeof r);
    for (std::size_t i = 0; i < len; ++i) out[done + i] = (u32{ls[i]} << half) | rs[i];
  }
}

std::vector<u64> FeistelNetwork::random_keys(u32 width_bits, u32 stages, Rng& rng) {
  check(stages > 0, "random_keys: need at least one stage");
  const u32 even = width_bits % 2 == 0 ? width_bits : width_bits + 1;
  const u64 mask = low_mask(even / 2);
  std::vector<u64> keys(stages);
  for (auto& k : keys) k = rng.next() & mask;
  return keys;
}

}  // namespace srbsg::mapping
