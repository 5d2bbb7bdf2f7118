#include "posit/quire.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "posit/simd.hpp"

namespace pdnn::posit {

namespace {

using u128 = unsigned __int128;

/// Terms per deposit/merge round. A term adds under 2^32 to each limb it
/// touches, so this keeps every signed limb sum of merge_banks, carry
/// included, below 2^63.
constexpr std::size_t kMergeTerms = std::size_t{1} << 29;
/// The same bound for the narrow deposit: a term adds under 2^43 (a <= 28-bit
/// product shifted by <= 15) to one limb.
constexpr std::size_t kNarrowMergeTerms = std::size_t{1} << 18;

/// Magnitude view of a two's-complement register, read word by word without
/// copying it. For a negative register X, -X is zero below X's lowest
/// non-zero word, that word's two's negation there, and ~X above it.
class Magnitude {
 public:
  Magnitude(const std::uint64_t* words, std::size_t count) : words_(words) {
    while (low_ < count && words[low_] == 0) ++low_;
    negative_ = (words[count - 1] >> 63) != 0;
  }

  bool negative() const { return negative_; }
  /// Index of the lowest non-zero word (== count when the register is zero).
  std::size_t low() const { return low_; }

  std::uint64_t operator[](std::size_t w) const {
    if (!negative_) return words_[w];
    return w < low_ ? 0u : (w == low_ ? 0u - words_[w] : ~words_[w]);
  }

 private:
  const std::uint64_t* words_;
  std::size_t low_ = 0;
  bool negative_ = false;
};

/// Round a non-NaR register (bit 0 weighs 2^-frac_bits) to a posit code.
std::uint32_t round_register(const std::vector<std::uint64_t>& words, long frac_bits,
                             const PositSpec& spec, RoundMode mode, RoundingRng* rng) {
  const Magnitude mag(words.data(), words.size());
  if (mag.low() == words.size()) return 0u;
  std::size_t top = words.size() - 1;
  while (mag[top] == 0) --top;  // stops at low() at the latest
  const long msb_pos = static_cast<long>(top) * 64 + 63 - __builtin_clzll(mag[top]);

  // Up to 64 significand bits from the MSB down; everything below is sticky
  // (and mag[w] is zero for every w below low()).
  const long lo_pos = msb_pos - 63;
  std::uint64_t sig;
  bool sticky = false;
  if (lo_pos >= 0) {
    const std::size_t w = static_cast<std::size_t>(lo_pos / 64);
    const int off = static_cast<int>(lo_pos % 64);
    sig = mag[w] >> off;
    if (off != 0) sig |= mag[w + 1] << (64 - off);
    sticky = w > mag.low() || (mag[w] & ((1ULL << off) - 1)) != 0;
  } else {
    sig = mag[0] << (-lo_pos);
  }
  // sig now has its MSB (the hidden bit) at position 63.
  return round_pack(spec, mag.negative(), msb_pos - frac_bits, sig, 63, sticky, mode, rng);
}

}  // namespace

Quire::Quire(const PositSpec& spec, int guard_bits) : spec_(spec) {
  spec_.validate();
  // Smallest product: minpos^2 = 2^(2*min_scale). Products are deposited with
  // the raw 128-bit significand whose bit 0 sits 124 places below the hidden
  // bit (those low bits are zero for n <= 32 operands, but the shift target
  // must still exist), so reserve 128 bits of slack below 2*min_scale.
  frac_bits_ = -2L * spec_.min_scale() + 128;
  // Largest magnitude after 2^guard_bits accumulations of maxpos^2.
  const long int_bits = 2L * spec_.max_scale() + guard_bits + 2;
  const long total = frac_bits_ + int_bits + 1;  // +1 sign
  words_.assign(static_cast<std::size_t>((total + 63) / 64), 0u);
  // Dot-product scratch, four banks. Wide formats: one 64-bit limb per 32
  // register bits plus two spill limbs and two slack limbs per bank — the
  // SIMD deposit splits each sign stream (positive, negative) across two
  // banks (even/odd terms) to shorten the same-limb add chains; the scalar
  // path uses only the first bank of each stream. Narrow formats: one signed
  // limb per 16 register bits, term i in bank i % 4. The merge sums all four
  // exactly, so the split cannot change a bit.
  narrow_ = spec_.n <= 16;
  limbs_.assign(bank_stride() * 4, 0u);
}

void Quire::clear() {
  words_.assign(words_.size(), 0u);
  nar_ = false;
}

bool Quire::is_zero() const {
  if (nar_) return false;
  for (const auto w : words_)
    if (w != 0) return false;
  return true;
}

void Quire::add_shifted(u128 sig, long lsb_weight, bool negative) {
  // The value added is sig * 2^lsb_weight; bit position of sig's bit 0 inside
  // the register is frac_bits_ + lsb_weight.
  const long pos = frac_bits_ + lsb_weight;
  if (pos < 0 || sig == 0) return;  // cannot happen for valid posit products
  std::size_t word = static_cast<std::size_t>(pos / 64);
  const int bit = static_cast<int>(pos % 64);

  // Spread sig (up to 128 bits) across up to three words at offset `bit`.
  std::uint64_t chunks[3] = {static_cast<std::uint64_t>(sig << bit), 0, 0};
  if (bit != 0) {
    chunks[1] = static_cast<std::uint64_t>(sig >> (64 - bit));
    chunks[2] = static_cast<std::uint64_t>(sig >> (128 - bit));
  } else {
    chunks[1] = static_cast<std::uint64_t>(sig >> 64);
  }

  if (!negative) {
    unsigned carry = 0;
    for (int i = 0; i < 3 && word + i < words_.size(); ++i) {
      const u128 s = static_cast<u128>(words_[word + i]) + chunks[i] + carry;
      words_[word + i] = static_cast<std::uint64_t>(s);
      carry = static_cast<unsigned>(s >> 64);
    }
    for (std::size_t i = word + 3; carry && i < words_.size(); ++i) {
      const u128 s = static_cast<u128>(words_[i]) + carry;
      words_[i] = static_cast<std::uint64_t>(s);
      carry = static_cast<unsigned>(s >> 64);
    }
  } else {
    std::uint64_t borrow = 0;
    for (int i = 0; i < 3 && word + i < words_.size(); ++i) {
      const u128 sub_amount = static_cast<u128>(chunks[i]) + borrow;
      const u128 before = words_[word + i];
      words_[word + i] = static_cast<std::uint64_t>(before - sub_amount);
      borrow = before < sub_amount ? 1u : 0u;
    }
    for (std::size_t i = word + 3; borrow && i < words_.size(); ++i) {
      const std::uint64_t before = words_[i];
      words_[i] = before - borrow;
      borrow = before == 0 ? 1u : 0u;
    }
  }
}

void Quire::add_product(std::uint32_t a, std::uint32_t b) {
  const Decoded da = decode(a, spec_);
  const Decoded db = decode(b, spec_);
  if (da.is_nar || db.is_nar) {
    nar_ = true;
    return;
  }
  if (da.is_zero || db.is_zero) return;
  const u128 product = static_cast<u128>(da.sig) * db.sig;  // hidden at 124/125
  const long lsb_weight = static_cast<long>(da.scale) + db.scale - 124;
  add_shifted(product, lsb_weight, da.neg != db.neg);
}

void Quire::add_shifted64(std::uint64_t sig, long lsb_weight, bool negative) {
  const long pos = frac_bits_ + lsb_weight;
  if (pos < 0 || sig == 0) return;  // cannot happen for valid posit products
  std::size_t word = static_cast<std::size_t>(pos / 64);
  const int bit = static_cast<int>(pos % 64);
  const std::uint64_t lo = sig << bit;
  const std::uint64_t hi = bit != 0 ? sig >> (64 - bit) : 0u;

  if (!negative) {
    u128 s = static_cast<u128>(words_[word]) + lo;
    words_[word] = static_cast<std::uint64_t>(s);
    unsigned carry = static_cast<unsigned>(s >> 64);
    for (std::size_t i = word + 1; (carry || (i == word + 1 && hi)) && i < words_.size(); ++i) {
      s = static_cast<u128>(words_[i]) + (i == word + 1 ? hi : 0u) + carry;
      words_[i] = static_cast<std::uint64_t>(s);
      carry = static_cast<unsigned>(s >> 64);
    }
  } else {
    const std::uint64_t before = words_[word];
    words_[word] = before - lo;
    std::uint64_t borrow = before < lo ? 1u : 0u;
    for (std::size_t i = word + 1; (borrow || (i == word + 1 && hi)) && i < words_.size(); ++i) {
      const u128 sub_amount = static_cast<u128>(i == word + 1 ? hi : 0u) + borrow;
      const u128 w = words_[i];
      words_[i] = static_cast<std::uint64_t>(w - sub_amount);
      borrow = w < sub_amount ? 1u : 0u;
    }
  }
}

void Quire::add_product(const Unpacked& a, const Unpacked& b) {
  if ((a.flags | b.flags) != 0) {  // zero or NaR operand: no deposit
    if (a.is_nar() || b.is_nar()) nar_ = true;
    return;
  }
  const std::uint64_t product = static_cast<std::uint64_t>(a.sig) * b.sig;
  add_shifted64(product, static_cast<long>(a.lsb_weight) + b.lsb_weight, a.neg != b.neg);
}

bool Quire::deposit(const Unpacked* a, const Unpacked* b, std::size_t count) {
  if (narrow_) return deposit_narrow(a, b, count);
  // Bank layout: [pos0 | neg0 | pos1 | neg1]. The scalar loop (and the SIMD
  // group's even terms) deposit into bank 0 of each sign stream; the SIMD
  // group's odd terms go two banks further.
  std::uint64_t* pos_limbs = limbs_.data();
  std::uint64_t* neg_limbs = limbs_.data() + bank_stride();
  const long base = frac_bits_;
  std::uint32_t flags = 0;
  std::size_t i = 0;
  if (simd::enabled()) {
    // Groups of 8 terms deposit vectorized; limb adds are exact, so the
    // grouping cannot change the merged register state. Scalar tail below.
    i = simd::accumulate_limbs_avx2(a, b, count, base, pos_limbs, neg_limbs, 2 * bank_stride(),
                                    &flags);
  }
  for (; i < count; ++i) {
    const Unpacked ua = a[i];
    const Unpacked ub = b[i];
    // Zero and NaR operands carry sig == 0 at lsb_weight 0, so they deposit
    // nothing at an in-range position; NaR is only flagged.
    flags |= ua.flags | ub.flags;
    const std::uint64_t product = static_cast<std::uint64_t>(ua.sig) * ub.sig;  // <= 60 bits
    const auto pos = static_cast<std::size_t>(base + ua.lsb_weight + ub.lsb_weight);
    const std::size_t idx = pos >> 5;
    const std::uint32_t sh = pos & 31;
    std::uint64_t* dst = (ua.neg ^ ub.neg) != 0 ? neg_limbs : pos_limbs;
    // Three 32-bit chunks of product << sh, in plain 64-bit ops. The last
    // chunk's shift stays defined at sh == 0 by splitting it in two.
    dst[idx] += (product << sh) & 0xFFFFFFFFu;
    dst[idx + 1] += (product >> (32 - sh)) & 0xFFFFFFFFu;
    dst[idx + 2] += (product >> 1) >> (63 - sh);
  }
  return (flags & Unpacked::kNarFlag) != 0;
}

bool Quire::deposit_narrow(const Unpacked* a, const Unpacked* b, std::size_t count) {
  // One signed add per term: the product (<= 28 bits at n <= 16) shifted to
  // its bit offset inside a 16-bit limb fits one 64-bit limb whole, so no
  // chunk split and no sign streams. Limb sums wrap as uint64; the merge
  // reads them as int64, exact while each round's terms stay within
  // kNarrowMergeTerms.
  const std::size_t stride = bank_stride();
  std::uint64_t* const limbs = limbs_.data();
  const long base = frac_bits_;
  std::uint32_t flags = 0;
  std::size_t i = 0;
  if (count >= 8 && simd::enabled()) {
    i = simd::accumulate_narrow_avx2(a, b, count, base, limbs, stride, &flags);
  }
  for (; i < count; ++i) {
    const Unpacked ua = a[i];
    const Unpacked ub = b[i];
    flags |= ua.flags | ub.flags;  // zero/NaR: sig 0 at lsb_weight 0 deposits nothing
    const std::uint64_t product = static_cast<std::uint64_t>(ua.sig) * ub.sig;
    const auto pos = static_cast<std::uint32_t>(base + ua.lsb_weight + ub.lsb_weight);
    const std::uint64_t term = product << (pos & 15);
    const std::uint64_t negate = 0u - static_cast<std::uint64_t>(ua.neg ^ ub.neg);
    limbs[(i & 3) * stride + (pos >> 4)] += (term ^ negate) - negate;
  }
  return (flags & Unpacked::kNarFlag) != 0;
}

void Quire::merge_narrow(bool accumulate) {
  const std::size_t stride = bank_stride();
  std::uint64_t* const b0 = limbs_.data();
  std::uint64_t* const b1 = b0 + stride;
  std::uint64_t* const b2 = b0 + 2 * stride;
  std::uint64_t* const b3 = b0 + 3 * stride;
  // Four 16-bit limbs per register word; a limb's signed value times
  // 2^(16 j) is its share of the sum. A limb takes under 2^43 per term and
  // a round is at most kNarrowMergeTerms terms, so the four banks plus the
  // signed carry stay inside int64 exactly. Carries past the top limb are
  // multiples of 2^width and drop, as in the wide merge.
  std::int64_t carry = 0;
  unsigned add_carry = 0;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    std::uint64_t v = 0;
    for (std::size_t q = 0; q < 4; ++q) {
      const std::size_t j = 4 * w + q;
      const auto t = static_cast<std::int64_t>(b0[j] + b1[j] + b2[j] + b3[j]) + carry;
      v |= static_cast<std::uint64_t>(static_cast<std::uint16_t>(t)) << (16 * q);
      carry = t >> 16;  // arithmetic: floor division keeps the low limb in [0, 2^16)
    }
    if (accumulate) {
      const u128 s = static_cast<u128>(words_[w]) + v + add_carry;
      words_[w] = static_cast<std::uint64_t>(s);
      add_carry = static_cast<unsigned>(s >> 64);
    } else {
      words_[w] = v;
    }
  }
  std::fill(limbs_.begin(), limbs_.end(), 0u);
}

void Quire::merge_banks(bool accumulate) {
  if (narrow_) {
    merge_narrow(accumulate);
    return;
  }
  const std::size_t stride = bank_stride();
  std::uint64_t* const pos0 = limbs_.data();
  std::uint64_t* const neg0 = pos0 + stride;
  std::uint64_t* const pos1 = pos0 + 2 * stride;
  std::uint64_t* const neg1 = pos0 + 3 * stride;
  // A limb takes at most one chunk (< 2^32) per term and a deposit round is
  // at most kMergeTerms terms, so one limb position across the banks plus
  // the signed carry stays inside int64 exactly. Limbs past the register
  // width only add multiples of 2^width: they are dropped, matching the
  // mod-2^width wraparound of sequential deposits.
  std::int64_t carry = 0;
  unsigned add_carry = 0;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    std::uint64_t v = 0;
    for (std::size_t h = 0; h < 2; ++h) {
      const std::size_t i = 2 * w + h;
      const auto t =
          static_cast<std::int64_t>(pos0[i] + pos1[i] - neg0[i] - neg1[i]) + carry;
      v |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(t)) << (32 * h);
      carry = t >> 32;  // arithmetic: floor division keeps the low limb in [0, 2^32)
    }
    if (accumulate) {
      const u128 s = static_cast<u128>(words_[w]) + v + add_carry;
      words_[w] = static_cast<std::uint64_t>(s);
      add_carry = static_cast<unsigned>(s >> 64);
    } else {
      words_[w] = v;
    }
  }
  std::fill(limbs_.begin(), limbs_.end(), 0u);
}

void Quire::accumulate_dot(const Unpacked* a, const Unpacked* b, std::size_t count) {
  const std::size_t round = narrow_ ? kNarrowMergeTerms : kMergeTerms;
  std::size_t i = 0;
  do {
    const std::size_t n = std::min(count - i, round);
    if (deposit(a + i, b + i, n)) nar_ = true;
    merge_banks(/*accumulate=*/true);
    i += n;
  } while (i < count);
}

std::uint32_t Quire::dot_round(const Unpacked* a, const Unpacked* b, std::size_t count,
                               RoundMode mode, RoundingRng* rng) {
  const std::size_t n = std::min(count, narrow_ ? kNarrowMergeTerms : kMergeTerms);
  nar_ = deposit(a, b, n);
  merge_banks(/*accumulate=*/false);
  if (count > n) accumulate_dot(a + n, b + n, count - n);
  if (nar_) return spec_.nar_code();
  return round_register(words_, frac_bits_, spec_, mode, rng);
}

void Quire::sub_product(std::uint32_t a, std::uint32_t b) { add_product(a, neg(b, spec_)); }

void Quire::add_posit(std::uint32_t a) {
  const Decoded da = decode(a, spec_);
  if (da.is_nar) {
    nar_ = true;
    return;
  }
  if (da.is_zero) return;
  add_shifted(da.sig, static_cast<long>(da.scale) - 62, da.neg);
}

std::uint32_t Quire::to_posit(RoundMode mode, RoundingRng* rng) const {
  if (nar_) return spec_.nar_code();
  return round_register(words_, frac_bits_, spec_, mode, rng);
}

double Quire::to_double() const {
  if (nar_) return std::numeric_limits<double>::quiet_NaN();
  const Magnitude mag(words_.data(), words_.size());
  double acc = 0.0;
  for (std::size_t i = words_.size(); i-- > 0;) {
    acc = acc * 18446744073709551616.0 + static_cast<double>(mag[i]);
  }
  acc = std::ldexp(acc, static_cast<int>(-frac_bits_));
  return mag.negative() ? -acc : acc;
}

}  // namespace pdnn::posit
