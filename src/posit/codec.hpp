// codec.hpp — decode / encode between n-bit posit codes and numeric fields.
//
// A posit code is held in the low n bits of a std::uint32_t. Negative posits
// are the two's complement of the whole n-bit word, so decoding first negates,
// then parses |sign|regime|exponent|fraction|. All arithmetic in this library
// goes through the Decoded intermediate form: sign, binary scale, and a
// significand with the hidden bit pinned at bit 62 (value = sig * 2^(scale-62)).
#pragma once

#include <cstdint>

#include "posit/rounding.hpp"
#include "posit/spec.hpp"

namespace pdnn::posit {

/// Unpacked numeric fields of a posit code.
struct Decoded {
  bool is_zero = false;
  bool is_nar = false;
  bool neg = false;
  int scale = 0;            ///< binary exponent: value = +/- sig * 2^(scale-62)
  std::uint64_t sig = 0;    ///< significand, hidden bit at bit 62: sig in [2^62, 2^63)
  // Raw field view (useful for Table I style reporting):
  int k = 0;                ///< regime value
  int e = 0;                ///< exponent field value (after implicit zero-padding)
  std::uint32_t frac = 0;   ///< fraction field bits
  int frac_width = 0;       ///< number of fraction bits physically stored
};

/// Parse an n-bit code into numeric fields. Handles zero and NaR.
///
/// Inline and branch-free past the zero/NaR checks: every arithmetic
/// operation decodes its operands, and the sign and regime direction of
/// data are not predictable control flow.
inline Decoded decode(std::uint32_t code, const PositSpec& spec) {
  Decoded d;
  code &= spec.mask();
  if (code == 0) {
    d.is_zero = true;
    return d;
  }
  if (code == spec.nar_code()) {
    d.is_nar = true;
    return d;
  }
  d.neg = (code & spec.sign_bit()) != 0;
  const std::uint32_t neg_mask = 0u - static_cast<std::uint32_t>(d.neg);
  const std::uint32_t mag = ((code ^ neg_mask) - neg_mask) & spec.mask();

  const int body_bits = spec.n - 1;  // bits below the sign bit
  const std::uint32_t body = mag & (spec.sign_bit() - 1u);

  // Parse the regime: a run of identical bits starting at the MSB of the body,
  // terminated by the opposite bit (or by the end of the word). Aligned to
  // the top of the word the run is a leading-zero count (of the inverted
  // word for a run of ones): the shifted-in low zeros stop an all-ones run
  // and body >= 1 stops an all-zeros one, so run <= body_bits.
  const std::uint32_t x = body << (32 - body_bits);
  const std::uint32_t first_mask = 0u - (x >> 31);  // all ones for a run of ones
  const int run = __builtin_clz(x ^ first_mask);
  d.k = (run - 1) ^ static_cast<int>(~first_mask);  // run - 1 for ones, -run for zeros

  // Exponent field: up to es bits. When fewer remain, the stored bits are the
  // HIGH bits of the exponent; missing low bits read as zero. No bits remain
  // (not even a terminator) when the run fills the body.
  const int after_regime = body_bits - run - 1;
  const int remaining = after_regime > 0 ? after_regime : 0;
  const int e_stored = remaining < spec.es ? remaining : spec.es;
  const std::uint32_t e_bits = (body >> (remaining - e_stored)) & ((1u << e_stored) - 1u);
  d.e = static_cast<int>(e_bits) << (spec.es - e_stored);

  // Fraction field: whatever is left.
  d.frac_width = remaining - e_stored;
  d.frac = body & ((1u << d.frac_width) - 1u);

  // k can be negative: scale by multiplication, not <<, which is UB on
  // negative operands.
  d.scale = d.k * (1 << spec.es) + d.e;
  // Significand with hidden bit at 62: (1 << fw | frac) << (62 - fw).
  d.sig = ((1ULL << d.frac_width) | static_cast<std::uint64_t>(d.frac)) << (62 - d.frac_width);
  return d;
}

/// Round and pack a (sign, scale, significand) triple into an n-bit code.
///
/// `sig` carries the hidden bit at position `sig_bits` (sig in
/// [2^sig_bits, 2^(sig_bits+1))). `sticky` indicates non-zero value bits below
/// the significand. Saturates at maxpos/minpos (never rounds a non-zero value
/// to zero or to NaR), matching the posit standard. `rng` is only consulted
/// for RoundMode::kStochastic and may be null otherwise.
std::uint32_t round_pack(const PositSpec& spec, bool neg, long scale, unsigned __int128 sig, int sig_bits,
                         bool sticky, RoundMode mode, RoundingRng* rng);

/// Convert an IEEE double to the nearest posit code under `mode`.
/// 0.0 -> zero code; NaN and +/-Inf -> NaR.
std::uint32_t from_double(double x, const PositSpec& spec, RoundMode mode = RoundMode::kNearestEven,
                          RoundingRng* rng = nullptr);

/// Convert a posit code to double. Exact for every supported format
/// (fraction width <= 29 < 52). NaR maps to quiet NaN.
double to_double(std::uint32_t code, const PositSpec& spec);

/// Value of maxpos = useed^(n-2) as a double.
double maxpos_value(const PositSpec& spec);
/// Value of minpos = useed^(2-n) as a double.
double minpos_value(const PositSpec& spec);

/// Sign-extend an n-bit code to a signed 32-bit integer. Posits compare as
/// two's-complement integers, so this gives a total order (NaR smallest).
std::int32_t sign_extend(std::uint32_t code, const PositSpec& spec);

}  // namespace pdnn::posit
