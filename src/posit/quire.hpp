// quire.hpp — exact dot-product accumulator for posits.
//
// The quire is a wide fixed-point two's-complement register that can
// accumulate any number (up to ~2^63) of exact posit products without
// rounding; a single rounding happens when the value is read back as a posit.
// Deep Positron's EMAC (exact multiply-and-accumulate), referenced by the
// paper, is this structure; the paper's own MAC instead converts to FP and
// uses a conventional FP accumulator (see src/hw/posit_mac.*). Having both
// lets the benches compare accumulation strategies.
#pragma once

#include <cstdint>
#include <vector>

#include "posit/arith.hpp"
#include "posit/unpacked.hpp"

namespace pdnn::posit {

/// Not thread-safe: the dot-product entry points deposit into internal
/// carry-save scratch. Use one Quire per thread, as the engine's OpenMP
/// regions do. The const readers copy nothing and may run concurrently.
class Quire {
 public:
  /// Builds a quire sized for `spec`: enough integer bits for
  /// sum of 2^guard_bits maxpos^2 terms and enough fraction bits to hold
  /// minpos^2 exactly.
  explicit Quire(const PositSpec& spec, int guard_bits = 30);

  /// Resets the accumulator to zero (and clears the NaR flag).
  void clear();

  /// Accumulates the exact product a*b (posit codes in this quire's spec).
  void add_product(std::uint32_t a, std::uint32_t b);
  /// Decode-once overload: operands already unpacked (unpacked.hpp). Deposits
  /// exactly the value the coded overload would, so the quire state — and
  /// every later rounding — is bit-identical. Reduced significands keep the
  /// product in 64 bits, touching at most two register words per term.
  void add_product(const Unpacked& a, const Unpacked& b);

  /// Accumulates sum_i a[i]*b[i] exactly. Equivalent to `count`
  /// add_product(a[i], b[i]) calls (the final register state is
  /// bit-identical: both compute the same exact value mod 2^width), but
  /// batched: products are scattered branch-free into 32-bit carry-save
  /// limbs (positive and negative streams separate, so no borrow chains) and
  /// merged into the canonical two's-complement register by one signed carry
  /// pass at the end.
  void accumulate_dot(const Unpacked* a, const Unpacked* b, std::size_t count);
  /// The engine's per-output hot path: clear(), accumulate_dot(a, b, count),
  /// then to_posit(mode, rng) — same register state, same code — fused so
  /// the carry pass writes the register outright (no clear, no add) and the
  /// rounding reads it in place.
  std::uint32_t dot_round(const Unpacked* a, const Unpacked* b, std::size_t count,
                          RoundMode mode = RoundMode::kNearestEven, RoundingRng* rng = nullptr);
  /// Accumulates -a*b exactly.
  void sub_product(std::uint32_t a, std::uint32_t b);
  /// Accumulates the posit value a exactly.
  void add_posit(std::uint32_t a);

  /// Rounds the accumulated value to a posit code (nearest-even by default).
  std::uint32_t to_posit(RoundMode mode = RoundMode::kNearestEven, RoundingRng* rng = nullptr) const;

  /// Exact conversion to double (may round if the value needs > 53 bits).
  double to_double() const;

  bool is_nar() const { return nar_; }
  bool is_zero() const;
  const PositSpec& spec() const { return spec_; }
  /// Total width in bits of the fixed-point register.
  int width_bits() const { return static_cast<int>(words_.size()) * 64; }

 private:
  void add_shifted(unsigned __int128 sig, long lsb_weight, bool negative);
  /// Fast two-word deposit for significands that fit 64 bits (the unpacked
  /// hot path); same exact addition as add_shifted.
  void add_shifted64(std::uint64_t sig, long lsb_weight, bool negative);
  /// Limbs per carry-save bank. Wide formats: one per 32 register bits, two
  /// spill limbs for the top deposit's upper chunks, two slack. Narrow
  /// formats: one per 16 register bits (a limb holds a whole term).
  std::size_t bank_stride() const { return narrow_ ? words_.size() * 4 : words_.size() * 2 + 4; }
  /// Deposits sum_i a[i]*b[i] into the (zeroed) carry-save banks; returns
  /// whether any operand was NaR.
  bool deposit(const Unpacked* a, const Unpacked* b, std::size_t count);
  /// deposit() for narrow formats: one signed limb add per term.
  bool deposit_narrow(const Unpacked* a, const Unpacked* b, std::size_t count);
  /// One signed carry pass over the four banks: their value mod 2^width is
  /// added to the register (`accumulate`) or replaces it. Leaves the banks
  /// zeroed for the next deposit.
  void merge_banks(bool accumulate);
  /// merge_banks() over the narrow 16-bit limb layout.
  void merge_narrow(bool accumulate);

  PositSpec spec_;
  long frac_bits_;                   ///< weight of bit 0 is 2^(-frac_bits_)
  std::vector<std::uint64_t> words_; ///< little-endian two's-complement
  std::vector<std::uint64_t> limbs_; ///< four carry-save banks, zero between calls
  /// n <= 16: every reduced-significand product fits 28 bits, so one limb
  /// add deposits a whole term (deposit_narrow).
  bool narrow_ = false;
  bool nar_ = false;
};

}  // namespace pdnn::posit
