// arith.hpp — exact posit arithmetic on raw codes.
//
// Every operation decodes its operands, computes an exact (or
// guard/round/sticky-correct) intermediate in integer arithmetic, and rounds
// once with round_pack. Additions (add, sub, fma) form the exact sum in
// 64-bit integers whenever the operands' scale gap lets it fit, and fall
// back to a 128-bit guard/sticky sum otherwise; both give the same code. NaR propagates through every operation; x/0 -> NaR.
#pragma once

#include <cstdint>

#include "posit/codec.hpp"

namespace pdnn::posit {

/// A posit operand decoded once for reuse across many operations (a
/// per-channel constant, a bias). The overloads taking one return exactly the
/// code the coded overloads return for `code`; they only skip its decode.
struct Operand {
  Operand(std::uint32_t c, const PositSpec& spec) : code(c & spec.mask()), d(decode(c, spec)) {}

  std::uint32_t code;
  Decoded d;
};

std::uint32_t add(std::uint32_t a, std::uint32_t b, const PositSpec& spec,
                  RoundMode mode = RoundMode::kNearestEven, RoundingRng* rng = nullptr);
/// add(a, b.code) with b decoded once.
std::uint32_t add(std::uint32_t a, const Operand& b, const PositSpec& spec,
                  RoundMode mode = RoundMode::kNearestEven, RoundingRng* rng = nullptr);
std::uint32_t sub(std::uint32_t a, std::uint32_t b, const PositSpec& spec,
                  RoundMode mode = RoundMode::kNearestEven, RoundingRng* rng = nullptr);
std::uint32_t mul(std::uint32_t a, std::uint32_t b, const PositSpec& spec,
                  RoundMode mode = RoundMode::kNearestEven, RoundingRng* rng = nullptr);
std::uint32_t div(std::uint32_t a, std::uint32_t b, const PositSpec& spec,
                  RoundMode mode = RoundMode::kNearestEven, RoundingRng* rng = nullptr);

/// Arithmetic negation: the two's complement of the code (exact, no rounding).
std::uint32_t neg(std::uint32_t a, const PositSpec& spec);
/// |a| (exact).
std::uint32_t abs(std::uint32_t a, const PositSpec& spec);

/// Fused multiply-add round(a*b + c): the product is kept exact (128-bit) and
/// added to c with a single final rounding.
std::uint32_t fma(std::uint32_t a, std::uint32_t b, std::uint32_t c, const PositSpec& spec,
                  RoundMode mode = RoundMode::kNearestEven, RoundingRng* rng = nullptr);
/// fma(a, b.code, c.code) with b and c decoded once.
std::uint32_t fma(std::uint32_t a, const Operand& b, const Operand& c, const PositSpec& spec,
                  RoundMode mode = RoundMode::kNearestEven, RoundingRng* rng = nullptr);

/// Three-way comparison; posits order as sign-extended two's-complement
/// integers (NaR compares smallest). Returns <0, 0, >0.
int compare(std::uint32_t a, std::uint32_t b, const PositSpec& spec);

}  // namespace pdnn::posit
