// simd.hpp — runtime-dispatched AVX2 kernels for the posit engine hot path.
//
// Three kernels live behind the dispatcher, all bit-identical to their scalar
// references by construction (and pinned by the exhaustive oracle tests in
// tests/posit/pack_codec_test.cpp):
//
//   * decode_unpacked8_avx2 — batch-of-8 posit decode: eight n-bit codes in,
//     eight Unpacked lanes out. The regime parse is branch-free: the leading
//     run becomes a vector clz (highest-set-bit isolation + the exact
//     float-exponent trick; AVX2 has no lzcnt), regime/exponent/fraction
//     splits use per-lane variable shifts, and the trailing-zero reduction
//     reuses the same trick on the isolated lowest bit. This is the group
//     decoder behind decode_unpacked() spans — the engine's weight-row and
//     activation patch-panel decodes run through it.
//   * accumulate_limbs_avx2 — the vectorized carry-save deposit inside
//     Quire::dot_round / accumulate_dot: per group of eight products it
//     computes the 64-bit significand products, splits each into three
//     32-bit carry-save
//     chunks at its bit position (variable 64-bit shifts), spills the chunk
//     vectors to the stack, and deposits each term with three 64-bit limb
//     adds — even terms into bank 0, odd terms into bank 1 of each sign
//     stream. Product positions cluster inside a dot product, so wide RMW
//     vectors at shifting offsets would defeat store-to-load forwarding;
//     narrow same-address adds across twice the banks keep the forwarding
//     chains short instead. The merged register state matches the scalar
//     loop exactly (every deposit is an exact add mod 2^width, so neither
//     grouping nor bank splitting can change a bit).
//   * accumulate_narrow_avx2 — the same deposit for n <= 16 formats, whose
//     products fit 28 bits: each term, shifted to its offset inside a 16-bit
//     limb and negated when its sign is negative, is one 64-bit limb add
//     (four banks by term index), so no chunk split and no sign streams.
//
// Dispatch mirrors tensor/gemm_kernel.cpp: __builtin_cpu_supports("avx2")
// resolved once, with two overrides — the PDNN_NO_AVX2=1 environment
// variable (read at first use; how CI covers the scalar fallback on AVX2
// hosts) and force_disable() (an in-process toggle the oracle tests and
// micro benches use to compare both paths in one run).
#pragma once

#include <cstddef>
#include <cstdint>

#include "posit/spec.hpp"
#include "posit/unpacked.hpp"

namespace pdnn::posit::simd {

/// CPU has AVX2 and PDNN_NO_AVX2 was unset (or "0") at first use. Immutable.
bool available();

/// available() minus the force_disable() toggle — what dispatch consults.
bool enabled();

/// Testing/bench hook: pin every dispatch to the scalar fallback (true) or
/// restore available()-based dispatch (false). Not thread-safe against
/// concurrent kernel calls; flip it only around single-threaded sections.
void force_disable(bool disable);

/// Decode codes[0..8) into out[0..8), bit-identical to eight scalar
/// decode_unpacked() calls. Caller must check enabled().
void decode_unpacked8_avx2(const std::uint32_t* codes, const PositSpec& spec, Unpacked* out);

/// Deposit the first (count & ~7) exact products a[i]*b[i] into the
/// sign-split carry-save banks (32-bit payload limbs at 32-bit stride;
/// same-sign stream to pos_limbs, mixed-sign to neg_limbs). Even-indexed
/// terms land in the bank at each stream's base, odd-indexed terms at
/// base + bank1_offset limbs — the caller hands all four banks in zeroed and
/// merges them afterwards.
/// `base` is the quire's frac_bits_. Returns the OR of all consumed operand
/// flag bytes (caller checks Unpacked::kNarFlag) and the number of terms
/// consumed. Caller must check enabled() and handle the ragged tail with the
/// scalar loop.
std::size_t accumulate_limbs_avx2(const Unpacked* a, const Unpacked* b, std::size_t count,
                                  long base, std::uint64_t* pos_limbs, std::uint64_t* neg_limbs,
                                  std::size_t bank1_offset, std::uint32_t* flags_or);

/// The narrow-format (n <= 16) deposit: the first (count & ~7) products,
/// each shifted to its offset inside a 16-bit limb and signed, added whole
/// to one 64-bit limb — term t of each group into bank t % 4 (banks
/// `bank_stride` limbs apart), exactly as Quire's scalar narrow loop.
/// Same return and flag contract as accumulate_limbs_avx2.
std::size_t accumulate_narrow_avx2(const Unpacked* a, const Unpacked* b, std::size_t count,
                                   long base, std::uint64_t* limbs, std::size_t bank_stride,
                                   std::uint32_t* flags_or);

}  // namespace pdnn::posit::simd
