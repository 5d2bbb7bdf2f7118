#include "posit/simd.hpp"

#include <atomic>
#include <cstdlib>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define PDNN_POSIT_X86 1
#endif

namespace pdnn::posit::simd {

namespace {

std::atomic<bool> g_force_disabled{false};

bool detect() {
#ifdef PDNN_POSIT_X86
  const char* env = std::getenv("PDNN_NO_AVX2");
  if (env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0')) return false;
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

}  // namespace

bool available() {
  // Function-local static: resolved on first use, after libgcc's CPU-model
  // constructor has definitely run (same pattern as tensor/gemm_kernel.cpp).
  static const bool avail = detect();
  return avail;
}

bool enabled() { return available() && !g_force_disabled.load(std::memory_order_relaxed); }

void force_disable(bool disable) { g_force_disabled.store(disable, std::memory_order_relaxed); }

#ifdef PDNN_POSIT_X86

namespace {

// clz/ctz of a 32-bit lane via the float-exponent trick: for a power of two
// 2^p with p <= 30, _mm256_cvtepi32_ps is exact and the biased exponent field
// is 127 + p, so p = (bits >> 23) - 127. The callers below only feed isolated
// single-bit values (or 0, whose lanes are blended away afterwards).
__attribute__((target("avx2"))) inline __m256i bit_position(__m256i isolated) {
  const __m256i bits = _mm256_castps_si256(_mm256_cvtepi32_ps(isolated));
  return _mm256_sub_epi32(_mm256_srli_epi32(bits, 23), _mm256_set1_epi32(127));
}

}  // namespace

__attribute__((target("avx2"))) void decode_unpacked8_avx2(const std::uint32_t* codes,
                                                           const PositSpec& spec, Unpacked* out) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i maskv = _mm256_set1_epi32(static_cast<int>(spec.mask()));
  const __m256i signv = _mm256_set1_epi32(static_cast<int>(spec.sign_bit()));
  const int body_bits = spec.n - 1;

  const __m256i code =
      _mm256_and_si256(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes)), maskv);
  const __m256i zeromask = _mm256_cmpeq_epi32(code, zero);
  const __m256i narmask = _mm256_cmpeq_epi32(code, signv);  // nar_code() == sign_bit()

  // Magnitude: two's-complement negate the negative codes.
  const __m256i negmask = _mm256_cmpeq_epi32(_mm256_and_si256(code, signv), signv);
  const __m256i mag = _mm256_castps_si256(_mm256_blendv_ps(
      _mm256_castsi256_ps(code),
      _mm256_castsi256_ps(_mm256_and_si256(_mm256_sub_epi32(zero, code), maskv)),
      _mm256_castsi256_ps(negmask)));
  const __m256i body = _mm256_and_si256(mag, _mm256_sub_epi32(signv, one));

  // Regime run length as a leading-zero count of the top-aligned body (the
  // all-ones case is inverted first), exactly as the scalar parse: the word
  // to count is nonzero with bit 31 clear for every finite non-zero code, so
  // isolating its highest set bit and reading the float exponent is exact.
  // Special lanes (code 0 / NaR) run through with garbage run values — every
  // downstream shift stays defined (AVX2 variable shifts yield 0 for counts
  // >= width) and the lanes are overwritten by the final blend.
  const __m256i x = _mm256_slli_epi32(body, 32 - body_bits);
  const __m256i firstmask = _mm256_srai_epi32(x, 31);  // regime of ones?
  __m256i w = _mm256_castps_si256(_mm256_blendv_ps(
      _mm256_castsi256_ps(x), _mm256_castsi256_ps(_mm256_xor_si256(x, _mm256_set1_epi32(-1))),
      _mm256_castsi256_ps(firstmask)));
  w = _mm256_or_si256(w, _mm256_srli_epi32(w, 1));
  w = _mm256_or_si256(w, _mm256_srli_epi32(w, 2));
  w = _mm256_or_si256(w, _mm256_srli_epi32(w, 4));
  w = _mm256_or_si256(w, _mm256_srli_epi32(w, 8));
  w = _mm256_or_si256(w, _mm256_srli_epi32(w, 16));
  const __m256i highbit = _mm256_sub_epi32(w, _mm256_srli_epi32(w, 1));
  const __m256i run = _mm256_sub_epi32(_mm256_set1_epi32(31), bit_position(highbit));
  const __m256i k = _mm256_castps_si256(_mm256_blendv_ps(
      _mm256_castsi256_ps(_mm256_sub_epi32(zero, run)),
      _mm256_castsi256_ps(_mm256_sub_epi32(run, one)), _mm256_castsi256_ps(firstmask)));

  // Exponent / fraction split below the regime terminator.
  const __m256i remaining =
      _mm256_max_epi32(_mm256_sub_epi32(_mm256_set1_epi32(body_bits - 1), run), zero);
  const __m256i e_stored = _mm256_min_epi32(remaining, _mm256_set1_epi32(spec.es));
  const __m256i e_bits =
      _mm256_and_si256(_mm256_srlv_epi32(body, _mm256_sub_epi32(remaining, e_stored)),
                       _mm256_sub_epi32(_mm256_sllv_epi32(one, e_stored), one));
  const __m256i e = _mm256_sllv_epi32(e_bits, _mm256_sub_epi32(_mm256_set1_epi32(spec.es), e_stored));
  const __m256i frac_width = _mm256_sub_epi32(remaining, e_stored);
  const __m256i frac =
      _mm256_and_si256(body, _mm256_sub_epi32(_mm256_sllv_epi32(one, frac_width), one));
  const __m256i scale =
      _mm256_add_epi32(_mm256_mullo_epi32(k, _mm256_set1_epi32(1 << spec.es)), e);

  // Reduced significand: strip trailing zeros (lowest-set-bit isolation feeds
  // the same exact float-exponent trick; sig_frac >= 1 in every lane).
  const __m256i sig_frac = _mm256_or_si256(_mm256_sllv_epi32(one, frac_width), frac);
  const __m256i tz = bit_position(_mm256_and_si256(sig_frac, _mm256_sub_epi32(zero, sig_frac)));
  const __m256i sig = _mm256_srlv_epi32(sig_frac, tz);
  const __m256i lsb = _mm256_add_epi32(_mm256_sub_epi32(scale, frac_width), tz);

  // Assemble the struct's second word: lsb_weight (int16) | neg << 16 |
  // flags << 24, matching Unpacked's little-endian field layout.
  const __m256i hi_normal =
      _mm256_or_si256(_mm256_and_si256(lsb, _mm256_set1_epi32(0xFFFF)),
                      _mm256_slli_epi32(_mm256_and_si256(negmask, one), 16));
  const __m256i special = _mm256_or_si256(zeromask, narmask);
  const __m256i hi_special = _mm256_or_si256(
      _mm256_and_si256(zeromask, _mm256_set1_epi32(Unpacked::kZeroFlag << 24)),
      _mm256_and_si256(narmask, _mm256_set1_epi32(Unpacked::kNarFlag << 24)));
  const __m256i hi = _mm256_castps_si256(
      _mm256_blendv_ps(_mm256_castsi256_ps(hi_normal), _mm256_castsi256_ps(hi_special),
                       _mm256_castsi256_ps(special)));
  const __m256i sig_out = _mm256_andnot_si256(special, sig);

  // Interleave (sig, hi) pairs back into struct order and store 8 Unpacked.
  const __m256i lo_pairs = _mm256_unpacklo_epi32(sig_out, hi);
  const __m256i hi_pairs = _mm256_unpackhi_epi32(sig_out, hi);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                      _mm256_permute2x128_si256(lo_pairs, hi_pairs, 0x20));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 4),
                      _mm256_permute2x128_si256(lo_pairs, hi_pairs, 0x31));
}

__attribute__((target("avx2"))) std::size_t accumulate_limbs_avx2(
    const Unpacked* a, const Unpacked* b, std::size_t count, long base, std::uint64_t* pos_limbs,
    std::uint64_t* neg_limbs, std::size_t bank1_offset, std::uint32_t* flags_or) {
  const std::size_t head = count & ~static_cast<std::size_t>(7);
  const __m256i deint = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
  const __m256i basev = _mm256_set1_epi32(static_cast<int>(base));
  const __m256i lo32 = _mm256_set1_epi64x(0xFFFFFFFFll);
  __m256i meta_or = _mm256_setzero_si256();

  for (std::size_t i = 0; i < head; i += 8) {
    // Load 8 (sig, hi) structs per operand and deinterleave into a sig vector
    // and a hi vector (hi = lsb_weight | neg << 16 | flags << 24).
    const __m256i ta0 = _mm256_permutevar8x32_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)), deint);
    const __m256i ta1 = _mm256_permutevar8x32_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i + 4)), deint);
    const __m256i tb0 = _mm256_permutevar8x32_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)), deint);
    const __m256i tb1 = _mm256_permutevar8x32_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i + 4)), deint);
    const __m256i sig_a = _mm256_permute2x128_si256(ta0, ta1, 0x20);
    const __m256i hi_a = _mm256_permute2x128_si256(ta0, ta1, 0x31);
    const __m256i sig_b = _mm256_permute2x128_si256(tb0, tb1, 0x20);
    const __m256i hi_b = _mm256_permute2x128_si256(tb0, tb1, 0x31);
    meta_or = _mm256_or_si256(meta_or, _mm256_or_si256(hi_a, hi_b));

    // Per-term bit position of the product inside the carry-save banks. NaR
    // and zero operands have sig == 0 and lsb_weight == 0, so their lanes
    // deposit nothing at a position that is safely in range.
    const __m256i lsb_a = _mm256_srai_epi32(_mm256_slli_epi32(hi_a, 16), 16);
    const __m256i lsb_b = _mm256_srai_epi32(_mm256_slli_epi32(hi_b, 16), 16);
    const __m256i pos = _mm256_add_epi32(_mm256_add_epi32(lsb_a, lsb_b), basev);
    const __m256i sgn =
        _mm256_and_si256(_mm256_srli_epi32(_mm256_xor_si256(hi_a, hi_b), 16), _mm256_set1_epi32(1));
    alignas(32) std::uint32_t idxs[8];
    alignas(32) std::uint32_t sgns[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(idxs), _mm256_srli_epi32(pos, 5));
    _mm256_store_si256(reinterpret_cast<__m256i*>(sgns), sgn);

    // 64-bit products: even int32 lanes (terms 0,2,4,6) via mul_epu32, odd
    // lanes shifted down first. Each product (<= 60 bits) splits into three
    // 32-bit chunks at shift (pos & 31), the exact expressions of the scalar
    // loop (chunk 2's shift stays defined at sh == 0 by the >> 1 pre-shift).
    const __m256i pe = _mm256_mul_epu32(sig_a, sig_b);
    const __m256i po = _mm256_mul_epu32(_mm256_srli_epi64(sig_a, 32), _mm256_srli_epi64(sig_b, 32));
    const __m256i she = _mm256_and_si256(pos, _mm256_set1_epi64x(0x1F));
    const __m256i sho = _mm256_and_si256(_mm256_srli_epi64(pos, 32), _mm256_set1_epi64x(0x1F));
    const __m256i c0e = _mm256_and_si256(_mm256_sllv_epi64(pe, she), lo32);
    const __m256i c0o = _mm256_and_si256(_mm256_sllv_epi64(po, sho), lo32);
    const __m256i c1e = _mm256_and_si256(
        _mm256_srlv_epi64(pe, _mm256_sub_epi64(_mm256_set1_epi64x(32), she)), lo32);
    const __m256i c1o = _mm256_and_si256(
        _mm256_srlv_epi64(po, _mm256_sub_epi64(_mm256_set1_epi64x(32), sho)), lo32);
    const __m256i c2e =
        _mm256_srlv_epi64(_mm256_srli_epi64(pe, 1), _mm256_sub_epi64(_mm256_set1_epi64x(63), she));
    const __m256i c2o =
        _mm256_srlv_epi64(_mm256_srli_epi64(po, 1), _mm256_sub_epi64(_mm256_set1_epi64x(63), sho));

    // Spill the chunk vectors (even terms 0,2,4,6 then odd terms 1,3,5,7 in
    // each array's halves) and deposit with three 64-bit limb adds per term —
    // exactly the scalar loop's adds, so any grouping is bit-identical. Wide
    // RMW vectors would partially overlap between consecutive terms (product
    // positions cluster inside a dot) and kill store-to-load forwarding;
    // narrow adds forward, and alternating terms between two banks per sign
    // stream halves the remaining same-limb dependency chains.
    alignas(32) std::uint64_t ch0[8], ch1[8], ch2[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(ch0), c0e);
    _mm256_store_si256(reinterpret_cast<__m256i*>(ch0 + 4), c0o);
    _mm256_store_si256(reinterpret_cast<__m256i*>(ch1), c1e);
    _mm256_store_si256(reinterpret_cast<__m256i*>(ch1 + 4), c1o);
    _mm256_store_si256(reinterpret_cast<__m256i*>(ch2), c2e);
    _mm256_store_si256(reinterpret_cast<__m256i*>(ch2 + 4), c2o);
    for (int t = 0; t < 8; ++t) {
      const int s = ((t & 1) << 2) | (t >> 1);  // term t's slot in the spills
      std::uint64_t* dst = (sgns[t] != 0 ? neg_limbs : pos_limbs) +
                           ((t & 1) != 0 ? bank1_offset : 0) + idxs[t];
      dst[0] += ch0[s];
      dst[1] += ch1[s];
      dst[2] += ch2[s];
    }
  }

  alignas(32) std::uint32_t meta[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(meta), meta_or);
  std::uint32_t flags = 0;
  for (int l = 0; l < 8; ++l) flags |= meta[l] >> 24;
  *flags_or |= flags;
  return head;
}

__attribute__((target("avx2"))) std::size_t accumulate_narrow_avx2(
    const Unpacked* a, const Unpacked* b, std::size_t count, long base, std::uint64_t* limbs,
    std::size_t bank_stride, std::uint32_t* flags_or) {
  const std::size_t head = count & ~static_cast<std::size_t>(7);
  const __m256i deint = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
  const __m256i basev = _mm256_set1_epi32(static_cast<int>(base));
  const __m256i low4 = _mm256_set1_epi64x(0xF);
  const __m256i one64 = _mm256_set1_epi64x(1);
  const __m256i zero = _mm256_setzero_si256();
  __m256i meta_or = zero;

  for (std::size_t i = 0; i < head; i += 8) {
    // Same (sig, hi) deinterleave as accumulate_limbs_avx2.
    const __m256i ta0 = _mm256_permutevar8x32_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)), deint);
    const __m256i ta1 = _mm256_permutevar8x32_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i + 4)), deint);
    const __m256i tb0 = _mm256_permutevar8x32_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)), deint);
    const __m256i tb1 = _mm256_permutevar8x32_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i + 4)), deint);
    const __m256i sig_a = _mm256_permute2x128_si256(ta0, ta1, 0x20);
    const __m256i hi_a = _mm256_permute2x128_si256(ta0, ta1, 0x31);
    const __m256i sig_b = _mm256_permute2x128_si256(tb0, tb1, 0x20);
    const __m256i hi_b = _mm256_permute2x128_si256(tb0, tb1, 0x31);
    meta_or = _mm256_or_si256(meta_or, _mm256_or_si256(hi_a, hi_b));

    const __m256i lsb_a = _mm256_srai_epi32(_mm256_slli_epi32(hi_a, 16), 16);
    const __m256i lsb_b = _mm256_srai_epi32(_mm256_slli_epi32(hi_b, 16), 16);
    const __m256i pos = _mm256_add_epi32(_mm256_add_epi32(lsb_a, lsb_b), basev);
    const __m256i sgn = _mm256_srli_epi32(_mm256_xor_si256(hi_a, hi_b), 16);
    alignas(32) std::uint32_t idxs[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(idxs), _mm256_srli_epi32(pos, 4));

    // Even int32 lanes (terms 0,2,4,6) multiply in place, odd lanes after a
    // 32-bit shift down; each product shifts to its offset in the 16-bit
    // limb and takes its sign as a two's-complement negation.
    const __m256i pe = _mm256_mul_epu32(sig_a, sig_b);
    const __m256i po = _mm256_mul_epu32(_mm256_srli_epi64(sig_a, 32), _mm256_srli_epi64(sig_b, 32));
    const __m256i te = _mm256_sllv_epi64(pe, _mm256_and_si256(pos, low4));
    const __m256i to = _mm256_sllv_epi64(po, _mm256_and_si256(_mm256_srli_epi64(pos, 32), low4));
    const __m256i me = _mm256_sub_epi64(zero, _mm256_and_si256(sgn, one64));
    const __m256i mo = _mm256_sub_epi64(zero, _mm256_and_si256(_mm256_srli_epi64(sgn, 32), one64));
    alignas(32) std::uint64_t terms[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(terms),
                       _mm256_sub_epi64(_mm256_xor_si256(te, me), me));
    _mm256_store_si256(reinterpret_cast<__m256i*>(terms + 4),
                       _mm256_sub_epi64(_mm256_xor_si256(to, mo), mo));
    for (int t = 0; t < 8; ++t) {
      const int s = ((t & 1) << 2) | (t >> 1);  // term t's slot in the spill
      limbs[static_cast<std::size_t>(t & 3) * bank_stride + idxs[t]] += terms[s];
    }
  }

  alignas(32) std::uint32_t meta[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(meta), meta_or);
  std::uint32_t flags = 0;
  for (int l = 0; l < 8; ++l) flags |= meta[l] >> 24;
  *flags_or |= flags;
  return head;
}

#else  // !PDNN_POSIT_X86 — never dispatched to (available() is false).

void decode_unpacked8_avx2(const std::uint32_t* codes, const PositSpec& spec, Unpacked* out) {
  decode_unpacked(codes, 8, spec, out);
}

std::size_t accumulate_limbs_avx2(const Unpacked*, const Unpacked*, std::size_t, long,
                                  std::uint64_t*, std::uint64_t*, std::size_t, std::uint32_t*) {
  return 0;
}

std::size_t accumulate_narrow_avx2(const Unpacked*, const Unpacked*, std::size_t, long,
                                   std::uint64_t*, std::size_t, std::uint32_t*) {
  return 0;
}

#endif

}  // namespace pdnn::posit::simd
