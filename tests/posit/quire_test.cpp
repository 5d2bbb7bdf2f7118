// quire_test.cpp — exact accumulation invariants of the quire.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <vector>

#include "posit/quire.hpp"
#include "posit/simd.hpp"

namespace pdnn::posit {
namespace {

class QuireFormatTest : public ::testing::TestWithParam<std::pair<int, int>> {
 protected:
  PositSpec spec() const { return PositSpec{GetParam().first, GetParam().second}; }
};

TEST_P(QuireFormatTest, EmptyQuireIsZero) {
  Quire q(spec());
  EXPECT_TRUE(q.is_zero());
  EXPECT_EQ(q.to_posit(), 0u);
  EXPECT_DOUBLE_EQ(q.to_double(), 0.0);
}

TEST_P(QuireFormatTest, SingleProductRoundsLikeMul) {
  const PositSpec s = spec();
  std::mt19937_64 rng(11);
  for (int t = 0; t < 20000; ++t) {
    const std::uint32_t a = static_cast<std::uint32_t>(rng()) & s.mask();
    const std::uint32_t b = static_cast<std::uint32_t>(rng()) & s.mask();
    if (a == s.nar_code() || b == s.nar_code()) continue;
    Quire q(s);
    q.add_product(a, b);
    ASSERT_EQ(q.to_posit(), mul(a, b, s))
        << s.to_string() << " " << to_double(a, s) << "*" << to_double(b, s);
  }
}

TEST_P(QuireFormatTest, SinglePositRoundTripsExactly) {
  const PositSpec s = spec();
  std::mt19937_64 rng(13);
  for (int t = 0; t < 20000; ++t) {
    const std::uint32_t a = static_cast<std::uint32_t>(rng()) & s.mask();
    if (a == s.nar_code()) continue;
    Quire q(s);
    q.add_posit(a);
    ASSERT_EQ(q.to_posit(), a);
    ASSERT_DOUBLE_EQ(q.to_double(), to_double(a, s));
  }
}

TEST_P(QuireFormatTest, ProductMinusProductCancelsExactly) {
  const PositSpec s = spec();
  std::mt19937_64 rng(19);
  for (int t = 0; t < 5000; ++t) {
    const std::uint32_t a = static_cast<std::uint32_t>(rng()) & s.mask();
    const std::uint32_t b = static_cast<std::uint32_t>(rng()) & s.mask();
    if (a == s.nar_code() || b == s.nar_code()) continue;
    Quire q(s);
    q.add_product(a, b);
    q.sub_product(a, b);
    ASSERT_TRUE(q.is_zero()) << to_double(a, s) << " * " << to_double(b, s);
  }
}

TEST_P(QuireFormatTest, ExtremeScaleSumIsExact) {
  // maxpos^2 + minpos^2 - maxpos^2 == minpos^2 exactly: impossible with any
  // rounding accumulator, trivial for the quire.
  const PositSpec s = spec();
  Quire q(s);
  q.add_product(s.maxpos_code(), s.maxpos_code());
  q.add_product(s.minpos_code(), s.minpos_code());
  q.sub_product(s.maxpos_code(), s.maxpos_code());
  const std::uint32_t expected = mul(s.minpos_code(), s.minpos_code(), s);
  EXPECT_EQ(q.to_posit(), expected);
}

TEST_P(QuireFormatTest, DotProductMatchesDoubleReference) {
  const PositSpec s = spec();
  std::mt19937_64 rng(29);
  std::uniform_real_distribution<double> dist(-4.0, 4.0);
  for (int trial = 0; trial < 200; ++trial) {
    Quire q(s);
    double reference = 0.0;  // exact: products/sums of small posits fit double
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t a = from_double(dist(rng), s);
      const std::uint32_t b = from_double(dist(rng), s);
      q.add_product(a, b);
      reference += to_double(a, s) * to_double(b, s);
    }
    ASSERT_EQ(q.to_posit(), from_double(reference, s)) << s.to_string() << " trial " << trial;
  }
}

TEST_P(QuireFormatTest, LongAccumulationDoesNotOverflow) {
  const PositSpec s = spec();
  Quire q(s);
  const std::uint32_t one = from_double(1.0, s);
  const int kCount = 100000;
  for (int i = 0; i < kCount; ++i) q.add_product(one, one);
  EXPECT_DOUBLE_EQ(q.to_double(), static_cast<double>(kCount));
  // Rounded posit result saturates at maxpos if the count exceeds it.
  const double expected = std::min(static_cast<double>(kCount), maxpos_value(s));
  EXPECT_DOUBLE_EQ(to_double(q.to_posit(), s), to_double(from_double(expected, s), s));
}

TEST_P(QuireFormatTest, NarPoisonsTheQuire) {
  const PositSpec s = spec();
  Quire q(s);
  q.add_product(from_double(1.0, s), s.nar_code());
  EXPECT_TRUE(q.is_nar());
  EXPECT_EQ(q.to_posit(), s.nar_code());
  q.clear();
  EXPECT_FALSE(q.is_nar());
  EXPECT_TRUE(q.is_zero());
}

TEST_P(QuireFormatTest, QuireBeatsSerialRoundingOnCancellation) {
  // sum_i (x - x) interleaved as +x, +x, ..., -x, -x: serial posit
  // accumulation of large then small terms loses the small ones; the quire
  // recovers the exact answer.
  const PositSpec s = spec();
  const std::uint32_t big = from_double(maxpos_value(s) / 2, s);
  const std::uint32_t small = s.minpos_code();
  Quire q(s);
  q.add_posit(big);
  q.add_posit(small);
  q.add_posit(neg(big, s));
  EXPECT_EQ(q.to_posit(), small) << "quire preserves the small term";

  std::uint32_t serial = add(big, small, s);
  serial = add(serial, neg(big, s), s);
  EXPECT_NE(serial, small) << "serial rounding drops the small term (sanity)";
}

TEST_P(QuireFormatTest, UnpackedAddProductMatchesCodedAccumulation) {
  // Decode-once accumulation must land in exactly the same register state as
  // the coded path: same rounded posit after any mixed-sign sequence.
  const PositSpec s = spec();
  std::mt19937_64 rng(37);
  for (int trial = 0; trial < 500; ++trial) {
    Quire coded(s), unpacked(s);
    for (int i = 0; i < 48; ++i) {
      std::uint32_t a = static_cast<std::uint32_t>(rng()) & s.mask();
      std::uint32_t b = static_cast<std::uint32_t>(rng()) & s.mask();
      if (a == s.nar_code()) a = 0;
      if (b == s.nar_code()) b = 0;
      coded.add_product(a, b);
      unpacked.add_product(decode_unpacked(a, s), decode_unpacked(b, s));
    }
    ASSERT_EQ(unpacked.to_posit(), coded.to_posit()) << s.to_string() << " trial " << trial;
    ASSERT_DOUBLE_EQ(unpacked.to_double(), coded.to_double());
  }
}

TEST_P(QuireFormatTest, AccumulateDotMatchesSequentialAddProduct) {
  // The batched carry-save dot must leave the register in exactly the state
  // `count` sequential deposits would — including zeros, extreme scales, and
  // heavy cancellation.
  const PositSpec s = spec();
  std::mt19937_64 rng(43);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Unpacked> a, b;
    Quire sequential(s);
    for (int i = 0; i < 96; ++i) {
      std::uint32_t ca = static_cast<std::uint32_t>(rng()) & s.mask();
      std::uint32_t cb = static_cast<std::uint32_t>(rng()) & s.mask();
      if (ca == s.nar_code()) ca = 0;
      if (cb == s.nar_code()) cb = 0;
      a.push_back(decode_unpacked(ca, s));
      b.push_back(decode_unpacked(cb, s));
      sequential.add_product(ca, cb);
    }
    Quire batched(s);
    batched.accumulate_dot(a.data(), b.data(), a.size());
    ASSERT_EQ(batched.to_posit(), sequential.to_posit()) << s.to_string() << " trial " << trial;
    ASSERT_DOUBLE_EQ(batched.to_double(), sequential.to_double());
  }
  // NaR operands poison the batched path too.
  const Unpacked nar = decode_unpacked(s.nar_code(), s);
  const Unpacked one = decode_unpacked(from_double(1.0, s), s);
  Quire q(s);
  q.accumulate_dot(&nar, &one, 1);
  EXPECT_TRUE(q.is_nar());
}

TEST_P(QuireFormatTest, DotRoundMatchesClearAccumulateToPosit) {
  // The engine's fused per-output path must return the code, and leave the
  // register, of its three-call spelling — on both deposit paths, at every
  // ragged count around the SIMD group of 8, whatever the quire held before
  // (finite or NaR), with zero and NaR operands mixed in.
  const PositSpec s = spec();
  std::mt19937_64 rng(47);
  std::vector<std::size_t> counts;
  for (std::size_t c = 0; c <= 40; ++c) counts.push_back(c);
  counts.push_back(512);
  const auto bits = [](double v) {
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
  };
  for (const bool scalar : {false, true}) {
    simd::force_disable(scalar);
    Quire fused(s);  // reused: each call must leave its scratch clean
    for (const std::size_t count : counts) {
      for (int trial = 0; trial < 12; ++trial) {
        std::vector<Unpacked> a(count), b(count);
        for (std::size_t i = 0; i < count; ++i) {
          std::uint32_t ca = static_cast<std::uint32_t>(rng()) & s.mask();
          std::uint32_t cb = static_cast<std::uint32_t>(rng()) & s.mask();
          if (rng() % 5 == 0) ca = 0;
          if (ca == s.nar_code() && trial % 4 != 0) ca = 1;  // NaR in a quarter of trials only
          if (cb == s.nar_code()) cb = 0;
          a[i] = decode_unpacked(ca, s);
          b[i] = decode_unpacked(cb, s);
        }
        if (count > 0 && trial == 3) a[count / 2] = decode_unpacked(s.nar_code(), s);
        const std::uint32_t prior = static_cast<std::uint32_t>(rng()) & s.mask();
        Quire split(s);
        split.add_posit(prior);
        fused.add_posit(prior);
        split.clear();
        split.accumulate_dot(a.data(), b.data(), count);
        const std::uint32_t want = split.to_posit();
        ASSERT_EQ(fused.dot_round(a.data(), b.data(), count), want)
            << s.to_string() << " count " << count << " trial " << trial << " scalar " << scalar;
        ASSERT_EQ(fused.is_nar(), split.is_nar());
        ASSERT_EQ(fused.to_posit(), want);
        ASSERT_EQ(bits(fused.to_double()), bits(split.to_double()));
      }
    }
  }
  simd::force_disable(false);
}

TEST_P(QuireFormatTest, DotRoundOnClusteredOperandsMatchesSequentialProducts) {
  // Activation-like operands: products cluster within a few binades, so the
  // n <= 16 deposit piles many terms onto a handful of limbs; sums of both
  // signs, exact cancellation, and one dot long enough to need a second
  // deposit round. The reference is add_product
  // term by term, which shares no code with the batched deposit or merge.
  const PositSpec s = spec();
  std::mt19937_64 rng(59);
  std::normal_distribution<double> act(0.0, 1.0), wt(0.0, 0.3);
  std::vector<std::size_t> counts = {1, 2, 3, 4, 7, 8, 9, 27, 36, 72, 144};
  counts.push_back((std::size_t{1} << 18) + 5);
  for (const bool scalar : {false, true}) {
    simd::force_disable(scalar);
    Quire fused(s);
    for (const std::size_t count : counts) {
      const int trials = count > 1000 ? 1 : 40;
      for (int trial = 0; trial < trials; ++trial) {
        std::vector<Unpacked> a(count), b(count);
        for (std::size_t i = 0; i < count; ++i) {
          a[i] = decode_unpacked(from_double(act(rng), s), s);
          b[i] = decode_unpacked(from_double(wt(rng), s), s);
        }
        if (trial == 1 && count >= 2) {  // x*w - x*w: exact cancellation to zero
          a[1] = a[0];
          b[1] = b[0];
          b[1].neg ^= 1;
          for (std::size_t i = 2; i < count; ++i) a[i] = decode_unpacked(0u, s);
        }
        Quire seq(s);
        for (std::size_t i = 0; i < count; ++i) seq.add_product(a[i], b[i]);
        const std::uint32_t want = seq.to_posit();
        ASSERT_EQ(fused.dot_round(a.data(), b.data(), count), want)
            << s.to_string() << " count " << count << " trial " << trial << " scalar " << scalar;
        ASSERT_EQ(fused.to_double(), seq.to_double());
      }
    }
  }
  simd::force_disable(false);
}

TEST_P(QuireFormatTest, AccumulateDotOntoHeldValueMatchesSequential) {
  // The merge adds the dot into whatever the register holds — negative
  // values included — exactly as sequential deposits would.
  const PositSpec s = spec();
  std::mt19937_64 rng(53);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint32_t prior = static_cast<std::uint32_t>(rng()) & s.mask();
    if (prior == s.nar_code()) continue;
    std::vector<Unpacked> a, b;
    Quire sequential(s), batched(s);
    sequential.add_posit(prior);
    batched.add_posit(prior);
    for (int i = 0; i < 21; ++i) {
      std::uint32_t ca = static_cast<std::uint32_t>(rng()) & s.mask();
      std::uint32_t cb = static_cast<std::uint32_t>(rng()) & s.mask();
      if (ca == s.nar_code()) ca = 0;
      if (cb == s.nar_code()) cb = 0;
      a.push_back(decode_unpacked(ca, s));
      b.push_back(decode_unpacked(cb, s));
      sequential.add_product(ca, cb);
    }
    batched.accumulate_dot(a.data(), b.data(), a.size());
    ASSERT_EQ(batched.to_posit(), sequential.to_posit()) << s.to_string() << " trial " << trial;
    ASSERT_DOUBLE_EQ(batched.to_double(), sequential.to_double());
  }
}

TEST_P(QuireFormatTest, UnpackedNarPoisonsLikeCoded) {
  const PositSpec s = spec();
  Quire q(s);
  q.add_product(decode_unpacked(from_double(1.0, s), s), decode_unpacked(s.nar_code(), s));
  EXPECT_TRUE(q.is_nar());
  EXPECT_EQ(q.to_posit(), s.nar_code());
  // NaR * zero is still NaR (matches the coded ordering of the checks).
  q.clear();
  q.add_product(decode_unpacked(s.nar_code(), s), decode_unpacked(0u, s));
  EXPECT_TRUE(q.is_nar());
}

// The residual join rounds a two-term sum once with posit::add instead of a
// quire round trip; this pins that the two are the same function.
std::uint32_t quire_sum(Quire& q, std::uint32_t a, std::uint32_t b) {
  q.clear();
  q.add_posit(a);
  q.add_posit(b);
  return q.to_posit();
}

TEST(QuireJoin, TwoTermQuireSumIsTheRoundedAddExhaustivelyAtEightBits) {
  for (int es = 0; es <= 2; ++es) {
    const PositSpec s{8, es};
    Quire q(s);
    for (std::uint32_t a = 0; a < 256; ++a) {
      for (std::uint32_t b = 0; b < 256; ++b) {
        ASSERT_EQ(quire_sum(q, a, b), add(a, b, s)) << s.to_string() << " " << a << " + " << b;
      }
    }
  }
}

TEST(QuireJoin, TwoTermQuireSumIsTheRoundedAddOnRandomPairs) {
  for (const PositSpec s : {PositSpec{16, 1}, PositSpec{32, 2}}) {
    Quire q(s);
    std::mt19937_64 rng(59);
    for (int t = 0; t < 1000000; ++t) {
      const std::uint32_t a = static_cast<std::uint32_t>(rng()) & s.mask();
      const std::uint32_t b = static_cast<std::uint32_t>(rng()) & s.mask();
      ASSERT_EQ(quire_sum(q, a, b), add(a, b, s)) << s.to_string() << " " << a << " + " << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FormatSweep, QuireFormatTest,
                         ::testing::Values(std::pair{8, 0}, std::pair{8, 1}, std::pair{8, 2}, std::pair{16, 1},
                                           std::pair{16, 2}, std::pair{32, 3}),
                         [](const auto& info) {
                           return "p" + std::to_string(info.param.first) + "_" + std::to_string(info.param.second);
                         });

}  // namespace
}  // namespace pdnn::posit
