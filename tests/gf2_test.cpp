// Property tests for the GF(2)[x]/(x^r - 1) ring and GF(256) field — the
// algebraic substrate of HQC and BIKE.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "crypto/backend/kernels.hpp"
#include "crypto/drbg.hpp"
#include "crypto/gf2.hpp"

namespace pqtls::crypto {
namespace {

class Gf2RingTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Gf2RingTest, MultiplicationCommutes) {
  std::size_t r = GetParam();
  Drbg rng(r);
  Gf2Ring a = Gf2Ring::random(r, rng);
  Gf2Ring b = Gf2Ring::random(r, rng);
  EXPECT_EQ(a * b, b * a);
}

TEST_P(Gf2RingTest, MultiplicationDistributesOverAddition) {
  std::size_t r = GetParam();
  Drbg rng(r + 1);
  Gf2Ring a = Gf2Ring::random(r, rng);
  Gf2Ring b = Gf2Ring::random(r, rng);
  Gf2Ring c = Gf2Ring::random(r, rng);
  EXPECT_EQ(a * (b ^ c), (a * b) ^ (a * c));
}

TEST_P(Gf2RingTest, MultiplicationByOneIsIdentity) {
  std::size_t r = GetParam();
  Drbg rng(r + 2);
  Gf2Ring a = Gf2Ring::random(r, rng);
  Gf2Ring one(r);
  one.set(0, true);
  EXPECT_EQ(a * one, a);
}

TEST_P(Gf2RingTest, SparseMultiplicationMatchesDense) {
  std::size_t r = GetParam();
  Drbg rng(r + 3);
  Gf2Ring dense = Gf2Ring::random(r, rng);
  Gf2Ring sparse = Gf2Ring::random_weight(r, 11, rng);
  EXPECT_EQ(dense.mul_sparse(sparse.support()), dense * sparse);
}

TEST_P(Gf2RingTest, ShiftMatchesMonomialMultiplication) {
  std::size_t r = GetParam();
  Drbg rng(r + 4);
  Gf2Ring a = Gf2Ring::random(r, rng);
  for (std::size_t k : {std::size_t{1}, r / 3, r - 1}) {
    Gf2Ring xk(r);
    xk.set(k, true);
    EXPECT_EQ(a.shifted(k), a * xk) << "shift " << k;
  }
}

TEST_P(Gf2RingTest, InverseTimesSelfIsOne) {
  std::size_t r = GetParam();
  Drbg rng(r + 5);
  Gf2Ring one(r);
  one.set(0, true);
  // Odd-weight elements are invertible when r is prime and 2 is a unit.
  for (int attempt = 0; attempt < 20; ++attempt) {
    Gf2Ring a = Gf2Ring::random(r, rng);
    Gf2Ring inv;
    if (!a.inverse(inv)) continue;
    EXPECT_EQ(a * inv, one);
    return;
  }
  FAIL() << "no invertible element found in 20 attempts";
}

// Elements divisible by x - 1 (zero, every even-weight element) and, for
// prime r, the all-ones element (a multiple of (x^r - 1) / (x - 1)) are
// not units: the Itoh-Tsujii chain still runs, and the final h * h^-1 = 1
// check must reject them and leave `out` alone.
TEST_P(Gf2RingTest, InverseRejectsNonUnits) {
  std::size_t r = GetParam();
  Drbg rng(r + 8);
  Gf2Ring sentinel = Gf2Ring::random(r, rng);
  Gf2Ring out = sentinel;
  EXPECT_FALSE(Gf2Ring(r).inverse(out));
  for (std::size_t w : {std::size_t{2}, std::size_t{70}, r - 1}) {
    Gf2Ring even = Gf2Ring::random_weight(r, w, rng);
    EXPECT_FALSE(even.inverse(out)) << "weight " << w;
  }
  for (int trial = 0; trial < 3; ++trial) {
    Gf2Ring even = Gf2Ring::random(r, rng);
    if (even.weight() % 2) even.flip(0);
    EXPECT_FALSE(even.inverse(out));
  }
  Gf2Ring all_ones = Gf2Ring::from_words(
      r, std::vector<std::uint64_t>((r + 63) / 64, ~std::uint64_t{0}));
  ASSERT_EQ(all_ones.weight(), r);
  EXPECT_FALSE(all_ones.inverse(out));
  EXPECT_EQ(out, sentinel);
}

TEST_P(Gf2RingTest, SquaredMatchesRepeatedSelfMultiplication) {
  std::size_t r = GetParam();
  Drbg rng(r + 9);
  Gf2Ring a = Gf2Ring::random(r, rng);
  Gf2Ring power = a;
  for (std::size_t k = 0; k <= 9; ++k) {
    EXPECT_EQ(a.squared(k), power) << "k = " << k;
    power = power * power;
  }
  // k >= ord_r(2) wraps around: 2^k mod r is all the permutation sees.
  EXPECT_EQ(a.squared(r - 1), a) << "2^(r-1) = 1 mod prime r";
}

TEST_P(Gf2RingTest, RandomWeightHasExactWeight) {
  std::size_t r = GetParam();
  Drbg rng(r + 6);
  for (std::size_t w : {std::size_t{1}, std::size_t{17}, std::size_t{66}}) {
    Gf2Ring a = Gf2Ring::random_weight(r, w, rng);
    EXPECT_EQ(a.weight(), w);
    EXPECT_EQ(a.support().size(), w);
  }
}

TEST_P(Gf2RingTest, BytesCodecRoundTrip) {
  std::size_t r = GetParam();
  Drbg rng(r + 7);
  Gf2Ring a = Gf2Ring::random(r, rng);
  EXPECT_EQ(Gf2Ring::from_bytes(r, a.to_bytes()), a);
}

// Ring sizes used by BIKE (12323, 24659) and HQC (17669), plus odd smalls.
INSTANTIATE_TEST_SUITE_P(RingSizes, Gf2RingTest,
                         ::testing::Values(131, 521, 12323, 17669, 24659));

// The GF(2)[x] word product: the portable schoolbook kernel against a
// bit-at-a-time shift-and-add reference, then the PCLMULQDQ kernel and
// Karatsuba over either kernel against the portable kernel, for every
// operand length from 1 to 40 words and both BIKE sizes (193 and 386
// words). Operands sit one word past a 16-byte boundary, so the PCLMULQDQ
// kernel's unaligned loads are exercised.
std::vector<std::uint64_t> reference_product(const std::uint64_t* a,
                                             const std::uint64_t* b,
                                             std::size_t n) {
  std::vector<std::uint64_t> out(2 * n, 0);
  for (std::size_t bit = 0; bit < 64 * n; ++bit) {
    if (!((a[bit / 64] >> (bit % 64)) & 1)) continue;
    std::size_t ws = bit / 64, bs = bit % 64;
    for (std::size_t j = 0; j < n; ++j) {
      out[j + ws] ^= b[j] << bs;
      if (bs) out[j + ws + 1] ^= b[j] >> (64 - bs);
    }
  }
  return out;
}

TEST(Gf2Kernels, KernelsAndKaratsubaMatchSchoolbook) {
  const backend::Gf2Kernels& portable = backend::detail::kGf2Portable;
  const backend::Gf2Kernels* pclmul = backend::detail::gf2_pclmul();
  const bool run_pclmul =
      pclmul != nullptr && backend::detail::cpu_has_pclmul();
  Drbg rng(0x6766326d);
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 40; ++n) sizes.push_back(n);
  sizes.push_back((12323 + 63) / 64);
  sizes.push_back((24659 + 63) / 64);
  for (std::size_t n : sizes) {
    SCOPED_TRACE(testing::Message() << n << " words");
    std::vector<std::uint64_t> a(n + 1), b(n + 1);
    for (std::size_t i = 1; i <= n; ++i) {
      a[i] = rng.u64();
      b[i] = rng.u64();
    }
    b[n] = ~std::uint64_t{0};  // every top bit of one b word set
    const std::uint64_t* pa = a.data() + 1;
    const std::uint64_t* pb = b.data() + 1;
    std::vector<std::uint64_t> want(2 * n), got(2 * n + 1);
    portable.mul(want.data(), pa, pb, n);
    EXPECT_EQ(want, reference_product(pa, pb, n));

    auto check = [&](auto&& multiply, const char* what) {
      std::fill(got.begin(), got.end(), 0x5a5a5a5a5a5a5a5aULL);
      multiply(got.data() + 1);
      EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin() + 1))
          << what;
    };
    check([&](std::uint64_t* out) { gf2_mul_words(out, pa, pb, n, portable); },
          "karatsuba over portable");
    if (!run_pclmul) continue;
    check([&](std::uint64_t* out) { pclmul->mul(out, pa, pb, n); },
          "pclmul kernel");
    check([&](std::uint64_t* out) { gf2_mul_words(out, pa, pb, n, *pclmul); },
          "karatsuba over pclmul");
  }
  if (!run_pclmul)
    GTEST_SKIP() << "PCLMULQDQ kernel not compiled in or CPU lacks it";
}

TEST(Gf2Ring, TransposeIsInvolution) {
  Drbg rng(9);
  Gf2Ring a = Gf2Ring::random(523, rng);
  EXPECT_EQ(a.transpose().transpose(), a);
}

TEST(Gf256, MultiplicationAgreesWithSchoolbook) {
  // Check against the definition for some values: slow carry-less multiply
  // reduced mod 0x11d.
  auto slow_mul = [](std::uint8_t a, std::uint8_t b) {
    unsigned acc = 0;
    for (int i = 0; i < 8; ++i)
      if (b & (1 << i)) acc ^= unsigned{a} << i;
    for (int i = 15; i >= 8; --i)
      if (acc & (1u << i)) acc ^= 0x11du << (i - 8);
    return static_cast<std::uint8_t>(acc);
  };
  Drbg rng(10);
  for (int i = 0; i < 200; ++i) {
    std::uint8_t a = rng.byte(), b = rng.byte();
    EXPECT_EQ(Gf256::mul(a, b), slow_mul(a, b));
  }
}

TEST(Gf256, InverseIsCorrect) {
  for (int a = 1; a < 256; ++a) {
    std::uint8_t inv = Gf256::inv(static_cast<std::uint8_t>(a));
    EXPECT_EQ(Gf256::mul(static_cast<std::uint8_t>(a), inv), 1) << "a=" << a;
  }
  EXPECT_THROW(Gf256::inv(0), std::domain_error);
}

}  // namespace
}  // namespace pqtls::crypto
