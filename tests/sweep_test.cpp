// Registry-wide property sweeps: every registered KEM and signer must
// round-trip across seeds and message shapes, reject tampering, and honor
// its declared sizes. These parameterized suites are the broad safety net
// under the per-algorithm unit tests.
#include <gtest/gtest.h>

#include "kem/kem.hpp"
#include "sig/sig.hpp"

namespace pqtls {
namespace {

using crypto::Drbg;

std::string sanitize(std::string name) {
  for (char& c : name)
    if (c == ':') c = '_';
  return name;
}

// ---- KEM sweep over the full registry ----

class KemSweepTest : public ::testing::TestWithParam<const kem::Kem*> {};

TEST_P(KemSweepTest, DeclaredSizesAreHonored) {
  const kem::Kem& k = *GetParam();
  Drbg rng(0x5EED);
  auto kp = k.generate_keypair(rng);
  EXPECT_EQ(kp.public_key.size(), k.public_key_size());
  EXPECT_EQ(kp.secret_key.size(), k.secret_key_size());
  auto enc = k.encapsulate(kp.public_key, rng);
  ASSERT_TRUE(enc.has_value());
  EXPECT_EQ(enc->ciphertext.size(), k.ciphertext_size());
  EXPECT_EQ(enc->shared_secret.size(), k.shared_secret_size());
}

TEST_P(KemSweepTest, RoundTripsAcrossSeeds) {
  const kem::Kem& k = *GetParam();
  for (std::uint64_t seed : {1ull, 2ull, 0xFFFFull}) {
    Drbg rng(seed);
    auto kp = k.generate_keypair(rng);
    auto enc = k.encapsulate(kp.public_key, rng);
    ASSERT_TRUE(enc.has_value()) << "seed " << seed;
    auto ss = k.decapsulate(kp.secret_key, enc->ciphertext);
    ASSERT_TRUE(ss.has_value()) << "seed " << seed;
    EXPECT_EQ(*ss, enc->shared_secret) << "seed " << seed;
  }
}

TEST_P(KemSweepTest, CrossKeyDecapsulationDoesNotLeakSecret) {
  const kem::Kem& k = *GetParam();
  Drbg rng(0xAB);
  auto kp1 = k.generate_keypair(rng);
  auto kp2 = k.generate_keypair(rng);
  auto enc = k.encapsulate(kp1.public_key, rng);
  ASSERT_TRUE(enc.has_value());
  auto ss = k.decapsulate(kp2.secret_key, enc->ciphertext);
  // Either rejected outright or a different secret — never the right one.
  if (ss.has_value()) {
    EXPECT_NE(*ss, enc->shared_secret);
  }
}

TEST_P(KemSweepTest, SecurityLevelAndFlagsAreConsistent) {
  const kem::Kem& k = *GetParam();
  EXPECT_GE(k.security_level(), 1);
  EXPECT_LE(k.security_level(), 5);
  if (k.is_hybrid()) {
    EXPECT_TRUE(k.is_post_quantum());
    EXPECT_NE(k.name().find('_'), std::string::npos);
  }
}

INSTANTIATE_TEST_SUITE_P(Registry, KemSweepTest,
                         ::testing::ValuesIn(kem::all_kems()),
                         [](const auto& info) {
                           return sanitize(info.param->name());
                         });

// ---- Signer sweep over the full registry ----

class SigSweepTest : public ::testing::TestWithParam<const sig::Signer*> {};

bool is_slow_signer(const std::string& name) {
  // The SPHINCS+ s-variants sign in seconds; exercise them once, not in
  // every sweep case.
  return name == "sphincs192s" || name == "sphincs256s";
}

TEST_P(SigSweepTest, SignVerifyAcrossMessageShapes) {
  const sig::Signer& s = *GetParam();
  if (is_slow_signer(s.name()))
    GTEST_SKIP() << "covered by campaign all_sphincs";
  Drbg rng(0x51);
  auto kp = s.generate_keypair(rng);
  EXPECT_EQ(kp.public_key.size(), s.public_key_size());
  for (std::size_t msg_len : {std::size_t{0}, std::size_t{1}, std::size_t{64},
                              std::size_t{10000}}) {
    Bytes msg = rng.bytes(msg_len);
    Bytes signature = s.sign(kp.secret_key, msg, rng);
    EXPECT_LE(signature.size(), s.signature_size());
    EXPECT_TRUE(s.verify(kp.public_key, msg, signature))
        << "message length " << msg_len;
  }
}

TEST_P(SigSweepTest, EmptyAndOversizeSignaturesRejected) {
  const sig::Signer& s = *GetParam();
  if (is_slow_signer(s.name())) GTEST_SKIP();
  Drbg rng(0x52);
  auto kp = s.generate_keypair(rng);
  Bytes msg = rng.bytes(16);
  EXPECT_FALSE(s.verify(kp.public_key, msg, {}));
  EXPECT_FALSE(s.verify(kp.public_key, msg, Bytes(s.signature_size() + 1, 0)));
  EXPECT_FALSE(s.verify(kp.public_key, msg, Bytes(s.signature_size(), 0)));
}

TEST_P(SigSweepTest, GarbagePublicKeyNeverVerifies) {
  const sig::Signer& s = *GetParam();
  if (is_slow_signer(s.name())) GTEST_SKIP();
  Drbg rng(0x53);
  auto kp = s.generate_keypair(rng);
  Bytes msg = rng.bytes(20);
  Bytes signature = s.sign(kp.secret_key, msg, rng);
  Bytes garbage_pk(s.public_key_size(), 0x5A);
  EXPECT_FALSE(s.verify(garbage_pk, msg, signature));
}

INSTANTIATE_TEST_SUITE_P(Registry, SigSweepTest,
                         ::testing::ValuesIn(sig::all_signers()),
                         [](const auto& info) {
                           return sanitize(info.param->name());
                         });

}  // namespace
}  // namespace pqtls
