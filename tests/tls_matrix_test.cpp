// Integration matrix mirroring the paper's experiment grid: a full TLS
// handshake for every registered KA (against a fixed SA) and every
// registered SA (against a fixed KA), through the complete testbed.
#include <gtest/gtest.h>

#include "testbed/testbed.hpp"

namespace pqtls::testbed {
namespace {

std::string sanitize(std::string name) {
  for (char& c : name)
    if (c == ':') c = '_';
  return name;
}

class KaMatrixTest : public ::testing::TestWithParam<const kem::Kem*> {};

TEST_P(KaMatrixTest, HandshakeOverTestbed) {
  ExperimentConfig config;
  config.ka = GetParam()->name();
  config.sa = "rsa:2048";
  config.sample_handshakes = 2;
  ExperimentResult r = run_experiment(config);
  ASSERT_TRUE(r.ok) << config.ka;
  EXPECT_GT(r.median_total, 0.0);
  // The client always ships at least its key share; the server at least
  // its ciphertext plus certificate.
  EXPECT_GT(r.client_bytes, GetParam()->public_key_size());
  EXPECT_GT(r.server_bytes, GetParam()->ciphertext_size());
}

INSTANTIATE_TEST_SUITE_P(AllKas, KaMatrixTest,
                         ::testing::ValuesIn(kem::all_kems()),
                         [](const auto& info) {
                           return sanitize(info.param->name());
                         });

class SaMatrixTest : public ::testing::TestWithParam<const sig::Signer*> {};

TEST_P(SaMatrixTest, HandshakeOverTestbed) {
  const std::string& name = GetParam()->name();
  if (name == "sphincs192s" || name == "sphincs256s")
    GTEST_SKIP() << "multi-second signing; covered by campaign all_sphincs";
  ExperimentConfig config;
  config.ka = "x25519";
  config.sa = name;
  config.sample_handshakes = 2;
  ExperimentResult r = run_experiment(config);
  ASSERT_TRUE(r.ok) << config.sa;
  // Server volume is dominated by certificate + CV signature.
  EXPECT_GT(r.server_bytes, GetParam()->signature_size());
}

INSTANTIATE_TEST_SUITE_P(AllSas, SaMatrixTest,
                         ::testing::ValuesIn(sig::all_signers()),
                         [](const auto& info) {
                           return sanitize(info.param->name());
                         });

TEST(Matrix, PaperHeadlineOrderingsHold) {
  // The paper's headline findings, verified end to end on this testbed:
  auto run = [](const char* ka, const char* sa) {
    ExperimentConfig config;
    config.ka = ka;
    config.sa = sa;
    config.sample_handshakes = 7;
    return run_experiment(config);
  };
  auto rsa2048 = run("x25519", "rsa:2048");
  auto dil2 = run("x25519", "dilithium2");
  auto falcon = run("x25519", "falcon512");
  auto sphincs = run("x25519", "sphincs128");
  auto kyber = run("kyber512", "rsa:2048");
  auto x25519 = run("x25519", "rsa:2048");
  ASSERT_TRUE(rsa2048.ok && dil2.ok && falcon.ok && sphincs.ok && kyber.ok);

  // "Dilithium and Falcon are even faster than RSA" (rsa:2048 baseline).
  EXPECT_LT(dil2.median_total, rsa2048.median_total);
  EXPECT_LT(falcon.median_total, rsa2048.median_total);
  // SPHINCS+ is far slower — the slowest SA here by a clear margin — and
  // far larger. The latency multiplier must hold under every crypto
  // backend: AES-NI Haraka compresses the gap from ~17x to ~3x against
  // our deliberately generic bignum RSA baseline, so 2x is the
  // backend-independent floor (the wire-byte factor is backend-free).
  EXPECT_GT(sphincs.median_total, 2 * rsa2048.median_total);
  EXPECT_GT(sphincs.median_total, dil2.median_total);
  EXPECT_GT(sphincs.median_total, falcon.median_total);
  EXPECT_GT(sphincs.server_bytes, 10 * rsa2048.server_bytes);
  // "HQC and Kyber are on par with our current state-of-the-art":
  // within a small factor of the x25519 baseline.
  EXPECT_LT(kyber.median_total, 2 * x25519.median_total + 0.001);
}

TEST(Matrix, HybridsCostRoughlyTheSlowerComponent) {
  auto run = [](const char* ka) {
    ExperimentConfig config;
    config.ka = ka;
    config.sa = "rsa:2048";
    config.sample_handshakes = 7;
    return run_experiment(config);
  };
  auto p256 = run("p256");
  auto kyber = run("kyber512");
  auto hybrid = run("p256_kyber512");
  ASSERT_TRUE(p256.ok && kyber.ok && hybrid.ok);
  double slower = std::max(p256.median_total, kyber.median_total);
  // No significant performance drawback: hybrid ~ slower component (+50%).
  EXPECT_LT(hybrid.median_total, slower * 1.5 + 0.001);
  EXPECT_GT(hybrid.median_total, slower * 0.6);
}

}  // namespace
}  // namespace pqtls::testbed
