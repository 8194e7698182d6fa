// AlgorithmCatalog tests: the catalog must cover both registries exactly
// (same order, same objects), report truthful wire sizes, back every
// campaign matrix row, and explain lookup failures with the full list of
// valid names. CatalogRoundTrip is the ctest-gated contract that every
// catalog entry can drive one full handshake end to end through the cached
// server-context path.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/matrix.hpp"
#include "crypto/catalog.hpp"
#include "crypto/drbg.hpp"
#include "kem/kem.hpp"
#include "perf/cost_model.hpp"
#include "sig/sig.hpp"
#include "tls/connection.hpp"
#include "tls/server_context.hpp"

namespace pqtls {
namespace {

using crypto::AlgorithmCatalog;
using crypto::AlgorithmInfo;
using crypto::Drbg;

constexpr std::uint64_t kSeed = 0xFEED;

TEST(CatalogConsistency, CoversKemRegistryInOrder) {
  const AlgorithmCatalog& catalog = AlgorithmCatalog::instance();
  const auto& registry = kem::all_kems();
  ASSERT_EQ(catalog.kems().size(), registry.size());
  for (std::size_t i = 0; i < registry.size(); ++i) {
    const AlgorithmInfo& info = catalog.kems()[i];
    EXPECT_EQ(info.kem, registry[i]);
    EXPECT_EQ(info.name, registry[i]->name());
    EXPECT_EQ(info.hybrid, registry[i]->is_hybrid());
    EXPECT_EQ(info.post_quantum, registry[i]->is_post_quantum());
    EXPECT_EQ(info.nist_level, registry[i]->security_level());
  }
}

TEST(CatalogConsistency, CoversSignerRegistryInOrder) {
  const AlgorithmCatalog& catalog = AlgorithmCatalog::instance();
  const auto& registry = sig::all_signers();
  ASSERT_EQ(catalog.signers().size(), registry.size());
  for (std::size_t i = 0; i < registry.size(); ++i) {
    const AlgorithmInfo& info = catalog.signers()[i];
    EXPECT_EQ(info.signer, registry[i]);
    EXPECT_EQ(info.name, registry[i]->name());
    EXPECT_EQ(info.hybrid, registry[i]->is_hybrid());
    EXPECT_EQ(info.nist_level, registry[i]->security_level());
  }
}

TEST(CatalogConsistency, WireSizesMatchImplementations) {
  const AlgorithmCatalog& catalog = AlgorithmCatalog::instance();
  for (const auto& info : catalog.kems()) {
    EXPECT_EQ(info.public_key_bytes, info.kem->public_key_size()) << info.name;
    EXPECT_EQ(info.ciphertext_bytes, info.kem->ciphertext_size()) << info.name;
  }
  for (const auto& info : catalog.signers()) {
    EXPECT_EQ(info.public_key_bytes, info.signer->public_key_size())
        << info.name;
    EXPECT_EQ(info.signature_bytes, info.signer->signature_size())
        << info.name;
  }
}

TEST(CatalogConsistency, HeadlineSelection) {
  // Headline = Table 2b: everything except the SPHINCS+ size-variants and
  // the rsa3072_dilithium2 hybrid (which only Table 4b adds back).
  const AlgorithmCatalog& catalog = AlgorithmCatalog::instance();
  std::size_t headline = 0;
  for (const auto& info : catalog.signers()) {
    bool s_variant = info.family == "sphincs" && info.name.back() == 's';
    bool expect_headline = !s_variant && info.name != "rsa3072_dilithium2";
    EXPECT_EQ(info.headline, expect_headline) << info.name;
    headline += info.headline;
  }
  EXPECT_EQ(headline, 23u);
  for (const auto& info : catalog.kems()) EXPECT_TRUE(info.headline);
}

TEST(CatalogConsistency, MatrixRowsDeriveFromCatalog) {
  const AlgorithmCatalog& catalog = AlgorithmCatalog::instance();
  const auto& t2a = campaign::table2a_kas();
  ASSERT_EQ(t2a.size(), catalog.kems().size());
  for (std::size_t i = 0; i < t2a.size(); ++i) {
    EXPECT_EQ(t2a[i].name, catalog.kems()[i].name);
    EXPECT_EQ(t2a[i].level, catalog.kems()[i].table_level);
  }

  std::vector<const AlgorithmInfo*> headline;
  for (const auto& info : catalog.signers())
    if (info.headline) headline.push_back(&info);
  const auto& t2b = campaign::table2b_sas();
  ASSERT_EQ(t2b.size(), headline.size());
  for (std::size_t i = 0; i < t2b.size(); ++i)
    EXPECT_EQ(t2b[i].name, headline[i]->name);

  // Table 4b: Table 2b plus rsa3072_dilithium2, still registry-ordered.
  EXPECT_EQ(campaign::table4b_sas().size(), t2b.size() + 1);
}

TEST(CatalogConsistency, EveryCampaignCellResolves) {
  const AlgorithmCatalog& catalog = AlgorithmCatalog::instance();
  for (const auto& spec : campaign::campaigns()) {
    for (const auto& cell : spec.cells) {
      EXPECT_NE(catalog.kem(cell.config.ka), nullptr)
          << spec.name << " cell " << cell.id << " ka " << cell.config.ka;
      EXPECT_NE(catalog.signer(cell.config.sa), nullptr)
          << spec.name << " cell " << cell.id << " sa " << cell.config.sa;
    }
  }
}

// Modeled mode charges every catalog algorithm from an explicit cost-table
// entry (hybrids as the sum of two entries); a name with no entry throws
// rather than getting a guessed cost.
TEST(CatalogConsistency, EveryAlgorithmHasACostEntry) {
  const AlgorithmCatalog& catalog = AlgorithmCatalog::instance();
  const perf::CostModel& cm = perf::CostModel::builtin();
  for (const auto& info : catalog.kems()) {
    SCOPED_TRACE(info.name);
    EXPECT_GT(cm.kem_keygen(info.name), 0.0);
    EXPECT_GT(cm.kem_encaps(info.name), 0.0);
    EXPECT_GT(cm.kem_decaps(info.name), 0.0);
  }
  for (const auto& info : catalog.signers()) {
    SCOPED_TRACE(info.name);
    EXPECT_GT(cm.sign(info.name), 0.0);
    EXPECT_GT(cm.verify(info.name), 0.0);
  }
  EXPECT_THROW(cm.kem_encaps("kyber9000"), std::invalid_argument);
  EXPECT_THROW(cm.verify("ed25519"), std::invalid_argument);
  EXPECT_THROW(cm.sign("p256_ed25519"), std::invalid_argument);
}

TEST(CatalogConsistency, UnknownNamesListValidAlternatives) {
  const AlgorithmCatalog& catalog = AlgorithmCatalog::instance();
  try {
    catalog.require_kem("kyber9000");
    FAIL() << "require_kem should have thrown";
  } catch (const std::invalid_argument& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("unknown algorithm: kyber9000"), std::string::npos);
    EXPECT_NE(what.find("x25519"), std::string::npos);
    EXPECT_NE(what.find("p521_kyber1024"), std::string::npos);
  }
  try {
    catalog.require_signer("ed25519");
    FAIL() << "require_signer should have thrown";
  } catch (const std::invalid_argument& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("unknown algorithm: ed25519"), std::string::npos);
    EXPECT_NE(what.find("rsa:2048"), std::string::npos);
    EXPECT_NE(what.find("sphincs256s"), std::string::npos);
  }
}

// Drive one full handshake over in-memory flights; true iff both sides
// complete.
bool one_handshake(const tls::ServerContext& context) {
  tls::ClientConnection client(context.client_config(), Drbg(1));
  tls::ServerConnection server(context.server_config(), Drbg(2));
  std::vector<Bytes> to_server, to_client;
  client.start(
      [&](BytesView d) { to_server.emplace_back(d.begin(), d.end()); });
  for (int round = 0; round < 30; ++round) {
    if (to_server.empty() && to_client.empty()) break;
    for (auto& f : to_server)
      server.on_data(
          f, [&](BytesView d) { to_client.emplace_back(d.begin(), d.end()); });
    to_server.clear();
    for (auto& f : to_client)
      client.on_data(
          f, [&](BytesView d) { to_server.emplace_back(d.begin(), d.end()); });
    to_client.clear();
  }
  return client.handshake_complete() && server.handshake_complete();
}

TEST(CatalogRoundTrip, EveryKeyAgreementCompletesAHandshake) {
  const AlgorithmCatalog& catalog = AlgorithmCatalog::instance();
  const sig::Signer& sa = *catalog.require_signer("rsa:2048").signer;
  for (const auto& info : catalog.kems()) {
    const tls::ServerContext& context =
        tls::server_context(*info.kem, sa, kSeed);
    EXPECT_TRUE(one_handshake(context)) << info.name;
  }
}

TEST(CatalogRoundTrip, EverySignatureAlgorithmCompletesAHandshake) {
  const AlgorithmCatalog& catalog = AlgorithmCatalog::instance();
  const kem::Kem& ka = *catalog.require_kem("x25519").kem;
  for (const auto& info : catalog.signers()) {
    const tls::ServerContext& context =
        tls::server_context(ka, *info.signer, kSeed);
    EXPECT_TRUE(one_handshake(context)) << info.name;
  }
}

TEST(CatalogRoundTrip, CertChainBytesMatchGeneratedChain) {
  // cert_chain_bytes is linear in signature_size (a maximum for the
  // variable-length families); correcting for the actual signature length
  // must land exactly on the generated chain's encoding.
  const AlgorithmCatalog& catalog = AlgorithmCatalog::instance();
  const kem::Kem& ka = *catalog.require_kem("x25519").kem;
  for (const auto& info : catalog.signers()) {
    const tls::ServerContext& context =
        tls::server_context(ka, *info.signer, kSeed);
    ASSERT_EQ(context.chain.certificates.size(), 1u) << info.name;
    std::size_t actual_sig = context.chain.certificates[0].signature.size();
    std::size_t expected =
        info.cert_chain_bytes - info.signature_bytes + actual_sig;
    EXPECT_EQ(context.chain.encode().size(), expected) << info.name;
  }
}

TEST(CatalogRoundTrip, ContextCacheReturnsSameMaterial) {
  const AlgorithmCatalog& catalog = AlgorithmCatalog::instance();
  const kem::Kem& ka = *catalog.require_kem("kyber512").kem;
  const sig::Signer& sa = *catalog.require_signer("dilithium2").signer;
  const tls::ServerContext& a = tls::server_context(ka, sa, kSeed);
  const tls::ServerContext& b = tls::server_context(ka, sa, kSeed);
  EXPECT_EQ(&a, &b);  // cached: same entry, no regeneration
  // Different KA, same (SA, seed): distinct entry, byte-identical PKI (the
  // campaign reproducibility contract).
  const kem::Kem& other = *catalog.require_kem("x25519").kem;
  const tls::ServerContext& c = tls::server_context(other, sa, kSeed);
  EXPECT_NE(&a, &c);
  EXPECT_EQ(a.chain.encode(), c.chain.encode());
  EXPECT_EQ(a.leaf_secret_key, c.leaf_secret_key);
  // Different seed: different certificates.
  const tls::ServerContext& d = tls::server_context(ka, sa, kSeed + 1);
  EXPECT_NE(a.chain.encode(), d.chain.encode());
}

}  // namespace
}  // namespace pqtls
