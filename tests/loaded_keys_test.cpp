// The signature key-loading seam: signing and verifying through a loaded
// key is byte-for-byte the byte API, under every backend and from
// concurrent threads; wrong-length secret keys are rejected before any
// read; a ServerContext shares one loaded key across its configs; and a
// trust anchor with a bad self-signature fails every chain it anchors.
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <thread>

#include "crypto/backend/backend.hpp"
#include "crypto/catalog.hpp"
#include "pki/certificate.hpp"
#include "tls/server_context.hpp"

namespace pqtls {
namespace {

namespace backend = crypto::backend;
using crypto::Drbg;

struct SelectionGuard {
  ~SelectionGuard() { backend::select("auto"); }
};

// Keys are backend-independent; generate each once for the whole file.
const sig::SigKeyPair& keys_for(const sig::Signer& signer) {
  static std::map<const sig::Signer*, sig::SigKeyPair> cache;
  auto it = cache.find(&signer);
  if (it == cache.end()) {
    Drbg rng(0x10ad + signer.name().size());
    it = cache.emplace(&signer, signer.generate_keypair(rng)).first;
  }
  return it->second;
}

// Every catalog signer except the SPHINCS+ s-variants, which sign in
// seconds and share their code path with the fast sets.
std::vector<const sig::Signer*> covered_signers() {
  std::vector<const sig::Signer*> out;
  for (const auto& info : crypto::AlgorithmCatalog::instance().signers())
    if (info.headline) out.push_back(info.signer);
  return out;
}

TEST(LoadedKeys, SignWithMatchesSign) {
  SelectionGuard guard;
  const Bytes msg = {0x6c, 0x6f, 0x61, 0x64};
  for (const char* selection : {"portable", "auto"}) {
    ASSERT_TRUE(backend::select(selection));
    for (const sig::Signer* signer : covered_signers()) {
      SCOPED_TRACE(std::string(selection) + " " + signer->name());
      const sig::SigKeyPair& kp = keys_for(*signer);
      Drbg a(77), b(77);
      Bytes by_bytes = signer->sign(kp.secret_key, msg, a);
      Bytes by_key = signer->sign_with(*signer->load_signing_key(kp.secret_key),
                                       msg, b);
      EXPECT_EQ(by_bytes, by_key);
      EXPECT_EQ(a.bytes(8), b.bytes(8));  // same randomness consumed
    }
  }
}

TEST(LoadedKeys, VerifyWithMatchesVerify) {
  SelectionGuard guard;
  const Bytes msg = {0x76, 0x65, 0x72};
  const Bytes other = {0x76, 0x65, 0x73};
  for (const char* selection : {"portable", "auto"}) {
    ASSERT_TRUE(backend::select(selection));
    for (const sig::Signer* signer : covered_signers()) {
      SCOPED_TRACE(std::string(selection) + " " + signer->name());
      const sig::SigKeyPair& kp = keys_for(*signer);
      Drbg rng(78);
      Bytes good = signer->sign(kp.secret_key, msg, rng);
      Bytes tampered = good;
      tampered[tampered.size() / 3] ^= 0x10;
      auto key = signer->load_verifying_key(kp.public_key);
      EXPECT_TRUE(signer->verify(kp.public_key, msg, good));
      EXPECT_TRUE(signer->verify_with(*key, msg, good));
      EXPECT_FALSE(signer->verify(kp.public_key, msg, tampered));
      EXPECT_FALSE(signer->verify_with(*key, msg, tampered));
      EXPECT_FALSE(signer->verify(kp.public_key, other, good));
      EXPECT_FALSE(signer->verify_with(*key, other, good));
    }
  }
}

TEST(LoadedKeys, SharedKeySignsConcurrently) {
  constexpr int kThreads = 4;
  for (const sig::Signer* signer : covered_signers()) {
    SCOPED_TRACE(signer->name());
    auto key = signer->load_signing_key(keys_for(*signer).secret_key);
    auto sign_one = [&](int i) {
      Drbg rng(900 + i);
      return signer->sign_with(*key, {reinterpret_cast<std::uint8_t*>(&i),
                                      sizeof i},
                               rng);
    };
    std::vector<Bytes> expected, threaded(kThreads);
    for (int i = 0; i < kThreads; ++i) expected.push_back(sign_one(i));
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i)
      threads.emplace_back([&, i] { threaded[i] = sign_one(i); });
    for (auto& t : threads) t.join();
    EXPECT_EQ(threaded, expected);
  }
}

TEST(LoadedKeys, RejectsWrongLengthSecretKey) {
  const Bytes msg = {0x01};
  for (const auto& info : crypto::AlgorithmCatalog::instance().signers()) {
    SCOPED_TRACE(info.name);
    const sig::Signer& signer = *info.signer;
    const Bytes& sk = keys_for(signer).secret_key;
    Bytes half(sk.begin(), sk.begin() + sk.size() / 2);
    Drbg rng(79);
    EXPECT_THROW(signer.sign(half, msg, rng), std::invalid_argument);
    EXPECT_THROW(signer.sign_with(*signer.load_signing_key(half), msg, rng),
                 std::invalid_argument);
  }
}

TEST(LoadedKeys, RejectsKeyLoadedByAnotherSigner) {
  const auto& catalog = crypto::AlgorithmCatalog::instance();
  const sig::Signer& d2 = *catalog.require_signer("dilithium2").signer;
  const sig::Signer& d3 = *catalog.require_signer("dilithium3").signer;
  const sig::SigKeyPair& kp = keys_for(d2);
  Drbg rng(80);
  EXPECT_THROW(d3.sign_with(*d2.load_signing_key(kp.secret_key), {}, rng),
               std::invalid_argument);
  EXPECT_THROW(d3.verify_with(*d2.load_verifying_key(kp.public_key), {}, {}),
               std::invalid_argument);
}

TEST(LoadedKeys, ServerConfigsShareOneSigningKey) {
  const auto& catalog = crypto::AlgorithmCatalog::instance();
  const tls::ServerContext& ctx =
      tls::server_context(*catalog.require_kem("kyber512").kem,
                          *catalog.require_signer("dilithium2").signer, 0x5ca1);
  ASSERT_NE(ctx.leaf_key, nullptr);
  tls::ServerConfig a = ctx.server_config();
  tls::ServerConfig b = ctx.server_config(tls::Buffering::kDefault);
  EXPECT_EQ(a.leaf_key.get(), ctx.leaf_key.get());
  EXPECT_EQ(b.leaf_key.get(), ctx.leaf_key.get());
  EXPECT_EQ(ctx.client_config().root.public_key(), ctx.anchor.public_key());
  EXPECT_TRUE(ctx.anchor.self_signature_valid());
}

struct IssuedPair {
  pki::Certificate root;
  pki::Certificate leaf;
};

IssuedPair issue(const sig::Signer& signer) {
  Drbg rng(81);
  auto ca = pki::make_root_ca(signer, "anchor root", rng);
  auto leaf_kp = signer.generate_keypair(rng);
  auto leaf = pki::issue_certificate(ca, "anchor leaf", signer.name(),
                                     leaf_kp.public_key, rng);
  return {ca.certificate, leaf};
}

TEST(LoadedKeys, TamperedAnchorSelfSignatureFailsChain) {
  constexpr std::uint64_t kNow = 1'800'000'000;
  for (const char* name : {"dilithium2", "falcon512", "p256_dilithium2"}) {
    SCOPED_TRACE(name);
    const sig::Signer& signer =
        *crypto::AlgorithmCatalog::instance().require_signer(name).signer;
    IssuedPair pair = issue(signer);
    pki::CertificateChain chain{{pair.leaf}};
    pki::TrustAnchor anchor(pair.root);
    EXPECT_TRUE(anchor.self_signature_valid());
    EXPECT_TRUE(pki::verify_chain(chain, anchor, kNow));

    pki::Certificate tampered = pair.root;
    tampered.signature[tampered.signature.size() / 2] ^= 0x01;
    pki::TrustAnchor bad(tampered);
    EXPECT_FALSE(bad.self_signature_valid());
    EXPECT_FALSE(pki::verify_chain(chain, bad, kNow));
    EXPECT_FALSE(pki::verify_chain(chain, tampered, kNow));
  }
}

TEST(LoadedKeys, ChainCarryingTheRootStillVerifies) {
  constexpr std::uint64_t kNow = 1'800'000'000;
  const sig::Signer& signer =
      *crypto::AlgorithmCatalog::instance().require_signer("dilithium2").signer;
  IssuedPair pair = issue(signer);
  pki::CertificateChain chain{{pair.leaf, pair.root}};
  EXPECT_TRUE(pki::verify_chain(chain, pki::TrustAnchor(pair.root), kNow));
  EXPECT_TRUE(pki::verify_chain(chain, pair.root, kNow));
}

}  // namespace
}  // namespace pqtls
