#include "tls/server_context.hpp"

#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>

#include "crypto/drbg.hpp"

namespace pqtls::tls {

namespace {

using crypto::Drbg;

struct PkiMaterial {
  pki::CertificateChain chain;
  Bytes leaf_secret;
  // The per-key work both endpoints would otherwise repeat per handshake:
  // the leaf key loaded by the SA, the root checked and loaded.
  std::shared_ptr<const sig::SigningKey> leaf_key;
  pki::TrustAnchor anchor;
};

PkiMaterial setup_pki(const sig::Signer& sa, Drbg& rng) {
  PkiMaterial out;
  auto ca = pki::make_root_ca(sa, "pqtls-bench root CA", rng);
  sig::SigKeyPair leaf = sa.generate_keypair(rng);
  pki::Certificate leaf_cert = pki::issue_certificate(
      ca, "pqtls-bench.example.net", sa.name(), leaf.public_key, rng);
  // Only the leaf goes on the wire (the root is the client's pre-installed
  // trust anchor); this matches the paper's measured server volumes, e.g.
  // ~36 kB for sphincs128 = one certificate signature + the CV signature.
  out.chain.certificates = {leaf_cert};
  out.leaf_secret = leaf.secret_key;
  out.leaf_key = sa.load_signing_key(out.leaf_secret);
  out.anchor = pki::TrustAnchor(ca.certificate);
  return out;
}

// Campaign workers call this concurrently: the mutex only guards map
// insertion (std::map nodes are stable), and each entry's once_flag makes
// exactly one thread generate the material while any other thread needing
// the same chain blocks until it is ready instead of duplicating seconds of
// keygen work.
const PkiMaterial& cached_pki(const sig::Signer& sa, std::uint64_t seed) {
  struct Entry {
    std::once_flag once;
    PkiMaterial material;
  };
  static std::mutex mu;
  static std::map<std::pair<std::string, std::uint64_t>, Entry> cache;
  Entry* entry;
  {
    std::lock_guard<std::mutex> lock(mu);
    entry = &cache[std::pair<std::string, std::uint64_t>(sa.name(), seed)];
  }
  std::call_once(entry->once, [&] {
    Drbg rng(seed);
    Drbg pki_rng = rng.fork("pki:" + sa.name());
    entry->material = setup_pki(sa, pki_rng);
  });
  return entry->material;
}

// Hierarchy variant: keyed additionally by the profile name, drawing from a
// profile-tagged DRBG fork so the leaf-only cache above (and every golden
// row derived from it) never sees different bytes.
const PkiMaterial& cached_pki(const sig::Signer& sa,
                              const pki::ChainProfile& profile,
                              std::uint64_t seed) {
  struct Entry {
    std::once_flag once;
    PkiMaterial material;
  };
  static std::mutex mu;
  static std::map<std::tuple<std::string, std::string, std::uint64_t>, Entry>
      cache;
  Entry* entry;
  {
    std::lock_guard<std::mutex> lock(mu);
    entry = &cache[std::make_tuple(sa.name(), profile.name, seed)];
  }
  std::call_once(entry->once, [&] {
    Drbg rng(seed);
    Drbg pki_rng = rng.fork("pki:" + sa.name() + ":" + profile.name);
    pki::IssuedChain issued = pki::issue_chain(
        profile, sa, "pqtls-bench.example.net", "pqtls-bench root CA",
        pki_rng);
    PkiMaterial& material = entry->material;
    material.chain = std::move(issued.chain);
    material.leaf_secret = std::move(issued.leaf_secret_key);
    material.leaf_key = sa.load_signing_key(material.leaf_secret);
    material.anchor = pki::TrustAnchor(std::move(issued.root));
  });
  return entry->material;
}

ServerContext make_context(const kem::Kem& ka, const sig::Signer& sa,
                           const PkiMaterial& material) {
  ServerContext context;
  context.ka = &ka;
  context.sa = &sa;
  context.chain = material.chain;
  context.leaf_secret_key = material.leaf_secret;
  context.root = material.anchor.certificate();
  context.leaf_key = material.leaf_key;
  context.anchor = material.anchor;
  return context;
}

}  // namespace

ServerConfig ServerContext::server_config(Buffering buffering) const {
  ServerConfig config;
  config.ka = ka;
  config.sa = sa;
  config.chain = chain;
  config.leaf_key = leaf_key;
  config.buffering = buffering;
  return config;
}

ClientConfig ServerContext::client_config() const {
  ClientConfig config;
  config.ka = ka;
  config.sa = sa;
  config.root = anchor;
  return config;
}

const ServerContext& server_context(const kem::Kem& ka, const sig::Signer& sa,
                                    std::uint64_t seed) {
  struct Entry {
    std::once_flag once;
    ServerContext context;
  };
  static std::mutex mu;
  static std::map<std::tuple<std::string, std::string, std::uint64_t>, Entry>
      cache;
  Entry* entry;
  {
    std::lock_guard<std::mutex> lock(mu);
    entry = &cache[std::make_tuple(ka.name(), sa.name(), seed)];
  }
  std::call_once(entry->once, [&] {
    // Layered over the per-(SA, seed) PKI cache: a new KA with an
    // already-built SA reuses the certificates and pays nothing.
    entry->context = make_context(ka, sa, cached_pki(sa, seed));
  });
  return entry->context;
}

const ServerContext& server_context(const kem::Kem& ka, const sig::Signer& sa,
                                    const pki::ChainProfile& profile,
                                    std::uint64_t seed) {
  // A leaf-only profile is definitionally the plain context: share its
  // cache so the material (and all downstream DRBG draws) stay identical.
  if (profile.leaf_only()) return server_context(ka, sa, seed);
  struct Entry {
    std::once_flag once;
    ServerContext context;
  };
  static std::mutex mu;
  static std::map<
      std::tuple<std::string, std::string, std::string, std::uint64_t>, Entry>
      cache;
  Entry* entry;
  {
    std::lock_guard<std::mutex> lock(mu);
    entry = &cache[std::make_tuple(ka.name(), sa.name(), profile.name, seed)];
  }
  std::call_once(entry->once, [&] {
    entry->context = make_context(ka, sa, cached_pki(sa, profile, seed));
  });
  return entry->context;
}

}  // namespace pqtls::tls
