// Cached server handshake contexts: the per-(KA, SA) material every server
// connection shares — the signing identity (leaf certificate chain + secret
// key) and the matching client trust anchor, generated deterministically
// from a seed. Building it is the expensive part of server setup (RSA prime
// search, SPHINCS+ keygen) and unrelated to the measured handshake, so
// contexts are cached process-wide and reused across handshakes; only setup
// cost is amortized, measurement windows are untouched. Certificates were
// likewise pre-generated on the paper's testbed.
#pragma once

#include <cstdint>
#include <memory>

#include "kem/kem.hpp"
#include "pki/certificate.hpp"
#include "sig/sig.hpp"
#include "tls/connection.hpp"

namespace pqtls::tls {

struct ServerContext {
  const kem::Kem* ka = nullptr;
  const sig::Signer* sa = nullptr;
  pki::CertificateChain chain;  // wire order: leaf first, then intermediates
  Bytes leaf_secret_key;
  pki::Certificate root;  // the client's pre-installed trust anchor
  /// leaf_secret_key loaded by `sa` and `root` checked and loaded, once per
  /// (SA, seed): every config built from this context shares them.
  std::shared_ptr<const sig::SigningKey> leaf_key;
  pki::TrustAnchor anchor;

  /// Assemble endpoint configs over this context's material. The returned
  /// configs own copies of the chain and share the loaded keys: build them
  /// once per experiment, outside any per-sample loop.
  ServerConfig server_config(Buffering buffering = Buffering::kImmediate) const;
  ClientConfig client_config() const;
};

/// Process-wide context cache, safe for concurrent campaign workers. The
/// PKI material is shared across key agreements at the same (SA, seed):
/// generation draws from Drbg(seed).fork("pki:" + sa.name()), so every
/// (ka, sa) pair sees byte-identical certificates regardless of which pair
/// populated the cache first (the campaign's reproducibility contract).
const ServerContext& server_context(const kem::Kem& ka, const sig::Signer& sa,
                                    std::uint64_t seed);

/// Chain-profile-aware variant: the server's identity is the leaf of an
/// N-level hierarchy described by `profile` (pki::ChainProfile), and the
/// wire chain carries the intermediates. A leaf-only profile delegates to
/// the plain cache above, so existing seeds reproduce byte-identical
/// material; deeper profiles draw from a separate DRBG fork
/// ("pki:" + sa.name() + ":" + profile.name) and never perturb it.
const ServerContext& server_context(const kem::Kem& ka, const sig::Signer& sa,
                                    const pki::ChainProfile& profile,
                                    std::uint64_t seed);

}  // namespace pqtls::tls
