// Minimal x509-like PKI: binary certificates carrying a subject, issuer,
// algorithm identifiers, a subject public key and an issuer signature, plus
// two-level chains (root CA -> server). Field sizes mirror what dominates
// real x509 certificates (the SA public key and signature), so the
// Certificate-message volumes match the paper's Table 2 data.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sig/sig.hpp"

namespace pqtls::pki {

struct Certificate {
  std::string subject;
  std::string issuer;
  std::string key_algorithm;        // SA of subject_public_key
  std::string signature_algorithm;  // SA the issuer signed with
  std::uint64_t not_before = 0;
  std::uint64_t not_after = 0;
  Bytes subject_public_key;
  Bytes signature;

  /// The to-be-signed portion (everything except the signature).
  Bytes tbs() const;
  Bytes encode() const;
  static std::optional<Certificate> decode(BytesView data);
};

/// Ordered leaf-first chain, as sent in the TLS Certificate message.
struct CertificateChain {
  std::vector<Certificate> certificates;

  Bytes encode() const;
  static std::optional<CertificateChain> decode(BytesView data);
};

/// A CA able to issue certificates.
struct CertificateAuthority {
  Certificate certificate;  // self-signed root
  Bytes secret_key;
  const sig::Signer* signer = nullptr;
};

/// Create a self-signed root CA for `signer`.
CertificateAuthority make_root_ca(const sig::Signer& signer,
                                  const std::string& subject, sig::Drbg& rng);

/// Issue an end-entity certificate for `subject_public_key` signed by `ca`.
Certificate issue_certificate(const CertificateAuthority& ca,
                              const std::string& subject,
                              const std::string& key_algorithm,
                              BytesView subject_public_key, sig::Drbg& rng);

/// A trusted root, checked and loaded once. Building an anchor verifies the
/// root's self-signature and loads its public key, so verify_chain spends
/// no per-chain work on the root itself: RFC 5280 §6.1 takes the trust
/// anchor as an input to path validation, not as a certificate on the path,
/// and OpenSSL checks a trusted root's self-signature only under
/// X509_V_FLAG_CHECK_SS_SIGNATURE. A default-constructed anchor trusts
/// nothing.
class TrustAnchor {
 public:
  TrustAnchor();
  explicit TrustAnchor(Certificate root);

  const Certificate& certificate() const { return state_->root; }
  /// Whether the root's self-signature verified when the anchor was built.
  bool self_signature_valid() const { return state_->self_signature_valid; }
  /// The root's public key loaded by its key algorithm; null when that
  /// algorithm is not in the catalog.
  const sig::VerifyingKey* public_key() const {
    return state_->public_key.get();
  }

 private:
  // Immutable once built, so copies of an anchor (one per client config
  // and connection) share it.
  struct State {
    Certificate root;
    std::shared_ptr<const sig::VerifyingKey> public_key;
    bool self_signature_valid = false;
  };
  std::shared_ptr<const State> state_;
};

/// Verify a leaf-first chain against a trust anchor: signatures, issuer
/// linkage, and validity at `now`. False whenever the anchor's own
/// self-signature was bad.
bool verify_chain(const CertificateChain& chain, const TrustAnchor& anchor,
                  std::uint64_t now);
/// The same against a bare root certificate, checked on every call.
bool verify_chain(const CertificateChain& chain, const Certificate& root,
                  std::uint64_t now);

/// Shape of a certificate hierarchy: which SA signs at every level above the
/// leaf. The default (no intermediates, empty `root_sa`) reproduces the
/// historical two-level root -> leaf hierarchy byte-for-byte, with the root
/// keyed on the leaf's own SA.
struct ChainProfile {
  /// Slug used in cache keys, campaign cell ids, and filenames.
  std::string name = "leaf";
  /// SA keying the root CA; empty = same SA as the leaf.
  std::string root_sa;
  /// Key SA of each intermediate CA, root-nearest first; empty = no
  /// intermediates (the root issues the leaf directly).
  std::vector<std::string> intermediate_sas;

  /// True for the default two-level hierarchy (root issues leaf directly
  /// and is keyed on the leaf SA).
  bool leaf_only() const { return intermediate_sas.empty() && root_sa.empty(); }
};

/// Subject name of intermediate CA `level` (root-nearest, zero-based). Shared
/// with the catalog's wire-size accounting so predicted sizes stay exact.
std::string intermediate_subject(std::size_t level);

/// A fully issued hierarchy: the trusted root plus the leaf-first chain the
/// server puts on the wire (leaf, then intermediates leaf-nearest first; the
/// root itself is never transmitted).
struct IssuedChain {
  Certificate root;
  CertificateChain chain;
  Bytes leaf_secret_key;
};

/// Issue a hierarchy per `profile`: root CA, intermediates root-nearest
/// first, then the leaf keyed on `leaf_signer`. DRBG consumption for the
/// default profile matches the historical root+leaf issuance exactly.
IssuedChain issue_chain(const ChainProfile& profile,
                        const sig::Signer& leaf_signer,
                        const std::string& leaf_subject,
                        const std::string& root_subject, sig::Drbg& rng);

/// Exact on-the-wire size of `CertificateChain::encode()` for a hierarchy
/// issued per `profile` with `leaf_signer` keys at the leaf, computed from
/// the catalog'd SA sizes without running key generation.
std::size_t chain_encoded_size(const ChainProfile& profile,
                               const sig::Signer& leaf_signer,
                               const std::string& leaf_subject,
                               const std::string& root_subject);

}  // namespace pqtls::pki
