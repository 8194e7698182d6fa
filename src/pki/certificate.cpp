#include "pki/certificate.hpp"

#include <stdexcept>

#include "crypto/catalog.hpp"

namespace pqtls::pki {

namespace {

// All signer lookups go through the unified catalog (its headline/metadata
// view is the single source of algorithm truth); nullptr for unknown names
// so callers keep their own error story.
const sig::Signer* catalog_signer(const std::string& name) {
  const crypto::AlgorithmInfo* info =
      crypto::AlgorithmCatalog::instance().signer(name);
  return info ? info->signer : nullptr;
}

void put_string(Bytes& out, const std::string& s) {
  out.push_back(static_cast<std::uint8_t>(s.size() >> 8));
  out.push_back(static_cast<std::uint8_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

void put_bytes(Bytes& out, BytesView b) {
  std::uint8_t be[4];
  store_be32(be, static_cast<std::uint32_t>(b.size()));
  append(out, {be, 4});
  append(out, b);
}

void put_u64(Bytes& out, std::uint64_t v) {
  std::uint8_t be[8];
  store_be64(be, v);
  append(out, {be, 8});
}

struct Reader {
  BytesView data;
  std::size_t pos = 0;
  bool failed = false;

  std::optional<std::string> get_string() {
    if (pos + 2 > data.size()) {
      failed = true;
      return std::nullopt;
    }
    std::size_t len = (std::size_t{data[pos]} << 8) | data[pos + 1];
    pos += 2;
    if (pos + len > data.size()) {
      failed = true;
      return std::nullopt;
    }
    std::string s(data.begin() + pos, data.begin() + pos + len);
    pos += len;
    return s;
  }

  std::optional<Bytes> get_bytes() {
    if (pos + 4 > data.size()) {
      failed = true;
      return std::nullopt;
    }
    std::size_t len = load_be32(data.data() + pos);
    pos += 4;
    if (pos + len > data.size()) {
      failed = true;
      return std::nullopt;
    }
    Bytes b(data.begin() + pos, data.begin() + pos + len);
    pos += len;
    return b;
  }

  std::optional<std::uint64_t> get_u64() {
    if (pos + 8 > data.size()) {
      failed = true;
      return std::nullopt;
    }
    std::uint64_t v = load_be64(data.data() + pos);
    pos += 8;
    return v;
  }
};

}  // namespace

Bytes Certificate::tbs() const {
  Bytes out;
  put_string(out, subject);
  put_string(out, issuer);
  put_string(out, key_algorithm);
  put_string(out, signature_algorithm);
  put_u64(out, not_before);
  put_u64(out, not_after);
  put_bytes(out, subject_public_key);
  return out;
}

Bytes Certificate::encode() const {
  Bytes out = tbs();
  put_bytes(out, signature);
  return out;
}

std::optional<Certificate> Certificate::decode(BytesView data) {
  Reader r{data};
  Certificate cert;
  auto subject = r.get_string();
  auto issuer = r.get_string();
  auto key_alg = r.get_string();
  auto sig_alg = r.get_string();
  auto nb = r.get_u64();
  auto na = r.get_u64();
  auto pk = r.get_bytes();
  auto sig = r.get_bytes();
  if (r.failed || r.pos != data.size()) return std::nullopt;
  cert.subject = *subject;
  cert.issuer = *issuer;
  cert.key_algorithm = *key_alg;
  cert.signature_algorithm = *sig_alg;
  cert.not_before = *nb;
  cert.not_after = *na;
  cert.subject_public_key = *pk;
  cert.signature = *sig;
  return cert;
}

Bytes CertificateChain::encode() const {
  Bytes out;
  out.push_back(static_cast<std::uint8_t>(certificates.size()));
  for (const auto& cert : certificates) put_bytes(out, cert.encode());
  return out;
}

std::optional<CertificateChain> CertificateChain::decode(BytesView data) {
  if (data.empty()) return std::nullopt;
  std::size_t count = data[0];
  Reader r{data, 1};
  CertificateChain chain;
  for (std::size_t i = 0; i < count; ++i) {
    auto blob = r.get_bytes();
    if (!blob) return std::nullopt;
    auto cert = Certificate::decode(*blob);
    if (!cert) return std::nullopt;
    chain.certificates.push_back(std::move(*cert));
  }
  if (r.failed || r.pos != data.size()) return std::nullopt;
  return chain;
}

namespace {
constexpr std::uint64_t kValidFrom = 1'700'000'000;
constexpr std::uint64_t kValidTo = 2'000'000'000;
}  // namespace

CertificateAuthority make_root_ca(const sig::Signer& signer,
                                  const std::string& subject, sig::Drbg& rng) {
  CertificateAuthority ca;
  ca.signer = &signer;
  sig::SigKeyPair kp = signer.generate_keypair(rng);
  ca.secret_key = kp.secret_key;
  ca.certificate.subject = subject;
  ca.certificate.issuer = subject;  // self-signed
  ca.certificate.key_algorithm = signer.name();
  ca.certificate.signature_algorithm = signer.name();
  ca.certificate.not_before = kValidFrom;
  ca.certificate.not_after = kValidTo;
  ca.certificate.subject_public_key = kp.public_key;
  ca.certificate.signature = signer.sign(ca.secret_key, ca.certificate.tbs(), rng);
  return ca;
}

Certificate issue_certificate(const CertificateAuthority& ca,
                              const std::string& subject,
                              const std::string& key_algorithm,
                              BytesView subject_public_key, sig::Drbg& rng) {
  Certificate cert;
  cert.subject = subject;
  cert.issuer = ca.certificate.subject;
  cert.key_algorithm = key_algorithm;
  cert.signature_algorithm = ca.signer->name();
  cert.not_before = kValidFrom;
  cert.not_after = kValidTo;
  cert.subject_public_key.assign(subject_public_key.begin(),
                                 subject_public_key.end());
  cert.signature = ca.signer->sign(ca.secret_key, cert.tbs(), rng);
  return cert;
}

std::string intermediate_subject(std::size_t level) {
  return "pqtls-bench intermediate CA " + std::to_string(level + 1);
}

IssuedChain issue_chain(const ChainProfile& profile,
                        const sig::Signer& leaf_signer,
                        const std::string& leaf_subject,
                        const std::string& root_subject, sig::Drbg& rng) {
  const sig::Signer* root_signer = &leaf_signer;
  if (!profile.root_sa.empty()) {
    root_signer = catalog_signer(profile.root_sa);
    if (!root_signer)
      throw std::runtime_error("issue_chain: unknown root SA " +
                               profile.root_sa);
  }
  IssuedChain issued;
  CertificateAuthority ca = make_root_ca(*root_signer, root_subject, rng);
  issued.root = ca.certificate;

  // Intermediates, root-nearest first; each is issued by the CA above it.
  std::vector<Certificate> intermediates;
  for (std::size_t i = 0; i < profile.intermediate_sas.size(); ++i) {
    const sig::Signer* signer = catalog_signer(profile.intermediate_sas[i]);
    if (!signer)
      throw std::runtime_error("issue_chain: unknown intermediate SA " +
                               profile.intermediate_sas[i]);
    sig::SigKeyPair kp = signer->generate_keypair(rng);
    Certificate cert = issue_certificate(ca, intermediate_subject(i),
                                         signer->name(), kp.public_key, rng);
    intermediates.push_back(cert);
    ca.certificate = std::move(cert);
    ca.secret_key = std::move(kp.secret_key);
    ca.signer = signer;
  }

  sig::SigKeyPair leaf_kp = leaf_signer.generate_keypair(rng);
  Certificate leaf = issue_certificate(ca, leaf_subject, leaf_signer.name(),
                                       leaf_kp.public_key, rng);
  issued.leaf_secret_key = std::move(leaf_kp.secret_key);

  // Wire order: leaf first, then intermediates leaf-nearest first.
  issued.chain.certificates.push_back(std::move(leaf));
  for (auto it = intermediates.rbegin(); it != intermediates.rend(); ++it)
    issued.chain.certificates.push_back(std::move(*it));
  return issued;
}

namespace {

// Encoded size of one certificate: four length-prefixed strings, two u64
// timestamps, and u32-prefixed public key and signature.
std::size_t cert_encoded_size(const std::string& subject,
                              const std::string& issuer,
                              const sig::Signer& key_sa,
                              const sig::Signer& issuer_sa) {
  return (2 + subject.size()) + (2 + issuer.size()) +
         (2 + key_sa.name().size()) + (2 + issuer_sa.name().size()) + 16 +
         (4 + key_sa.public_key_size()) + (4 + issuer_sa.signature_size());
}

}  // namespace

std::size_t chain_encoded_size(const ChainProfile& profile,
                               const sig::Signer& leaf_signer,
                               const std::string& leaf_subject,
                               const std::string& root_subject) {
  const sig::Signer* root_signer = &leaf_signer;
  if (!profile.root_sa.empty()) {
    root_signer = catalog_signer(profile.root_sa);
    if (!root_signer)
      throw std::runtime_error("chain_encoded_size: unknown root SA " +
                               profile.root_sa);
  }
  // Mirror issue_chain: walk the hierarchy top-down, accumulating the
  // wire-transmitted certificates (everything except the root).
  std::size_t total = 1;  // chain count byte
  const sig::Signer* issuer_sa = root_signer;
  std::string issuer_subject = root_subject;
  for (std::size_t i = 0; i < profile.intermediate_sas.size(); ++i) {
    const sig::Signer* signer = catalog_signer(profile.intermediate_sas[i]);
    if (!signer)
      throw std::runtime_error("chain_encoded_size: unknown intermediate SA " +
                               profile.intermediate_sas[i]);
    total += 4 + cert_encoded_size(intermediate_subject(i), issuer_subject,
                                   *signer, *issuer_sa);
    issuer_sa = signer;
    issuer_subject = intermediate_subject(i);
  }
  total += 4 + cert_encoded_size(leaf_subject, issuer_subject, leaf_signer,
                                 *issuer_sa);
  return total;
}

TrustAnchor::TrustAnchor() : state_(std::make_shared<State>()) {}

TrustAnchor::TrustAnchor(Certificate root) {
  auto state = std::make_shared<State>();
  state->root = std::move(root);
  const Certificate& cert = state->root;
  const sig::Signer* key_signer = catalog_signer(cert.key_algorithm);
  if (key_signer)
    state->public_key =
        key_signer->load_verifying_key(cert.subject_public_key);
  // A self-signed root (the usual case) checks itself with the key just
  // loaded.
  const sig::Signer* self_signer = catalog_signer(cert.signature_algorithm);
  if (self_signer)
    state->self_signature_valid =
        self_signer == key_signer
            ? self_signer->verify_with(*state->public_key, cert.tbs(),
                                       cert.signature)
            : self_signer->verify(cert.subject_public_key, cert.tbs(),
                                  cert.signature);
  state_ = std::move(state);
}

bool verify_chain(const CertificateChain& chain, const TrustAnchor& anchor,
                  std::uint64_t now) {
  if (!anchor.self_signature_valid() || chain.certificates.empty())
    return false;
  const Certificate& root = anchor.certificate();
  for (std::size_t i = 0; i < chain.certificates.size(); ++i) {
    const Certificate& cert = chain.certificates[i];
    if (now < cert.not_before || now > cert.not_after) return false;
    const bool last = i + 1 == chain.certificates.size();
    const Certificate& issuer = last ? root : chain.certificates[i + 1];
    if (cert.issuer != issuer.subject) return false;
    const sig::Signer* signer = catalog_signer(cert.signature_algorithm);
    if (!signer || signer->name() != issuer.key_algorithm) return false;
    // The anchor's key was loaded by the same catalog signer.
    bool ok = last ? signer->verify_with(*anchor.public_key(), cert.tbs(),
                                         cert.signature)
                   : signer->verify(issuer.subject_public_key, cert.tbs(),
                                    cert.signature);
    if (!ok) return false;
  }
  return true;
}

bool verify_chain(const CertificateChain& chain, const Certificate& root,
                  std::uint64_t now) {
  return verify_chain(chain, TrustAnchor(root), now);
}

}  // namespace pqtls::pki
