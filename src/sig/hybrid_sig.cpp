#include "sig/hybrid_sig.hpp"

#include <algorithm>
#include <stdexcept>

namespace pqtls::sig {

namespace {

// 4-byte big-endian length prefix for the (variable-size) classical part.
void put_len(Bytes& out, std::size_t len) {
  std::uint8_t be[4];
  store_be32(be, static_cast<std::uint32_t>(len));
  append(out, {be, 4});
}

std::size_t get_len(BytesView in) { return load_be32(in.data()); }

}  // namespace

HybridSigner::HybridSigner(const Signer& classical, const Signer& post_quantum,
                           std::string name)
    : classical_(classical), pq_(post_quantum), name_(std::move(name)) {
  level_ = std::min(classical.security_level(), pq_.security_level());
}

SigKeyPair HybridSigner::generate_keypair(Drbg& rng) const {
  SigKeyPair c = classical_.generate_keypair(rng);
  SigKeyPair p = pq_.generate_keypair(rng);
  SigKeyPair out;
  put_len(out.public_key, c.public_key.size());
  append(out.public_key, c.public_key);
  append(out.public_key, p.public_key);
  put_len(out.secret_key, c.secret_key.size());
  append(out.secret_key, c.secret_key);
  append(out.secret_key, p.secret_key);
  return out;
}

namespace {

// The components' loaded keys; the composite does no per-key work itself.
struct HybridSigningKey final : SigningKey {
  using SigningKey::SigningKey;

  std::shared_ptr<const SigningKey> classical, pq;
};

// Null components (verifying nothing) when the composite encoding is
// malformed.
struct HybridVerifyingKey final : VerifyingKey {
  using VerifyingKey::VerifyingKey;

  std::shared_ptr<const VerifyingKey> classical, pq;
};

}  // namespace

std::shared_ptr<const SigningKey> HybridSigner::load_signing_key(
    BytesView secret_key) const {
  if (secret_key.size() < 4 || 4 + get_len(secret_key) > secret_key.size())
    throw std::invalid_argument(name_ + ": malformed composite secret key");
  std::size_t c_len = get_len(secret_key);
  auto loaded = std::make_shared<HybridSigningKey>(*this);
  loaded->classical = classical_.load_signing_key(secret_key.subspan(4, c_len));
  loaded->pq = pq_.load_signing_key(secret_key.subspan(4 + c_len));
  return loaded;
}

Bytes HybridSigner::sign(BytesView secret_key, BytesView message,
                         Drbg& rng) const {
  return sign_with(*load_signing_key(secret_key), message, rng);
}

Bytes HybridSigner::sign_with(const SigningKey& key, BytesView message,
                              Drbg& rng) const {
  const auto& sk = own<HybridSigningKey>(key);
  Bytes c_sig = classical_.sign_with(*sk.classical, message, rng);
  Bytes p_sig = pq_.sign_with(*sk.pq, message, rng);
  Bytes out;
  put_len(out, c_sig.size());
  append(out, c_sig);
  append(out, p_sig);
  // Pad to the declared fixed size so wire sizes are deterministic.
  out.resize(signature_size(), 0);
  return out;
}

std::shared_ptr<const VerifyingKey> HybridSigner::load_verifying_key(
    BytesView public_key) const {
  auto loaded = std::make_shared<HybridVerifyingKey>(*this);
  if (public_key.size() < 4 || 4 + get_len(public_key) > public_key.size())
    return loaded;
  std::size_t c_pk_len = get_len(public_key);
  loaded->classical =
      classical_.load_verifying_key(public_key.subspan(4, c_pk_len));
  loaded->pq = pq_.load_verifying_key(public_key.subspan(4 + c_pk_len));
  return loaded;
}

bool HybridSigner::verify(BytesView public_key, BytesView message,
                          BytesView signature) const {
  return verify_with(*load_verifying_key(public_key), message, signature);
}

bool HybridSigner::verify_with(const VerifyingKey& key, BytesView message,
                               BytesView signature) const {
  const auto& pk = own<HybridVerifyingKey>(key);
  if (!pk.classical || signature.size() != signature_size()) return false;

  std::size_t c_sig_len = get_len(signature);
  if (4 + c_sig_len + pq_.signature_size() > signature.size()) return false;
  BytesView c_sig = signature.subspan(4, c_sig_len);
  BytesView p_sig = signature.subspan(4 + c_sig_len, pq_.signature_size());
  // Trailing padding must be zero.
  for (std::size_t i = 4 + c_sig_len + pq_.signature_size();
       i < signature.size(); ++i)
    if (signature[i] != 0) return false;

  return classical_.verify_with(*pk.classical, message, c_sig) &&
         pq_.verify_with(*pk.pq, message, p_sig);
}

}  // namespace pqtls::sig
