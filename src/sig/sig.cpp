// Default key-loading seam for schemes without per-key work (RSA, ECDSA,
// SPHINCS+): a loaded key is a copy of its bytes, and signing or verifying
// with it is the byte API.
#include "sig/sig.hpp"

#include <algorithm>

#include "crypto/ct.hpp"

namespace pqtls::sig {

namespace {

struct RawSigningKey final : SigningKey {
  RawSigningKey(const Signer& signer, BytesView bytes)
      : SigningKey(signer), secret_key(bytes.begin(), bytes.end()) {}
  ~RawSigningKey() override { ct::wipe(secret_key); }

  Bytes secret_key;  // CT_SECRET
};

struct RawVerifyingKey final : VerifyingKey {
  RawVerifyingKey(const Signer& signer, BytesView bytes)
      : VerifyingKey(signer), public_key(bytes.begin(), bytes.end()) {}

  Bytes public_key;
};

}  // namespace

std::shared_ptr<const SigningKey> Signer::load_signing_key(
    BytesView secret_key) const {
  return std::make_shared<RawSigningKey>(*this, secret_key);
}

Bytes Signer::sign_with(const SigningKey& key, BytesView message,
                        Drbg& rng) const {
  return sign(own<RawSigningKey>(key).secret_key, message, rng);
}

std::shared_ptr<const VerifyingKey> Signer::load_verifying_key(
    BytesView public_key) const {
  return std::make_shared<RawVerifyingKey>(*this, public_key);
}

bool Signer::verify_with(const VerifyingKey& key, BytesView message,
                         BytesView signature) const {
  return verify(own<RawVerifyingKey>(key).public_key, message, signature);
}

std::vector<std::uint8_t> Signer::verify_batch(
    BytesView public_key, const std::vector<BytesView>& messages,
    const std::vector<BytesView>& signatures) const {
  std::size_t n = std::min(messages.size(), signatures.size());
  std::vector<std::uint8_t> out(n, 0);
  std::shared_ptr<const VerifyingKey> key = load_verifying_key(public_key);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = verify_with(*key, messages[i], signatures[i]) ? 1 : 0;
  return out;
}

}  // namespace pqtls::sig
