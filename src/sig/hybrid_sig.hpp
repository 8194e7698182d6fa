// Composite (hybrid) signatures per draft-ounsworth-pq-composite-sigs: both
// component signatures must verify. Used for the paper's hybrid SAs
// (p256_falcon512, p384_dilithium3, rsa3072_dilithium2, ...).
#pragma once

#include "sig/sig.hpp"

namespace pqtls::sig {

class HybridSigner final : public Signer {
 public:
  /// `name` override allows the paper's naming (e.g. "p256_falcon512"
  /// instead of "ecdsa_p256_falcon512").
  HybridSigner(const Signer& classical, const Signer& post_quantum,
               std::string name);

  const std::string& name() const override { return name_; }
  int security_level() const override { return level_; }
  bool is_hybrid() const override { return true; }
  bool is_post_quantum() const override { return true; }

  std::size_t public_key_size() const override {
    return 4 + classical_.public_key_size() + pq_.public_key_size();
  }
  std::size_t secret_key_size() const override {
    return 4 + classical_.secret_key_size() + pq_.secret_key_size();
  }
  std::size_t signature_size() const override {
    return 4 + classical_.signature_size() + pq_.signature_size();
  }

  SigKeyPair generate_keypair(Drbg& rng) const override;
  Bytes sign(BytesView secret_key, BytesView message, Drbg& rng) const override;
  bool verify(BytesView public_key, BytesView message,
              BytesView signature) const override;
  /// Splits the composite key and loads each component.
  std::shared_ptr<const SigningKey> load_signing_key(
      BytesView secret_key) const override;
  Bytes sign_with(const SigningKey& key, BytesView message,
                  Drbg& rng) const override;
  std::shared_ptr<const VerifyingKey> load_verifying_key(
      BytesView public_key) const override;
  bool verify_with(const VerifyingKey& key, BytesView message,
                   BytesView signature) const override;

 private:
  const Signer& classical_;
  const Signer& pq_;
  std::string name_;
  int level_;
};

}  // namespace pqtls::sig
