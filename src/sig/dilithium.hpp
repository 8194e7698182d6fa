// CRYSTALS-Dilithium (round 3) signatures at NIST levels 2/3/5, with the
// "_aes" variants that swap the SHAKE-based expansion for AES-256-CTR — both
// families are measured by the paper (dilithium2 vs dilithium2_aes, ...).
#pragma once

#include "sig/sig.hpp"

namespace pqtls::sig {

class DilithiumSigner final : public Signer {
 public:
  /// level in {2, 3, 5}; use_aes selects the AES-CTR expansion variant.
  DilithiumSigner(int level, bool use_aes);

  const std::string& name() const override { return name_; }
  int security_level() const override { return level_; }
  bool is_post_quantum() const override { return true; }

  std::size_t public_key_size() const override;
  std::size_t secret_key_size() const override;
  std::size_t signature_size() const override;

  SigKeyPair generate_keypair(Drbg& rng) const override;
  Bytes sign(BytesView secret_key, BytesView message, Drbg& rng) const override;
  bool verify(BytesView public_key, BytesView message,
              BytesView signature) const override;
  /// Unpacks the key, expands A and takes the NTTs of s1, s2 and t0.
  std::shared_ptr<const SigningKey> load_signing_key(
      BytesView secret_key) const override;
  Bytes sign_with(const SigningKey& key, BytesView message,
                  Drbg& rng) const override;
  /// Expands A and takes the NTTs of t1 * 2^d; hashes tr = H(pk).
  std::shared_ptr<const VerifyingKey> load_verifying_key(
      BytesView public_key) const override;
  bool verify_with(const VerifyingKey& key, BytesView message,
                   BytesView signature) const override;

  static const DilithiumSigner& dilithium2();
  static const DilithiumSigner& dilithium3();
  static const DilithiumSigner& dilithium5();
  static const DilithiumSigner& dilithium2_aes();
  static const DilithiumSigner& dilithium3_aes();
  static const DilithiumSigner& dilithium5_aes();

 private:
  std::string name_;
  int level_;
  int k_, l_, eta_, tau_, beta_, omega_;
  std::int32_t gamma1_, gamma2_;
  bool use_aes_;
};

}  // namespace pqtls::sig
