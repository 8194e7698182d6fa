// Falcon NTRU-lattice signatures (falcon512 / falcon1024). Keygen solves the
// NTRU equation f*G - g*F = q with the recursive field-norm tower solver and
// iterated scaled-FFT Babai reduction; verification is exact arithmetic mod
// q = 12289; signing uses Babai round-off on the secret basis in FFT
// representation (a documented simplification of the reference ffSampling —
// identical sizes and asymptotics, see DESIGN.md fidelity notes).
#pragma once

#include "sig/sig.hpp"

namespace pqtls::sig {

class FalconSigner final : public Signer {
 public:
  /// degree must be 512 or 1024.
  explicit FalconSigner(int degree);

  const std::string& name() const override { return name_; }
  int security_level() const override { return level_; }
  bool is_post_quantum() const override { return true; }

  std::size_t public_key_size() const override { return 1 + n_ * 14 / 8; }
  std::size_t secret_key_size() const override { return 1 + 8 * n_; }
  /// Fixed padded signature size (666 / 1280), the TLS wire format.
  std::size_t signature_size() const override { return sig_bytes_; }

  SigKeyPair generate_keypair(Drbg& rng) const override;
  Bytes sign(BytesView secret_key, BytesView message, Drbg& rng) const override;
  bool verify(BytesView public_key, BytesView message,
              BytesView signature) const override;
  /// Unpacks f, g, F, G and takes their FFTs.
  std::shared_ptr<const SigningKey> load_signing_key(
      BytesView secret_key) const override;
  Bytes sign_with(const SigningKey& key, BytesView message,
                  Drbg& rng) const override;
  /// Unpacks h.
  std::shared_ptr<const VerifyingKey> load_verifying_key(
      BytesView public_key) const override;
  bool verify_with(const VerifyingKey& key, BytesView message,
                   BytesView signature) const override;

  static const FalconSigner& falcon512();
  static const FalconSigner& falcon1024();

 private:
  std::string name_;
  int level_;
  std::size_t n_;
  std::size_t sig_bytes_;
  std::int64_t beta_squared_;
};

}  // namespace pqtls::sig
