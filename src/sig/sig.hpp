// Uniform signature-algorithm interface. Covers the paper's 22 SA
// configurations: RSA, Falcon, Dilithium (+_aes), SPHINCS+, and the
// ECDSA/RSA-hybrid composites.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "crypto/bytes.hpp"
#include "crypto/drbg.hpp"

namespace pqtls::sig {

using crypto::Drbg;

struct SigKeyPair {
  Bytes public_key;
  Bytes secret_key;
};

class Signer;

/// A secret key after its signer's per-key work (unpacking, expansion,
/// NTT/FFT precomputation). Immutable once loaded, so one key may serve
/// concurrent sign_with calls; it only signs under the signer that loaded it.
class SigningKey {
 public:
  explicit SigningKey(const Signer& signer) : signer_(&signer) {}
  virtual ~SigningKey() = default;
  SigningKey(const SigningKey&) = delete;
  SigningKey& operator=(const SigningKey&) = delete;

  const Signer& signer() const { return *signer_; }

 private:
  const Signer* signer_;
};

/// A public key after its signer's per-key work; the verify-side twin of
/// SigningKey. A malformed public key loads to one that verifies nothing.
class VerifyingKey {
 public:
  explicit VerifyingKey(const Signer& signer) : signer_(&signer) {}
  virtual ~VerifyingKey() = default;
  VerifyingKey(const VerifyingKey&) = delete;
  VerifyingKey& operator=(const VerifyingKey&) = delete;

  const Signer& signer() const { return *signer_; }

 private:
  const Signer* signer_;
};

class Signer {
 public:
  virtual ~Signer() = default;

  /// Registry name as used by the paper, e.g. "dilithium2", "rsa:2048".
  virtual const std::string& name() const = 0;
  virtual int security_level() const = 0;
  virtual bool is_hybrid() const { return false; }
  virtual bool is_post_quantum() const = 0;

  virtual std::size_t public_key_size() const = 0;
  virtual std::size_t secret_key_size() const = 0;
  /// Maximum signature size; variable-size schemes (Falcon, ECDSA) may
  /// produce shorter signatures.
  virtual std::size_t signature_size() const = 0;

  virtual SigKeyPair generate_keypair(Drbg& rng) const = 0;
  /// Throws std::invalid_argument on a malformed secret key.
  virtual Bytes sign(BytesView secret_key, BytesView message,
                     Drbg& rng) const = 0;
  virtual bool verify(BytesView public_key, BytesView message,
                      BytesView signature) const = 0;

  /// Key-loading seam: do the per-key work once, then sign or verify any
  /// number of messages with it. sign_with(*load_signing_key(sk), m, rng)
  /// returns exactly sign(sk, m, rng) from the same DRBG state, and
  /// verify_with(*load_verifying_key(pk), m, s) == verify(pk, m, s).
  /// The defaults keep the raw bytes and call the byte API; schemes with
  /// per-key work override all four and route the byte API through them.
  ///
  /// load_signing_key throws std::invalid_argument on a secret key of the
  /// wrong length where the scheme checks at load; the defaults defer every
  /// check to sign(). load_verifying_key never throws.
  virtual std::shared_ptr<const SigningKey> load_signing_key(
      BytesView secret_key) const;
  /// Throws std::invalid_argument when `key` was loaded by another signer.
  virtual Bytes sign_with(const SigningKey& key, BytesView message,
                          Drbg& rng) const;
  virtual std::shared_ptr<const VerifyingKey> load_verifying_key(
      BytesView public_key) const;
  virtual bool verify_with(const VerifyingKey& key, BytesView message,
                           BytesView signature) const;

  /// Batch verification under one public key: element i is 1 iff
  /// verify(public_key, messages[i], signatures[i]). The key is loaded
  /// once for the whole batch.
  std::vector<std::uint8_t> verify_batch(
      BytesView public_key, const std::vector<BytesView>& messages,
      const std::vector<BytesView>& signatures) const;

 protected:
  /// `key` as the concrete type this signer loads; throws
  /// std::invalid_argument when another signer loaded it.
  template <typename Key, typename Base>
  const Key& own(const Base& key) const {
    if (&key.signer() != this)
      throw std::invalid_argument(name() + ": key was loaded by " +
                                  key.signer().name());
    return static_cast<const Key&>(key);
  }
};

/// All signature algorithms measured by the paper (Table 2b) plus the
/// rsa3072_dilithium2 hybrid from Table 4b.
const std::vector<const Signer*>& all_signers();
const Signer* find_signer(const std::string& name);

}  // namespace pqtls::sig
