// AES-128/192/256 block cipher with CTR and GCM modes (FIPS 197, SP 800-38D).
// Only the forward (encryption) direction is implemented: CTR and GCM are
// encrypt-only constructions and Haraka uses unkeyed forward rounds.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "crypto/bytes.hpp"

namespace pqtls::crypto {

/// Key-scheduled AES block encryptor.
class Aes {
 public:
  /// key must be 16, 24, or 32 bytes.
  explicit Aes(BytesView key);

  /// Encrypt one 16-byte block in place (out may alias in).
  void encrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const;

  int rounds() const { return rounds_; }

  /// One unkeyed AES round (SubBytes+ShiftRows+MixColumns then XOR rk):
  /// the building block of Haraka.
  static void aesenc(std::uint8_t state[16], const std::uint8_t rk[16]);

 private:
  std::array<std::uint32_t, 60> round_keys_{};
  int rounds_ = 0;
};

/// AES-CTR keystream/encryption. The 16-byte counter block is incremented
/// big-endian over its last 4 bytes (GCM convention) or the whole block
/// depending on `wide_counter`.
class AesCtr {
 public:
  AesCtr(BytesView key, BytesView iv16, bool wide_counter = false);

  /// XOR the keystream into data (encrypt == decrypt).
  void crypt(std::uint8_t* data, std::size_t len);
  Bytes crypt(BytesView data) {
    Bytes out(data.begin(), data.end());
    crypt(out.data(), out.size());
    return out;
  }
  /// Produce raw keystream bytes (used as a PRF by Kyber-90s / Dilithium-AES).
  void keystream(std::uint8_t* out, std::size_t len);

 private:
  void next_block();

  Aes aes_;
  std::array<std::uint8_t, 16> counter_{};
  std::array<std::uint8_t, 16> block_{};
  std::size_t used_ = 16;
  bool wide_counter_;
};

/// AES-GCM AEAD.
class AesGcm {
 public:
  static constexpr std::size_t kTagSize = 16;

  explicit AesGcm(BytesView key);

  /// Returns ciphertext || 16-byte tag. seal and open both throw
  /// std::invalid_argument unless the nonce is 12 bytes.
  Bytes seal(BytesView nonce12, BytesView aad, BytesView plaintext) const;
  /// Returns plaintext, or nullopt if authentication fails.
  std::optional<Bytes> open(BytesView nonce12, BytesView aad,
                            BytesView ciphertext_and_tag) const;

 private:
  void ghash(std::uint8_t acc[16], BytesView data) const;
  void gmul(std::uint8_t x[16]) const;

  Aes aes_;
  // Shoup 4-bit tables for GHASH: (i * H) for i in 0..15, split in 64-bit halves.
  std::array<std::uint64_t, 16> hh_{};
  std::array<std::uint64_t, 16> hl_{};
};

}  // namespace pqtls::crypto
