// SHA-2 family (FIPS 180-4): SHA-224/256/384/512 plus HMAC and HKDF.
#pragma once

#include <array>
#include <cstdint>

#include "crypto/bytes.hpp"

namespace pqtls::crypto {

/// Incremental SHA-256. Whole blocks go to the backend's SHA-256 kernel
/// (crypto/backend: SHA-NI where the CPU has it, portable otherwise), each
/// run of consecutive blocks in one call.
class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;

  Sha256() { reset(); }
  void reset();
  void update(BytesView data);
  /// Finalizes and returns the digest; the object must be reset() to reuse.
  Bytes finish();

  static Bytes hash(BytesView data) {
    Sha256 h;
    h.update(data);
    return h.finish();
  }

 private:
  void compress(const std::uint8_t* blocks, std::size_t nblocks);

  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, kBlockSize> buffer_{};
  std::size_t buffered_ = 0;
  std::uint64_t total_ = 0;
};

/// Incremental SHA-512; SHA-384 reuses the compressor with a truncated output.
class Sha512 {
 public:
  static constexpr std::size_t kDigestSize = 64;
  static constexpr std::size_t kBlockSize = 128;

  explicit Sha512(bool is384 = false) : is384_(is384) { reset(); }
  void reset();
  void update(BytesView data);
  Bytes finish();

  static Bytes hash(BytesView data) {
    Sha512 h;
    h.update(data);
    return h.finish();
  }

 private:
  void compress(const std::uint8_t* block);

  std::array<std::uint64_t, 8> state_{};
  std::array<std::uint8_t, kBlockSize> buffer_{};
  std::size_t buffered_ = 0;
  std::uint64_t total_ = 0;
  bool is384_ = false;
};

inline Bytes sha256(BytesView data) { return Sha256::hash(data); }
inline Bytes sha512(BytesView data) { return Sha512::hash(data); }
Bytes sha384(BytesView data);

/// HMAC-SHA256 (RFC 2104).
Bytes hmac_sha256(BytesView key, BytesView data);
/// HMAC-SHA384.
Bytes hmac_sha384(BytesView key, BytesView data);

/// HKDF-Extract / HKDF-Expand with HMAC-SHA256 (RFC 5869). Expand throws
/// std::invalid_argument for length > 255 * 32 = 8160 bytes.
Bytes hkdf_extract_sha256(BytesView salt, BytesView ikm);
Bytes hkdf_expand_sha256(BytesView prk, BytesView info, std::size_t length);

/// MGF1-SHA256 mask generation (used by RSA-PSS style paddings and HQC).
Bytes mgf1_sha256(BytesView seed, std::size_t length);

}  // namespace pqtls::crypto
