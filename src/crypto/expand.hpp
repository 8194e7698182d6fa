// Seed expansion for the lattice schemes: many independent streams, each
// keyed by (seed, nonce), read in lockstep four at a time. Kyber's matrix A
// and noise, and Dilithium's ExpandA, ExpandS and ExpandMask, all have
// this shape; running four SHAKE streams through one ShakeX4 lets the
// 4-way Keccak kernel do the work. Each stream stays exactly its own
// FIPS 202 (or AES-CTR) stream, so outputs do not depend on the grouping
// or on the backend.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <span>

#include "crypto/aes.hpp"
#include "crypto/bytes.hpp"
#include "crypto/keccak.hpp"

namespace pqtls::crypto {

/// How the stream for (seed, nonce) is derived.
struct StreamKind {
  /// false: SHAKE-`shake_bits`(seed || nonce), the nonce appended as
  /// `nonce_bytes` little-endian bytes. true (the Kyber-90s and
  /// Dilithium-AES variants): the AES-256-CTR keystream under the first 32
  /// seed bytes, the nonce little-endian in the first two IV bytes.
  bool aes;
  int shake_bits;
  std::size_t nonce_bytes;
};

/// Up to four streams advanced together.
class ExpandStreams {
 public:
  static constexpr std::size_t kLanes = ShakeX4::kLanes;

  /// nonces.size() must be 1..kLanes and the seed 32..64 bytes (throws
  /// std::invalid_argument otherwise).
  ExpandStreams(const StreamKind& kind, BytesView seed,
                std::span<const std::uint16_t> nonces);

  /// Next `len` bytes of every stream t into out[t]; null entries (and
  /// entries past nonces.size()) are skipped.
  void read(const std::array<std::uint8_t*, kLanes>& out, std::size_t len);

 private:
  bool aes_;
  ShakeX4 shake_;
  std::array<std::optional<AesCtr>, kLanes> ctr_;
};

/// out[t] = the first `len` bytes of stream (seed, nonces[t]), for every t.
void read_streams(const StreamKind& kind, BytesView seed,
                  std::span<const std::uint16_t> nonces,
                  std::span<std::uint8_t* const> out, std::size_t len);

/// Rejection sampling over the streams (seed, nonces[t]): feeds successive
/// kChunk-byte reads of stream t to parse(t, chunk) until it returns true
/// (stream t has all it needs). Groups of four read another chunk while
/// any of their streams still needs one.
template <std::size_t kChunk, typename Parse>
void sample_streams(const StreamKind& kind, BytesView seed,
                    std::span<const std::uint16_t> nonces, Parse parse) {
  constexpr std::size_t kLanes = ExpandStreams::kLanes;
  for (std::size_t base = 0; base < nonces.size(); base += kLanes) {
    const std::size_t n = std::min(kLanes, nonces.size() - base);
    ExpandStreams streams(kind, seed, nonces.subspan(base, n));
    std::uint8_t buf[kLanes][kChunk];
    std::array<std::uint8_t*, kLanes> live{};
    for (std::size_t t = 0; t < n; ++t) live[t] = buf[t];
    for (std::size_t left = n; left > 0;) {
      streams.read(live, kChunk);
      for (std::size_t t = 0; t < n; ++t) {
        if (live[t] != nullptr && parse(base + t, buf[t])) {
          live[t] = nullptr;
          --left;
        }
      }
    }
  }
}

}  // namespace pqtls::crypto
