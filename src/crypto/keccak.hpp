// Keccak-f[1600] sponge: SHA3-256/512 and the SHAKE-128/256 XOFs (FIPS 202),
// plus ShakeX4, four independent SHAKE streams advanced by one 4-way
// permutation.
#pragma once

#include <array>
#include <cstdint>

#include "crypto/bytes.hpp"

namespace pqtls::crypto {

/// The scalar Keccak-f[1600] permutation, in place on 25 lanes laid out as
/// state[x + 5y]. Every sponge below uses it.
void keccak_f1600(std::uint64_t* state);

/// Sponge over Keccak-f[1600]. Parameterized by rate and domain separator.
class KeccakSponge {
 public:
  KeccakSponge(std::size_t rate_bytes, std::uint8_t domain)
      : rate_(rate_bytes), domain_(domain) {}

  void absorb(BytesView data);
  /// Switch to squeezing (idempotent); then produce output incrementally.
  void squeeze(std::uint8_t* out, std::size_t len);
  Bytes squeeze(std::size_t len) {
    Bytes out(len);
    squeeze(out.data(), len);
    return out;
  }
  void reset();

 private:
  void pad();

  std::array<std::uint64_t, 25> state_{};
  std::size_t rate_;
  std::uint8_t domain_;
  std::size_t offset_ = 0;  // absorb or squeeze position within the rate
  bool squeezing_ = false;
};

/// One-shot SHA3-256 / SHA3-512.
Bytes sha3_256(BytesView data);
Bytes sha3_512(BytesView data);

/// Incremental SHAKE XOF.
class Shake {
 public:
  /// bits must be 128 or 256.
  explicit Shake(int bits)
      : sponge_(bits == 128 ? 168 : 136, 0x1f) {}
  void absorb(BytesView data) { sponge_.absorb(data); }
  void squeeze(std::uint8_t* out, std::size_t len) { sponge_.squeeze(out, len); }
  Bytes squeeze(std::size_t len) { return sponge_.squeeze(len); }

 private:
  KeccakSponge sponge_;
};

Bytes shake128(BytesView data, std::size_t out_len);
Bytes shake256(BytesView data, std::size_t out_len);

/// Four independent SHAKE instances in lockstep: every block costs one
/// 4-way Keccak-f[1600] call through the backend's KeccakKernels (AVX2
/// when selected and available). Lane i outputs exactly SHAKE(inputs[i]),
/// byte for byte, whichever kernel runs.
class ShakeX4 {
 public:
  static constexpr std::size_t kLanes = 4;

  /// bits must be 128 or 256.
  explicit ShakeX4(int bits) : rate_(bits == 128 ? 168 : 136) {}

  /// Absorbs one whole message per lane and pads; call once, before any
  /// squeeze. The messages must have equal length (throws
  /// std::invalid_argument otherwise).
  void absorb(const std::array<BytesView, kLanes>& inputs);
  /// Next `len` output bytes of every lane; out[i] may be null to discard
  /// lane i.
  void squeeze(const std::array<std::uint8_t*, kLanes>& out, std::size_t len);

 private:
  alignas(32) std::uint64_t state_[25 * kLanes] = {};
  std::size_t rate_;
  std::size_t offset_ = 0;  // squeeze position within the rate
};

}  // namespace pqtls::crypto
