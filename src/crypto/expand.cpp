#include "crypto/expand.hpp"

#include <cstring>
#include <stdexcept>

namespace pqtls::crypto {

namespace {
constexpr std::size_t kMaxSeed = 64;
}  // namespace

ExpandStreams::ExpandStreams(const StreamKind& kind, BytesView seed,
                             std::span<const std::uint16_t> nonces)
    : aes_(kind.aes), shake_(kind.shake_bits) {
  if (nonces.empty() || nonces.size() > kLanes || seed.size() < 32 ||
      seed.size() > kMaxSeed)
    throw std::invalid_argument(
        "ExpandStreams: 1..4 nonces, seed of 32..64 bytes");
  if (aes_) {
    for (std::size_t t = 0; t < nonces.size(); ++t) {
      std::uint8_t iv[16] = {static_cast<std::uint8_t>(nonces[t]),
                             static_cast<std::uint8_t>(nonces[t] >> 8)};
      ctr_[t].emplace(seed.first(32), BytesView{iv, 16});
    }
    return;
  }
  // Lanes past nonces.size() absorb a copy of lane 0; nothing reads them.
  std::uint8_t msgs[kLanes][kMaxSeed + 2];
  std::array<BytesView, kLanes> inputs;
  const std::size_t len = seed.size() + kind.nonce_bytes;
  for (std::size_t t = 0; t < kLanes; ++t) {
    const std::uint16_t nonce = nonces[t < nonces.size() ? t : 0];
    std::memcpy(msgs[t], seed.data(), seed.size());
    msgs[t][seed.size()] = static_cast<std::uint8_t>(nonce);
    msgs[t][seed.size() + 1] = static_cast<std::uint8_t>(nonce >> 8);
    inputs[t] = BytesView{msgs[t], len};
  }
  shake_.absorb(inputs);
}

void ExpandStreams::read(const std::array<std::uint8_t*, kLanes>& out,
                         std::size_t len) {
  if (!aes_) {
    shake_.squeeze(out, len);
    return;
  }
  for (std::size_t t = 0; t < kLanes; ++t)
    if (out[t] != nullptr && ctr_[t]) ctr_[t]->keystream(out[t], len);
}

void read_streams(const StreamKind& kind, BytesView seed,
                  std::span<const std::uint16_t> nonces,
                  std::span<std::uint8_t* const> out, std::size_t len) {
  constexpr std::size_t kLanes = ExpandStreams::kLanes;
  for (std::size_t base = 0; base < nonces.size(); base += kLanes) {
    const std::size_t n = std::min(kLanes, nonces.size() - base);
    ExpandStreams streams(kind, seed, nonces.subspan(base, n));
    std::array<std::uint8_t*, kLanes> dst{};
    for (std::size_t t = 0; t < n; ++t) dst[t] = out[base + t];
    streams.read(dst, len);
  }
}

}  // namespace pqtls::crypto
