#include "crypto/keccak.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "crypto/backend/backend.hpp"
#include "crypto/backend/keccak_f1600.hpp"

namespace pqtls::crypto {

// Squeezing copies lane bytes straight out of the state words.
static_assert(std::endian::native == std::endian::little,
              "Keccak lanes are read as little-endian host words");

void keccak_f1600(std::uint64_t* state) {
  backend::detail::keccak_f1600(state);
}

void KeccakSponge::reset() {
  state_.fill(0);
  offset_ = 0;
  squeezing_ = false;
}

void KeccakSponge::absorb(BytesView data) {
  const std::uint8_t* in = data.data();
  std::size_t len = data.size();
  while (len > 0) {
    if (offset_ == 0 && len >= rate_) {  // a whole block, lane by lane
      for (std::size_t i = 0; i < rate_ / 8; ++i)
        state_[i] ^= load_le64(in + 8 * i);
      offset_ = rate_;
      in += rate_;
      len -= rate_;
    } else if (offset_ % 8 == 0 && len >= 8) {  // rate_ is a lane multiple
      state_[offset_ / 8] ^= load_le64(in);
      offset_ += 8;
      in += 8;
      len -= 8;
    } else {
      state_[offset_ / 8] ^= std::uint64_t{*in} << (8 * (offset_ % 8));
      ++offset_;
      ++in;
      --len;
    }
    if (offset_ == rate_) {
      keccak_f1600(state_.data());
      offset_ = 0;
    }
  }
}

void KeccakSponge::pad() {
  state_[offset_ / 8] ^= std::uint64_t{domain_} << (8 * (offset_ % 8));
  state_[(rate_ - 1) / 8] ^= std::uint64_t{0x80} << (8 * ((rate_ - 1) % 8));
  keccak_f1600(state_.data());
  offset_ = 0;
  squeezing_ = true;
}

void KeccakSponge::squeeze(std::uint8_t* out, std::size_t len) {
  if (!squeezing_) pad();
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(state_.data());
  while (len > 0) {
    if (offset_ == rate_) {
      keccak_f1600(state_.data());
      offset_ = 0;
    }
    std::size_t take = std::min(len, rate_ - offset_);
    std::memcpy(out, bytes + offset_, take);
    out += take;
    len -= take;
    offset_ += take;
  }
}

Bytes sha3_256(BytesView data) {
  KeccakSponge sponge(136, 0x06);
  sponge.absorb(data);
  return sponge.squeeze(32);
}

Bytes sha3_512(BytesView data) {
  KeccakSponge sponge(72, 0x06);
  sponge.absorb(data);
  return sponge.squeeze(64);
}

Bytes shake128(BytesView data, std::size_t out_len) {
  Shake xof(128);
  xof.absorb(data);
  return xof.squeeze(out_len);
}

Bytes shake256(BytesView data, std::size_t out_len) {
  Shake xof(256);
  xof.absorb(data);
  return xof.squeeze(out_len);
}

void ShakeX4::absorb(const std::array<BytesView, kLanes>& inputs) {
  const std::size_t len = inputs[0].size();
  for (const BytesView& in : inputs)
    if (in.size() != len)
      throw std::invalid_argument("ShakeX4: inputs must have equal length");
  const auto& kernels = backend::keccak_kernels();
  std::size_t pos = 0;
  for (; len - pos >= rate_; pos += rate_) {
    for (std::size_t i = 0; i < rate_ / 8; ++i)
      for (std::size_t j = 0; j < kLanes; ++j)
        state_[kLanes * i + j] ^= load_le64(inputs[j].data() + pos + 8 * i);
    kernels.permute_x4(state_);
  }
  // Final partial block, then the SHAKE padding 0x1f .. 0x80.
  const std::size_t end = len - pos;
  for (std::size_t b = 0; b < end; ++b)
    for (std::size_t j = 0; j < kLanes; ++j)
      state_[kLanes * (b / 8) + j] ^= std::uint64_t{inputs[j][pos + b]}
                                      << (8 * (b % 8));
  for (std::size_t j = 0; j < kLanes; ++j) {
    state_[kLanes * (end / 8) + j] ^= std::uint64_t{0x1f} << (8 * (end % 8));
    state_[kLanes * ((rate_ - 1) / 8) + j] ^= std::uint64_t{0x80} << 56;
  }
  offset_ = rate_;  // the first squeeze permutes
}

void ShakeX4::squeeze(const std::array<std::uint8_t*, kLanes>& out,
                      std::size_t len) {
  std::array<std::uint8_t*, kLanes> dst = out;
  while (len > 0) {
    if (offset_ == rate_) {
      backend::keccak_kernels().permute_x4(state_);
      offset_ = 0;
    }
    const std::size_t take = std::min(len, rate_ - offset_);
    for (std::size_t j = 0; j < kLanes; ++j) {
      if (dst[j] == nullptr) continue;
      // Lane j's byte b lives in word b / 8 of state j.
      for (std::size_t b = offset_; b < offset_ + take;) {
        const std::size_t in_word = b % 8;
        const std::size_t n = std::min<std::size_t>(8 - in_word,
                                                    offset_ + take - b);
        std::memcpy(dst[j],
                    reinterpret_cast<const std::uint8_t*>(
                        &state_[kLanes * (b / 8) + j]) +
                        in_word,
                    n);
        dst[j] += n;
        b += n;
      }
    }
    offset_ += take;
    len -= take;
  }
}

}  // namespace pqtls::crypto
