#include "crypto/aes.hpp"

#include "crypto/ct.hpp"

#include <stdexcept>

namespace pqtls::crypto {

namespace {

// S-box and T-tables are generated once at startup from the GF(2^8) algebra
// instead of being transcribed, eliminating a whole class of typo bugs.
struct AesTables {
  std::uint8_t sbox[256];
  std::uint32_t te0[256], te1[256], te2[256], te3[256];
  std::uint32_t rcon[10];

  AesTables() {
    auto xtime = [](std::uint8_t x) -> std::uint8_t {
      return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
    };
    // Build the S-box from the multiplicative inverse + affine transform,
    // walking GF(2^8)* with generator 3.
    std::uint8_t p = 1, q = 1;
    do {
      p = static_cast<std::uint8_t>(p ^ (p << 1) ^ ((p >> 7) * 0x1b));  // p *= 3
      // q /= 3
      q ^= static_cast<std::uint8_t>(q << 1);
      q ^= static_cast<std::uint8_t>(q << 2);
      q ^= static_cast<std::uint8_t>(q << 4);
      if (q & 0x80) q ^= 0x09;
      auto rotl8 = [](std::uint8_t x, int n) -> std::uint8_t {
        return static_cast<std::uint8_t>((x << n) | (x >> (8 - n)));
      };
      std::uint8_t xformed = static_cast<std::uint8_t>(
          q ^ rotl8(q, 1) ^ rotl8(q, 2) ^ rotl8(q, 3) ^ rotl8(q, 4));
      sbox[p] = xformed ^ 0x63;
    } while (p != 1);
    sbox[0] = 0x63;

    for (int i = 0; i < 256; ++i) {
      std::uint8_t s = sbox[i];
      std::uint8_t s2 = xtime(s);
      std::uint8_t s3 = static_cast<std::uint8_t>(s2 ^ s);
      te0[i] = (std::uint32_t{s2} << 24) | (std::uint32_t{s} << 16) |
               (std::uint32_t{s} << 8) | s3;
      te1[i] = (te0[i] >> 8) | (te0[i] << 24);
      te2[i] = (te0[i] >> 16) | (te0[i] << 16);
      te3[i] = (te0[i] >> 24) | (te0[i] << 8);
    }

    std::uint8_t rc = 1;
    for (int i = 0; i < 10; ++i) {
      rcon[i] = std::uint32_t{rc} << 24;
      rc = xtime(rc);
    }
  }
};

const AesTables& tables() {
  static const AesTables t;
  return t;
}

std::uint32_t sub_word(std::uint32_t w) {
  const auto& t = tables();
  return (std::uint32_t{t.sbox[(w >> 24) & 0xff]} << 24) |
         (std::uint32_t{t.sbox[(w >> 16) & 0xff]} << 16) |
         (std::uint32_t{t.sbox[(w >> 8) & 0xff]} << 8) |
         std::uint32_t{t.sbox[w & 0xff]};
}

}  // namespace

Aes::Aes(BytesView key) {
  const auto& t = tables();
  std::size_t nk = key.size() / 4;
  if (key.size() != 16 && key.size() != 24 && key.size() != 32)
    throw std::invalid_argument("AES key must be 16/24/32 bytes");
  rounds_ = static_cast<int>(nk) + 6;
  std::size_t nwords = 4 * (rounds_ + 1);
  for (std::size_t i = 0; i < nk; ++i)
    round_keys_[i] = load_be32(key.data() + 4 * i);
  for (std::size_t i = nk; i < nwords; ++i) {
    std::uint32_t temp = round_keys_[i - 1];
    if (i % nk == 0) {
      temp = sub_word((temp << 8) | (temp >> 24)) ^ t.rcon[i / nk - 1];
    } else if (nk > 6 && i % nk == 4) {
      temp = sub_word(temp);
    }
    round_keys_[i] = round_keys_[i - nk] ^ temp;
  }
}

void Aes::encrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const {
  const auto& t = tables();
  const std::uint32_t* rk = round_keys_.data();
  std::uint32_t s0 = load_be32(in) ^ rk[0];
  std::uint32_t s1 = load_be32(in + 4) ^ rk[1];
  std::uint32_t s2 = load_be32(in + 8) ^ rk[2];
  std::uint32_t s3 = load_be32(in + 12) ^ rk[3];
  rk += 4;
  for (int round = 1; round < rounds_; ++round) {
    std::uint32_t t0 = t.te0[s0 >> 24] ^ t.te1[(s1 >> 16) & 0xff] ^
                       t.te2[(s2 >> 8) & 0xff] ^ t.te3[s3 & 0xff] ^ rk[0];
    std::uint32_t t1 = t.te0[s1 >> 24] ^ t.te1[(s2 >> 16) & 0xff] ^
                       t.te2[(s3 >> 8) & 0xff] ^ t.te3[s0 & 0xff] ^ rk[1];
    std::uint32_t t2 = t.te0[s2 >> 24] ^ t.te1[(s3 >> 16) & 0xff] ^
                       t.te2[(s0 >> 8) & 0xff] ^ t.te3[s1 & 0xff] ^ rk[2];
    std::uint32_t t3 = t.te0[s3 >> 24] ^ t.te1[(s0 >> 16) & 0xff] ^
                       t.te2[(s1 >> 8) & 0xff] ^ t.te3[s2 & 0xff] ^ rk[3];
    s0 = t0; s1 = t1; s2 = t2; s3 = t3;
    rk += 4;
  }
  // Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
  auto final_word = [&](std::uint32_t a, std::uint32_t b, std::uint32_t c,
                        std::uint32_t d, std::uint32_t k) {
    return ((std::uint32_t{t.sbox[a >> 24]} << 24) |
            (std::uint32_t{t.sbox[(b >> 16) & 0xff]} << 16) |
            (std::uint32_t{t.sbox[(c >> 8) & 0xff]} << 8) |
            std::uint32_t{t.sbox[d & 0xff]}) ^
           k;
  };
  std::uint32_t o0 = final_word(s0, s1, s2, s3, rk[0]);
  std::uint32_t o1 = final_word(s1, s2, s3, s0, rk[1]);
  std::uint32_t o2 = final_word(s2, s3, s0, s1, rk[2]);
  std::uint32_t o3 = final_word(s3, s0, s1, s2, rk[3]);
  store_be32(out, o0);
  store_be32(out + 4, o1);
  store_be32(out + 8, o2);
  store_be32(out + 12, o3);
}

void Aes::aesenc(std::uint8_t state[16], const std::uint8_t rk[16]) {
  const auto& t = tables();
  std::uint32_t s0 = load_be32(state);
  std::uint32_t s1 = load_be32(state + 4);
  std::uint32_t s2 = load_be32(state + 8);
  std::uint32_t s3 = load_be32(state + 12);
  std::uint32_t t0 = t.te0[s0 >> 24] ^ t.te1[(s1 >> 16) & 0xff] ^
                     t.te2[(s2 >> 8) & 0xff] ^ t.te3[s3 & 0xff];
  std::uint32_t t1 = t.te0[s1 >> 24] ^ t.te1[(s2 >> 16) & 0xff] ^
                     t.te2[(s3 >> 8) & 0xff] ^ t.te3[s0 & 0xff];
  std::uint32_t t2 = t.te0[s2 >> 24] ^ t.te1[(s3 >> 16) & 0xff] ^
                     t.te2[(s0 >> 8) & 0xff] ^ t.te3[s1 & 0xff];
  std::uint32_t t3 = t.te0[s3 >> 24] ^ t.te1[(s0 >> 16) & 0xff] ^
                     t.te2[(s1 >> 8) & 0xff] ^ t.te3[s2 & 0xff];
  store_be32(state, t0 ^ load_be32(rk));
  store_be32(state + 4, t1 ^ load_be32(rk + 4));
  store_be32(state + 8, t2 ^ load_be32(rk + 8));
  store_be32(state + 12, t3 ^ load_be32(rk + 12));
}

AesCtr::AesCtr(BytesView key, BytesView iv16, bool wide_counter)
    : aes_(key), wide_counter_(wide_counter) {
  if (iv16.size() != 16) throw std::invalid_argument("CTR IV must be 16 bytes");
  std::memcpy(counter_.data(), iv16.data(), 16);
}

void AesCtr::next_block() {
  aes_.encrypt_block(counter_.data(), block_.data());
  int first = wide_counter_ ? 0 : 12;
  for (int i = 15; i >= first; --i) {
    if (++counter_[i] != 0) break;
  }
  used_ = 0;
}

void AesCtr::keystream(std::uint8_t* out, std::size_t len) {
  while (len > 0) {
    if (used_ == 16) next_block();
    std::size_t take = std::min(len, std::size_t{16} - used_);
    std::memcpy(out, block_.data() + used_, take);
    used_ += take;
    out += take;
    len -= take;
  }
}

void AesCtr::crypt(std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    if (used_ == 16) next_block();
    std::size_t take = std::min(len, std::size_t{16} - used_);
    for (std::size_t i = 0; i < take; ++i) data[i] ^= block_[used_ + i];
    used_ += take;
    data += take;
    len -= take;
  }
}

namespace {
// Reduction constants for the 4-bit Shoup GHASH tables.
constexpr std::uint64_t kLast4[16] = {
    0x0000, 0x1c20, 0x3840, 0x2460, 0x7080, 0x6ca0, 0x48c0, 0x54e0,
    0xe100, 0xfd20, 0xd940, 0xc560, 0x9180, 0x8da0, 0xa9c0, 0xb5e0};
}  // namespace

AesGcm::AesGcm(BytesView key) : aes_(key) {
  std::uint8_t h[16] = {0};
  aes_.encrypt_block(h, h);
  std::uint64_t vh = load_be64(h);
  std::uint64_t vl = load_be64(h + 8);
  hh_[8] = vh;
  hl_[8] = vl;
  for (int i = 4; i > 0; i >>= 1) {
    std::uint32_t t = static_cast<std::uint32_t>(vl & 1) * 0xe1000000u;
    vl = (vh << 63) | (vl >> 1);
    vh = (vh >> 1) ^ (std::uint64_t{t} << 32);
    hh_[i] = vh;
    hl_[i] = vl;
  }
  for (int i = 2; i <= 8; i *= 2) {
    for (int j = 1; j < i; ++j) {
      hh_[i + j] = hh_[i] ^ hh_[j];
      hl_[i + j] = hl_[i] ^ hl_[j];
    }
  }
  hh_[0] = 0;
  hl_[0] = 0;
}

void AesGcm::gmul(std::uint8_t x[16]) const {
  std::uint8_t lo = x[15] & 0xf;
  std::uint64_t zh = hh_[lo];
  std::uint64_t zl = hl_[lo];
  for (int i = 15; i >= 0; --i) {
    lo = x[i] & 0xf;
    std::uint8_t hi = x[i] >> 4;
    if (i != 15) {
      std::uint8_t rem = zl & 0xf;
      zl = (zh << 60) | (zl >> 4);
      zh = zh >> 4;
      zh ^= kLast4[rem] << 48;
      zh ^= hh_[lo];
      zl ^= hl_[lo];
    }
    std::uint8_t rem = zl & 0xf;
    zl = (zh << 60) | (zl >> 4);
    zh = zh >> 4;
    zh ^= kLast4[rem] << 48;
    zh ^= hh_[hi];
    zl ^= hl_[hi];
  }
  store_be64(x, zh);
  store_be64(x + 8, zl);
}

void AesGcm::ghash(std::uint8_t acc[16], BytesView data) const {
  std::size_t offset = 0;
  while (offset < data.size()) {
    std::size_t take = std::min<std::size_t>(16, data.size() - offset);
    for (std::size_t i = 0; i < take; ++i) acc[i] ^= data[offset + i];
    gmul(acc);
    offset += take;
  }
}

Bytes AesGcm::seal(BytesView nonce12, BytesView aad, BytesView plaintext) const {
  if (nonce12.size() != 12) throw std::invalid_argument("GCM nonce must be 12 bytes");
  std::uint8_t j0[16];
  std::memcpy(j0, nonce12.data(), 12);
  store_be32(j0 + 12, 1);
  std::uint8_t ek_j0[16];
  aes_.encrypt_block(j0, ek_j0);

  std::uint8_t ctr0[16];
  std::memcpy(ctr0, j0, 16);
  store_be32(ctr0 + 12, 2);
  Bytes out(plaintext.begin(), plaintext.end());
  // Inline CTR starting at counter 2.
  {
    std::uint8_t counter[16];
    std::memcpy(counter, ctr0, 16);
    std::uint8_t ks[16];
    std::size_t offset = 0;
    while (offset < out.size()) {
      aes_.encrypt_block(counter, ks);
      for (int i = 15; i >= 12; --i)
        if (++counter[i] != 0) break;
      std::size_t take = std::min<std::size_t>(16, out.size() - offset);
      for (std::size_t i = 0; i < take; ++i) out[offset + i] ^= ks[i];
      offset += take;
    }
  }

  std::uint8_t tag[16] = {0};
  ghash(tag, aad);
  ghash(tag, out);
  std::uint8_t lengths[16];
  store_be64(lengths, aad.size() * 8);
  store_be64(lengths + 8, out.size() * 8);
  ghash(tag, {lengths, 16});
  for (int i = 0; i < 16; ++i) tag[i] ^= ek_j0[i];
  append(out, {tag, 16});
  return out;
}

std::optional<Bytes> AesGcm::open(BytesView nonce12, BytesView aad,
                                  BytesView ciphertext_and_tag) const {
  if (nonce12.size() != 12) throw std::invalid_argument("GCM nonce must be 12 bytes");
  if (ciphertext_and_tag.size() < kTagSize) return std::nullopt;
  BytesView ciphertext = ciphertext_and_tag.first(ciphertext_and_tag.size() - kTagSize);
  BytesView tag = ciphertext_and_tag.last(kTagSize);

  std::uint8_t j0[16];
  std::memcpy(j0, nonce12.data(), 12);
  store_be32(j0 + 12, 1);
  std::uint8_t ek_j0[16];
  aes_.encrypt_block(j0, ek_j0);

  std::uint8_t expected[16] = {0};
  ghash(expected, aad);
  ghash(expected, ciphertext);
  std::uint8_t lengths[16];
  store_be64(lengths, aad.size() * 8);
  store_be64(lengths + 8, ciphertext.size() * 8);
  ghash(expected, {lengths, 16});
  for (int i = 0; i < 16; ++i) expected[i] ^= ek_j0[i];
  if (!ct::equal({expected, 16}, tag)) return std::nullopt;

  Bytes out(ciphertext.begin(), ciphertext.end());
  std::uint8_t counter[16];
  std::memcpy(counter, j0, 16);
  store_be32(counter + 12, 2);
  std::uint8_t ks[16];
  std::size_t offset = 0;
  while (offset < out.size()) {
    aes_.encrypt_block(counter, ks);
    for (int i = 15; i >= 12; --i)
      if (++counter[i] != 0) break;
    std::size_t take = std::min<std::size_t>(16, out.size() - offset);
    for (std::size_t i = 0; i < take; ++i) out[offset + i] ^= ks[i];
    offset += take;
  }
  return out;
}

}  // namespace pqtls::crypto
