#include "crypto/sha2.hpp"

#include <bit>
#include <stdexcept>

#include "crypto/backend/backend.hpp"

namespace pqtls::crypto {

namespace {

constexpr std::uint64_t kK512[80] = {
    0x428a2f98d728ae22ULL, 0x7137449123ef65cdULL, 0xb5c0fbcfec4d3b2fULL,
    0xe9b5dba58189dbbcULL, 0x3956c25bf348b538ULL, 0x59f111f1b605d019ULL,
    0x923f82a4af194f9bULL, 0xab1c5ed5da6d8118ULL, 0xd807aa98a3030242ULL,
    0x12835b0145706fbeULL, 0x243185be4ee4b28cULL, 0x550c7dc3d5ffb4e2ULL,
    0x72be5d74f27b896fULL, 0x80deb1fe3b1696b1ULL, 0x9bdc06a725c71235ULL,
    0xc19bf174cf692694ULL, 0xe49b69c19ef14ad2ULL, 0xefbe4786384f25e3ULL,
    0x0fc19dc68b8cd5b5ULL, 0x240ca1cc77ac9c65ULL, 0x2de92c6f592b0275ULL,
    0x4a7484aa6ea6e483ULL, 0x5cb0a9dcbd41fbd4ULL, 0x76f988da831153b5ULL,
    0x983e5152ee66dfabULL, 0xa831c66d2db43210ULL, 0xb00327c898fb213fULL,
    0xbf597fc7beef0ee4ULL, 0xc6e00bf33da88fc2ULL, 0xd5a79147930aa725ULL,
    0x06ca6351e003826fULL, 0x142929670a0e6e70ULL, 0x27b70a8546d22ffcULL,
    0x2e1b21385c26c926ULL, 0x4d2c6dfc5ac42aedULL, 0x53380d139d95b3dfULL,
    0x650a73548baf63deULL, 0x766a0abb3c77b2a8ULL, 0x81c2c92e47edaee6ULL,
    0x92722c851482353bULL, 0xa2bfe8a14cf10364ULL, 0xa81a664bbc423001ULL,
    0xc24b8b70d0f89791ULL, 0xc76c51a30654be30ULL, 0xd192e819d6ef5218ULL,
    0xd69906245565a910ULL, 0xf40e35855771202aULL, 0x106aa07032bbd1b8ULL,
    0x19a4c116b8d2d0c8ULL, 0x1e376c085141ab53ULL, 0x2748774cdf8eeb99ULL,
    0x34b0bcb5e19b48a8ULL, 0x391c0cb3c5c95a63ULL, 0x4ed8aa4ae3418acbULL,
    0x5b9cca4f7763e373ULL, 0x682e6ff3d6b2b8a3ULL, 0x748f82ee5defb2fcULL,
    0x78a5636f43172f60ULL, 0x84c87814a1f0ab72ULL, 0x8cc702081a6439ecULL,
    0x90befffa23631e28ULL, 0xa4506cebde82bde9ULL, 0xbef9a3f7b2c67915ULL,
    0xc67178f2e372532bULL, 0xca273eceea26619cULL, 0xd186b8c721c0c207ULL,
    0xeada7dd6cde0eb1eULL, 0xf57d4f7fee6ed178ULL, 0x06f067aa72176fbaULL,
    0x0a637dc5a2c898a6ULL, 0x113f9804bef90daeULL, 0x1b710b35131c471bULL,
    0x28db77f523047d84ULL, 0x32caab7b40c72493ULL, 0x3c9ebe0a15c9bebcULL,
    0x431d67c49c100d4cULL, 0x4cc5d4becb3e42b6ULL, 0x597f299cfc657e2aULL,
    0x5fcb6fab3ad6faecULL, 0x6c44198c4a475817ULL};

using std::rotr;

}  // namespace

void Sha256::reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buffered_ = 0;
  total_ = 0;
}

void Sha256::compress(const std::uint8_t* blocks, std::size_t nblocks) {
  backend::sha256_kernels().compress(state_.data(), blocks, nblocks);
}

void Sha256::update(BytesView data) {
  total_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    std::size_t take = std::min(kBlockSize - buffered_, data.size());
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset += take;
    if (buffered_ == kBlockSize) {
      compress(buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  if (std::size_t nblocks = (data.size() - offset) / kBlockSize) {
    compress(data.data() + offset, nblocks);
    offset += nblocks * kBlockSize;
  }
  if (offset < data.size()) {
    buffered_ = data.size() - offset;
    std::memcpy(buffer_.data(), data.data() + offset, buffered_);
  }
}

Bytes Sha256::finish() {
  // The buffered tail, 0x80, zeros, and the 64-bit bit length: one block,
  // or two when the length no longer fits behind the tail.
  std::uint8_t last[kBlockSize * 2] = {};
  std::memcpy(last, buffer_.data(), buffered_);
  last[buffered_] = 0x80;
  std::size_t nblocks = (buffered_ < 56) ? 1 : 2;
  store_be64(last + nblocks * kBlockSize - 8, total_ * 8);
  compress(last, nblocks);
  Bytes out(kDigestSize);
  for (int i = 0; i < 8; ++i) store_be32(out.data() + 4 * i, state_[i]);
  return out;
}

void Sha512::reset() {
  if (is384_) {
    state_ = {0xcbbb9d5dc1059ed8ULL, 0x629a292a367cd507ULL,
              0x9159015a3070dd17ULL, 0x152fecd8f70e5939ULL,
              0x67332667ffc00b31ULL, 0x8eb44a8768581511ULL,
              0xdb0c2e0d64f98fa7ULL, 0x47b5481dbefa4fa4ULL};
  } else {
    state_ = {0x6a09e667f3bcc908ULL, 0xbb67ae8584caa73bULL,
              0x3c6ef372fe94f82bULL, 0xa54ff53a5f1d36f1ULL,
              0x510e527fade682d1ULL, 0x9b05688c2b3e6c1fULL,
              0x1f83d9abfb41bd6bULL, 0x5be0cd19137e2179ULL};
  }
  buffered_ = 0;
  total_ = 0;
}

void Sha512::compress(const std::uint8_t* block) {
  std::uint64_t w[80];
  for (int i = 0; i < 16; ++i) w[i] = load_be64(block + 8 * i);
  for (int i = 16; i < 80; ++i) {
    std::uint64_t s0 = rotr(w[i - 15], 1) ^ rotr(w[i - 15], 8) ^ (w[i - 15] >> 7);
    std::uint64_t s1 = rotr(w[i - 2], 19) ^ rotr(w[i - 2], 61) ^ (w[i - 2] >> 6);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  auto [a, b, c, d, e, f, g, h] = state_;
  for (int i = 0; i < 80; ++i) {
    std::uint64_t s1 = rotr(e, 14) ^ rotr(e, 18) ^ rotr(e, 41);
    std::uint64_t ch = (e & f) ^ (~e & g);
    std::uint64_t t1 = h + s1 + ch + kK512[i] + w[i];
    std::uint64_t s0 = rotr(a, 28) ^ rotr(a, 34) ^ rotr(a, 39);
    std::uint64_t maj = (a & b) ^ (a & c) ^ (b & c);
    std::uint64_t t2 = s0 + maj;
    h = g; g = f; f = e; e = d + t1;
    d = c; c = b; b = a; a = t1 + t2;
  }
  state_[0] += a; state_[1] += b; state_[2] += c; state_[3] += d;
  state_[4] += e; state_[5] += f; state_[6] += g; state_[7] += h;
}

void Sha512::update(BytesView data) {
  total_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    std::size_t take = std::min(kBlockSize - buffered_, data.size());
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset += take;
    if (buffered_ == kBlockSize) {
      compress(buffer_.data());
      buffered_ = 0;
    }
  }
  while (offset + kBlockSize <= data.size()) {
    compress(data.data() + offset);
    offset += kBlockSize;
  }
  if (offset < data.size()) {
    buffered_ = data.size() - offset;
    std::memcpy(buffer_.data(), data.data() + offset, buffered_);
  }
}

Bytes Sha512::finish() {
  std::uint64_t bit_len = total_ * 8;
  std::uint8_t pad[kBlockSize * 2] = {0x80};
  std::size_t pad_len =
      (buffered_ < 112) ? (112 - buffered_) : (kBlockSize + 112 - buffered_);
  update({pad, pad_len});
  std::uint8_t len_be[16] = {0};  // 128-bit length; high 64 bits are zero here
  store_be64(len_be + 8, bit_len);
  update({len_be, 16});
  Bytes out(is384_ ? 48 : kDigestSize);
  for (std::size_t i = 0; i < out.size() / 8; ++i)
    store_be64(out.data() + 8 * i, state_[i]);
  return out;
}

Bytes sha384(BytesView data) {
  Sha512 h(/*is384=*/true);
  h.update(data);
  return h.finish();
}

namespace {

template <typename Hash>
Bytes hmac_impl(BytesView key, BytesView data, std::size_t block_size) {
  Bytes k(key.begin(), key.end());
  if (k.size() > block_size) {
    Hash h;
    h.update(k);
    k = h.finish();
  }
  k.resize(block_size, 0);
  Bytes ipad(block_size), opad(block_size);
  for (std::size_t i = 0; i < block_size; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }
  Hash inner;
  inner.update(ipad);
  inner.update(data);
  Bytes inner_digest = inner.finish();
  Hash outer;
  outer.update(opad);
  outer.update(inner_digest);
  return outer.finish();
}

struct Sha384Adapter {
  Sha512 h{/*is384=*/true};
  void update(BytesView d) { h.update(d); }
  Bytes finish() { return h.finish(); }
};

}  // namespace

Bytes hmac_sha256(BytesView key, BytesView data) {
  return hmac_impl<Sha256>(key, data, Sha256::kBlockSize);
}

Bytes hmac_sha384(BytesView key, BytesView data) {
  return hmac_impl<Sha384Adapter>(key, data, Sha512::kBlockSize);
}

Bytes hkdf_extract_sha256(BytesView salt, BytesView ikm) {
  Bytes zero(Sha256::kDigestSize, 0);
  return hmac_sha256(salt.empty() ? BytesView{zero} : salt, ikm);
}

Bytes hkdf_expand_sha256(BytesView prk, BytesView info, std::size_t length) {
  // RFC 5869 2.3: L <= 255 * HashLen; past that the 8-bit block counter
  // would wrap and repeat output blocks.
  if (length > 255 * Sha256::kDigestSize)
    throw std::invalid_argument("HKDF-Expand length exceeds 255 blocks");
  Bytes okm;
  Bytes t;
  std::uint8_t counter = 1;
  while (okm.size() < length) {
    Bytes block = t;
    append(block, info);
    block.push_back(counter++);
    t = hmac_sha256(prk, block);
    append(okm, t);
  }
  okm.resize(length);
  return okm;
}

Bytes mgf1_sha256(BytesView seed, std::size_t length) {
  Bytes out;
  std::uint32_t counter = 0;
  while (out.size() < length) {
    Bytes block(seed.begin(), seed.end());
    std::uint8_t ctr_be[4];
    store_be32(ctr_be, counter++);
    append(block, {ctr_be, 4});
    append(out, Sha256::hash(block));
  }
  out.resize(length);
  return out;
}

}  // namespace pqtls::crypto
