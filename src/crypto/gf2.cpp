#include "crypto/gf2.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "crypto/ct.hpp"

namespace pqtls::crypto {

void Gf2Ring::mask_top() {
  std::size_t top_bits = r_ % 64;
  if (top_bits) words_.back() &= (std::uint64_t{1} << top_bits) - 1;
}

Gf2Ring Gf2Ring::from_support(std::size_t r,
                              const std::vector<std::uint32_t>& ones) {
  Gf2Ring out(r);
  for (auto i : ones) out.set(i, true);
  return out;
}

Gf2Ring Gf2Ring::from_words(std::size_t r, std::vector<std::uint64_t> words) {
  if (words.size() != (r + 63) / 64)
    throw std::invalid_argument("word count does not match ring size");
  Gf2Ring out;
  out.r_ = r;
  out.words_ = std::move(words);
  out.mask_top();
  return out;
}

Gf2Ring Gf2Ring::random(std::size_t r, Drbg& rng) {
  Gf2Ring out(r);
  for (auto& w : out.words_) w = rng.u64();
  out.mask_top();
  return out;
}

Gf2Ring Gf2Ring::random_weight(std::size_t r, std::size_t w, Drbg& rng) {
  // Floyd's algorithm for a w-subset of [0, r).
  Gf2Ring out(r);
  for (std::size_t j = r - w; j < r; ++j) {
    std::size_t t = rng.uniform(j + 1);
    if (out.get(t))
      out.set(j, true);
    else
      out.set(t, true);
  }
  return out;
}

std::size_t Gf2Ring::weight() const {
  std::size_t total = 0;
  for (auto w : words_) total += std::popcount(w);
  return total;
}

void Gf2Ring::wipe() {
  ct::wipe(words_.data(), words_.size() * sizeof(std::uint64_t));
}

bool Gf2Ring::is_zero() const {
  for (auto w : words_)
    if (w) return false;
  return true;
}

std::vector<std::uint32_t> Gf2Ring::support() const {
  std::vector<std::uint32_t> out;
  for (std::size_t wi = 0; wi < words_.size(); ++wi) {
    std::uint64_t w = words_[wi];
    while (w) {
      int bit = std::countr_zero(w);
      out.push_back(static_cast<std::uint32_t>(wi * 64 + bit));
      w &= w - 1;
    }
  }
  return out;
}

Gf2Ring Gf2Ring::operator^(const Gf2Ring& other) const {
  Gf2Ring out = *this;
  out ^= other;
  return out;
}

Gf2Ring& Gf2Ring::operator^=(const Gf2Ring& other) {
  if (r_ != other.r_) throw std::invalid_argument("ring size mismatch");
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= other.words_[i];
  return *this;
}

Gf2Ring Gf2Ring::operator&(const Gf2Ring& other) const {
  if (r_ != other.r_) throw std::invalid_argument("ring size mismatch");
  Gf2Ring out = *this;
  for (std::size_t i = 0; i < words_.size(); ++i)
    out.words_[i] &= other.words_[i];
  return out;
}

namespace {

// XOR `src` (nwords words) shifted left by `shift` bits into dst.
void xor_shift_words(std::uint64_t* dst, const std::uint64_t* src,
                     std::size_t nwords, std::size_t shift) {
  std::size_t ws = shift / 64, bs = shift % 64;
  for (std::size_t i = 0; i < nwords; ++i) {
    if (!src[i]) continue;
    dst[i + ws] ^= src[i] << bs;
    if (bs) dst[i + ws + 1] ^= src[i] >> (64 - bs);
  }
}

}  // namespace

// Fold a (< 2r)-bit scratch buffer back into r bits modulo x^r - 1,
// word-wise: result = scratch[0, r) XOR (scratch[r, 2r) >> r).
void Gf2Ring::fold_scratch(const std::vector<std::uint64_t>& scratch) {
  std::size_t nwords = words_.size();
  std::size_t ws = r_ / 64, bs = r_ % 64;
  // High copy, shifted down by r (bits >= r fold onto position p - r < r).
  for (std::size_t i = ws; i < scratch.size(); ++i) {
    std::uint64_t w = scratch[i] >> bs;
    if (bs && i + 1 < scratch.size()) w |= scratch[i + 1] << (64 - bs);
    if (i - ws < nwords) words_[i - ws] ^= w;
  }
  // Low copy; mask_top clears the tail of the last word, which belongs to
  // the high copy handled above.
  for (std::size_t i = 0; i < nwords; ++i) words_[i] ^= scratch[i];
  mask_top();
}

Gf2Ring Gf2Ring::shifted(std::size_t k) const {
  k %= r_;
  if (k == 0) return *this;
  std::size_t nwords = words_.size();
  std::vector<std::uint64_t> scratch(2 * nwords + 2, 0);
  xor_shift_words(scratch.data(), words_.data(), nwords, k);
  Gf2Ring out(r_);
  out.fold_scratch(scratch);
  return out;
}

Gf2Ring Gf2Ring::mul_sparse(const std::vector<std::uint32_t>& support) const {
  std::size_t nwords = words_.size();
  std::vector<std::uint64_t> scratch(2 * nwords + 2, 0);
  for (std::uint32_t k : support)
    xor_shift_words(scratch.data(), words_.data(), nwords, k);
  Gf2Ring out(r_);
  out.fold_scratch(scratch);
  return out;
}

Gf2Ring Gf2Ring::transpose() const {
  Gf2Ring out(r_);
  if (get(0)) out.set(0, true);
  for (std::size_t i = 1; i < r_; ++i)
    if (get(i)) out.set(r_ - i, true);
  return out;
}

namespace {

// out[0, 2n) = a * b. Operands of at most kernels.base_words words go to
// the kernel whole. Otherwise, with h = ceil(n / 2) and a = a0 + x^(64h) a1
// (likewise b), the low and high products land in out directly and the
// middle term is (a0 + a1)(b0 + b1) - a0 b0 - a1 b1. `scratch` holds 4h
// words for this level plus what the recursion needs (4n + 256 words
// covers every depth).
void karatsuba(std::uint64_t* out, const std::uint64_t* a,
               const std::uint64_t* b, std::size_t n, std::uint64_t* scratch,
               const backend::Gf2Kernels& kernels) {
  if (n <= kernels.base_words || n < 2) {
    kernels.mul(out, a, b, n);
    return;
  }
  const std::size_t h = (n + 1) / 2, l = n - h;
  karatsuba(out, a, b, h, scratch, kernels);
  karatsuba(out + 2 * h, a + h, b + h, l, scratch, kernels);
  std::uint64_t* sa = scratch;
  std::uint64_t* sb = scratch + h;
  std::uint64_t* mid = scratch + 2 * h;
  for (std::size_t i = 0; i < h; ++i) {
    sa[i] = a[i] ^ (i < l ? a[h + i] : 0);
    sb[i] = b[i] ^ (i < l ? b[h + i] : 0);
  }
  karatsuba(mid, sa, sb, h, scratch + 4 * h, kernels);
  for (std::size_t i = 0; i < 2 * h; ++i) mid[i] ^= out[i];
  for (std::size_t i = 0; i < 2 * l; ++i) mid[i] ^= out[2 * h + i];
  for (std::size_t i = 0; i < 2 * h; ++i) out[h + i] ^= mid[i];
}

}  // namespace

void gf2_mul_words(std::uint64_t* out, const std::uint64_t* a,
                   const std::uint64_t* b, std::size_t n,
                   const backend::Gf2Kernels& kernels) {
  std::vector<std::uint64_t> scratch(4 * n + 256);
  karatsuba(out, a, b, n, scratch.data(), kernels);
}

Gf2Ring Gf2Ring::operator*(const Gf2Ring& other) const {
  if (r_ != other.r_) throw std::invalid_argument("ring size mismatch");
  std::size_t nwords = words_.size();
  std::vector<std::uint64_t> product(2 * nwords);
  gf2_mul_words(product.data(), words_.data(), other.words_.data(), nwords,
                backend::gf2_kernels());
  Gf2Ring out(r_);
  out.fold_scratch(product);
  return out;
}

Gf2Ring Gf2Ring::squared(std::size_t k) const {
  if (r_ % 2 == 0)
    throw std::invalid_argument(
        "squaring permutes coefficients only for odd r");
  // Coefficient i moves to i * 2^k mod r, so output coefficient j comes
  // from j * 2^-k mod r (2^-1 = (r + 1) / 2 for odd r): a gather that
  // assembles each output word from 64 reads.
  std::uint64_t step = 1 % r_, base = (r_ + 1) / 2;
  for (std::size_t e = k; e; e >>= 1, base = base * base % r_)
    if (e & 1) step = step * base % r_;
  // Source offsets of the 64 bits of one output word, relative to the
  // word's first source: iterations stay independent of each other.
  std::size_t offset[64];
  offset[0] = 0;
  for (std::size_t b = 1; b < 64; ++b) offset[b] = (offset[b - 1] + step) % r_;
  const std::size_t word_step = (offset[63] + step) % r_;
  Gf2Ring out(r_);
  std::size_t first = 0;
  for (std::size_t wi = 0; wi < out.words_.size(); ++wi) {
    std::size_t bits = std::min<std::size_t>(64, r_ - 64 * wi);
    std::uint64_t word = 0;
    for (std::size_t b = 0; b < bits; ++b) {
      std::size_t src = first + offset[b];
      if (src >= r_) src -= r_;
      word |= ((words_[src / 64] >> (src % 64)) & 1) << b;
    }
    out.words_[wi] = word;
    first += word_step;
    if (first >= r_) first -= r_;
  }
  return out;
}

bool Gf2Ring::inverse(Gf2Ring& out) const {
  if (r_ < 3 || r_ % 2 == 0) return false;
  // h^-1 = h^(2^(r-1) - 2) = (h^(2^m - 1))^2 with m = r - 2. Walking m's
  // bits from the top, f = h^(2^k - 1) doubles k by f^(2^k) * f and adds
  // one by f^2 * h; the chain depends on r alone, never on h.
  const std::size_t m = r_ - 2;
  Gf2Ring f = *this;
  std::size_t k = 1;
  for (int bit = static_cast<int>(std::bit_width(m)) - 2; bit >= 0; --bit) {
    f = f.squared(k) * f;
    k *= 2;
    if ((m >> bit) & 1) {
      f = f.squared() * *this;
      k += 1;
    }
  }
  Gf2Ring inv = f.squared();
  Gf2Ring one(r_);
  one.set(0, true);
  if (*this * inv != one) return false;
  out = std::move(inv);
  return true;
}

Bytes Gf2Ring::to_bytes() const {
  Bytes out((r_ + 7) / 8, 0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::size_t word = i / 8, byte = i % 8;
    if (word < words_.size())
      out[i] = static_cast<std::uint8_t>(words_[word] >> (8 * byte));
  }
  return out;
}

Gf2Ring Gf2Ring::from_bytes(std::size_t r, BytesView bytes) {
  Gf2Ring out(r);
  for (std::size_t i = 0; i < bytes.size() && i / 8 < out.words_.size(); ++i)
    out.words_[i / 8] |= std::uint64_t{bytes[i]} << (8 * (i % 8));
  out.mask_top();
  return out;
}

namespace {

struct Gf256Tables {
  std::uint8_t exp[512];
  std::uint8_t log[256];
  Gf256Tables() {
    std::uint8_t x = 1;
    for (int i = 0; i < 255; ++i) {
      exp[i] = x;
      log[x] = static_cast<std::uint8_t>(i);
      // multiply by alpha = 0x02 modulo 0x11d
      x = static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1d));
    }
    for (int i = 255; i < 512; ++i) exp[i] = exp[i - 255];
    log[0] = 0;
  }
};

const Gf256Tables& gf256_tables() {
  static const Gf256Tables t;
  return t;
}

}  // namespace

std::uint8_t Gf256::mul(std::uint8_t a, std::uint8_t b) {
  if (a == 0 || b == 0) return 0;
  const auto& t = gf256_tables();
  return t.exp[t.log[a] + t.log[b]];
}

std::uint8_t Gf256::inv(std::uint8_t a) {
  if (a == 0) throw std::domain_error("GF(256) inverse of zero");
  const auto& t = gf256_tables();
  return t.exp[255 - t.log[a]];
}

std::uint8_t Gf256::pow_alpha(unsigned e) { return gf256_tables().exp[e % 255]; }

unsigned Gf256::log_alpha(std::uint8_t a) {
  if (a == 0) throw std::domain_error("GF(256) log of zero");
  return gf256_tables().log[a];
}

}  // namespace pqtls::crypto
