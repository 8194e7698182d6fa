// Dense GF(2)[x] arithmetic modulo x^r - 1 (the quasi-cyclic rings used by
// the code-based KEMs BIKE and HQC) plus GF(2^8) field tables for the
// Reed-Solomon outer code of HQC.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/backend/backend.hpp"
#include "crypto/bytes.hpp"
#include "crypto/drbg.hpp"

namespace pqtls::crypto {

/// Carry-less product out[0, 2n) = a[0, n) * b[0, n) over GF(2)[x], words
/// little-endian: Karatsuba halving down to blocks that `kernels.mul`
/// multiplies. `out` must not overlap the inputs.
void gf2_mul_words(std::uint64_t* out, const std::uint64_t* a,
                   const std::uint64_t* b, std::size_t n,
                   const backend::Gf2Kernels& kernels);

/// Element of GF(2)[x] / (x^r - 1), stored as packed 64-bit words.
class Gf2Ring {
 public:
  Gf2Ring() = default;
  explicit Gf2Ring(std::size_t r) : r_(r), words_((r + 63) / 64, 0) {}

  static Gf2Ring from_support(std::size_t r, const std::vector<std::uint32_t>& ones);
  /// Uniformly random element.
  static Gf2Ring random(std::size_t r, Drbg& rng);
  /// Random element of exact Hamming weight w (Fisher-Yates over indices).
  static Gf2Ring random_weight(std::size_t r, std::size_t w, Drbg& rng);
  /// The element whose packed words are `words` ((r + 63) / 64 of them;
  /// bits at and above r are cleared).
  static Gf2Ring from_words(std::size_t r, std::vector<std::uint64_t> words);

  std::size_t degree_bound() const { return r_; }
  bool get(std::size_t i) const {
    return (words_[i / 64] >> (i % 64)) & 1;
  }
  void set(std::size_t i, bool v) {
    if (v)
      words_[i / 64] |= std::uint64_t{1} << (i % 64);
    else
      words_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
  }
  void flip(std::size_t i) { words_[i / 64] ^= std::uint64_t{1} << (i % 64); }

  std::size_t weight() const;
  bool is_zero() const;
  std::vector<std::uint32_t> support() const;

  /// Zeroize the word storage (ct::wipe semantics) — for secret-carrying
  /// ring elements such as QC-MDPC error vectors.
  void wipe();

  Gf2Ring operator^(const Gf2Ring& other) const;  // addition in GF(2)
  Gf2Ring& operator^=(const Gf2Ring& other);
  Gf2Ring operator&(const Gf2Ring& other) const;  // coefficient-wise AND
  bool operator==(const Gf2Ring& other) const = default;

  /// Cyclic product modulo x^r - 1: gf2_mul_words on the active backend's
  /// Gf2Kernels, then the 2r-bit product folded onto r bits.
  Gf2Ring operator*(const Gf2Ring& other) const;
  /// (*this)^(2^k): k squarings as one pass of the bit permutation
  /// i -> i * 2^k mod r (squaring is linear in characteristic 2). Needs
  /// odd r, where that map is a permutation; throws otherwise.
  Gf2Ring squared(std::size_t k = 1) const;
  /// Cyclic product where `support` lists the set coefficients of the sparse
  /// operand — the fast path for the QC-MDPC/QC codes whose secrets are
  /// fixed-low-weight vectors.
  Gf2Ring mul_sparse(const std::vector<std::uint32_t>& support) const;
  /// x^k * (*this) mod x^r - 1.
  Gf2Ring shifted(std::size_t k) const;
  /// Transpose/adjoint: coefficient i -> coefficient (r - i) mod r. The
  /// QC-MDPC syndrome computations use it.
  Gf2Ring transpose() const;

  /// Multiplicative inverse modulo x^r - 1 by Itoh-Tsujii: h^(2^(r-1) - 2)
  /// through a fixed chain of products and k-squarings that depends on r
  /// only, then a check that h * h^-1 = 1. For prime r the chain gives the
  /// inverse of every unit (ord_r(2) divides r - 1); returns false, with
  /// `out` untouched, for a non-unit, and for every element when r is even
  /// or below 3.
  bool inverse(Gf2Ring& out) const;

  /// Pack to ceil(r/8) bytes, little-endian bit order.
  Bytes to_bytes() const;
  static Gf2Ring from_bytes(std::size_t r, BytesView bytes);

  const std::vector<std::uint64_t>& words() const { return words_; }

 private:
  void mask_top();
  void fold_scratch(const std::vector<std::uint64_t>& scratch);

  std::size_t r_ = 0;
  std::vector<std::uint64_t> words_;
};

/// GF(2^8) with the AES-independent polynomial x^8+x^4+x^3+x^2+1 (0x11d),
/// the field used by HQC's Reed-Solomon code. Log/antilog table based.
class Gf256 {
 public:
  static std::uint8_t mul(std::uint8_t a, std::uint8_t b);
  static std::uint8_t inv(std::uint8_t a);
  static std::uint8_t pow_alpha(unsigned e);  // alpha^e, alpha = 0x02
  static unsigned log_alpha(std::uint8_t a);  // discrete log, a != 0
};

}  // namespace pqtls::crypto
