// PCLMULQDQ GF(2)[x] word product by product scanning: column k of the
// 2n-word product is the XOR of the 128-bit products a[i] * b[k - i], and
// the high half of each column's sum carries into column k + 1. Two
// products share one pair of unaligned 128-bit loads: (a[i], a[i+1])
// against (b[k-i-1], b[k-i]) selects a[i]*b[k-i] and a[i+1]*b[k-i-1]
// through the instruction's qword selectors. Carry-less multiplication is
// exact, so the kernel is bit-identical to the portable one (and checked
// against it by the backend tests).
#include <cstddef>
#include <cstdint>

#include "crypto/backend/kernels.hpp"

#if defined(PQTLS_HAVE_PCLMUL)

#include <immintrin.h>

namespace pqtls::crypto::backend::detail {
namespace {

inline __m128i load2(const std::uint64_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

inline __m128i load1(const std::uint64_t* p) {
  return _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
}

void mul(std::uint64_t* out, const std::uint64_t* a, const std::uint64_t* b,
         std::size_t n) {
  __m128i carry = _mm_setzero_si128();
  for (std::size_t k = 0; k + 1 < 2 * n; ++k) {
    const std::size_t first = k < n ? 0 : k - n + 1;
    const std::size_t last = k < n ? k : n - 1;
    __m128i acc = carry;
    std::size_t i = first;
    for (; i < last; i += 2) {
      const __m128i av = load2(a + i);
      const __m128i bv = load2(b + k - i - 1);
      acc = _mm_xor_si128(acc, _mm_clmulepi64_si128(av, bv, 0x10));
      acc = _mm_xor_si128(acc, _mm_clmulepi64_si128(av, bv, 0x01));
    }
    if (i == last)
      acc = _mm_xor_si128(
          acc, _mm_clmulepi64_si128(load1(a + i), load1(b + k - i), 0x00));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + k), acc);
    carry = _mm_srli_si128(acc, 8);
  }
  _mm_storel_epi64(reinterpret_cast<__m128i*>(out + 2 * n - 1), carry);
}

const Gf2Kernels kGf2Pclmul{&mul, 16};

}  // namespace

const Gf2Kernels* gf2_pclmul() { return &kGf2Pclmul; }

}  // namespace pqtls::crypto::backend::detail

#else  // !PQTLS_HAVE_PCLMUL

namespace pqtls::crypto::backend::detail {

const Gf2Kernels* gf2_pclmul() { return nullptr; }

}  // namespace pqtls::crypto::backend::detail

#endif
