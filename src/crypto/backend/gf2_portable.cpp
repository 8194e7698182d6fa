// Portable GF(2)[x] word product: schoolbook over 64x64 -> 128-bit
// carry-less products, each taken four bits of `a` at a time from a
// 16-entry table of multiples of one `b` word. The reference every other
// GF(2) kernel must match bit for bit. Every word pair is multiplied, zero
// or not, and the table is indexed by the bits of `a`, as in the BIKE
// reference implementation's portable base multiply.
#include <cstddef>
#include <cstdint>

#include "crypto/backend/kernels.hpp"

namespace pqtls::crypto::backend::detail {
namespace {

constexpr std::uint64_t kLow60 = (std::uint64_t{1} << 60) - 1;

void mul(std::uint64_t* out, const std::uint64_t* a, const std::uint64_t* b,
         std::size_t n) {
  for (std::size_t k = 0; k < 2 * n; ++k) out[k] = 0;
  for (std::size_t j = 0; j < n; ++j) {
    // Multiples 0..15 of b's low 60 bits fit in 64 bits; the top four bits
    // of b are added back one masked shift each below.
    const std::uint64_t bj = b[j];
    const std::uint64_t low = bj & kLow60;
    std::uint64_t table[16];
    table[0] = 0;
    for (int v = 1; v < 16; ++v)
      table[v] = (v & 1) ? table[v - 1] ^ low : table[v / 2] << 1;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t ai = a[i];
      std::uint64_t lo = table[ai & 15], hi = 0;
      for (int s = 4; s < 64; s += 4) {
        const std::uint64_t g = table[(ai >> s) & 15];
        lo ^= g << s;
        hi ^= g >> (64 - s);
      }
      for (int s = 60; s < 64; ++s) {
        const std::uint64_t mask = std::uint64_t{0} - ((bj >> s) & 1);
        lo ^= (ai << s) & mask;
        hi ^= (ai >> (64 - s)) & mask;
      }
      out[i + j] ^= lo;
      out[i + j + 1] ^= hi;
    }
  }
}

}  // namespace

const Gf2Kernels kGf2Portable{&mul, 4};

}  // namespace pqtls::crypto::backend::detail
