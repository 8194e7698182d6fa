// SHA-NI SHA-256 block function: sha256rnds2 runs two rounds per
// instruction on the state held as ABEF/CDGH register pairs, and
// sha256msg1/sha256msg2 extend the message schedule four words at a time.
// The instructions compute exactly the FIPS 180-4 round and schedule
// functions, so this kernel is bit-identical to the portable one (and
// checked against it, and against the FIPS vectors, by the backend tests).
// The state is shuffled into ABEF/CDGH once per call, not once per block.
#include <cstddef>
#include <cstdint>

#include "crypto/backend/kernels.hpp"

#if defined(PQTLS_HAVE_SHANI)

#include <immintrin.h>

namespace pqtls::crypto::backend::detail {
namespace {

inline __m128i load(const void* p) {
  return _mm_loadu_si128(static_cast<const __m128i*>(p));
}

// Four rounds: W[4g..4g+3] + K[4g..4g+3], two rounds per sha256rnds2.
inline void rounds4(__m128i& abef, __m128i& cdgh, __m128i w, int g) {
  __m128i wk = _mm_add_epi32(w, load(kSha256RoundConstants + 4 * g));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

// The next four schedule words from the previous sixteen (w0 oldest):
// msg1 adds sigma0(W[t-15]) to W[t-16], alignr supplies W[t-7], and msg2
// adds sigma1(W[t-2]).
inline __m128i schedule(__m128i w0, __m128i w1, __m128i w2, __m128i w3) {
  __m128i t = _mm_sha256msg1_epu32(w0, w1);
  t = _mm_add_epi32(t, _mm_alignr_epi8(w3, w2, 4));
  return _mm_sha256msg2_epu32(t, w3);
}

void compress(std::uint32_t* state, const std::uint8_t* blocks,
              std::size_t nblocks) {
  // Big-endian message words to host order.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  __m128i dcba = load(state);
  __m128i hgfe = load(state + 4);
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (std::size_t n = 0; n < nblocks; ++n) {
    const std::uint8_t* p = blocks + 64 * n;
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w0 = _mm_shuffle_epi8(load(p), bswap);
    __m128i w1 = _mm_shuffle_epi8(load(p + 16), bswap);
    __m128i w2 = _mm_shuffle_epi8(load(p + 32), bswap);
    __m128i w3 = _mm_shuffle_epi8(load(p + 48), bswap);
    rounds4(abef, cdgh, w0, 0);
    rounds4(abef, cdgh, w1, 1);
    rounds4(abef, cdgh, w2, 2);
    rounds4(abef, cdgh, w3, 3);
    for (int g = 4; g < 16; g += 4) {
      w0 = schedule(w0, w1, w2, w3);
      rounds4(abef, cdgh, w0, g);
      w1 = schedule(w1, w2, w3, w0);
      rounds4(abef, cdgh, w1, g + 1);
      w2 = schedule(w2, w3, w0, w1);
      rounds4(abef, cdgh, w2, g + 2);
      w3 = schedule(w3, w0, w1, w2);
      rounds4(abef, cdgh, w3, g + 3);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

const Sha256Kernels kSha256Shani{&compress};

}  // namespace

const Sha256Kernels* sha256_shani() { return &kSha256Shani; }

}  // namespace pqtls::crypto::backend::detail

#else  // !PQTLS_HAVE_SHANI

namespace pqtls::crypto::backend::detail {

const Sha256Kernels* sha256_shani() { return nullptr; }

}  // namespace pqtls::crypto::backend::detail

#endif
