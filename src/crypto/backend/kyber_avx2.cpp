// AVX2 kernels for the Kyber NTT domain (q = 3329). Strategy: widen int16
// coefficients to int32 lanes (8 per __m256i) and do exact Montgomery
// arithmetic with R = 2^16, conditionally subtracting back to the
// canonical range [0, q) after every step — so outputs are bit-identical
// to the portable %-based kernels. Twiddles are premultiplied by R (or
// R^2 for the basemul pair-zetas) at static init from the same
// 17^bitrev7(i) table the portable kernels build. Every layer is
// vectorized: the len >= 8 layers pair whole vectors, and the len 4/2
// layers pair lanes inside one vector (see Tail below).
#include <cstdint>

#include "crypto/backend/kernels.hpp"

#if defined(PQTLS_HAVE_AVX2)

#include <immintrin.h>

namespace pqtls::crypto::backend::detail {
namespace {

constexpr int kN = 256;
constexpr std::int32_t kQ = 3329;
constexpr std::int32_t kNQInv = 3327;  // -q^{-1} mod 2^16 (3329*3327 = -1)
constexpr std::int32_t kInv128 = 3303;  // 128^{-1} mod q

struct Tables {
  std::int16_t zeta[128];   // plain twiddles (basemul pairs)
  std::int32_t zeta_m[128];  // zeta * 2^16 mod q (Montgomery form)
  // Basemul pair twiddles indexed by coefficient-pair p in 0..127:
  // +zeta_{64+p/2} for even p, q - zeta_{64+p/2} for odd p, each
  // premultiplied by 2^32 so one REDC of (a*b*R^{-1}) * zpair2 yields
  // a*b*zeta mod q exactly.
  std::int32_t zpair2[128];
  std::int32_t r2;         // 2^32 mod q
  std::int32_t inv128_m;   // kInv128 * 2^16 mod q
  Tables() {
    auto bitrev7 = [](int x) {
      int r = 0;
      for (int b = 0; b < 7; ++b)
        if (x & (1 << b)) r |= 1 << (6 - b);
      return r;
    };
    for (int i = 0; i < 128; ++i) {
      int e = bitrev7(i);
      std::int32_t v = 1;
      for (int j = 0; j < e; ++j) v = (v * 17) % kQ;
      zeta[i] = static_cast<std::int16_t>(v);
      zeta_m[i] =
          static_cast<std::int32_t>((static_cast<std::int64_t>(v) << 16) % kQ);
    }
    for (int i = 0; i < 64; ++i) {
      std::int64_t z = zeta[64 + i];
      std::int64_t nz = (kQ - z) % kQ;
      zpair2[2 * i] = static_cast<std::int32_t>((z << 32) % kQ);
      zpair2[2 * i + 1] = static_cast<std::int32_t>((nz << 32) % kQ);
    }
    std::int64_t r1 = (static_cast<std::int64_t>(1) << 16) % kQ;
    r2 = static_cast<std::int32_t>((r1 * r1) % kQ);
    inv128_m = static_cast<std::int32_t>(
        (static_cast<std::int64_t>(kInv128) << 16) % kQ);
  }
};
const Tables kT;

inline __m256i q8() { return _mm256_set1_epi32(kQ); }

// [0, 2q) -> [0, q), lanewise.
inline __m256i csub(__m256i a) {
  __m256i lt = _mm256_cmpgt_epi32(q8(), a);
  return _mm256_sub_epi32(a, _mm256_andnot_si256(lt, q8()));
}

// Montgomery reduction of nonnegative t < 2^24: returns t * 2^{-16} mod q,
// canonical. (t + m*q) / 2^16 < 2^8 + q, so one conditional subtract.
inline __m256i mredc(__m256i t) {
  const __m256i mask16 = _mm256_set1_epi32(0xFFFF);
  __m256i m = _mm256_and_si256(
      _mm256_mullo_epi32(_mm256_and_si256(t, mask16),
                         _mm256_set1_epi32(kNQInv)),
      mask16);
  __m256i r = _mm256_srli_epi32(
      _mm256_add_epi32(t, _mm256_mullo_epi32(m, q8())), 16);
  return csub(r);
}

// a (canonical) times a Montgomery-form constant bm (< q): a*bm mod q * R^{-1}
// -> plain a*b mod q.
inline __m256i mmul(__m256i a, __m256i bm) {
  return mredc(_mm256_mullo_epi32(a, bm));
}

// Generic canonical product a*b mod q via double reduction through R^2.
inline __m256i fqmul8(__m256i a, __m256i b) {
  return mmul(mredc(_mm256_mullo_epi32(a, b)), _mm256_set1_epi32(kT.r2));
}

inline __m256i load8(const std::int16_t* p) {
  return _mm256_cvtepi16_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

inline void store8(std::int16_t* p, __m256i v) {
  // Values are canonical (< q < 2^15), so saturating pack is exact.
  __m256i packed = _mm256_packs_epi32(v, v);
  packed = _mm256_permute4x64_epi64(packed, 0xD8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p),
                   _mm256_castsi256_si128(packed));
}

// The len 4/2 layers butterfly lane pairs (top, top + D) inside one 8-lane
// vector: tops/bottoms copy each pair's top/bottom coefficient onto both of
// its lanes, the product runs on all eight lanes with per-lane twiddles,
// and a blend picks the top or bottom result per lane.
template <int D>
struct Tail;

template <>
struct Tail<4> {
  static constexpr int kBottom = 0xF0;
  static __m256i tops(__m256i v) {
    return _mm256_permute2x128_si256(v, v, 0x00);
  }
  static __m256i bottoms(__m256i v) {
    return _mm256_permute2x128_si256(v, v, 0x11);
  }
};

template <>
struct Tail<2> {
  static constexpr int kBottom = 0xCC;
  static __m256i tops(__m256i v) {
    return _mm256_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 1, 0));
  }
  static __m256i bottoms(__m256i v) {
    return _mm256_shuffle_epi32(v, _MM_SHUFFLE(3, 2, 3, 2));
  }
};

// Cooley-Tukey: top = a + zeta*b, bottom = a - zeta*b.
template <int D>
inline __m256i fwd_tail(__m256i v, __m256i zm) {
  __m256i a = Tail<D>::tops(v);
  __m256i t = mmul(Tail<D>::bottoms(v), zm);
  return _mm256_blend_epi32(
      csub(_mm256_add_epi32(a, t)),
      csub(_mm256_add_epi32(_mm256_sub_epi32(a, t), q8())), Tail<D>::kBottom);
}

// Gentleman-Sande: top = a + b, bottom = zeta*(b - a).
template <int D>
inline __m256i inv_tail(__m256i v, __m256i zm) {
  __m256i a = Tail<D>::tops(v);
  __m256i b = Tail<D>::bottoms(v);
  return _mm256_blend_epi32(
      csub(_mm256_add_epi32(a, b)),
      mmul(csub(_mm256_add_epi32(_mm256_sub_epi32(b, a), q8())), zm),
      Tail<D>::kBottom);
}

// Twiddle lo on lanes 0-3 and hi on lanes 4-7.
inline __m256i zm_halves(int lo, int hi) {
  return _mm256_setr_m128i(_mm_set1_epi32(kT.zeta_m[lo]),
                           _mm_set1_epi32(kT.zeta_m[hi]));
}

void ntt(std::int16_t* r) {
  int k = 1;
  for (int len = 128; len >= 8; len >>= 1) {
    for (int start = 0; start < kN; start += 2 * len) {
      __m256i zm = _mm256_set1_epi32(kT.zeta_m[k++]);
      for (int j = start; j < start + len; j += 8) {
        __m256i a = load8(r + j);
        __m256i b = load8(r + j + len);
        __m256i t = mmul(b, zm);
        store8(r + j + len,
               csub(_mm256_add_epi32(_mm256_sub_epi32(a, t), q8())));
        store8(r + j, csub(_mm256_add_epi32(a, t)));
      }
    }
  }
  // Block b (coefficients 8b..8b+7) takes twiddle 32+b at len 4, and
  // 64+2b and 65+2b at len 2.
  for (int b = 0; b < kN / 8; ++b) {
    __m256i v = fwd_tail<4>(load8(r + 8 * b),
                            _mm256_set1_epi32(kT.zeta_m[32 + b]));
    store8(r + 8 * b, fwd_tail<2>(v, zm_halves(64 + 2 * b, 65 + 2 * b)));
  }
}

void invntt(std::int16_t* r) {
  // The forward tail's twiddles, walked backwards: block b takes 127-2b
  // and 126-2b at len 2, and 63-b at len 4.
  for (int b = 0; b < kN / 8; ++b) {
    __m256i v = inv_tail<2>(load8(r + 8 * b),
                            zm_halves(127 - 2 * b, 126 - 2 * b));
    store8(r + 8 * b,
           inv_tail<4>(v, _mm256_set1_epi32(kT.zeta_m[63 - b])));
  }
  int k = 31;
  for (int len = 8; len <= 128; len <<= 1) {
    for (int start = 0; start < kN; start += 2 * len) {
      __m256i zm = _mm256_set1_epi32(kT.zeta_m[k--]);
      for (int j = start; j < start + len; j += 8) {
        __m256i a = load8(r + j);
        __m256i b = load8(r + j + len);
        store8(r + j, csub(_mm256_add_epi32(a, b)));
        __m256i d = csub(_mm256_add_epi32(_mm256_sub_epi32(b, a), q8()));
        store8(r + j + len, mmul(d, zm));
      }
    }
  }
  __m256i f = _mm256_set1_epi32(kT.inv128_m);
  for (int j = 0; j < kN; j += 8) {
    store8(r + j, mmul(load8(r + j), f));
  }
}

void basemul_acc(std::int16_t* r, const std::int16_t* a, const std::int16_t* b,
                 bool accumulate) {
  const __m256i mask16 = _mm256_set1_epi32(0xFFFF);
  for (int p = 0; p < 128; p += 8) {  // pairs p..p+7 = coefficients 2p..2p+15
    __m256i av =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + 2 * p));
    __m256i bv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + 2 * p));
    // Coefficients are canonical (high bit clear), so mask/shift yields the
    // even/odd halves zero-extended into int32 lanes.
    __m256i ae = _mm256_and_si256(av, mask16);
    __m256i ao = _mm256_srli_epi32(av, 16);
    __m256i be = _mm256_and_si256(bv, mask16);
    __m256i bo = _mm256_srli_epi32(bv, 16);
    __m256i z2 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(kT.zpair2 + p));
    // ao*bo*zeta: one REDC drops R, the zpair2 premultiply restores R^2.
    __m256i zterm = mredc(_mm256_mullo_epi32(
        mredc(_mm256_mullo_epi32(ao, bo)), z2));
    __m256i c0 = csub(_mm256_add_epi32(fqmul8(ae, be), zterm));
    __m256i c1 = csub(_mm256_add_epi32(fqmul8(ae, bo), fqmul8(ao, be)));
    if (accumulate) {
      __m256i rv =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r + 2 * p));
      c0 = csub(_mm256_add_epi32(_mm256_and_si256(rv, mask16), c0));
      c1 = csub(_mm256_add_epi32(_mm256_srli_epi32(rv, 16), c1));
    }
    __m256i out = _mm256_or_si256(c0, _mm256_slli_epi32(c1, 16));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(r + 2 * p), out);
  }
}

const KyberKernels kKyberAvx2{&ntt, &invntt, &basemul_acc};

}  // namespace

const KyberKernels* kyber_avx2() { return &kKyberAvx2; }

}  // namespace pqtls::crypto::backend::detail

#else  // !PQTLS_HAVE_AVX2

namespace pqtls::crypto::backend::detail {

const KyberKernels* kyber_avx2() { return nullptr; }

}  // namespace pqtls::crypto::backend::detail

#endif
