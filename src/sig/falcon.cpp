#include "sig/falcon.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <complex>
#include <stdexcept>
#include <vector>

#include "crypto/bignum.hpp"
#include "crypto/ct.hpp"
#include "crypto/keccak.hpp"

namespace pqtls::sig {

namespace {

using crypto::BigInt;
using crypto::Shake;

constexpr std::int32_t kQ = 12289;

// ---------------------------------------------------------------------------
// Signed big integers (sign + magnitude over BigInt) — the tower solver's
// coefficient domain.
// ---------------------------------------------------------------------------

struct SInt {
  bool neg = false;
  BigInt mag;

  SInt() = default;
  explicit SInt(std::int64_t v) {
    neg = v < 0;
    mag = BigInt(static_cast<std::uint64_t>(neg ? -v : v));
  }
  bool is_zero() const { return mag.is_zero(); }
  std::size_t bit_length() const { return mag.bit_length(); }

  SInt operator-() const {
    SInt out = *this;
    if (!out.is_zero()) out.neg = !out.neg;
    return out;
  }
};

SInt sadd(const SInt& a, const SInt& b) {
  SInt out;
  if (a.neg == b.neg) {
    out.neg = a.neg;
    out.mag = a.mag + b.mag;
  } else if (BigInt::cmp(a.mag, b.mag) >= 0) {
    out.neg = a.neg;
    out.mag = a.mag - b.mag;
  } else {
    out.neg = b.neg;
    out.mag = b.mag - a.mag;
  }
  if (out.mag.is_zero()) out.neg = false;
  return out;
}

SInt ssub(const SInt& a, const SInt& b) { return sadd(a, -b); }

SInt smul(const SInt& a, const SInt& b) {
  SInt out;
  out.mag = a.mag * b.mag;
  out.neg = !out.mag.is_zero() && (a.neg != b.neg);
  return out;
}

SInt sshift(const SInt& a, std::size_t bits) {
  SInt out;
  out.mag = a.mag << bits;
  out.neg = a.neg;
  return out;
}

/// Approximate value as v * 2^exp with |v| in [0.5, 1) (0 for zero).
double to_scaled_double(const SInt& a, long exp) {
  if (a.is_zero()) return 0.0;
  long bl = static_cast<long>(a.bit_length());
  // value ~= mag / 2^exp; take top 53 bits.
  long shift = bl - 53;
  double v;
  if (shift > 0) {
    BigInt top = a.mag >> static_cast<std::size_t>(shift);
    v = static_cast<double>(top.low_u64()) * std::ldexp(1.0, static_cast<int>(shift - exp));
  } else {
    v = static_cast<double>(a.mag.low_u64()) * std::ldexp(1.0, static_cast<int>(-exp));
  }
  return a.neg ? -v : v;
}

// ---------------------------------------------------------------------------
// Complex FFT on the negacyclic ring R[x]/(x^d + 1): evaluate at the odd
// 2d-th roots of unity. We twist by w^j (w = e^{i pi / d}) and run a
// standard iterative DFT of size d, keeping the first half of the spectrum.
// ---------------------------------------------------------------------------

using Cplx = std::complex<double>;

void dft_inplace(std::vector<Cplx>& a, bool inverse) {
  std::size_t n = a.size();
  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    double ang = 2.0 * M_PI / static_cast<double>(len) * (inverse ? -1 : 1);
    Cplx wl(std::cos(ang), std::sin(ang));
    for (std::size_t i = 0; i < n; i += len) {
      Cplx w(1.0);
      for (std::size_t j = 0; j < len / 2; ++j) {
        Cplx u = a[i + j];
        Cplx v = a[i + j + len / 2] * w;
        a[i + j] = u + v;
        a[i + j + len / 2] = u - v;
        w *= wl;
      }
    }
  }
  if (inverse) {
    for (auto& x : a) x /= static_cast<double>(n);
  }
}

/// Negacyclic FFT: real coefficients -> d complex evaluations at
/// w^{2k+1}. (We keep all d values; conjugate symmetry is not exploited.)
std::vector<Cplx> fft_nega(const std::vector<double>& f) {
  std::size_t d = f.size();
  std::vector<Cplx> a(d);
  for (std::size_t j = 0; j < d; ++j) {
    double ang = M_PI * static_cast<double>(j) / static_cast<double>(d);
    a[j] = f[j] * Cplx(std::cos(ang), std::sin(ang));  // twist by w^j
  }
  dft_inplace(a, false);
  return a;
}

/// Inverse negacyclic FFT back to real coefficients.
std::vector<double> ifft_nega(std::vector<Cplx> a) {
  std::size_t d = a.size();
  dft_inplace(a, true);
  std::vector<double> f(d);
  for (std::size_t j = 0; j < d; ++j) {
    double ang = -M_PI * static_cast<double>(j) / static_cast<double>(d);
    Cplx v = a[j] * Cplx(std::cos(ang), std::sin(ang));  // untwist
    f[j] = v.real();
  }
  return f;
}

// ---------------------------------------------------------------------------
// Tower solver for the NTRU equation.
// ---------------------------------------------------------------------------

using SPoly = std::vector<SInt>;  // element of Z[x]/(x^d + 1)

// Negacyclic convolution c = a * b over Z[x]/(x^d + 1).
SPoly nega_mul(const SPoly& a, const SPoly& b) {
  std::size_t d = a.size();
  SPoly c(d);
  for (std::size_t i = 0; i < d; ++i) {
    if (a[i].is_zero()) continue;
    for (std::size_t j = 0; j < d; ++j) {
      if (b[j].is_zero()) continue;
      SInt prod = smul(a[i], b[j]);
      std::size_t k = i + j;
      if (k >= d) {
        c[k - d] = ssub(c[k - d], prod);  // x^d = -1
      } else {
        c[k] = sadd(c[k], prod);
      }
    }
  }
  return c;
}

// Galois conjugate a(-x).
SPoly conj_x(const SPoly& a) {
  SPoly out = a;
  for (std::size_t i = 1; i < out.size(); i += 2) out[i] = -out[i];
  return out;
}

// Field norm: N(f)(y) with f(x) = e(x^2) + x o(x^2); N(f) = e^2 - y o^2.
SPoly field_norm(const SPoly& f) {
  std::size_t d = f.size() / 2;
  SPoly e(d), o(d);
  for (std::size_t i = 0; i < d; ++i) {
    e[i] = f[2 * i];
    o[i] = f[2 * i + 1];
  }
  SPoly e2 = nega_mul(e, e);
  SPoly o2 = nega_mul(o, o);
  // subtract y * o^2 (multiply by y with negacyclic wrap)
  SPoly out(d);
  for (std::size_t i = 0; i < d; ++i) {
    SInt shifted = (i == 0) ? -o2[d - 1] : o2[i - 1];
    out[i] = ssub(e2[i], shifted);
  }
  return out;
}

// Lift F'(y) at y = x^2 and multiply by g(-x): size doubles.
SPoly lift_mul(const SPoly& f_half, const SPoly& g_full) {
  std::size_t d = g_full.size();
  SPoly lifted(d);
  for (std::size_t i = 0; i < d / 2; ++i) lifted[2 * i] = f_half[i];
  return nega_mul(lifted, conj_x(g_full));
}

long max_bitlen(const SPoly& a) {
  long m = 0;
  for (const auto& c : a) m = std::max(m, static_cast<long>(c.bit_length()));
  return m;
}

// F -= (k * f) << shift, negacyclic, with small integer k coefficients.
void sub_scaled(SPoly& f_big, const SPoly& f_small,
                const std::vector<std::int64_t>& k, std::size_t shift) {
  std::size_t d = f_big.size();
  for (std::size_t i = 0; i < d; ++i) {
    if (k[i] == 0) continue;
    SInt ki(k[i]);
    for (std::size_t j = 0; j < d; ++j) {
      if (f_small[j].is_zero()) continue;
      SInt prod = sshift(smul(ki, f_small[j]), shift);
      std::size_t idx = i + j;
      if (idx >= d) {
        f_big[idx - d] = sadd(f_big[idx - d], prod);  // minus from wrap, minus from sub
      } else {
        f_big[idx] = ssub(f_big[idx], prod);
      }
    }
  }
}

// Reduce (F, G) against (f, g): Babai nearest-plane with scaled FFT.
void babai_reduce(const SPoly& f, const SPoly& g, SPoly& F, SPoly& G) {
  std::size_t d = f.size();
  long ef = std::max(max_bitlen(f), max_bitlen(g));
  // Precompute FFT of f, g scaled to ~1.
  std::vector<double> fd(d), gd(d);
  for (std::size_t i = 0; i < d; ++i) {
    fd[i] = to_scaled_double(f[i], ef);
    gd[i] = to_scaled_double(g[i], ef);
  }
  auto f_fft = fft_nega(fd);
  auto g_fft = fft_nega(gd);
  std::vector<Cplx> denom(d);
  for (std::size_t i = 0; i < d; ++i)
    denom[i] = f_fft[i] * std::conj(f_fft[i]) + g_fft[i] * std::conj(g_fft[i]);

  for (int iter = 0; iter < 300; ++iter) {
    long eF = std::max(max_bitlen(F), max_bitlen(G));
    long diff = eF - ef;  // k_true ~ k_real * 2^{diff}

    std::vector<double> Fd(d), Gd(d);
    for (std::size_t i = 0; i < d; ++i) {
      Fd[i] = to_scaled_double(F[i], eF);
      Gd[i] = to_scaled_double(G[i], eF);
    }
    auto F_fft = fft_nega(Fd);
    auto G_fft = fft_nega(Gd);
    std::vector<Cplx> k_fft(d);
    for (std::size_t i = 0; i < d; ++i) {
      Cplx num = F_fft[i] * std::conj(f_fft[i]) + G_fft[i] * std::conj(g_fft[i]);
      k_fft[i] = num / denom[i];
    }
    // Extract up to 40 bits of k per pass; the rest stays in the shift.
    std::vector<double> k_real = ifft_nega(std::move(k_fft));
    long extract = std::min<long>(diff, 40);
    std::size_t sub_shift = static_cast<std::size_t>(std::max<long>(diff - extract, 0));
    std::vector<std::int64_t> k(d);
    bool any = false;
    for (std::size_t i = 0; i < d; ++i) {
      double scaled = std::ldexp(k_real[i], static_cast<int>(extract));
      if (!(std::fabs(scaled) < 9.0e15)) return;  // degenerate basis; give up
      k[i] = std::llround(scaled);
      if (k[i] != 0) any = true;
    }
    if (!any) return;  // fully reduced
    sub_scaled(F, f, k, sub_shift);
    sub_scaled(G, g, k, sub_shift);
  }
}

// Solve f*G - g*F = q recursively. Returns false if not solvable.
bool solve_ntru(const SPoly& f, const SPoly& g, SPoly& F, SPoly& G) {
  std::size_t d = f.size();
  if (d == 1) {
    // xgcd over Z: u f0 + v g0 = gcd.
    const SInt& f0 = f[0];
    const SInt& g0 = g[0];
    if (f0.is_zero() || g0.is_zero()) return false;
    // Iterative extended Euclid on magnitudes.
    BigInt r0 = f0.mag, r1 = g0.mag;
    // Track coefficients as SInt.
    SInt s0(1), s1(0), t0(0), t1(1);
    while (!r1.is_zero()) {
      auto dm = BigInt::divmod(r0, r1);
      SInt qq;
      qq.mag = dm.quotient;
      r0 = r1;
      r1 = dm.remainder;
      SInt s2 = ssub(s0, smul(qq, s1));
      SInt t2 = ssub(t0, smul(qq, t1));
      s0 = s1; s1 = s2;
      t0 = t1; t1 = t2;
    }
    if (!(r0 == BigInt{1})) return false;
    // s0 * |f0| + t0 * |g0| = 1; fix signs: u*f0 + v*g0 = 1.
    SInt u = f0.neg ? -s0 : s0;
    SInt v = g0.neg ? -t0 : t0;
    // G = q*u, F = -q*v satisfies f G - g F = q(uf + vg) = q.
    SInt q_s(kQ);
    F.assign(1, -smul(q_s, v));
    G.assign(1, smul(q_s, u));
    return true;
  }

  SPoly fn = field_norm(f);
  SPoly gn = field_norm(g);
  SPoly Fh, Gh;
  if (!solve_ntru(fn, gn, Fh, Gh)) return false;
  // F = F'(x^2) g(-x); G = G'(x^2) f(-x).
  F = lift_mul(Fh, g);
  G = lift_mul(Gh, f);
  babai_reduce(f, g, F, G);
  return true;
}

// ---------------------------------------------------------------------------
// Arithmetic mod q on small polynomials.
// ---------------------------------------------------------------------------

using QPoly = std::vector<std::int32_t>;  // coefficients in [0, q)

std::int32_t qreduce(std::int64_t v) {
  v %= kQ;
  if (v < 0) v += kQ;
  return static_cast<std::int32_t>(v);
}

// Negacyclic schoolbook product mod q.
QPoly qmul(const QPoly& a, const QPoly& b) {
  std::size_t d = a.size();
  QPoly c(d, 0);
  std::vector<std::int64_t> acc(d, 0);
  for (std::size_t i = 0; i < d; ++i) {
    if (a[i] == 0) continue;
    std::int64_t ai = a[i];
    for (std::size_t j = 0; j < d; ++j) {
      std::size_t k = i + j;
      std::int64_t prod = ai * b[j];
      if (k >= d)
        acc[k - d] -= prod;
      else
        acc[k] += prod;
    }
    // Prevent int64 overflow: reduce periodically (q^2 * d fits, but stay safe).
    if ((i & 63) == 63)
      for (std::size_t k = 0; k < d; ++k) acc[k] %= kQ;
  }
  for (std::size_t k = 0; k < d; ++k) c[k] = qreduce(acc[k]);
  return c;
}

// Inverse of f mod q via NTT (q = 12289, 2d | q - 1).
struct QNtt {
  std::size_t d;
  std::vector<std::int32_t> psi_pow;      // psi^i, i < 2d
  std::vector<std::int32_t> psi_inv_pow;  // psi^{-i}
  std::int32_t d_inv;

  explicit QNtt(std::size_t degree) : d(degree) {
    auto pow_mod = [](std::int64_t base, std::int64_t e) {
      std::int64_t r = 1;
      base %= kQ;
      while (e > 0) {
        if (e & 1) r = r * base % kQ;
        base = base * base % kQ;
        e >>= 1;
      }
      return static_cast<std::int32_t>(r);
    };
    // Find a generator of the full multiplicative group, derive psi of
    // order 2d.
    std::int32_t gen = 0;
    for (std::int32_t c = 2; c < kQ; ++c) {
      if (pow_mod(c, (kQ - 1) / 2) != 1 && pow_mod(c, (kQ - 1) / 3) != 1) {
        gen = c;
        break;
      }
    }
    std::int32_t psi = pow_mod(gen, (kQ - 1) / static_cast<std::int64_t>(2 * d));
    psi_pow.resize(2 * d);
    psi_inv_pow.resize(2 * d);
    psi_pow[0] = 1;
    for (std::size_t i = 1; i < 2 * d; ++i)
      psi_pow[i] = static_cast<std::int32_t>(
          static_cast<std::int64_t>(psi_pow[i - 1]) * psi % kQ);
    std::int32_t psi_inv = pow_mod(psi, 2 * static_cast<std::int64_t>(d) - 1);
    psi_inv_pow[0] = 1;
    for (std::size_t i = 1; i < 2 * d; ++i)
      psi_inv_pow[i] = static_cast<std::int32_t>(
          static_cast<std::int64_t>(psi_inv_pow[i - 1]) * psi_inv % kQ);
    d_inv = pow_mod(static_cast<std::int64_t>(d), kQ - 2);
  }

  // Forward: values f(psi^{2k+1}) via twist + standard cyclic NTT (done
  // naively O(d^2) would be too slow; use iterative radix-2).
  std::vector<std::int32_t> forward(const QPoly& f) const {
    std::vector<std::int32_t> a(d);
    for (std::size_t j = 0; j < d; ++j)
      a[j] = static_cast<std::int32_t>(
          static_cast<std::int64_t>(f[j]) * psi_pow[j] % kQ);
    cyclic_ntt(a, false);
    return a;
  }

  QPoly inverse_transform(std::vector<std::int32_t> a) const {
    cyclic_ntt(a, true);
    QPoly f(d);
    for (std::size_t j = 0; j < d; ++j) {
      std::int64_t v = static_cast<std::int64_t>(a[j]) * psi_inv_pow[j] % kQ;
      v = v * d_inv % kQ;
      f[j] = static_cast<std::int32_t>(v);
    }
    return f;
  }

 private:
  void cyclic_ntt(std::vector<std::int32_t>& a, bool inverse) const {
    std::size_t n = a.size();
    for (std::size_t i = 1, j = 0; i < n; ++i) {
      std::size_t bit = n >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
      if (i < j) std::swap(a[i], a[j]);
    }
    // omega = psi^2 has order d.
    for (std::size_t len = 2; len <= n; len <<= 1) {
      // w_len = omega^{d/len} (or inverse)
      std::size_t step = 2 * (d / len);  // exponent step in psi powers
      for (std::size_t i = 0; i < n; i += len) {
        for (std::size_t j = 0; j < len / 2; ++j) {
          std::size_t e = (j * step) % (2 * d);
          std::int32_t w = inverse ? psi_inv_pow[e] : psi_pow[e];
          std::int64_t u = a[i + j];
          std::int64_t v = static_cast<std::int64_t>(a[i + j + len / 2]) * w % kQ;
          a[i + j] = static_cast<std::int32_t>((u + v) % kQ);
          a[i + j + len / 2] = static_cast<std::int32_t>((u - v % kQ + kQ) % kQ);
        }
      }
    }
  }
};

// f^{-1} mod q (negacyclic); returns false if any NTT slot is zero.
bool qinv(const QPoly& f, QPoly& out) {
  static const QNtt ntt512(512);
  static const QNtt ntt1024(1024);
  const QNtt& ntt = f.size() == 512 ? ntt512 : ntt1024;
  auto vals = ntt.forward(f);
  for (auto& v : vals) {
    if (v == 0) return false;
    // Fermat inverse.
    std::int64_t base = v, e = kQ - 2, r = 1;
    while (e > 0) {
      if (e & 1) r = r * base % kQ;
      base = base * base % kQ;
      e >>= 1;
    }
    v = static_cast<std::int32_t>(r);
  }
  out = ntt.inverse_transform(std::move(vals));
  return true;
}

// ---------------------------------------------------------------------------
// Hashing, codecs.
// ---------------------------------------------------------------------------

QPoly hash_to_point(BytesView salt, BytesView message, std::size_t d) {
  Shake xof(256);
  xof.absorb(salt);
  xof.absorb(message);
  QPoly c(d);
  std::size_t filled = 0;
  while (filled < d) {
    std::uint8_t b[2];
    xof.squeeze(b, 2);
    std::uint32_t v = (std::uint32_t{b[0]} << 8) | b[1];
    if (v < 61445) {  // 5 * 12289
      c[filled++] = static_cast<std::int32_t>(v % kQ);
    }
  }
  return c;
}

void pack14(Bytes& out, const QPoly& h) {
  std::uint32_t acc = 0;
  int bits = 0;
  for (std::int32_t v : h) {
    acc = (acc << 14) | static_cast<std::uint32_t>(v);
    bits += 14;
    while (bits >= 8) {
      out.push_back(static_cast<std::uint8_t>(acc >> (bits - 8)));
      bits -= 8;
    }
  }
}

bool unpack14(BytesView in, QPoly& h, std::size_t d) {
  h.assign(d, 0);
  std::uint32_t acc = 0;
  int bits = 0;
  std::size_t pos = 0;
  for (std::size_t i = 0; i < d; ++i) {
    while (bits < 14) {
      if (pos >= in.size()) return false;
      acc = (acc << 8) | in[pos++];
      bits += 8;
    }
    std::uint32_t v = (acc >> (bits - 14)) & 0x3fff;
    bits -= 14;
    if (v >= static_cast<std::uint32_t>(kQ)) return false;
    h[i] = static_cast<std::int32_t>(v);
  }
  return true;
}

// Falcon compressed signature encoding of s2 (sign + 7 low bits + unary
// high part), into a fixed budget. Returns false on overflow.
bool compress_s2(const std::vector<std::int32_t>& s2, std::size_t budget,
                 Bytes& out) {
  std::uint64_t acc = 0;
  int bits = 0;
  out.clear();
  auto push_bits = [&](std::uint32_t value, int nbits) {
    acc = (acc << nbits) | value;
    bits += nbits;
    while (bits >= 8) {
      out.push_back(static_cast<std::uint8_t>(acc >> (bits - 8)));
      bits -= 8;
    }
  };
  for (std::int32_t v : s2) {
    std::uint32_t sign = v < 0 ? 1 : 0;
    std::uint32_t mag = static_cast<std::uint32_t>(v < 0 ? -v : v);
    if (mag > 2047) return false;
    push_bits(sign, 1);
    push_bits(mag & 0x7f, 7);
    std::uint32_t high = mag >> 7;  // <= 15
    // unary: `high` zeros then a one
    push_bits(1, static_cast<int>(high) + 1);
    if (out.size() > budget) return false;
  }
  if (bits > 0) push_bits(0, 8 - bits);
  if (out.size() > budget) return false;
  out.resize(budget, 0);  // zero-pad to the fixed wire size
  return true;
}

bool decompress_s2(BytesView in, std::size_t d, std::vector<std::int32_t>& s2) {
  s2.assign(d, 0);
  std::size_t bitpos = 0;
  auto get_bit = [&]() -> int {
    if (bitpos >= in.size() * 8) return -1;
    int b = (in[bitpos / 8] >> (7 - bitpos % 8)) & 1;
    ++bitpos;
    return b;
  };
  for (std::size_t i = 0; i < d; ++i) {
    int sign = get_bit();
    if (sign < 0) return false;
    std::uint32_t mag = 0;
    for (int j = 0; j < 7; ++j) {
      int b = get_bit();
      if (b < 0) return false;
      mag = (mag << 1) | static_cast<std::uint32_t>(b);
    }
    std::uint32_t high = 0;
    for (;;) {
      int b = get_bit();
      if (b < 0) return false;
      if (b) break;
      if (++high > 15) return false;
    }
    mag |= high << 7;
    if (sign && mag == 0) return false;  // non-canonical -0
    s2[i] = sign ? -static_cast<std::int32_t>(mag)
                 : static_cast<std::int32_t>(mag);
  }
  // Remaining padding must be zero bits.
  while (bitpos < in.size() * 8) {
    int b = get_bit();
    if (b != 0) return false;
  }
  return true;
}

// Secret key layout: header byte, then f, g, F, G as little-endian int16.
void pack_sk(Bytes& out, const std::vector<std::int16_t>& v) {
  for (std::int16_t c : v) {
    out.push_back(static_cast<std::uint8_t>(c & 0xff));
    out.push_back(static_cast<std::uint8_t>((c >> 8) & 0xff));
  }
}

std::vector<std::int16_t> unpack_sk(BytesView in, std::size_t d) {
  std::vector<std::int16_t> v(d);
  for (std::size_t i = 0; i < d; ++i)
    v[i] = static_cast<std::int16_t>(in[2 * i] | (in[2 * i + 1] << 8));
  return v;
}

}  // namespace

FalconSigner::FalconSigner(int degree) : n_(static_cast<std::size_t>(degree)) {
  if (degree == 512) {
    level_ = 1;
    sig_bytes_ = 666;
    beta_squared_ = 34034726;
  } else if (degree == 1024) {
    level_ = 5;
    sig_bytes_ = 1280;
    beta_squared_ = 70265242;
  } else {
    throw std::invalid_argument("Falcon degree must be 512 or 1024");
  }
  name_ = "falcon" + std::to_string(degree);
}

SigKeyPair FalconSigner::generate_keypair(Drbg& rng) const {
  const double sigma_fg = 1.17 * std::sqrt(static_cast<double>(kQ) /
                                           (2.0 * static_cast<double>(n_)));
  for (;;) {
    // Gaussian f, g via Box-Muller.
    std::vector<std::int16_t> f(n_), g(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      double u1 = rng.real(), u2 = rng.real();
      if (u1 < 1e-12) u1 = 1e-12;
      double mag = std::sqrt(-2.0 * std::log(u1));
      f[i] = static_cast<std::int16_t>(
          std::llround(sigma_fg * mag * std::cos(2.0 * M_PI * u2)));
      g[i] = static_cast<std::int16_t>(
          std::llround(sigma_fg * mag * std::sin(2.0 * M_PI * u2)));
    }
    // f must be invertible mod q.
    QPoly fq(n_), gq(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      fq[i] = qreduce(f[i]);
      gq[i] = qreduce(g[i]);
    }
    QPoly f_inv;
    if (!qinv(fq, f_inv)) continue;

    // Solve the NTRU equation.
    SPoly fs(n_), gs(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      fs[i] = SInt(f[i]);
      gs[i] = SInt(g[i]);
    }
    SPoly Fs, Gs;
    if (!solve_ntru(fs, gs, Fs, Gs)) continue;

    // Exactness check: f*G - g*F must equal the constant q.
    SPoly check = nega_mul(fs, Gs);
    SPoly gF = nega_mul(gs, Fs);
    for (std::size_t i = 0; i < n_; ++i) check[i] = ssub(check[i], gF[i]);
    bool exact = !check[0].neg && check[0].mag == BigInt{kQ};
    for (std::size_t i = 1; i < n_ && exact; ++i) exact = check[i].is_zero();
    if (!exact) continue;

    // F, G must fit in int16 for our key layout (true after reduction).
    std::vector<std::int16_t> F(n_), G(n_);
    bool fits = true;
    for (std::size_t i = 0; i < n_ && fits; ++i) {
      auto extract = [&fits](const SInt& v) -> std::int16_t {
        if (v.bit_length() > 14) {
          fits = false;
          return 0;
        }
        auto mag = static_cast<std::int32_t>(v.mag.low_u64());
        return static_cast<std::int16_t>(v.neg ? -mag : mag);
      };
      F[i] = extract(Fs[i]);
      G[i] = extract(Gs[i]);
    }
    if (!fits) continue;

    // h = g / f mod q.
    QPoly h = qmul(gq, f_inv);

    SigKeyPair kp;
    kp.public_key.push_back(static_cast<std::uint8_t>(
        n_ == 512 ? 0x09 : 0x0a));  // 0x00 + logn header
    pack14(kp.public_key, h);
    kp.secret_key.push_back(static_cast<std::uint8_t>(n_ == 512 ? 0x59 : 0x5a));
    pack_sk(kp.secret_key, f);
    pack_sk(kp.secret_key, g);
    pack_sk(kp.secret_key, F);
    pack_sk(kp.secret_key, G);
    return kp;
  }
}

namespace {

// The secret basis B = [[g, -f], [G, -F]] mod q and in FFT representation:
// everything signing needs from the secret key, computed once at load.
struct FalconSigningKey final : SigningKey {
  using SigningKey::SigningKey;
  ~FalconSigningKey() override {
    ct::wipe(fq);
    ct::wipe(gq);
    ct::wipe(Fq);
    ct::wipe(Gq);
    ct::wipe(f_fft);
    ct::wipe(g_fft);
    ct::wipe(F_fft);
    ct::wipe(G_fft);
  }

  QPoly fq, gq, Fq, Gq;  // CT_SECRET: fq, gq, Fq, Gq
  std::vector<Cplx> f_fft, g_fft;  // CT_SECRET: f_fft, g_fft
  std::vector<Cplx> F_fft, G_fft;  // CT_SECRET: F_fft, G_fft
};

// The public key h = g / f mod q; empty (verifying nothing) when the
// encoding is malformed.
struct FalconVerifyingKey final : VerifyingKey {
  using VerifyingKey::VerifyingKey;

  QPoly h;
};

}  // namespace

std::shared_ptr<const SigningKey> FalconSigner::load_signing_key(
    BytesView secret_key) const {
  if (secret_key.size() != secret_key_size())
    throw std::invalid_argument(name_ + ": secret key must be " +
                                std::to_string(secret_key_size()) + " bytes");
  auto loaded = std::make_shared<FalconSigningKey>(*this);
  // Unpack one basis polynomial: mod q, and its FFT (exact small integers).
  auto load = [&](std::size_t index, QPoly& q, std::vector<Cplx>& fft) {
    auto v = unpack_sk(secret_key.subspan(1 + 2 * n_ * index, 2 * n_), n_);
    q.resize(n_);
    std::vector<double> d(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      q[i] = qreduce(v[i]);
      d[i] = static_cast<double>(v[i]);
    }
    fft = fft_nega(d);
    ct::wipe(v);
    ct::wipe(d);
  };
  load(0, loaded->fq, loaded->f_fft);
  load(1, loaded->gq, loaded->g_fft);
  load(2, loaded->Fq, loaded->F_fft);
  load(3, loaded->Gq, loaded->G_fft);
  return loaded;
}

Bytes FalconSigner::sign(BytesView secret_key, BytesView message,
                         Drbg& rng) const {
  return sign_with(*load_signing_key(secret_key), message, rng);
}

Bytes FalconSigner::sign_with(const SigningKey& signing_key, BytesView message,
                              Drbg& rng) const {
  const auto& sk = own<FalconSigningKey>(signing_key);
  for (int attempt = 0; attempt < 64; ++attempt) {
    Bytes salt = rng.bytes(40);
    QPoly c = hash_to_point(salt, message, n_);

    std::vector<double> cd(n_);
    for (std::size_t i = 0; i < n_; ++i) cd[i] = static_cast<double>(c[i]);
    auto c_fft = fft_nega(cd);

    // t = (c, 0) B^{-1} = (-c F / q, c f / q): coordinates of the target in
    // the secret basis B = [[g, -f], [G, -F]].
    std::vector<Cplx> t0(n_), t1(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      t0[i] = -c_fft[i] * sk.F_fft[i] / static_cast<double>(kQ);
      t1[i] = c_fft[i] * sk.f_fft[i] / static_cast<double>(kQ);
    }
    // Babai nearest-plane over the two basis rows (the ffSampling recursion
    // with deterministic rounding at the leaves; see header comment):
    // round z1, then fold the residual's b1-component into t0 via
    // mu = <b2, b1> / <b1, b1>, then round z0.
    auto t1d = ifft_nega(t1);
    std::vector<std::int64_t> z1(n_);
    std::vector<double> z1d(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      z1[i] = std::llround(t1d[i]);
      z1d[i] = static_cast<double>(z1[i]);
    }
    auto z1_fft = fft_nega(z1d);
    for (std::size_t i = 0; i < n_; ++i) {
      Cplx mu = (sk.G_fft[i] * std::conj(sk.g_fft[i]) +
                 sk.F_fft[i] * std::conj(sk.f_fft[i])) /
                (std::norm(sk.g_fft[i]) + std::norm(sk.f_fft[i]));
      t0[i] += (t1[i] - z1_fft[i]) * mu;
    }
    auto z0d = ifft_nega(std::move(t0));
    std::vector<std::int64_t> z0(n_);
    for (std::size_t i = 0; i < n_; ++i) z0[i] = std::llround(z0d[i]);

    // s1 = c - (z0 g + z1 G) mod q (centered), s2 = z0 f + z1 F mod q.
    QPoly z0q(n_), z1q(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      z0q[i] = qreduce(z0[i]);
      z1q[i] = qreduce(z1[i]);
    }
    QPoly z0g = qmul(z0q, sk.gq);
    QPoly z1G = qmul(z1q, sk.Gq);
    QPoly z0f = qmul(z0q, sk.fq);
    QPoly z1F = qmul(z1q, sk.Fq);

    std::vector<std::int32_t> s1(n_), s2(n_);
    std::int64_t norm = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      std::int32_t v1 = qreduce(static_cast<std::int64_t>(c[i]) - z0g[i] - z1G[i]);
      if (v1 > kQ / 2) v1 -= kQ;
      std::int32_t v2 = qreduce(static_cast<std::int64_t>(z0f[i]) + z1F[i]);
      if (v2 > kQ / 2) v2 -= kQ;
      s1[i] = v1;
      s2[i] = v2;
      norm += static_cast<std::int64_t>(v1) * v1 +
              static_cast<std::int64_t>(v2) * v2;
    }
    if (norm > beta_squared_) continue;  // retry with a fresh salt

    Bytes compressed;
    std::size_t budget = sig_bytes_ - 1 - 40;
    if (!compress_s2(s2, budget, compressed)) continue;

    Bytes sig;
    sig.push_back(static_cast<std::uint8_t>(0x30 + (n_ == 512 ? 9 : 10)));
    append(sig, salt);
    append(sig, compressed);
    return sig;
  }
  throw std::runtime_error("Falcon signing failed repeatedly (bad key?)");
}

std::shared_ptr<const VerifyingKey> FalconSigner::load_verifying_key(
    BytesView public_key) const {
  auto loaded = std::make_shared<FalconVerifyingKey>(*this);
  if (public_key.size() != public_key_size() ||
      public_key[0] != (n_ == 512 ? 0x09 : 0x0a) ||
      !unpack14(public_key.subspan(1), loaded->h, n_))
    loaded->h.clear();
  return loaded;
}

bool FalconSigner::verify(BytesView public_key, BytesView message,
                          BytesView signature) const {
  return verify_with(*load_verifying_key(public_key), message, signature);
}

bool FalconSigner::verify_with(const VerifyingKey& verifying_key,
                               BytesView message, BytesView signature) const {
  const QPoly& h = own<FalconVerifyingKey>(verifying_key).h;
  if (h.empty() || signature.size() != signature_size()) return false;
  if (signature[0] != 0x30 + (n_ == 512 ? 9 : 10)) return false;

  BytesView salt = signature.subspan(1, 40);
  std::vector<std::int32_t> s2;
  if (!decompress_s2(signature.subspan(41), n_, s2)) return false;

  QPoly c = hash_to_point(salt, message, n_);
  QPoly s2q(n_);
  for (std::size_t i = 0; i < n_; ++i) s2q[i] = qreduce(s2[i]);
  QPoly s2h = qmul(s2q, h);

  std::int64_t norm = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    std::int32_t v1 = qreduce(static_cast<std::int64_t>(c[i]) - s2h[i]);
    if (v1 > kQ / 2) v1 -= kQ;
    norm += static_cast<std::int64_t>(v1) * v1 +
            static_cast<std::int64_t>(s2[i]) * s2[i];
  }
  return norm <= beta_squared_;
}

const FalconSigner& FalconSigner::falcon512() {
  static const FalconSigner s(512);
  return s;
}
const FalconSigner& FalconSigner::falcon1024() {
  static const FalconSigner s(1024);
  return s;
}

}  // namespace pqtls::sig
