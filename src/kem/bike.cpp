#include "kem/bike.hpp"

#include <array>
#include <stdexcept>
#include <utility>
#include <vector>

#include "crypto/ct.hpp"
#include "crypto/gf2.hpp"
#include "crypto/keccak.hpp"

namespace pqtls::kem {

namespace {

using crypto::Gf2Ring;

Bytes domain_hash(std::uint8_t domain, BytesView a, BytesView b = {},
                  std::size_t out = 32) {
  crypto::Shake xof(256);
  xof.absorb({&domain, 1});
  xof.absorb(a);
  xof.absorb(b);
  return xof.squeeze(out);
}

// Sample an error pair (e0, e1) of total weight t over 2r positions from a
// 32-byte seed (the deterministic H function of the FO transform).
void sample_error(BytesView seed, std::size_t r, int t, Gf2Ring& e0,
                  Gf2Ring& e1) {
  crypto::Drbg rng(seed);
  e0 = Gf2Ring(r);
  e1 = Gf2Ring(r);
  int placed = 0;
  while (placed < t) {
    std::uint64_t pos = rng.uniform(2 * r);
    Gf2Ring& block = pos < r ? e0 : e1;
    std::size_t idx = pos < r ? pos : pos - r;
    if (block.get(idx)) continue;
    block.set(idx, true);
    ++placed;
  }
}

struct BgfThreshold {
  double slope;
  double intercept;
  int floor_value;  // (d + 1) / 2
};

int threshold(const BgfThreshold& th, std::size_t syndrome_weight) {
  int v = static_cast<int>(th.slope * static_cast<double>(syndrome_weight) +
                           th.intercept);
  return std::max(v, th.floor_value);
}

// Unsatisfied-parity counters of every position of one block at once.
// Counter j is #{k in supp : s[(j + k) mod r] = 1}, so the counters are the
// sum over the support of the syndrome rotated down by k: bits [k, k + r)
// of the doubled syndrome s || s. The sums live in kSlices bit-slices,
// one word per 64 positions, and are compared against thresholds slice by
// slice.
constexpr int kSlices = 7;  // counters reach at most d <= 103 < 2^7

// s || s as 2r contiguous bits, with zero words after them so that every
// 64-bit window starting below 2r can be read whole.
std::vector<std::uint64_t> doubled(const Gf2Ring& s) {
  const auto& w = s.words();
  std::size_t r = s.degree_bound(), ws = r / 64, bs = r % 64;
  std::vector<std::uint64_t> out(2 * w.size() + 2, 0);
  for (std::size_t i = 0; i < w.size(); ++i) {
    out[i] ^= w[i];
    out[i + ws] ^= w[i] << bs;
    if (bs) out[i + ws + 1] ^= w[i] >> (64 - bs);
  }
  return out;
}

// One full adder per lane: a + b + c = sum + 2 carry.
inline void full_add(std::uint64_t& sum, std::uint64_t& carry, std::uint64_t a,
                     std::uint64_t b, std::uint64_t c) {
  std::uint64_t u = a ^ b;
  sum = u ^ c;
  carry = (a & b) | (u & c);
}

class Counters {
 public:
  Counters(const std::vector<std::uint64_t>& doubled_syndrome, std::size_t r,
           const std::vector<std::uint32_t>& supp)
      : r_(r), slices_((r + 63) / 64) {
    if (supp.size() >= (std::size_t{1} << kSlices))
      throw std::invalid_argument("BIKE block weight exceeds the counters");
    const std::uint64_t* sd = doubled_syndrome.data();
    const std::size_t n = supp.size();
    for (std::size_t wi = 0; wi < slices_.size(); ++wi) {
      auto& c = slices_[wi];
      // Bits [64 wi + k, 64 wi + k + 64) of s || s.
      auto rotated = [&](std::uint32_t k) {
        std::size_t idx = wi + k / 64, sh = k % 64;
        return (sd[idx] >> sh) | ((sd[idx + 1] << 1) << (63 - sh));
      };
      // Add x at weight 2^level with a ripple of half adders.
      auto add = [&](int level, std::uint64_t x) {
        for (int i = level; i < kSlices; ++i) {
          std::uint64_t carry = c[i] & x;
          c[i] ^= x;
          x = carry;
        }
      };
      // Eight rotations at a time through a carry-save tree (Harley-Seal):
      // seven full adders leave one weight-8 carry to ripple in.
      std::size_t j = 0;
      for (; j + 8 <= n; j += 8) {
        const std::uint32_t* k = supp.data() + j;
        std::uint64_t twos_a, twos_b, fours_a, fours_b, eights;
        full_add(c[0], twos_a, c[0], rotated(k[0]), rotated(k[1]));
        full_add(c[0], twos_b, c[0], rotated(k[2]), rotated(k[3]));
        full_add(c[1], fours_a, c[1], twos_a, twos_b);
        full_add(c[0], twos_a, c[0], rotated(k[4]), rotated(k[5]));
        full_add(c[0], twos_b, c[0], rotated(k[6]), rotated(k[7]));
        full_add(c[1], fours_b, c[1], twos_a, twos_b);
        full_add(c[2], eights, c[2], fours_a, fours_b);
        add(3, eights);
      }
      for (; j < n; ++j) add(0, rotated(supp[j]));
    }
  }

  // The positions whose counter is at least t.
  Gf2Ring at_least(int t) const {
    std::vector<std::uint64_t> mask(slices_.size(),
                                    t <= 0 ? ~std::uint64_t{0} : 0);
    if (t > 0 && t < (1 << kSlices)) {
      for (std::size_t wi = 0; wi < slices_.size(); ++wi) {
        // Most significant slice first: gt collects lanes already above
        // t, eq the lanes still equal to t's leading bits.
        const auto& c = slices_[wi];
        std::uint64_t gt = 0, eq = ~std::uint64_t{0};
        for (int i = kSlices - 1; i >= 0; --i) {
          if ((t >> i) & 1) {
            eq &= c[i];
          } else {
            gt |= eq & c[i];
            eq &= ~c[i];
          }
        }
        mask[wi] = gt | eq;
      }
    }
    return Gf2Ring::from_words(r_, std::move(mask));
  }

 private:
  std::size_t r_;
  std::vector<std::array<std::uint64_t, kSlices>> slices_;
};

// Black-Gray-Flip decoder. Returns true and fills (e0, e1) on success.
// Every pass decides all its flips from one syndrome fixed for the pass.
bool bgf_decode(const Gf2Ring& s0, const Gf2Ring& h0, const Gf2Ring& h1,
                int d, Gf2Ring& e0, Gf2Ring& e1,
                const BgfThreshold& th_params) {
  constexpr int kNbIter = 5;
  constexpr int kTau = 3;
  std::size_t r = s0.degree_bound();
  auto h0_supp = h0.support();
  auto h1_supp = h1.support();
  e0 = Gf2Ring(r);
  e1 = Gf2Ring(r);

  auto current_syndrome = [&]() {
    // s + e0 h0 + e1 h1 (all in GF(2))
    Gf2Ring s = s0;
    s ^= h0.mul_sparse(e0.support());
    s ^= h1.mul_sparse(e1.support());
    return s;
  };

  for (int iter = 0; iter < kNbIter; ++iter) {
    Gf2Ring s = current_syndrome();
    if (s.is_zero()) return true;
    int th = threshold(th_params, s.weight());

    std::vector<std::uint64_t> sd = doubled(s);
    Counters c0(sd, r, h0_supp), c1(sd, r, h1_supp);
    Gf2Ring black0 = c0.at_least(th), black1 = c1.at_least(th);
    Gf2Ring gray0 = c0.at_least(th - kTau) ^ black0;
    Gf2Ring gray1 = c1.at_least(th - kTau) ^ black1;
    e0 ^= black0;
    e1 ^= black1;

    if (iter == 0) {
      // Two extra masked half-iterations on the black and gray sets.
      int th2 = (d + 1) / 2;
      for (const auto& [m0, m1] : {std::pair{&black0, &black1},
                                   std::pair{&gray0, &gray1}}) {
        std::vector<std::uint64_t> sd2 = doubled(current_syndrome());
        e0 ^= *m0 & Counters(sd2, r, h0_supp).at_least(th2);
        e1 ^= *m1 & Counters(sd2, r, h1_supp).at_least(th2);
      }
    }
  }
  return current_syndrome().is_zero();
}

}  // namespace

BikeKem::BikeKem(int level) : level_(level) {
  switch (level) {
    case 1: r_ = 12323; d_ = 71; t_ = 134; break;
    case 3: r_ = 24659; d_ = 103; t_ = 199; break;
    default: throw std::invalid_argument("BIKE level must be 1 or 3");
  }
  name_ = "bikel" + std::to_string(level);
}

std::size_t BikeKem::secret_key_size() const {
  // h0 support + h1 support (4 bytes each) + sigma + public key.
  return 2 * static_cast<std::size_t>(d_) * 4 + 32 + public_key_size();
}

KeyPair BikeKem::generate_keypair(Drbg& rng) const {
  for (;;) {
    Gf2Ring h0 = Gf2Ring::random_weight(r_, d_, rng);
    Gf2Ring h1 = Gf2Ring::random_weight(r_, d_, rng);
    Gf2Ring h0_inv;
    if (!h0.inverse(h0_inv)) continue;
    Gf2Ring h = h0_inv.mul_sparse(h1.support());
    Bytes sigma = rng.bytes(32);

    KeyPair kp;
    kp.public_key = h.to_bytes();
    for (auto s : h0.support()) {
      std::uint8_t be[4];
      store_be32(be, s);
      append(kp.secret_key, {be, 4});
    }
    for (auto s : h1.support()) {
      std::uint8_t be[4];
      store_be32(be, s);
      append(kp.secret_key, {be, 4});
    }
    append(kp.secret_key, sigma);
    append(kp.secret_key, kp.public_key);
    return kp;
  }
}

std::optional<Encapsulation> BikeKem::encapsulate(BytesView public_key,
                                                  Drbg& rng) const {
  if (public_key.size() != public_key_size()) return std::nullopt;
  Gf2Ring h = Gf2Ring::from_bytes(r_, public_key);

  Bytes m = rng.bytes(32);
  Gf2Ring e0, e1;
  sample_error(m, r_, t_, e0, e1);

  Gf2Ring c0 = e0 ^ h.mul_sparse(e1.support());
  Bytes ell = domain_hash(1, e0.to_bytes(), e1.to_bytes());
  Bytes c1(32);
  for (int i = 0; i < 32; ++i) c1[i] = m[i] ^ ell[i];

  Encapsulation out;
  out.ciphertext = concat(c0.to_bytes(), c1);
  out.shared_secret = domain_hash(2, m, out.ciphertext);
  return out;
}

std::optional<Bytes> BikeKem::decapsulate(BytesView secret_key,
                                          BytesView ciphertext) const {
  if (secret_key.size() != secret_key_size() ||
      ciphertext.size() != ciphertext_size())
    return std::nullopt;

  std::vector<std::uint32_t> h0_supp(d_), h1_supp(d_);
  std::size_t off = 0;
  for (int i = 0; i < d_; ++i) {
    h0_supp[i] = load_be32(secret_key.data() + off);
    off += 4;
  }
  for (int i = 0; i < d_; ++i) {
    h1_supp[i] = load_be32(secret_key.data() + off);
    off += 4;
  }
  BytesView sigma = secret_key.subspan(off, 32);
  Gf2Ring h0 = Gf2Ring::from_support(r_, h0_supp);
  Gf2Ring h1 = Gf2Ring::from_support(r_, h1_supp);

  std::size_t c0_len = (r_ + 7) / 8;
  Gf2Ring c0 = Gf2Ring::from_bytes(r_, ciphertext.subspan(0, c0_len));
  BytesView c1 = ciphertext.subspan(c0_len, 32);

  // Syndrome s = c0 * h0 = e0 h0 + e1 h1.
  Gf2Ring s = c0.mul_sparse(h0_supp);

  BgfThreshold th = level_ == 1
                        ? BgfThreshold{0.0069722, 13.530, (d_ + 1) / 2}
                        : BgfThreshold{0.005265, 15.2588, (d_ + 1) / 2};
  // The BGF decoder and the weight/error-vector checks below are
  // variable-time in this reproduction (a known deviation, matching the
  // paper's round-3 BIKE snapshot which only targets CT decoding in later
  // revisions); the annotations document the secret data flow regardless.
  Gf2Ring e0, e1;  // CT_SECRET: e0, e1
  ct::AtExit e_guard([&] {
    e0.wipe();
    e1.wipe();
  });
  bool decoded =
      bgf_decode(s, h0, h1, d_, e0, e1, th) &&
      e0.weight() + e1.weight() ==  // ct-lint: allow(secret-compare) weight check is part of the variable-time decoder
          static_cast<std::size_t>(t_);

  Bytes m(32);  // CT_SECRET
  ct::Wiper m_guard(m);
  if (decoded) {  // ct-lint: allow(secret-branch) decode success steers the FO rejection path; this reproduction's BGF decoder is documented variable-time
    Bytes ell = domain_hash(1, e0.to_bytes(), e1.to_bytes());
    for (int i = 0; i < 32; ++i)
      m[i] = c1[i] ^ ell[i];
    // FO check: re-derive the error vector from m'.
    Gf2Ring e0_check, e1_check;
    sample_error(m, r_, t_, e0_check, e1_check);
    if (e0_check == e0 && e1_check == e1)  // ct-lint: allow(secret-compare) FO recheck, variable-time decoder path
      return domain_hash(2, m, ciphertext);
  }
  // Implicit rejection.
  return domain_hash(2, sigma, ciphertext);
}

const BikeKem& BikeKem::bikel1() {
  static const BikeKem kem(1);
  return kem;
}
const BikeKem& BikeKem::bikel3() {
  static const BikeKem kem(3);
  return kem;
}

}  // namespace pqtls::kem
