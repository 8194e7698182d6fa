#include "sig/sphincs.hpp"

#include <cstring>
#include <stdexcept>

#include "crypto/ct.hpp"
#include "crypto/haraka.hpp"

namespace pqtls::sig {

namespace {

using crypto::Haraka;

constexpr int kW = 16;       // Winternitz parameter
constexpr int kLogW = 4;

// 32-byte hash address, spec-like field layout.
struct Adrs {
  std::uint8_t bytes[32] = {0};

  enum Type : std::uint32_t {
    kWotsHash = 0,
    kWotsPk = 1,
    kTree = 2,
    kForsTree = 3,
    kForsRoots = 4,
  };

  void set_layer(std::uint32_t v) { pqtls::store_be32(bytes, v); }
  void set_tree(std::uint64_t v) { pqtls::store_be64(bytes + 8, v); }
  void set_type(Type v) {
    pqtls::store_be32(bytes + 16, v);
    std::memset(bytes + 20, 0, 12);  // changing type zeroes the tail words
  }
  void set_keypair(std::uint32_t v) { pqtls::store_be32(bytes + 20, v); }
  void set_chain(std::uint32_t v) { pqtls::store_be32(bytes + 24, v); }
  void set_hash(std::uint32_t v) { pqtls::store_be32(bytes + 28, v); }
  void set_tree_height(std::uint32_t v) { pqtls::store_be32(bytes + 24, v); }
  void set_tree_index(std::uint32_t v) { pqtls::store_be32(bytes + 28, v); }
};

// Tweakable hashes instantiated with Haraka whose round constants are
// derived from pk.seed (the SPHINCS+-haraka construction).
struct Hashes {
  const Haraka& hk;
  std::size_t n;

  // F: one n-byte block.
  Bytes f(const Adrs& adrs, BytesView m) const {
    std::uint8_t in[64] = {0};
    std::memcpy(in, adrs.bytes, 32);
    std::memcpy(in + 32, m.data(), m.size());  // n <= 32
    std::uint8_t out[32];
    hk.haraka512(in, out);
    return Bytes(out, out + n);
  }

  // H: two n-byte blocks (tree node compression).
  Bytes h2(const Adrs& adrs, BytesView left, BytesView right) const {
    if (n == 16) {
      std::uint8_t in[64];
      std::memcpy(in, adrs.bytes, 32);
      std::memcpy(in + 32, left.data(), 16);
      std::memcpy(in + 48, right.data(), 16);
      std::uint8_t out[32];
      hk.haraka512(in, out);
      return Bytes(out, out + n);
    }
    Bytes in = concat(BytesView{adrs.bytes, 32}, left, right);
    return hk.haraka_sponge(in, n);
  }

  // T_l: arbitrary-length compression (WOTS pk, FORS roots).
  Bytes t(const Adrs& adrs, BytesView m) const {
    Bytes in = concat(BytesView{adrs.bytes, 32}, m);
    return hk.haraka_sponge(in, n);
  }

  // PRF: secret-key derivation.
  Bytes prf(BytesView sk_seed, const Adrs& adrs) const {
    std::uint8_t in[64] = {0};
    std::memcpy(in, adrs.bytes, 32);
    std::memcpy(in + 32, sk_seed.data(), sk_seed.size());
    std::uint8_t out[32];
    hk.haraka512(in, out);
    return Bytes(out, out + n);
  }

  Bytes prf_msg(BytesView sk_prf, BytesView opt_rand, BytesView m) const {
    return hk.haraka_sponge(concat(sk_prf, opt_rand, m), n);
  }

  Bytes h_msg(BytesView r, BytesView pk_root, BytesView m,
              std::size_t out_len) const {
    return hk.haraka_sponge(concat(r, pk_root, m), out_len);
  }
};

// Extract `bits` bits from a byte stream at bit offset.
std::uint64_t read_bits(BytesView data, std::size_t bit_off, int bits) {
  std::uint64_t v = 0;
  for (int i = 0; i < bits; ++i) {
    std::size_t b = bit_off + i;
    v = (v << 1) | ((data[b / 8] >> (7 - b % 8)) & 1);
  }
  return v;
}

struct WotsDigits {
  std::vector<int> digits;  // len1 + len2 base-w digits
};

WotsDigits wots_digits(BytesView msg_n, std::size_t n) {
  std::size_t len1 = 2 * n;
  WotsDigits out;
  out.digits.reserve(len1 + 3);
  for (std::size_t i = 0; i < n; ++i) {
    out.digits.push_back(msg_n[i] >> 4);
    out.digits.push_back(msg_n[i] & 0xf);
  }
  unsigned csum = 0;
  for (int d : out.digits) csum += kW - 1 - d;
  // len2 = 3 checksum digits for w=16 and n <= 32; csum < 2^10, left-align
  // to 12 bits per the spec (csum << (8 - len2*logw mod 8)).
  csum <<= 4;
  out.digits.push_back((csum >> 12) & 0xf);
  out.digits.push_back((csum >> 8) & 0xf);
  out.digits.push_back((csum >> 4) & 0xf);
  return out;
}

}  // namespace

SphincsSigner::SphincsSigner(int level, bool fast) : level_(level) {
  if (fast) {
    switch (level) {
      case 1: n_ = 16; h_ = 66; d_ = 22; a_ = 6; k_ = 33; break;
      case 3: n_ = 24; h_ = 66; d_ = 22; a_ = 8; k_ = 33; break;
      case 5: n_ = 32; h_ = 68; d_ = 17; a_ = 9; k_ = 35; break;
      default: throw std::invalid_argument("SPHINCS+ level must be 1, 3, or 5");
    }
  } else {
    switch (level) {
      case 1: n_ = 16; h_ = 63; d_ = 7; a_ = 12; k_ = 14; break;
      case 3: n_ = 24; h_ = 63; d_ = 7; a_ = 14; k_ = 17; break;
      case 5: n_ = 32; h_ = 64; d_ = 8; a_ = 14; k_ = 22; break;
      default: throw std::invalid_argument("SPHINCS+ level must be 1, 3, or 5");
    }
  }
  wots_len_ = static_cast<int>(2 * n_) + 3;
  name_ = "sphincs" + std::to_string(8 * n_) + (fast ? "" : "s");
}

std::size_t SphincsSigner::signature_size() const {
  std::size_t fors = static_cast<std::size_t>(k_) * (1 + a_) * n_;
  std::size_t ht = static_cast<std::size_t>(d_) * (wots_len_ + h_ / d_) * n_;
  return n_ + fors + ht;
}

namespace {

// WOTS chain: apply F `steps` times starting from `start` position.
Bytes chain(const Hashes& hx, Bytes x, int start, int steps, Adrs adrs) {
  for (int i = start; i < start + steps; ++i) {
    adrs.set_hash(static_cast<std::uint32_t>(i));
    x = hx.f(adrs, x);
  }
  return x;
}

// Compute a WOTS+ public key (compressed with T_len) for one leaf.
// base_adrs carries layer + tree address only.
Bytes wots_pk(const Hashes& hx, BytesView sk_seed, const Adrs& base_adrs,
              std::uint32_t keypair, int len) {
  Adrs adrs = base_adrs;
  adrs.set_type(Adrs::kWotsHash);
  adrs.set_keypair(keypair);
  Bytes all;
  all.reserve(len * hx.n);
  for (int i = 0; i < len; ++i) {
    adrs.set_chain(static_cast<std::uint32_t>(i));
    adrs.set_hash(0);
    Bytes sk = hx.prf(sk_seed, adrs);
    Bytes end = chain(hx, std::move(sk), 0, kW - 1, adrs);
    append(all, end);
  }
  Adrs pk_adrs = base_adrs;
  pk_adrs.set_type(Adrs::kWotsPk);
  pk_adrs.set_keypair(keypair);
  return hx.t(pk_adrs, all);
}

// XMSS tree: compute root and (optionally) the auth path for leaf_idx.
// tree_height levels; leaf(i) callback supplies leaf values.
template <typename LeafFn>
Bytes merkle_root(const Hashes& hx, int tree_height, std::uint32_t leaf_idx,
                  Adrs tree_adrs, LeafFn&& leaf, Bytes* auth_path) {
  std::uint32_t num_leaves = 1u << tree_height;
  std::vector<Bytes> nodes(num_leaves);
  for (std::uint32_t i = 0; i < num_leaves; ++i) nodes[i] = leaf(i);
  std::uint32_t idx = leaf_idx;
  for (int level = 0; level < tree_height; ++level) {
    if (auth_path) append(*auth_path, nodes[idx ^ 1]);
    std::uint32_t half = num_leaves >> (level + 1);
    for (std::uint32_t i = 0; i < half; ++i) {
      tree_adrs.set_tree_height(static_cast<std::uint32_t>(level + 1));
      tree_adrs.set_tree_index(i);
      nodes[i] = hx.h2(tree_adrs, nodes[2 * i], nodes[2 * i + 1]);
    }
    idx >>= 1;
  }
  return nodes[0];
}

// Recompute a Merkle root from a leaf and its auth path.
Bytes root_from_auth(const Hashes& hx, Bytes node, std::uint32_t leaf_idx,
                     int tree_height, BytesView auth, Adrs tree_adrs) {
  std::uint32_t idx = leaf_idx;
  for (int level = 0; level < tree_height; ++level) {
    BytesView sibling = auth.subspan(level * hx.n, hx.n);
    tree_adrs.set_tree_height(static_cast<std::uint32_t>(level + 1));
    tree_adrs.set_tree_index(idx >> 1);
    if (idx & 1)
      node = hx.h2(tree_adrs, sibling, node);
    else
      node = hx.h2(tree_adrs, node, sibling);
    idx >>= 1;
  }
  return node;
}

}  // namespace

SigKeyPair SphincsSigner::generate_keypair(Drbg& rng) const {
  Bytes sk_seed = rng.bytes(n_);
  Bytes sk_prf = rng.bytes(n_);
  Bytes pk_seed = rng.bytes(n_);

  Haraka hk(pk_seed);
  Hashes hx{hk, n_};
  int tree_height = h_ / d_;

  // Root of the top-layer XMSS tree.
  Adrs adrs;
  adrs.set_layer(static_cast<std::uint32_t>(d_ - 1));
  adrs.set_tree(0);
  auto leaf = [&](std::uint32_t i) {
    return wots_pk(hx, sk_seed, adrs, i, wots_len_);
  };
  Adrs tree_adrs = adrs;
  tree_adrs.set_type(Adrs::kTree);
  Bytes root = merkle_root(hx, tree_height, 0, tree_adrs, leaf, nullptr);

  SigKeyPair kp;
  kp.public_key = concat(pk_seed, root);
  kp.secret_key = concat(sk_seed, sk_prf, pk_seed, root);
  return kp;
}

Bytes SphincsSigner::sign(BytesView secret_key, BytesView message,
                          Drbg& rng) const {
  if (secret_key.size() != secret_key_size())
    throw std::invalid_argument(name_ + ": secret key must be " +
                                std::to_string(secret_key_size()) + " bytes");
  BytesView sk_seed = secret_key.subspan(0, n_);
  BytesView sk_prf = secret_key.subspan(n_, n_);
  BytesView pk_seed = secret_key.subspan(2 * n_, n_);
  BytesView pk_root = secret_key.subspan(3 * n_, n_);

  Haraka hk(pk_seed);
  Hashes hx{hk, n_};
  int tree_height = h_ / d_;

  Bytes opt_rand = rng.bytes(n_);
  Bytes r = hx.prf_msg(sk_prf, opt_rand, message);

  // Message digest split: k*a FORS bits, h - h/d tree bits, h/d leaf bits.
  std::size_t md_bytes = (static_cast<std::size_t>(k_) * a_ + 7) / 8;
  std::size_t tree_bytes = (h_ - tree_height + 7) / 8;
  std::size_t leaf_bytes = (tree_height + 7) / 8;
  Bytes digest = hx.h_msg(r, concat(pk_seed, pk_root), message,
                          md_bytes + tree_bytes + leaf_bytes);
  BytesView md{digest.data(), md_bytes};
  std::uint64_t idx_tree =
      read_bits({digest.data() + md_bytes, tree_bytes}, 0, 8 * tree_bytes) &
      ((h_ - tree_height) == 64 ? ~std::uint64_t{0}
                                : ((std::uint64_t{1} << (h_ - tree_height)) - 1));
  std::uint32_t idx_leaf = static_cast<std::uint32_t>(
      read_bits({digest.data() + md_bytes + tree_bytes, leaf_bytes}, 0,
                8 * leaf_bytes) &
      ((std::uint64_t{1} << tree_height) - 1));

  Bytes signature = r;

  // ---- FORS ----
  Adrs fors_adrs;
  fors_adrs.set_layer(0);
  fors_adrs.set_tree(idx_tree);
  fors_adrs.set_type(Adrs::kForsTree);
  fors_adrs.set_keypair(idx_leaf);

  Bytes fors_roots;
  for (int t = 0; t < k_; ++t) {
    std::uint32_t leaf_i = static_cast<std::uint32_t>(
        read_bits(md, static_cast<std::size_t>(t) * a_, a_));
    std::uint32_t offset = static_cast<std::uint32_t>(t) << a_;
    // Secret leaf value.
    Adrs sk_adrs = fors_adrs;
    sk_adrs.set_tree_height(0);
    sk_adrs.set_tree_index(offset + leaf_i);
    Bytes sk = hx.prf(sk_seed, sk_adrs);
    append(signature, sk);
    // Tree with auth path.
    auto leaf = [&](std::uint32_t i) {
      Adrs l_adrs = fors_adrs;
      l_adrs.set_tree_height(0);
      l_adrs.set_tree_index(offset + i);
      Bytes lsk = hx.prf(sk_seed, l_adrs);
      return hx.f(l_adrs, lsk);
    };
    // Give each FORS tree its own index space within the shared adrs by
    // offsetting tree_index; merkle_root resets height/index per level.
    Adrs t_adrs = fors_adrs;
    Bytes auth;
    Bytes root = merkle_root(hx, a_, leaf_i, t_adrs, leaf, &auth);
    append(signature, auth);
    append(fors_roots, root);
  }
  Adrs fors_pk_adrs = fors_adrs;
  fors_pk_adrs.set_type(Adrs::kForsRoots);
  fors_pk_adrs.set_keypair(idx_leaf);
  Bytes node = hx.t(fors_pk_adrs, fors_roots);

  // ---- hypertree ----
  std::uint64_t tree = idx_tree;
  std::uint32_t leaf_idx = idx_leaf;
  for (int layer = 0; layer < d_; ++layer) {
    Adrs adrs;
    adrs.set_layer(static_cast<std::uint32_t>(layer));
    adrs.set_tree(tree);

    // WOTS sign `node` with the leaf's key.
    WotsDigits dg = wots_digits(node, n_);
    Adrs wots_adrs = adrs;
    wots_adrs.set_type(Adrs::kWotsHash);
    wots_adrs.set_keypair(leaf_idx);
    for (int i = 0; i < wots_len_; ++i) {
      wots_adrs.set_chain(static_cast<std::uint32_t>(i));
      wots_adrs.set_hash(0);
      Bytes sk = hx.prf(sk_seed, wots_adrs);
      append(signature, chain(hx, std::move(sk), 0, dg.digits[i], wots_adrs));
    }

    // Auth path + root of this XMSS tree.
    auto leaf = [&](std::uint32_t i) {
      return wots_pk(hx, sk_seed, adrs, i, wots_len_);
    };
    Adrs tree_adrs = adrs;
    tree_adrs.set_type(Adrs::kTree);
    Bytes auth;
    node = merkle_root(hx, tree_height, leaf_idx, tree_adrs, leaf, &auth);
    append(signature, auth);

    leaf_idx = static_cast<std::uint32_t>(tree & ((1u << tree_height) - 1));
    tree >>= tree_height;
  }
  return signature;
}

bool SphincsSigner::verify(BytesView public_key, BytesView message,
                           BytesView signature) const {
  if (public_key.size() != public_key_size() ||
      signature.size() != signature_size())
    return false;
  BytesView pk_seed = public_key.subspan(0, n_);
  BytesView pk_root = public_key.subspan(n_, n_);

  Haraka hk(pk_seed);
  Hashes hx{hk, n_};
  int tree_height = h_ / d_;

  BytesView r = signature.subspan(0, n_);
  std::size_t off = n_;

  std::size_t md_bytes = (static_cast<std::size_t>(k_) * a_ + 7) / 8;
  std::size_t tree_bytes = (h_ - tree_height + 7) / 8;
  std::size_t leaf_bytes = (tree_height + 7) / 8;
  Bytes digest = hx.h_msg(r, concat(pk_seed, pk_root), message,
                          md_bytes + tree_bytes + leaf_bytes);
  BytesView md{digest.data(), md_bytes};
  std::uint64_t idx_tree =
      read_bits({digest.data() + md_bytes, tree_bytes}, 0, 8 * tree_bytes) &
      ((h_ - tree_height) == 64 ? ~std::uint64_t{0}
                                : ((std::uint64_t{1} << (h_ - tree_height)) - 1));
  std::uint32_t idx_leaf = static_cast<std::uint32_t>(
      read_bits({digest.data() + md_bytes + tree_bytes, leaf_bytes}, 0,
                8 * leaf_bytes) &
      ((std::uint64_t{1} << tree_height) - 1));

  // ---- FORS ----
  Adrs fors_adrs;
  fors_adrs.set_layer(0);
  fors_adrs.set_tree(idx_tree);
  fors_adrs.set_type(Adrs::kForsTree);
  fors_adrs.set_keypair(idx_leaf);

  Bytes fors_roots;
  for (int t = 0; t < k_; ++t) {
    std::uint32_t leaf_i = static_cast<std::uint32_t>(
        read_bits(md, static_cast<std::size_t>(t) * a_, a_));
    std::uint32_t offset = static_cast<std::uint32_t>(t) << a_;
    BytesView sk = signature.subspan(off, n_);
    off += n_;
    Adrs l_adrs = fors_adrs;
    l_adrs.set_tree_height(0);
    l_adrs.set_tree_index(offset + leaf_i);
    Bytes node = hx.f(l_adrs, sk);
    BytesView auth = signature.subspan(off, static_cast<std::size_t>(a_) * n_);
    off += static_cast<std::size_t>(a_) * n_;
    node = root_from_auth(hx, std::move(node), leaf_i, a_, auth, fors_adrs);
    append(fors_roots, node);
  }
  Adrs fors_pk_adrs = fors_adrs;
  fors_pk_adrs.set_type(Adrs::kForsRoots);
  fors_pk_adrs.set_keypair(idx_leaf);
  Bytes node = hx.t(fors_pk_adrs, fors_roots);

  // ---- hypertree ----
  std::uint64_t tree = idx_tree;
  std::uint32_t leaf_idx = idx_leaf;
  for (int layer = 0; layer < d_; ++layer) {
    Adrs adrs;
    adrs.set_layer(static_cast<std::uint32_t>(layer));
    adrs.set_tree(tree);

    WotsDigits dg = wots_digits(node, n_);
    Adrs wots_adrs = adrs;
    wots_adrs.set_type(Adrs::kWotsHash);
    wots_adrs.set_keypair(leaf_idx);
    Bytes all;
    all.reserve(static_cast<std::size_t>(wots_len_) * n_);
    for (int i = 0; i < wots_len_; ++i) {
      wots_adrs.set_chain(static_cast<std::uint32_t>(i));
      Bytes part(signature.begin() + off, signature.begin() + off + n_);
      off += n_;
      append(all, chain(hx, std::move(part), dg.digits[i],
                        kW - 1 - dg.digits[i], wots_adrs));
    }
    Adrs pk_adrs = wots_adrs;
    pk_adrs.set_type(Adrs::kWotsPk);
    pk_adrs.set_keypair(leaf_idx);
    Bytes wots_pk_val = hx.t(pk_adrs, all);

    Adrs tree_adrs = adrs;
    tree_adrs.set_type(Adrs::kTree);
    BytesView auth =
        signature.subspan(off, static_cast<std::size_t>(tree_height) * n_);
    off += static_cast<std::size_t>(tree_height) * n_;
    node = root_from_auth(hx, std::move(wots_pk_val), leaf_idx, tree_height,
                          auth, tree_adrs);

    leaf_idx = static_cast<std::uint32_t>(tree & ((1u << tree_height) - 1));
    tree >>= tree_height;
  }
  return ct::equal(node, pk_root);
}

const SphincsSigner& SphincsSigner::sphincs128() {
  static const SphincsSigner s(1);
  return s;
}
const SphincsSigner& SphincsSigner::sphincs192() {
  static const SphincsSigner s(3);
  return s;
}
const SphincsSigner& SphincsSigner::sphincs256() {
  static const SphincsSigner s(5);
  return s;
}
const SphincsSigner& SphincsSigner::sphincs128s() {
  static const SphincsSigner s(1, /*fast=*/false);
  return s;
}
const SphincsSigner& SphincsSigner::sphincs192s() {
  static const SphincsSigner s(3, /*fast=*/false);
  return s;
}
const SphincsSigner& SphincsSigner::sphincs256s() {
  static const SphincsSigner s(5, /*fast=*/false);
  return s;
}

}  // namespace pqtls::sig
