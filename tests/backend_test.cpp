// Multi-backend crypto dispatch contracts (DESIGN.md §2.7):
//  - selection parsing/fallback and the resolved active_name() metadata,
//  - raw kernel equivalence (portable vs AVX2/AES-NI/SHA-NI on random
//    inputs and the FIPS 180-4 SHA-256 vectors; every lane of the 4-way
//    Keccak and ShakeX4 vs scalar sponges; the PCLMULQDQ GF(2) product is
//    checked in gf2_test.cpp),
//  - catalog-wide KAT equivalence: keygen/encaps/decaps and sign/verify
//    bytes are identical under every backend selection,
//  - campaign rows are byte-identical under forced-portable vs auto,
//  - batched server ops (encapsulate_batch / decapsulate_batch /
//    verify_batch) match their sequential counterparts bit for bit,
//  - the batched cost model amortizes monotonically with batch=1 exact,
//  - the loadgen_batch campaign's golden rows,
//  - power-of-two balancer probes are sampled without replacement.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/campaign.hpp"
#include "campaign/runner.hpp"
#include "campaign/sinks.hpp"
#include "crypto/backend/backend.hpp"
#include "crypto/backend/kernels.hpp"
#include "crypto/catalog.hpp"
#include "crypto/drbg.hpp"
#include "crypto/keccak.hpp"
#include "crypto/sha2.hpp"
#include "loadgen/balancer.hpp"
#include "loadgen/loadgen.hpp"
#include "perf/cost_model.hpp"

namespace pqtls {
namespace {

namespace backend = crypto::backend;

// The selection is process-global; every test that changes it restores
// "auto" so the rest of the suite runs under the default resolution.
// (Row bytes are backend-independent anyway — that is what this file
// proves — but the guard keeps the tests order-independent by design.)
struct SelectionGuard {
  ~SelectionGuard() { backend::select("auto"); }
};

// ---------------------------------------------------------------------------
// Selection parsing and resolution.

TEST(BackendDispatch, NamesRoundTrip) {
  EXPECT_EQ(backend::name(backend::Backend::kPortable), "portable");
  EXPECT_EQ(backend::name(backend::Backend::kAvx2), "avx2");
  EXPECT_EQ(backend::name(backend::Backend::kAesni), "aesni");
  EXPECT_EQ(backend::name(backend::Backend::kAuto), "auto");
}

TEST(BackendDispatch, PortableAlwaysAvailable) {
  EXPECT_TRUE(backend::compiled(backend::Backend::kPortable));
  EXPECT_TRUE(backend::cpu_supports(backend::Backend::kPortable));
  EXPECT_TRUE(backend::available(backend::Backend::kPortable));
  EXPECT_TRUE(backend::available(backend::Backend::kAuto));
}

TEST(BackendDispatch, SelectParsesAndRejects) {
  SelectionGuard guard;
  backend::Backend before = backend::selection();
  EXPECT_FALSE(backend::select("sse9"));
  EXPECT_EQ(backend::selection(), before);  // unknown name: unchanged

  EXPECT_TRUE(backend::select("portable"));
  EXPECT_EQ(backend::selection(), backend::Backend::kPortable);
  EXPECT_EQ(backend::active_name(), "portable");

  // An unavailable-but-known backend still applies (resolution falls back
  // to portable kernels for the missing family), so this holds everywhere.
  EXPECT_TRUE(backend::select("avx2"));
  EXPECT_EQ(backend::selection(), backend::Backend::kAvx2);
  EXPECT_TRUE(backend::select("aesni"));
  EXPECT_EQ(backend::selection(), backend::Backend::kAesni);

  EXPECT_TRUE(backend::select("auto"));
  EXPECT_EQ(backend::selection(), backend::Backend::kAuto);
}

TEST(BackendDispatch, ActiveNameReflectsAvailability) {
  SelectionGuard guard;
  ASSERT_TRUE(backend::select("auto"));
  bool avx2 = backend::available(backend::Backend::kAvx2);
  bool aesni = backend::available(backend::Backend::kAesni);
  std::string_view active = backend::active_name();
  if (avx2 && aesni) EXPECT_EQ(active, "avx2+aesni");
  else if (avx2) EXPECT_EQ(active, "avx2");
  else if (aesni) EXPECT_EQ(active, "aesni");
  else EXPECT_EQ(active, "portable");

  ASSERT_TRUE(backend::select("portable"));
  EXPECT_EQ(backend::active_name(), "portable");
}

// SHA-NI has no Backend value of its own: "aesni" and "auto" resolve to it
// wherever it is compiled in and the CPU has it; the other selections keep
// the portable kernel, and active_name() is the same either way.
TEST(BackendDispatch, Sha256FollowsAesniSelection) {
  SelectionGuard guard;
  const backend::Sha256Kernels* shani = backend::detail::sha256_shani();
  const bool runnable = shani != nullptr && backend::detail::cpu_has_shani();
  const backend::Sha256Kernels* expected =
      runnable ? shani : &backend::detail::kSha256Portable;
  ASSERT_TRUE(backend::select("portable"));
  EXPECT_EQ(&backend::sha256_kernels(), &backend::detail::kSha256Portable);
  ASSERT_TRUE(backend::select("avx2"));
  EXPECT_EQ(&backend::sha256_kernels(), &backend::detail::kSha256Portable);
  ASSERT_TRUE(backend::select("aesni"));
  EXPECT_EQ(&backend::sha256_kernels(), expected);
  ASSERT_TRUE(backend::select("auto"));
  EXPECT_EQ(&backend::sha256_kernels(), expected);
}

// The PCLMULQDQ GF(2) kernel resolves exactly like SHA-NI, and likewise
// leaves active_name() alone.
TEST(BackendDispatch, Gf2FollowsAesniSelection) {
  SelectionGuard guard;
  const backend::Gf2Kernels* pclmul = backend::detail::gf2_pclmul();
  const bool runnable = pclmul != nullptr && backend::detail::cpu_has_pclmul();
  const backend::Gf2Kernels* expected =
      runnable ? pclmul : &backend::detail::kGf2Portable;
  ASSERT_TRUE(backend::select("portable"));
  EXPECT_EQ(&backend::gf2_kernels(), &backend::detail::kGf2Portable);
  ASSERT_TRUE(backend::select("avx2"));
  EXPECT_EQ(&backend::gf2_kernels(), &backend::detail::kGf2Portable);
  ASSERT_TRUE(backend::select("aesni"));
  EXPECT_EQ(&backend::gf2_kernels(), expected);
  ASSERT_TRUE(backend::select("auto"));
  EXPECT_EQ(&backend::gf2_kernels(), expected);
}

// ---------------------------------------------------------------------------
// Raw kernel equivalence on random and structured canonical inputs. The
// optimized kernels must be drop-in bit-identical, not merely congruent
// mod q.

// ntt and invntt, each applied to its own copy of `poly`, give the same
// bytes under both kernel sets.
template <typename Kernels, typename Coeff>
void expect_ntts_match(const Kernels& ref, const Kernels& opt,
                       const Coeff (&poly)[256], const std::string& what) {
  Coeff x0[256], x1[256];
  std::memcpy(x0, poly, sizeof x0);
  std::memcpy(x1, poly, sizeof x1);
  ref.ntt(x0);
  opt.ntt(x1);
  EXPECT_EQ(std::memcmp(x0, x1, sizeof x0), 0) << "ntt " << what;
  std::memcpy(x0, poly, sizeof x0);
  std::memcpy(x1, poly, sizeof x1);
  ref.invntt(x0);
  opt.invntt(x1);
  EXPECT_EQ(std::memcmp(x0, x1, sizeof x0), 0) << "invntt " << what;
}

// All-zero, all-(q-1), a ramp over [0, q-1], and a one-hot polynomial at
// every index, which drives each lane and blend position of the
// in-register layers on its own.
template <typename Kernels, typename Coeff>
void expect_structured_ntts_match(const Kernels& ref, const Kernels& opt,
                                  std::int64_t q) {
  Coeff poly[256];
  std::fill(std::begin(poly), std::end(poly), Coeff{0});
  expect_ntts_match(ref, opt, poly, "zero");
  std::fill(std::begin(poly), std::end(poly), static_cast<Coeff>(q - 1));
  expect_ntts_match(ref, opt, poly, "all q-1");
  for (int i = 0; i < 256; ++i) poly[i] = static_cast<Coeff>(i * (q - 1) / 255);
  expect_ntts_match(ref, opt, poly, "ramp");
  for (int hot = 0; hot < 256; ++hot) {
    std::fill(std::begin(poly), std::end(poly), Coeff{0});
    poly[hot] = 1;
    expect_ntts_match(ref, opt, poly, "one-hot " + std::to_string(hot));
  }
}

TEST(BackendKernels, KyberAvx2MatchesPortable) {
  const backend::KyberKernels* opt = backend::detail::kyber_avx2();
  if (!opt) GTEST_SKIP() << "AVX2 Kyber kernels not compiled in";
  crypto::Drbg rng(std::uint64_t{0x6b79626572});
  for (int trial = 0; trial < 50; ++trial) {
    std::int16_t a[256], b[256], r0[256], r1[256];
    for (int i = 0; i < 256; ++i) {
      a[i] = static_cast<std::int16_t>(rng.uniform(3329));
      b[i] = static_cast<std::int16_t>(rng.uniform(3329));
      r0[i] = r1[i] = static_cast<std::int16_t>(rng.uniform(3329));
    }
    std::int16_t x0[256], x1[256];
    std::memcpy(x0, a, sizeof a);
    std::memcpy(x1, a, sizeof a);
    backend::detail::kKyberPortable.ntt(x0);
    opt->ntt(x1);
    EXPECT_EQ(std::memcmp(x0, x1, sizeof x0), 0) << "ntt trial " << trial;

    backend::detail::kKyberPortable.invntt(x0);
    opt->invntt(x1);
    EXPECT_EQ(std::memcmp(x0, x1, sizeof x0), 0) << "invntt trial " << trial;

    expect_ntts_match(backend::detail::kKyberPortable, *opt, b,
                      "random trial " + std::to_string(trial));

    backend::detail::kKyberPortable.basemul_acc(r0, a, b, trial % 2 == 0);
    opt->basemul_acc(r1, a, b, trial % 2 == 0);
    EXPECT_EQ(std::memcmp(r0, r1, sizeof r0), 0) << "basemul trial " << trial;
  }
  expect_structured_ntts_match<backend::KyberKernels, std::int16_t>(
      backend::detail::kKyberPortable, *opt, 3329);
}

TEST(BackendKernels, DilithiumAvx2MatchesPortable) {
  const backend::DilithiumKernels* opt = backend::detail::dilithium_avx2();
  if (!opt) GTEST_SKIP() << "AVX2 Dilithium kernels not compiled in";
  crypto::Drbg rng(std::uint64_t{0x64696c697468});
  for (int trial = 0; trial < 50; ++trial) {
    std::int32_t a[256], b[256], r0[256], r1[256];
    for (int i = 0; i < 256; ++i) {
      a[i] = static_cast<std::int32_t>(rng.uniform(8380417));
      b[i] = static_cast<std::int32_t>(rng.uniform(8380417));
      r0[i] = r1[i] = static_cast<std::int32_t>(rng.uniform(8380417));
    }
    std::int32_t x0[256], x1[256];
    std::memcpy(x0, a, sizeof a);
    std::memcpy(x1, a, sizeof a);
    backend::detail::kDilithiumPortable.ntt(x0);
    opt->ntt(x1);
    EXPECT_EQ(std::memcmp(x0, x1, sizeof x0), 0) << "ntt trial " << trial;

    backend::detail::kDilithiumPortable.invntt(x0);
    opt->invntt(x1);
    EXPECT_EQ(std::memcmp(x0, x1, sizeof x0), 0) << "invntt trial " << trial;

    expect_ntts_match(backend::detail::kDilithiumPortable, *opt, b,
                      "random trial " + std::to_string(trial));

    backend::detail::kDilithiumPortable.pointwise_acc(r0, a, b);
    opt->pointwise_acc(r1, a, b);
    EXPECT_EQ(std::memcmp(r0, r1, sizeof r0), 0)
        << "pointwise trial " << trial;
  }
  expect_structured_ntts_match<backend::DilithiumKernels, std::int32_t>(
      backend::detail::kDilithiumPortable, *opt, 8380417);
}

TEST(BackendKernels, HarakaAesniMatchesPortable) {
  const backend::HarakaKernels* opt = backend::detail::haraka_aesni();
  if (!opt) GTEST_SKIP() << "AES-NI Haraka kernels not compiled in";
  crypto::Drbg rng(std::uint64_t{0x686172616b61});
  Bytes rc = rng.bytes(640);
  for (int trial = 0; trial < 50; ++trial) {
    Bytes state = rng.bytes(64);
    std::uint8_t s0[64], s1[64];
    std::memcpy(s0, state.data(), sizeof s0);
    std::memcpy(s1, state.data(), sizeof s1);
    backend::detail::kHarakaPortable.permute512(s0, rc.data());
    opt->permute512(s1, rc.data());
    EXPECT_EQ(std::memcmp(s0, s1, sizeof s0), 0)
        << "permute512 trial " << trial;

    Bytes halves = rng.bytes(64);
    std::uint8_t a0[32], a1[32], b0[32], b1[32];
    std::memcpy(a0, halves.data(), sizeof a0);
    std::memcpy(b0, halves.data() + 32, sizeof b0);
    std::memcpy(a1, a0, sizeof a0);
    std::memcpy(b1, b0, sizeof b0);
    backend::detail::kHarakaPortable.permute256(a0, b0, rc.data());
    opt->permute256(a1, b1, rc.data());
    EXPECT_EQ(std::memcmp(a0, a1, sizeof a0), 0)
        << "permute256 s0 trial " << trial;
    EXPECT_EQ(std::memcmp(b0, b1, sizeof b0), 0)
        << "permute256 s1 trial " << trial;
  }
}

// SHA-256 of `msg` driven straight through one kernel: the whole padded
// message goes in as a single run of blocks.
Bytes sha256_with(const backend::Sha256Kernels& kernels, BytesView msg) {
  Bytes padded(msg.begin(), msg.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  std::uint8_t bit_len[8];
  store_be64(bit_len, std::uint64_t{msg.size()} * 8);
  padded.insert(padded.end(), bit_len, bit_len + 8);
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  kernels.compress(state, padded.data(), padded.size() / 64);
  Bytes digest(32);
  for (int i = 0; i < 8; ++i) store_be32(digest.data() + 4 * i, state[i]);
  return digest;
}

// The FIPS 180-4 one-block ("abc"), two-block and million-'a' vectors.
void expect_sha256_vectors(const backend::Sha256Kernels& kernels,
                           const char* what) {
  auto ascii = [](std::string_view s) { return Bytes(s.begin(), s.end()); };
  EXPECT_EQ(to_hex(sha256_with(kernels, ascii("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
      << what;
  EXPECT_EQ(
      to_hex(sha256_with(
          kernels,
          ascii("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1")
      << what;
  EXPECT_EQ(to_hex(sha256_with(kernels, Bytes(1'000'000, 'a'))),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0")
      << what;
}

TEST(BackendKernels, Sha256ShaNiMatchesPortable) {
  expect_sha256_vectors(backend::detail::kSha256Portable, "portable");
  // crypto::Sha256's buffering and one- or two-block padding against the
  // padding above, at every tail length and across the 55/56-byte edge.
  Bytes msg;
  for (std::size_t len = 0; len <= 130; ++len) {
    EXPECT_EQ(crypto::sha256(msg),
              sha256_with(backend::detail::kSha256Portable, msg))
        << len << " bytes";
    msg.push_back(static_cast<std::uint8_t>(len * 29 + 1));
  }

  const backend::Sha256Kernels* opt = backend::detail::sha256_shani();
  if (!opt) GTEST_SKIP() << "SHA-NI SHA-256 kernel not compiled in";
  if (!backend::detail::cpu_has_shani())
    GTEST_SKIP() << "CPU lacks the SHA extensions";
  expect_sha256_vectors(*opt, "sha-ni");

  // Random chaining states over runs of 1-8 blocks, read from an odd
  // address so the kernel's unaligned loads are exercised too.
  crypto::Drbg rng(std::uint64_t{0x7368616e69});
  for (int trial = 0; trial < 20; ++trial) {
    for (std::size_t nblocks = 1; nblocks <= 8; ++nblocks) {
      Bytes words = rng.bytes(32);
      Bytes buffer = rng.bytes(64 * nblocks + 1);
      std::uint32_t s0[8], s1[8];
      for (int i = 0; i < 8; ++i) s0[i] = s1[i] = load_be32(words.data() + 4 * i);
      backend::detail::kSha256Portable.compress(s0, buffer.data() + 1, nblocks);
      opt->compress(s1, buffer.data() + 1, nblocks);
      EXPECT_EQ(std::memcmp(s0, s1, sizeof s0), 0)
          << "trial " << trial << ", " << nblocks << " blocks";
    }
  }
}

// Every lane of the 4-way Keccak permutation, and of ShakeX4 on top of it,
// equals the scalar permutation / a scalar SHAKE sponge: first under the
// portable kernel, then under AVX2 when the binary and CPU have it.
TEST(BackendKernels, KeccakX4MatchesScalar) {
  SelectionGuard guard;
  crypto::Drbg rng(std::uint64_t{0x6b656363616b34});

  auto check_permute = [&](const backend::KeccakKernels& kernels) {
    for (int trial = 0; trial < 50; ++trial) {
      std::uint64_t x4[100], lanes[4][25];
      for (int i = 0; i < 25; ++i)
        for (int j = 0; j < 4; ++j) x4[4 * i + j] = lanes[j][i] = rng.u64();
      kernels.permute_x4(x4);
      for (int j = 0; j < 4; ++j) {
        crypto::keccak_f1600(lanes[j]);
        for (int i = 0; i < 25; ++i)
          ASSERT_EQ(x4[4 * i + j], lanes[j][i])
              << "trial " << trial << " lane " << j << " word " << i;
      }
    }
  };

  auto check_shake = [&](const char* selection) {
    ASSERT_TRUE(backend::select(selection));
    for (int bits : {128, 256}) {
      for (std::size_t in_len : {0, 1, 34, 135, 136, 168, 169, 400}) {
        for (std::size_t out_len : {1, 136, 168, 500}) {
          SCOPED_TRACE(testing::Message() << selection << " shake" << bits
                                          << " in " << in_len << " out "
                                          << out_len);
          Bytes msgs[4], outs[4];
          std::array<BytesView, 4> inputs;
          std::array<std::uint8_t*, 4> head, tail;
          const std::size_t split = out_len / 3;  // two uneven squeezes
          for (int j = 0; j < 4; ++j) {
            msgs[j] = rng.bytes(in_len);
            inputs[j] = msgs[j];
            outs[j].assign(out_len, 0);
            head[j] = outs[j].data();
            tail[j] = outs[j].data() + split;
          }
          crypto::ShakeX4 x4(bits);
          x4.absorb(inputs);
          x4.squeeze(head, split);
          x4.squeeze(tail, out_len - split);
          for (int j = 0; j < 4; ++j) {
            Bytes expected = bits == 128 ? crypto::shake128(msgs[j], out_len)
                                         : crypto::shake256(msgs[j], out_len);
            ASSERT_EQ(outs[j], expected) << "lane " << j;
          }
        }
      }
    }
  };

  check_permute(backend::detail::kKeccakPortable);
  check_shake("portable");
  const backend::KeccakKernels* avx2 = backend::detail::keccak_avx2();
  if (avx2 == nullptr || !backend::cpu_supports(backend::Backend::kAvx2))
    GTEST_SKIP() << "AVX2 Keccak kernel not available";
  check_permute(*avx2);
  check_shake("avx2");
}

// ---------------------------------------------------------------------------
// Catalog-wide KAT equivalence: the same seeded DRBG must produce the same
// keys, ciphertexts, shared secrets, and signatures under forced-portable
// and auto resolution.

struct KemKat {
  Bytes pk, sk, ct, ss, ss2;
};

KemKat kem_kat(const kem::Kem& k, std::uint64_t seed) {
  crypto::Drbg rng(seed);
  KemKat kat;
  kem::KeyPair kp = k.generate_keypair(rng);
  kat.pk = kp.public_key;
  kat.sk = kp.secret_key;
  auto enc = k.encapsulate(kp.public_key, rng);
  EXPECT_TRUE(enc.has_value()) << k.name();
  if (!enc) return kat;
  kat.ct = enc->ciphertext;
  kat.ss = enc->shared_secret;
  auto dec = k.decapsulate(kp.secret_key, enc->ciphertext);
  EXPECT_TRUE(dec.has_value()) << k.name();
  if (dec) kat.ss2 = *dec;
  EXPECT_EQ(kat.ss, kat.ss2) << k.name();
  return kat;
}

TEST(BackendEquivalence, CatalogKemsByteIdentical) {
  SelectionGuard guard;
  for (const auto& info : crypto::AlgorithmCatalog::instance().kems()) {
    SCOPED_TRACE(info.name);
    ASSERT_TRUE(backend::select("portable"));
    KemKat portable = kem_kat(*info.kem, 0xbac0 + info.table_level);
    ASSERT_TRUE(backend::select("auto"));
    KemKat optimized = kem_kat(*info.kem, 0xbac0 + info.table_level);
    EXPECT_EQ(portable.pk, optimized.pk);
    EXPECT_EQ(portable.sk, optimized.sk);
    EXPECT_EQ(portable.ct, optimized.ct);
    EXPECT_EQ(portable.ss, optimized.ss);
    EXPECT_EQ(portable.ss2, optimized.ss2);
  }
}

struct SigKat {
  Bytes pk, sk, sig;
  bool verified = false;
};

SigKat sig_kat(const sig::Signer& s, std::uint64_t seed) {
  crypto::Drbg rng(seed);
  SigKat kat;
  sig::SigKeyPair kp = s.generate_keypair(rng);
  kat.pk = kp.public_key;
  kat.sk = kp.secret_key;
  Bytes msg = {0x70, 0x71, 0x74, 0x6c, 0x73};
  kat.sig = s.sign(kp.secret_key, msg, rng);
  kat.verified = s.verify(kp.public_key, msg, kat.sig);
  EXPECT_TRUE(kat.verified) << s.name();
  return kat;
}

TEST(BackendEquivalence, SignersByteIdentical) {
  SelectionGuard guard;
  const auto& catalog = crypto::AlgorithmCatalog::instance();
  for (const auto& info : catalog.signers()) {
    // Backend dispatch touches the Dilithium NTT and the SPHINCS+ Haraka
    // permutation; cover every dilithium variant, the fastest SPHINCS+
    // parameter set, and falcon512/rsa:2048 as untouched controls. The
    // larger SPHINCS+ sets share the exact code path with sphincs128 and
    // only add minutes of WOTS chains.
    bool covered = info.family == "dilithium" || info.name == "sphincs128" ||
                   info.name == "falcon512" || info.name == "rsa:2048";
    if (!covered) continue;
    SCOPED_TRACE(info.name);
    ASSERT_TRUE(backend::select("portable"));
    SigKat portable = sig_kat(*info.signer, 0x51f0 + info.table_level);
    ASSERT_TRUE(backend::select("auto"));
    SigKat optimized = sig_kat(*info.signer, 0x51f0 + info.table_level);
    EXPECT_EQ(portable.pk, optimized.pk);
    EXPECT_EQ(portable.sk, optimized.sk);
    EXPECT_EQ(portable.sig, optimized.sig);
    EXPECT_TRUE(optimized.verified);
  }
}

// ---------------------------------------------------------------------------
// Campaign rows are backend-independent: the same cells render byte-
// identical JSONL under forced-portable and auto resolution.

TEST(BackendDeterminism, CampaignRowsByteIdenticalAcrossBackends) {
  SelectionGuard guard;
  const campaign::CampaignSpec* table3 = campaign::find_campaign("table3");
  ASSERT_NE(table3, nullptr);
  campaign::CampaignSpec spec;
  spec.name = "backend-determinism";
  spec.description = "two table3 cells under both backends";
  ASSERT_GE(table3->cells.size(), 2u);
  spec.cells.push_back(table3->cells[0]);
  spec.cells.push_back(table3->cells[1]);

  auto render = [&spec]() {
    std::ostringstream out;
    campaign::JsonlSink sink(out);
    campaign::RunnerOptions opts;
    opts.samples = 2;
    EXPECT_EQ(run_campaign(spec, opts, {&sink}), 0);
    return out.str();
  };

  ASSERT_TRUE(backend::select("portable"));
  std::string portable = render();
  ASSERT_TRUE(backend::select("auto"));
  std::string optimized = render();
  EXPECT_FALSE(portable.empty());
  EXPECT_EQ(portable, optimized);
}

TEST(BackendDeterminism, CollectSinkRecordsActiveBackend) {
  SelectionGuard guard;
  ASSERT_TRUE(backend::select("portable"));
  const campaign::CampaignSpec* table3 = campaign::find_campaign("table3");
  ASSERT_NE(table3, nullptr);
  campaign::CampaignSpec spec;
  spec.name = "backend-metadata";
  spec.cells.push_back(table3->cells.front());
  campaign::CollectSink collect;
  campaign::RunnerOptions opts;
  opts.samples = 1;
  ASSERT_EQ(run_campaign(spec, opts, {&collect}), 0);
  ASSERT_EQ(collect.outcomes().size(), 1u);
  EXPECT_EQ(collect.outcomes().front().backend, "portable");
}

TEST(BackendDeterminism, JsonlMetaLineIsOptIn) {
  campaign::CampaignSpec spec;
  spec.name = "meta-spec";

  std::ostringstream plain;
  campaign::JsonlSink no_meta(plain);
  no_meta.begin(spec, campaign::RunnerOptions{});
  EXPECT_TRUE(plain.str().empty());  // default stream: rows only

  std::ostringstream with;
  campaign::JsonlSink meta(with, /*emit_meta=*/true);
  meta.begin(spec, campaign::RunnerOptions{});
  EXPECT_EQ(with.str().rfind("{\"meta\":true,\"campaign\":\"meta-spec\","
                             "\"backend\":\"",
                             0),
            0u);
}

// ---------------------------------------------------------------------------
// Batched server operations match sequential calls bit for bit.

TEST(BatchOps, KyberEncapsBatchMatchesSequential) {
  const auto& info =
      crypto::AlgorithmCatalog::instance().require_kem("kyber768");
  crypto::Drbg keygen_rng(std::uint64_t{0xba7c4});
  kem::KeyPair kp = info.kem->generate_keypair(keygen_rng);

  constexpr std::size_t kCount = 5;
  crypto::Drbg seq_rng(std::uint64_t{0xeca});
  std::vector<kem::Encapsulation> seq;
  for (std::size_t i = 0; i < kCount; ++i) {
    auto enc = info.kem->encapsulate(kp.public_key, seq_rng);
    ASSERT_TRUE(enc.has_value());
    seq.push_back(std::move(*enc));
  }

  crypto::Drbg batch_rng(std::uint64_t{0xeca});
  auto batch = info.kem->encapsulate_batch(kp.public_key, kCount, batch_rng);
  ASSERT_EQ(batch.size(), kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_TRUE(batch[i].has_value()) << i;
    EXPECT_EQ(batch[i]->ciphertext, seq[i].ciphertext) << i;
    EXPECT_EQ(batch[i]->shared_secret, seq[i].shared_secret) << i;
  }

  // Malformed public key: every element rejects, no RNG consumed — the
  // stream continues exactly where a sequence of failed calls would leave
  // it (they never draw either).
  Bytes short_pk(kp.public_key.begin(), kp.public_key.end() - 1);
  crypto::Drbg bad_rng(std::uint64_t{0xeca});
  auto bad = info.kem->encapsulate_batch(short_pk, 3, bad_rng);
  ASSERT_EQ(bad.size(), 3u);
  for (const auto& e : bad) EXPECT_FALSE(e.has_value());
  auto after = info.kem->encapsulate(kp.public_key, bad_rng);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->ciphertext, seq[0].ciphertext);
}

TEST(BatchOps, KyberDecapsBatchMatchesSequential) {
  const auto& info =
      crypto::AlgorithmCatalog::instance().require_kem("kyber512");
  crypto::Drbg rng(std::uint64_t{0xdecab5});
  kem::KeyPair kp = info.kem->generate_keypair(rng);

  std::vector<Bytes> cts;
  std::vector<Bytes> expected;
  for (int i = 0; i < 4; ++i) {
    auto enc = info.kem->encapsulate(kp.public_key, rng);
    ASSERT_TRUE(enc.has_value());
    cts.push_back(enc->ciphertext);
    expected.push_back(enc->shared_secret);
  }
  // Tamper one ciphertext: batched decapsulation must produce the same
  // implicit-rejection secret as the sequential path.
  cts[2][7] ^= 0x40;
  auto rejected = info.kem->decapsulate(kp.secret_key, cts[2]);
  ASSERT_TRUE(rejected.has_value());
  EXPECT_NE(*rejected, expected[2]);
  expected[2] = *rejected;

  std::vector<BytesView> views(cts.begin(), cts.end());
  auto batch = info.kem->decapsulate_batch(kp.secret_key, views);
  ASSERT_EQ(batch.size(), cts.size());
  for (std::size_t i = 0; i < cts.size(); ++i) {
    ASSERT_TRUE(batch[i].has_value()) << i;
    EXPECT_EQ(*batch[i], expected[i]) << i;
  }

  // Wrong-size ciphertext inside a batch: that element (and only that
  // element) rejects with nullopt, like sequential decapsulate().
  Bytes truncated(cts[0].begin(), cts[0].end() - 3);
  std::vector<BytesView> mixed{cts[0], truncated};
  auto partial = info.kem->decapsulate_batch(kp.secret_key, mixed);
  ASSERT_EQ(partial.size(), 2u);
  EXPECT_TRUE(partial[0].has_value());
  EXPECT_FALSE(partial[1].has_value());
}

TEST(BatchOps, DilithiumVerifyBatchMatchesSequential) {
  const auto& info =
      crypto::AlgorithmCatalog::instance().require_signer("dilithium2");
  crypto::Drbg rng(std::uint64_t{0x5ba7c4});
  sig::SigKeyPair kp = info.signer->generate_keypair(rng);

  std::vector<Bytes> messages;
  std::vector<Bytes> signatures;
  for (int i = 0; i < 4; ++i) {
    Bytes msg = {static_cast<std::uint8_t>(i), 0x42, 0x99};
    signatures.push_back(info.signer->sign(kp.secret_key, msg, rng));
    messages.push_back(std::move(msg));
  }
  signatures[1][12] ^= 0x08;  // corrupt one signature

  std::vector<BytesView> msg_views(messages.begin(), messages.end());
  std::vector<BytesView> sig_views(signatures.begin(), signatures.end());
  auto verdicts = info.signer->verify_batch(kp.public_key, msg_views,
                                            sig_views);
  ASSERT_EQ(verdicts.size(), messages.size());
  for (std::size_t i = 0; i < messages.size(); ++i) {
    bool expected =
        info.signer->verify(kp.public_key, messages[i], signatures[i]);
    EXPECT_EQ(verdicts[i] != 0, expected) << i;
    EXPECT_EQ(expected, i != 1) << i;
  }

  // Malformed public key: all-zero verdicts, matching sequential rejects.
  Bytes short_pk(kp.public_key.begin(), kp.public_key.end() - 1);
  auto rejected = info.signer->verify_batch(short_pk, msg_views, sig_views);
  for (std::uint8_t v : rejected) EXPECT_EQ(v, 0);
}

TEST(BatchOps, CostModelAmortizesMonotonically) {
  const perf::CostModel& cm = perf::CostModel::builtin();
  // batch <= 1 is exact — this is what keeps every existing golden row
  // byte-identical (same double, not merely approximately equal).
  EXPECT_EQ(cm.kem_encaps_batched("kyber512", 1), cm.kem_encaps("kyber512"));
  EXPECT_EQ(cm.kem_encaps_batched("kyber512", 0), cm.kem_encaps("kyber512"));

  EXPECT_LT(cm.kem_encaps_batched("kyber512", 8),
            cm.kem_encaps_batched("kyber512", 1));
  EXPECT_LT(cm.kem_encaps_batched("kyber512", 32),
            cm.kem_encaps_batched("kyber512", 8));

  // Algorithms with no amortizable per-key setup are batch-invariant.
  EXPECT_EQ(cm.kem_encaps_batched("x25519", 32), cm.kem_encaps("x25519"));
}

TEST(BatchOps, LoadgenBatchRaisesCapacity) {
  loadgen::LoadConfig config;
  config.ka = "kyber512";
  config.sa = "dilithium2";
  config.load_factor = 0.9;
  config.cores = 2;
  config.duration_s = 1.0;
  config.warmup_s = 0.25;

  loadgen::LoadMetrics base = loadgen::run_load(config);
  ASSERT_TRUE(base.ok);
  config.batch = 8;
  loadgen::LoadMetrics batched = loadgen::run_load(config);
  ASSERT_TRUE(batched.ok);
  // Amortized encaps shrinks the server flight, so the analytic capacity
  // bound strictly rises; batch is a pure cost-model knob, so the wire
  // volumes are untouched and the row keeps the single-server schema.
  EXPECT_GT(batched.analytic_capacity, base.analytic_capacity);
  EXPECT_LT(batched.server_cpu_s, base.server_cpu_s);
  EXPECT_EQ(batched.client_bytes, base.client_bytes);
  EXPECT_EQ(batched.server_bytes, base.server_bytes);
  EXPECT_FALSE(config.is_fleet());
}

// ---------------------------------------------------------------------------
// The loadgen_batch campaign: byte-identical rows at any worker count,
// locked against golden files, with the batch column present.

std::string read_backend_golden(const std::string& name) {
  std::ifstream in(std::string(PQTLS_TEST_DATA_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << name;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(LoadgenBatchCampaign, GoldenRowsAndWorkerCountInvariance) {
  const campaign::CampaignSpec* spec =
      campaign::find_campaign("loadgen_batch");
  ASSERT_NE(spec, nullptr);

  auto run = [&](int workers, std::string* csv) {
    std::ostringstream jsonl_out, csv_out;
    campaign::JsonlSink jsonl(jsonl_out);
    campaign::CsvSink csv_sink(csv_out);
    campaign::RunnerOptions opts;  // defaults = the CLI's golden settings
    opts.workers = workers;
    EXPECT_EQ(run_campaign(*spec, opts, {&jsonl, &csv_sink}), 0);
    if (csv) *csv = csv_out.str();
    return jsonl_out.str();
  };

  std::string csv;
  std::string serial = run(1, &csv);
  std::string parallel = run(4, nullptr);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial, read_backend_golden("loadgen_batch_rows.jsonl"));
  EXPECT_EQ(csv, read_backend_golden("loadgen_batch_rows.csv"));

  // Schema: the batch column is present and the header carries it.
  EXPECT_NE(serial.find("\"batch\":32"), std::string::npos);
  EXPECT_EQ(csv.rfind("campaign,id,ka,sa,", 0), 0u);
  EXPECT_NE(csv.find(",timed_out,batch\n"), std::string::npos);
}

TEST(LoadgenBatchCampaign, UnbatchedCampaignsKeepTheirSchema) {
  // Campaigns where every cell runs unbatched must not grow the column —
  // that is what keeps the pre-existing loadgen goldens byte-identical.
  const campaign::CampaignSpec* spec =
      campaign::find_campaign("loadgen_kems");
  ASSERT_NE(spec, nullptr);
  std::ostringstream out;
  campaign::CsvSink sink(out);
  sink.begin(*spec, campaign::RunnerOptions{});
  EXPECT_EQ(out.str().find(",batch"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Power-of-two balancer: the two probes are distinct, so a one-sided load
// imbalance between any two servers is always detected.

TEST(BalancerDistinct, ProbesAreSampledWithoutReplacement) {
  auto balancer = loadgen::make_balancer(loadgen::BalancerKind::kPowerOfTwo,
                                         crypto::Drbg(std::uint64_t{0x9d}));
  std::vector<int> outstanding = {5, 0};
  // With replacement, ~1/4 of the draws probed server 0 twice and sent the
  // connection into the longer queue; distinct probes always see both
  // servers and must always pick the idle one.
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(balancer->pick(outstanding), 1) << "draw " << i;
}

TEST(BalancerDistinct, SingleServerFleetStillResolves) {
  auto balancer = loadgen::make_balancer(loadgen::BalancerKind::kPowerOfTwo,
                                         crypto::Drbg(std::uint64_t{0x9e}));
  std::vector<int> outstanding = {3};
  for (int i = 0; i < 10; ++i) EXPECT_EQ(balancer->pick(outstanding), 0);
}

TEST(BalancerDistinct, ThreeServerProbesNeverCoincide) {
  // Indirect distinctness check on n=3: with outstanding {0, 9, 9}, a
  // coincident probe pair (1,1) or (2,2) would pick a loaded server; any
  // distinct pair contains server 0 or compares the two loaded ones. Over
  // many draws every pick must land on a probe-reachable minimum, and
  // server 0 must win whenever it is probed — i.e. at least 2/3 of draws.
  auto balancer = loadgen::make_balancer(loadgen::BalancerKind::kPowerOfTwo,
                                         crypto::Drbg(std::uint64_t{0x9f}));
  std::vector<int> outstanding = {0, 9, 9};
  int zero_picks = 0;
  for (int i = 0; i < 300; ++i)
    if (balancer->pick(outstanding) == 0) ++zero_picks;
  EXPECT_GT(zero_picks, 150);  // E[zero_picks] = 200 with distinct probes
}

}  // namespace
}  // namespace pqtls
