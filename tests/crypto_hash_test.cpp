// Known-answer tests for the hash/MAC/KDF primitives against published
// vectors (FIPS 180-4, FIPS 202, RFC 4231, RFC 5869), plus the Keccak
// permutation against a reference oracle and sponge split-point checks.
#include <bit>
#include <cstring>
#include <stdexcept>

#include <gtest/gtest.h>

#include "crypto/bytes.hpp"
#include "crypto/aes.hpp"
#include "crypto/drbg.hpp"
#include "crypto/expand.hpp"
#include "crypto/keccak.hpp"
#include "crypto/sha2.hpp"

namespace pqtls::crypto {
namespace {

Bytes ascii(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(sha256({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(sha256(ascii("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(to_hex(sha256(ascii(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Bytes msg(317);
  for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<std::uint8_t>(i);
  Sha256 h;
  h.update(BytesView{msg}.subspan(0, 100));
  h.update(BytesView{msg}.subspan(100, 17));
  h.update(BytesView{msg}.subspan(117));
  EXPECT_EQ(h.finish(), sha256(msg));

  // A 300-byte message split once at every offset 0-200: the first update
  // leaves 0-63 bytes buffered, the second completes that block and hands
  // the kernel a run of whole blocks, and finish() pads the tail.
  Bytes long_msg(300);
  for (std::size_t i = 0; i < long_msg.size(); ++i)
    long_msg[i] = static_cast<std::uint8_t>(i * 13 + 5);
  const Bytes expected = sha256(long_msg);
  for (std::size_t split = 0; split <= 200; ++split) {
    Sha256 parts;
    parts.update(BytesView{long_msg}.subspan(0, split));
    parts.update(BytesView{long_msg}.subspan(split));
    EXPECT_EQ(parts.finish(), expected) << "split at " << split;
  }
}

TEST(Sha384, Abc) {
  EXPECT_EQ(to_hex(sha384(ascii("abc"))),
            "cb00753f45a35e8bb5a03d699ac65007272c32ab0eded1631a8b605a43ff5bed"
            "8086072ba1e7cc2358baeca134c825a7");
}

TEST(Sha512, Abc) {
  EXPECT_EQ(to_hex(sha512(ascii("abc"))),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512, TwoBlock) {
  EXPECT_EQ(
      to_hex(sha512(ascii("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghi"
                          "jklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrst"
                          "nopqrstu"))),
      "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
      "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

TEST(Sha3, Abc256) {
  EXPECT_EQ(to_hex(sha3_256(ascii("abc"))),
            "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532");
}

TEST(Sha3, Empty256) {
  EXPECT_EQ(to_hex(sha3_256({})),
            "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a");
}

TEST(Sha3, Abc512) {
  EXPECT_EQ(to_hex(sha3_512(ascii("abc"))),
            "b751850b1a57168a5693cd924b6b096e08f621827444f70d884f5d0240d2712e"
            "10e116e9192af3c91a7ec57647e3934057340b4cf408d5a56592f8274eec53f0");
}

TEST(Shake, Shake128Empty) {
  EXPECT_EQ(to_hex(shake128({}, 32)),
            "7f9c2ba4e88f827d616045507605853ed73b8093f6efbc88eb1a6eacfa66ef26");
}

TEST(Shake, Shake256Empty) {
  EXPECT_EQ(to_hex(shake256({}, 32)),
            "46b9dd2b0ba88d13233b3feb743eeb243fcd52ea62b81b82b50c27646ed5762f");
}

TEST(Shake, IncrementalSqueezeMatchesOneShot) {
  Bytes msg = ascii("incremental squeeze check");
  Bytes oneshot = shake256(msg, 100);
  Shake xof(256);
  xof.absorb(msg);
  Bytes a = xof.squeeze(1);
  Bytes b = xof.squeeze(42);
  Bytes c = xof.squeeze(57);
  Bytes joined = concat(a, b, c);
  EXPECT_EQ(joined, oneshot);
}

// Reference oracle: the straightforward loop form of Keccak-f[1600]
// (FIPS 202 §3.2 step mappings with % 5 indexing and a pi table). The
// unrolled production kernel must agree with it on every state.
void keccak_f1600_reference(std::uint64_t* a) {
  static constexpr std::uint64_t kRc[24] = {
      0x0000000000000001ULL, 0x0000000000008082ULL, 0x800000000000808aULL,
      0x8000000080008000ULL, 0x000000000000808bULL, 0x0000000080000001ULL,
      0x8000000080008081ULL, 0x8000000000008009ULL, 0x000000000000008aULL,
      0x0000000000000088ULL, 0x0000000080008009ULL, 0x000000008000000aULL,
      0x000000008000808bULL, 0x800000000000008bULL, 0x8000000000008089ULL,
      0x8000000000008003ULL, 0x8000000000008002ULL, 0x8000000000000080ULL,
      0x000000000000800aULL, 0x800000008000000aULL, 0x8000000080008081ULL,
      0x8000000000008080ULL, 0x0000000080000001ULL, 0x8000000080008008ULL};
  static constexpr int kRot[25] = {0,  1,  62, 28, 27, 36, 44, 6,  55,
                                   20, 3,  10, 43, 25, 39, 41, 45, 15,
                                   21, 8,  18, 2,  61, 56, 14};
  // Destination index of lane (x, y) under pi: (y, 2x+3y).
  static constexpr int kPi[25] = {0,  10, 20, 5,  15, 16, 1,  11, 21,
                                  6,  7,  17, 2,  12, 22, 23, 8,  18,
                                  3,  13, 14, 24, 9,  19, 4};
  for (int round = 0; round < 24; ++round) {
    std::uint64_t c[5], d[5];
    for (int x = 0; x < 5; ++x)
      c[x] = a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20];
    for (int x = 0; x < 5; ++x)
      d[x] = c[(x + 4) % 5] ^ std::rotl(c[(x + 1) % 5], 1);
    for (int i = 0; i < 25; ++i) a[i] ^= d[i % 5];
    std::uint64_t b[25];
    for (int i = 0; i < 25; ++i) b[kPi[i]] = std::rotl(a[i], kRot[i]);
    for (int y = 0; y < 5; ++y)
      for (int x = 0; x < 5; ++x)
        a[y * 5 + x] =
            b[y * 5 + x] ^ (~b[y * 5 + (x + 1) % 5] & b[y * 5 + (x + 2) % 5]);
    a[0] ^= kRc[round];
  }
}

TEST(Keccak, UnrolledPermutationMatchesReference) {
  Drbg rng(std::uint64_t{0x6b656363616b});
  for (int trial = 0; trial < 1000; ++trial) {
    std::uint64_t expected[25], actual[25];
    for (int i = 0; i < 25; ++i) expected[i] = actual[i] = rng.u64();
    keccak_f1600_reference(expected);
    keccak_f1600(actual);
    ASSERT_EQ(std::memcmp(expected, actual, sizeof actual), 0)
        << "state " << trial;
  }
}

// Incremental absorb and squeeze equal the one-shot output at every split
// point from 0 to two blocks, across the lane-wise and byte-wise paths.
void check_split_points(std::size_t rate, std::uint8_t domain) {
  SCOPED_TRACE(testing::Message() << "rate " << rate);
  const std::size_t len = 2 * rate + 5;
  Bytes msg(len);
  for (std::size_t i = 0; i < len; ++i)
    msg[i] = static_cast<std::uint8_t>(i * 151 + 3);
  KeccakSponge whole(rate, domain);
  whole.absorb(msg);
  const Bytes expected = whole.squeeze(len);
  for (std::size_t split = 0; split <= 2 * rate; ++split) {
    KeccakSponge absorbed(rate, domain);
    absorbed.absorb(BytesView{msg}.first(split));
    absorbed.absorb(BytesView{msg}.subspan(split));
    ASSERT_EQ(absorbed.squeeze(len), expected) << "absorb split " << split;

    KeccakSponge squeezed(rate, domain);
    squeezed.absorb(msg);
    Bytes head = squeezed.squeeze(split);
    Bytes tail = squeezed.squeeze(len - split);
    ASSERT_EQ(concat(head, tail), expected) << "squeeze split " << split;
  }
}

TEST(Keccak, IncrementalMatchesOneShotAtEverySplit) {
  check_split_points(136, 0x06);  // SHA3-256
  check_split_points(72, 0x06);   // SHA3-512
  check_split_points(168, 0x1f);  // SHAKE128
  check_split_points(136, 0x1f);  // SHAKE256

  // The sponge parameters above are the ones the named functions use.
  Bytes msg = ascii("sponge parameters");
  KeccakSponge sha3(136, 0x06);
  sha3.absorb(msg);
  EXPECT_EQ(sha3.squeeze(32), sha3_256(msg));
  KeccakSponge sha3_wide(72, 0x06);
  sha3_wide.absorb(msg);
  EXPECT_EQ(sha3_wide.squeeze(64), sha3_512(msg));
  KeccakSponge xof(168, 0x1f);
  xof.absorb(msg);
  EXPECT_EQ(xof.squeeze(200), shake128(msg, 200));
}

// Each expansion stream is exactly its own SHAKE(seed || nonce) or
// AES-256-CTR stream, however the streams are grouped into fours.
TEST(ExpandStreams, EachStreamIsItsOwnXof) {
  Bytes seed(64);
  for (std::size_t i = 0; i < seed.size(); ++i)
    seed[i] = static_cast<std::uint8_t>(i * 7 + 1);
  const std::uint16_t nonces[6] = {0, 1, 2, 0x0102, 0x0201, 0xffff};
  constexpr std::size_t kLen = 300;
  for (const StreamKind kind : {StreamKind{false, 128, 2},
                                StreamKind{false, 256, 1},
                                StreamKind{true, 256, 2}}) {
    SCOPED_TRACE(testing::Message() << "aes " << kind.aes << " bits "
                                    << kind.shake_bits);
    std::uint8_t bufs[6][kLen];
    std::uint8_t* out[6];
    for (int t = 0; t < 6; ++t) out[t] = bufs[t];
    read_streams(kind, seed, nonces, out, kLen);

    // Rejection-style reads of 100-byte chunks, stopping lanes early.
    Bytes sampled[6];
    sample_streams<100>(kind, seed, nonces,
                        [&](std::size_t t, const std::uint8_t* chunk) {
                          sampled[t].insert(sampled[t].end(), chunk,
                                            chunk + 100);
                          return sampled[t].size() >= 100 * (t % 3 + 1);
                        });

    for (int t = 0; t < 6; ++t) {
      Bytes expected(kLen);
      if (kind.aes) {
        std::uint8_t iv[16] = {static_cast<std::uint8_t>(nonces[t]),
                               static_cast<std::uint8_t>(nonces[t] >> 8)};
        AesCtr(BytesView{seed}.first(32), BytesView{iv, 16})
            .keystream(expected.data(), kLen);
      } else {
        Bytes msg = seed;
        msg.push_back(static_cast<std::uint8_t>(nonces[t]));
        if (kind.nonce_bytes == 2)
          msg.push_back(static_cast<std::uint8_t>(nonces[t] >> 8));
        expected = kind.shake_bits == 128 ? shake128(msg, kLen)
                                          : shake256(msg, kLen);
      }
      EXPECT_EQ(Bytes(bufs[t], bufs[t] + kLen), expected) << "stream " << t;
      ASSERT_EQ(sampled[t].size(), 100 * (t % 3 + 1)) << "stream " << t;
      EXPECT_EQ(sampled[t], Bytes(expected.begin(),
                                  expected.begin() + sampled[t].size()))
          << "stream " << t;
    }
  }
}

TEST(Hmac, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(to_hex(hmac_sha256(key, ascii("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(to_hex(hmac_sha256(ascii("Jefe"),
                               ascii("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231LongKey) {
  Bytes key(131, 0xaa);
  EXPECT_EQ(to_hex(hmac_sha256(
                key, ascii("Test Using Larger Than Block-Size Key - Hash Key "
                           "First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hkdf, Rfc5869Case1) {
  Bytes ikm(22, 0x0b);
  Bytes salt = from_hex("000102030405060708090a0b0c");
  Bytes info = from_hex("f0f1f2f3f4f5f6f7f8f9");
  Bytes prk = hkdf_extract_sha256(salt, ikm);
  EXPECT_EQ(to_hex(prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");
  Bytes okm = hkdf_expand_sha256(prk, info, 42);
  EXPECT_EQ(to_hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

// RFC 5869 2.3 caps L at 255 * HashLen; one byte more would wrap the 8-bit
// block counter and repeat T(1).
TEST(Hkdf, ExpandLengthCapIs255Blocks) {
  Bytes prk(32, 0x42);
  Bytes okm = hkdf_expand_sha256(prk, {}, 8160);
  ASSERT_EQ(okm.size(), 8160u);
  EXPECT_EQ(Bytes(okm.begin(), okm.begin() + 42),
            hkdf_expand_sha256(prk, {}, 42));
  EXPECT_THROW(hkdf_expand_sha256(prk, {}, 8161), std::invalid_argument);
}

}  // namespace
}  // namespace pqtls::crypto
