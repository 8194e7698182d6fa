// Runtime-selected crypto backend dispatch (DESIGN.md §2.1a). All number-
// theoretic and permutation kernels behind the AlgorithmCatalog route
// through the small function tables below, so one process-wide selection
// switches Kyber/Dilithium NTT arithmetic and the 4-way Keccak permutation
// to AVX2, and the SPHINCS+ Haraka permutation, the SHA-256 block function
// and BIKE's GF(2)[x] word product to the x86 AES, SHA and PCLMULQDQ
// extensions, without touching any caller. Every backend is
// bit-identical to the portable kernels by construction (canonical [0, q)
// residues in, canonical residues out; the KAT-equivalence tests lock this),
// so wire bytes, shared secrets, and every golden row are independent of
// the selection — backends change only wall-clock speed.
//
// Selection order: an explicit select() call (CLI --backend, tests) wins,
// then the PQTLS_BACKEND environment variable, then "auto" (best available
// kernels per family). Selecting an unavailable backend warns on stderr
// once and falls back to portable kernels for the affected family.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace pqtls::crypto::backend {

enum class Backend {
  kPortable = 0,  // pure scalar reference kernels (always available)
  kAvx2 = 1,      // AVX2 NTT/invNTT/pointwise for Kyber+Dilithium, 4-way Keccak
  kAesni = 2,     // AES-NI Haraka permutation for SPHINCS+, plus the SHA-NI
                  // SHA-256 block function and the PCLMULQDQ GF(2)[x]
                  // product where the CPU has those extensions
  kAuto = 3,      // best available kernels per family (the default)
};

/// Canonical name ("portable", "avx2", "aesni", "auto").
std::string_view name(Backend b);

/// True when the kernels for `b` were compiled into this binary
/// (x86 toolchain with -mavx2 / -maes). kAvx2 needs every AVX2 table
/// (Kyber, Dilithium and Keccak). kPortable/kAuto: always true.
bool compiled(Backend b);
/// True when the running CPU supports the ISA `b` needs.
bool cpu_supports(Backend b);
/// compiled(b) && cpu_supports(b).
bool available(Backend b);

/// The current selection (explicit select() > PQTLS_BACKEND > auto).
Backend selection();
/// Parse and set the selection ("portable" | "avx2" | "aesni" | "auto").
/// Returns false (selection unchanged) for an unknown name; an available
/// name is applied, an unavailable one warns on stderr and still applies
/// (resolution falls back to portable for the missing family).
bool select(std::string_view backend_name);

/// Resolved name of what actually runs under the current selection:
/// "portable", "avx2", "aesni", or "avx2+aesni". This is what campaign
/// metadata records. The SHA-256 and GF(2) kernels do not change the name:
/// they run under "aesni" whenever the CPU also has SHA extensions or
/// PCLMULQDQ.
std::string_view active_name();

// Kernel tables. Polynomials are raw coefficient arrays of 256 entries,
// every coefficient canonical in [0, q); kernels must preserve that
// invariant (it is what makes all backends bit-identical).

struct KyberKernels {  // q = 3329, int16 coefficients
  void (*ntt)(std::int16_t* r);
  void (*invntt)(std::int16_t* r);
  void (*basemul_acc)(std::int16_t* r, const std::int16_t* a,
                      const std::int16_t* b, bool accumulate);
};

struct DilithiumKernels {  // q = 8380417, int32 coefficients
  void (*ntt)(std::int32_t* r);
  void (*invntt)(std::int32_t* r);
  void (*pointwise_acc)(std::int32_t* r, const std::int32_t* a,
                        const std::int32_t* b);
};

struct HarakaKernels {
  // `rc` is the flat round-constant block (40 x 16 bytes for permute512,
  // the first 20 x 16 for permute256), consumed in order.
  void (*permute512)(std::uint8_t* s, const std::uint8_t* rc);
  void (*permute256)(std::uint8_t* s0, std::uint8_t* s1,
                     const std::uint8_t* rc);
};

struct KeccakKernels {
  // Four independent Keccak-f[1600] states, lane-interleaved: word i of
  // state j is at state[4 * i + j] (100 words).
  void (*permute_x4)(std::uint64_t* state);
};

struct Sha256Kernels {
  // FIPS 180-4 SHA-256 block function over `nblocks` consecutive 64-byte
  // blocks; `state` is the eight working words H0..H7 in host order.
  void (*compress)(std::uint32_t* state, const std::uint8_t* blocks,
                   std::size_t nblocks);
};

struct Gf2Kernels {
  // Carry-less (GF(2)[x]) product of two n-word polynomials, words and
  // bits little-endian: out[0, 2n) = a[0, n) * b[0, n), overwritten. `out`
  // must not overlap the inputs. crypto::gf2_mul_words runs Karatsuba
  // down to it.
  void (*mul)(std::uint64_t* out, const std::uint64_t* a,
              const std::uint64_t* b, std::size_t n);
  // Karatsuba hands `mul` operands of at most this many words: where
  // one more halving stops paying off for this kernel.
  std::size_t base_words;
};

/// The kernel tables resolved for the current selection. Cheap enough to
/// call per operation (one relaxed atomic load + a branch).
const KyberKernels& kyber_kernels();
const DilithiumKernels& dilithium_kernels();
const HarakaKernels& haraka_kernels();
const KeccakKernels& keccak_kernels();
const Sha256Kernels& sha256_kernels();
const Gf2Kernels& gf2_kernels();

}  // namespace pqtls::crypto::backend
