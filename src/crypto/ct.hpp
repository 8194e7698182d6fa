// Constant-time primitives and the secret-hygiene conventions enforced by
// tools/ct_lint.
//
// Conventions (checked by `ct_lint`, which runs as a CTest test):
//
//  * Mark a secret-carrying local or member with a trailing `// CT_SECRET`
//    comment on its declaration. The linter then flags any branch,
//    comparison, or array index whose expression mentions that identifier.
//  * Function-local CT_SECRET variables must be zeroized with `ct::wipe`
//    (or returned / std::move'd out) before their scope closes.
//  * `memcmp`/`strcmp` and `rand()`/`std::rand` are banned outright in the
//    linted directories — use `ct::equal` and the seeded `Drbg` instead.
//  * A justified exception carries a `ct-lint` allow-comment naming the
//    rule and the reason on the offending line; a suppression that no
//    longer matches any finding is itself flagged (stale-allow).
#pragma once

#include <array>
#include <concepts>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "crypto/bytes.hpp"

namespace pqtls::ct {

/// Optimization barrier: prevents the compiler from reasoning about the
/// value (and thus from reintroducing secret-dependent branches).
inline std::uint64_t value_barrier(std::uint64_t x) {
#if defined(__GNUC__) || defined(__clang__)
  __asm__ volatile("" : "+r"(x));
#endif
  return x;
}

/// All-ones mask when `b` is true, zero otherwise, without branching.
inline std::uint64_t mask_from_bool(bool b) {
  // (0 - b) is 0x00..0 or 0xff..f; the barrier keeps it opaque.
  return value_barrier(0u - static_cast<std::uint64_t>(b));
}

/// All-ones mask when `x == 0`, zero otherwise.
inline std::uint64_t is_zero_mask(std::uint64_t x) {
  x = value_barrier(x);
  // High bit of (~x & (x - 1)) is set iff x == 0; smear it.
  std::uint64_t m = ~x & (x - 1);
  return value_barrier(0u - (m >> 63));
}

/// Constant-time equality over byte buffers. Returns false on length
/// mismatch (lengths are treated as public).
bool equal(BytesView a, BytesView b);

/// Constant-time scalar select: `cond ? a : b` without branching.
template <std::integral T>
inline T select(bool cond, T a, T b) {
  std::uint64_t m = mask_from_bool(cond);
  return static_cast<T>((static_cast<std::uint64_t>(a) & m) |
                        (static_cast<std::uint64_t>(b) & ~m));
}

/// Constant-time buffer select: writes `cond ? a : b` into `out`. All three
/// spans must share the same length (asserted by the caller's sizing; the
/// shorter length is used defensively).
void select(bool cond, BytesView a, BytesView b, std::uint8_t* out,
            std::size_t len);

/// Convenience overload returning a fresh buffer.
Bytes select(bool cond, BytesView a, BytesView b);

/// Zeroize memory in a way the optimizer cannot elide.
void wipe(void* p, std::size_t n);

inline void wipe(Bytes& b) { wipe(b.data(), b.size()); }

template <typename T, std::size_t N>
inline void wipe(std::array<T, N>& a) {
  wipe(a.data(), N * sizeof(T));
}

/// Any vector of plain values, e.g. a vector of polynomials.
template <typename T>
  requires std::is_trivially_copyable_v<T>
inline void wipe(std::vector<T>& v) {
  wipe(v.data(), v.size() * sizeof(T));
}

/// RAII guard: wipes the referenced buffer when the scope exits, covering
/// early returns and exceptions.
class Wiper {
 public:
  explicit Wiper(Bytes& b) : data_(b.data()), size_(b.size()), bytes_(&b) {}
  Wiper(void* p, std::size_t n) : data_(p), size_(n), bytes_(nullptr) {}
  ~Wiper() {
    // A vector may have reallocated since construction; re-read it.
    if (bytes_ != nullptr)
      wipe(bytes_->data(), bytes_->size());
    else
      wipe(data_, size_);
  }
  Wiper(const Wiper&) = delete;
  Wiper& operator=(const Wiper&) = delete;

 private:
  void* data_;
  std::size_t size_;
  Bytes* bytes_;
};

/// Scope guard running an arbitrary cleanup (typically a batch of wipes of
/// objects that own their storage, e.g. `obj.wipe()` calls) on exit.
template <typename F>
class AtExit {
 public:
  explicit AtExit(F f) : f_(std::move(f)) {}
  ~AtExit() { f_(); }
  AtExit(const AtExit&) = delete;
  AtExit& operator=(const AtExit&) = delete;

 private:
  F f_;
};

}  // namespace pqtls::ct
