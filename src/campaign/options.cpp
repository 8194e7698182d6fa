#include "campaign/options.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace pqtls::campaign {

namespace {

bool parse_u64(const char* text, std::uint64_t& out) {
  if (!text || !*text) return false;
  errno = 0;
  char* end = nullptr;
  unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0') return false;
  if (text[0] == '-') return false;  // strtoull silently wraps negatives
  out = static_cast<std::uint64_t>(value);
  return true;
}

}  // namespace

int positive_int_or(const char* text, int fallback, const char* what) {
  std::uint64_t value = 0;
  if (parse_u64(text, value) && value >= 1 && value <= 1'000'000'000)
    return static_cast<int>(value);
  if (text)
    std::fprintf(stderr,
                 "warning: ignoring invalid %s '%s' (want a positive "
                 "integer); using %d\n",
                 what, text, fallback);
  return fallback;
}

std::uint64_t u64_or(const char* text, std::uint64_t fallback,
                     const char* what) {
  std::uint64_t value = 0;
  if (parse_u64(text, value)) return value;
  if (text)
    std::fprintf(stderr,
                 "warning: ignoring invalid %s '%s' (want an unsigned "
                 "integer); using %llu\n",
                 what, text, static_cast<unsigned long long>(fallback));
  return fallback;
}

double double_or(const char* text, double fallback, const char* what) {
  if (!text) return fallback;
  char* end = nullptr;
  double value = std::strtod(text, &end);
  // strtod accepts "nan" and "inf", and NaN slips past `value < 0`.
  if (end != text && *end == '\0' && std::isfinite(value) && value >= 0)
    return value;
  std::fprintf(stderr,
               "warning: ignoring invalid %s '%s' (want a non-negative "
               "number); using %g\n",
               what, text, fallback);
  return fallback;
}

int env_samples(int fallback) {
  const char* env = std::getenv("PQTLS_SAMPLES");
  if (!env) return fallback;
  return positive_int_or(env, fallback, "PQTLS_SAMPLES");
}

int env_workers(int fallback) {
  const char* env = std::getenv("PQTLS_WORKERS");
  if (!env) return fallback;
  return positive_int_or(env, fallback, "PQTLS_WORKERS");
}

}  // namespace pqtls::campaign
