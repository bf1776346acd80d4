#include "ext/gf256.h"

#include <algorithm>
#include <utility>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/strings.h"

namespace sion::ext {

namespace {

#if defined(__x86_64__)
// dst ^= c * src over the largest multiple of 32 bytes in [0, n), from the
// nibble tables of c; returns the bytes done.
__attribute__((target("avx2"))) std::size_t mul_add_avx2(
    const std::uint8_t* lo, const std::uint8_t* hi, std::byte* dst,
    const std::byte* src, std::size_t n) {
  const __m256i tlo = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(lo)));
  const __m256i thi = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(hi)));
  const __m256i nibble = _mm256_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i prod = _mm256_xor_si256(
        _mm256_shuffle_epi8(tlo, _mm256_and_si256(s, nibble)),
        _mm256_shuffle_epi8(
            thi, _mm256_and_si256(_mm256_srli_epi64(s, 4), nibble)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d, prod));
  }
  return i;
}

bool cpu_has_avx2() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") != 0;
}
#endif

}  // namespace

void GfMulTable::mul_add(std::span<std::byte> dst,
                         std::span<const std::byte> src) const {
  const std::size_t n = std::min(dst.size(), src.size());
  if (c_ == 0) return;
  if (c_ == 1) {
    for (std::size_t i = 0; i < n; ++i) dst[i] ^= src[i];
    return;
  }
  std::size_t i = 0;
#if defined(__x86_64__)
  static const bool kAvx2 = cpu_has_avx2();
  if (kAvx2) {
    i = mul_add_avx2(lo_.data(), hi_.data(), dst.data(), src.data(), n);
  }
#endif
  for (; i < n; ++i) {
    dst[i] ^= static_cast<std::byte>(
        row_[static_cast<std::size_t>(std::to_integer<std::uint8_t>(src[i]))]);
  }
}

Status gf_invert_matrix(std::span<std::uint8_t> m, int k) {
  const auto at = [&](int r, int c) -> std::uint8_t& {
    return m[static_cast<std::size_t>(r) * static_cast<std::size_t>(k) +
             static_cast<std::size_t>(c)];
  };
  // Augment with the identity, reduce, read the inverse back out.
  std::vector<std::uint8_t> inv(
      static_cast<std::size_t>(k) * static_cast<std::size_t>(k), 0);
  const auto iat = [&](int r, int c) -> std::uint8_t& {
    return inv[static_cast<std::size_t>(r) * static_cast<std::size_t>(k) +
               static_cast<std::size_t>(c)];
  };
  for (int i = 0; i < k; ++i) iat(i, i) = 1;

  for (int col = 0; col < k; ++col) {
    int pivot = -1;
    for (int r = col; r < k; ++r) {
      if (at(r, col) != 0) {
        pivot = r;
        break;
      }
    }
    if (pivot < 0) {
      return Internal(strformat(
          "gf256: singular %dx%d survivor matrix (corrupt ECC geometry)", k,
          k));
    }
    if (pivot != col) {
      for (int c = 0; c < k; ++c) {
        std::swap(at(pivot, c), at(col, c));
        std::swap(iat(pivot, c), iat(col, c));
      }
    }
    const std::uint8_t scale = gf_inv(at(col, col));
    for (int c = 0; c < k; ++c) {
      at(col, c) = gf_mul(at(col, c), scale);
      iat(col, c) = gf_mul(iat(col, c), scale);
    }
    for (int r = 0; r < k; ++r) {
      if (r == col || at(r, col) == 0) continue;
      const std::uint8_t factor = at(r, col);
      for (int c = 0; c < k; ++c) {
        at(r, c) = static_cast<std::uint8_t>(at(r, c) ^
                                             gf_mul(factor, at(col, c)));
        iat(r, c) = static_cast<std::uint8_t>(iat(r, c) ^
                                              gf_mul(factor, iat(col, c)));
      }
    }
  }
  std::copy(inv.begin(), inv.end(), m.begin());
  return Status::Ok();
}

}  // namespace sion::ext
