/// \file kernels_avx2.cc
/// \brief AVX2-tier kernels: GF(256) multiply-accumulate on the same
/// split-nibble PSHUFB scheme as the ssse3 tier, 32 bytes per VPSHUFB
/// pair, and the lens map (support/kernels_lens.h) four doubles per
/// 256-bit operation.
///
/// Compiled with `-mavx2 -ffp-contract=off` on x86 (src/CMakeLists.txt);
/// elsewhere the guard compiles this file down to null pointers and the
/// dispatcher never offers the tier. The CRC fold stays 128-bit
/// (PCLMULQDQ), so the avx2 KernelSet borrows the ssse3 tier's CRC in
/// kernels.cc.

#include "support/kernels_internal.h"
#include "support/kernels_lens.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace ule {
namespace kernels {
namespace internal {
namespace {

#if defined(__AVX2__)

void Gf256MulAccumAvx2(uint8_t* dst, const uint8_t* src, uint8_t factor,
                       size_t n) {
  if (factor == 0) return;
  const uint8_t* lo_row = kGfNib.lo[factor];
  const uint8_t* hi_row = kGfNib.hi[factor];
  // VPSHUFB shuffles within each 128-bit lane, so the 16-entry row is
  // broadcast to both lanes.
  const __m256i lo = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(lo_row)));
  const __m256i hi = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(hi_row)));
  const __m256i mask = _mm256_set1_epi8(0x0F);
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    __m256i d = _mm256_loadu_si256(reinterpret_cast<__m256i*>(dst + i));
    const __m256i l = _mm256_shuffle_epi8(lo, _mm256_and_si256(s, mask));
    const __m256i h = _mm256_shuffle_epi8(
        hi, _mm256_and_si256(_mm256_srli_epi64(s, 4), mask));
    d = _mm256_xor_si256(d, _mm256_xor_si256(l, h));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), d);
  }
  for (; i < n; ++i) {
    const uint8_t s = src[i];
    dst[i] ^= static_cast<uint8_t>(lo_row[s & 0x0F] ^ hi_row[s >> 4]);
  }
}

#endif  // __AVX2__

}  // namespace

const IsaKernels& Avx2Raw() {
  static const IsaKernels kernels = [] {
    IsaKernels k;
#if defined(__AVX2__)
    k.gf256_mul_accum = &Gf256MulAccumAvx2;
    k.lens_map = &LensMapLanes;
#endif
    return k;
  }();
  return kernels;
}

}  // namespace internal
}  // namespace kernels
}  // namespace ule
