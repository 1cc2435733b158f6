/// \file kernels_internal.h
/// \brief Shared plumbing between the kernel dispatcher (kernels.cc) and
/// the per-ISA translation units. Not part of the public surface.
///
/// The per-ISA files are compiled with their `-m` flags (see
/// src/CMakeLists.txt) and publish raw function pointers through
/// `Ssse3Raw()` / `Avx2Raw()`; a pointer is null when the TU was built
/// without the matching instruction set (non-x86 target, or a compiler
/// that takes no `-m` flags). kernels.cc combines them with CPUID
/// feature checks into the public KernelSet registry — so an unguarded
/// SIMD instruction can never execute on a CPU that lacks it.

#ifndef ULE_SUPPORT_KERNELS_INTERNAL_H_
#define ULE_SUPPORT_KERNELS_INTERNAL_H_

#include <cstddef>
#include <cstdint>

#include "support/kernels.h"

namespace ule {
namespace kernels {
namespace internal {

/// Raw kernels one ISA translation unit managed to compile. Each entry
/// is independently null when unavailable; kernels.cc fills the gaps
/// from lower tiers.
struct IsaKernels {
  Crc32Fn crc32_pclmul = nullptr;  ///< needs runtime PCLMULQDQ + SSE4.1
  Gf256MulAccumFn gf256_mul_accum = nullptr;
  LensMapFn lens_map = nullptr;
};

const IsaKernels& Ssse3Raw();
const IsaKernels& Avx2Raw();

/// Portable slice-by-8 CRC-32 register update; also the tail handler the
/// PCLMUL kernel borrows for head/tail bytes (identical table, so the
/// stitched result is bit-exact).
uint32_t Crc32Slice8(uint32_t crc, const uint8_t* data, size_t n);

/// GF(2^8) multiply, polynomial 0x11D — the same field rs::Gf256 exposes
/// via log/exp tables, computed carrylessly here so it is constexpr.
/// (rs_test's MulMatchesCarrylessReference pins the two together.)
constexpr uint8_t GfMul(uint8_t a, uint8_t b) {
  uint8_t r = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) r ^= a;
    const bool carry = (a & 0x80) != 0;
    a = static_cast<uint8_t>(a << 1);
    if (carry) a ^= 0x1D;  // x^8 ≡ x^4+x^3+x^2+1 (mod 0x11D)
    b >>= 1;
  }
  return r;
}

/// Split-nibble multiply tables for every factor: for a source byte
/// s = h·16 + l, factor·s = lo[f][l] ^ hi[f][h]. 16-entry rows are
/// exactly what PSHUFB consumes; the scalar kernel walks the same rows
/// so every tier reads one shared 8 KB constexpr blob (no first-call
/// table build anywhere on the digest path).
struct GfNibbleTables {
  alignas(16) uint8_t lo[256][16];
  alignas(16) uint8_t hi[256][16];
};

constexpr GfNibbleTables BuildGfNibbleTables() {
  GfNibbleTables t{};
  for (int f = 0; f < 256; ++f) {
    for (int x = 0; x < 16; ++x) {
      t.lo[f][x] = GfMul(static_cast<uint8_t>(f), static_cast<uint8_t>(x));
      t.hi[f][x] =
          GfMul(static_cast<uint8_t>(f), static_cast<uint8_t>(x << 4));
    }
  }
  return t;
}

inline constexpr GfNibbleTables kGfNib = BuildGfNibbleTables();

}  // namespace internal
}  // namespace kernels
}  // namespace ule

#endif  // ULE_SUPPORT_KERNELS_INTERNAL_H_
