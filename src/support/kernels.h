/// \file kernels.h
/// \brief Runtime-dispatched SIMD kernels for the byte-bashing hot paths.
///
/// Everything durability-related digests whole files: `ulectl scrub` and
/// parity assessment CRC every byte of every reel, and the ULE-P1 stripe
/// transform runs a GF(256) multiply-accumulate over entire reel images
/// (the inner and outer RS syndromes run on it too). Every restore also
/// maps the emblem lattice through the calibrated lens model for each
/// scanned frame. Those three primitives — CRC-32 (IEEE, reflected
/// 0xEDB88320), `dst[i] ^= factor * src[i]` over GF(2^8)/0x11D and the
/// lens map — are therefore the only places in the tree where
/// instruction selection matters, and this header is their single home.
///
/// Design:
///  * one `KernelSet` per ISA tier — `scalar` (portable, always
///    compiled), `ssse3` (PSHUFB split-nibble GF multiply, PCLMUL CRC
///    folding where the CPU has it) and `avx2` (the same at 32
///    bytes/op) — built in per-ISA translation units compiled with the
///    matching `-m` flags and *only ever called* after a CPUID check;
///  * selection happens once, at first use, via `Active()` (a
///    thread-safe magic static): best tier the CPU supports, or
///    whatever the `ULE_KERNELS` environment variable forces
///    (`scalar|ssse3|avx2|auto`; an unavailable choice falls back to
///    `auto` with a one-line stderr warning, never a crash);
///  * every variant is **byte-identical to scalar by contract** — this
///    is an archival format, so a kernel that is "almost right" writes
///    checksums and parity that a future reader cannot reproduce. The
///    lens map is floating point: its variants compile one
///    vector-extension source without fused multiply-add, so every lane
///    performs the same IEEE operations in the same order and the
///    doubles are bit-identical too. The differential suite
///    (tests/kernels_test.cc) asserts identity over all compiled
///    variants at every length 0..1025 and offset 0..31 (lens map:
///    random frames and coefficients, lengths 0..67), and CI runs the
///    whole test matrix again with ULE_KERNELS=scalar.
///
/// Callers generally go through the domain wrappers (`ule::Crc32`,
/// `rs::Gf256::MulSliceAccum`) rather than this header directly.

#ifndef ULE_SUPPORT_KERNELS_H_
#define ULE_SUPPORT_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ule {
namespace kernels {

/// Raw CRC-32 register update: processes `n` bytes into the *working
/// register* (no pre/post inversion — the Crc32() wrapper owns the
/// `^ 0xFFFFFFFF` convention at both ends).
using Crc32Fn = uint32_t (*)(uint32_t crc, const uint8_t* data, size_t n);

/// GF(256) bulk multiply-accumulate: `dst[i] ^= factor * src[i]` for
/// i in [0, n), field polynomial 0x11D. `dst` and `src` must not
/// overlap. `factor == 0` is a no-op (zeros contribute nothing to a
/// linear combination).
using Gf256MulAccumFn = void (*)(uint8_t* dst, const uint8_t* src,
                                 uint8_t factor, size_t n);

/// The calibrated lens model of one scanned emblem: the undistorted
/// corners of its lattice frame and the radial distortion about (cx, cy),
/// radii in units of `norm`.
struct LensFrame {
  double tl_x = 0, tl_y = 0, tr_x = 0, tr_y = 0;
  double bl_x = 0, bl_y = 0, br_x = 0, br_y = 0;
  double cx = 0, cy = 0, norm = 1, k = 0;
};

/// Lens map: lattice points given as frame fractions (u[i], v[i]) for i
/// in [0, n) go to scan pixels (xs[i], ys[i]) — bilinear in the
/// undistorted frame, then the forward distortion
/// r_d (1 + k r̂_d²) = r_u by three fixed-point steps.
using LensMapFn = void (*)(const LensFrame& frame, const double* u,
                           const double* v, size_t n, double* xs,
                           double* ys);

/// One ISA tier's kernels plus the names a human needs in a bug report.
struct KernelSet {
  const char* name = "";        ///< "scalar" | "ssse3" | "avx2"
  const char* crc32_name = "";  ///< "slice8" | "pclmul"
  const char* gf256_name = "";  ///< "scalar" | "pshufb128" | "pshufb256"
  const char* lens_name = "";   ///< "generic" | "avx256"
  Crc32Fn crc32_update = nullptr;
  Gf256MulAccumFn gf256_mul_accum = nullptr;
  LensMapFn lens_map = nullptr;
};

/// The portable baseline (slice-by-8 CRC, split-nibble table GF, the
/// generic vector-extension lens map). Always available; the reference
/// every other variant is tested against.
const KernelSet& Scalar();

/// Every compiled variant the *current CPU* can run, in ascending tier
/// order starting with scalar. Variants compiled in but not runnable
/// here (e.g. an avx2 TU on a pre-AVX2 machine) are not listed.
const std::vector<const KernelSet*>& Available();

/// Looks `name` up in Available(); nullptr when unknown or unavailable.
const KernelSet* FindByName(std::string_view name);

/// \brief The process-wide kernel set, resolved once at first use.
///
/// Resolution order: `ULE_KERNELS` if set (`scalar|ssse3|avx2` forces
/// that tier, `auto` or unset picks the best available; a forced tier
/// this CPU lacks warns on stderr and degrades to auto), else the
/// highest tier in Available(). Thread-safe; concurrent first calls
/// resolve exactly once (magic static).
const KernelSet& Active();

/// What Active() would resolve to for a given ULE_KERNELS value —
/// pure lookup, no environment read, no global state. Lets tests cover
/// the override parsing without forking.
const KernelSet& Resolve(std::string_view setting);

/// One line for `ulectl version` / bug reports, e.g.
/// "avx2 (crc32=pclmul, gf256=pshufb256, lens=avx256); available: scalar
/// ssse3 avx2".
std::string Describe();

/// Convenience forwarders through Active().
inline uint32_t Crc32Update(uint32_t crc, const uint8_t* data, size_t n) {
  return Active().crc32_update(crc, data, n);
}
inline void Gf256MulAccum(uint8_t* dst, const uint8_t* src, uint8_t factor,
                          size_t n) {
  Active().gf256_mul_accum(dst, src, factor, n);
}
inline void LensMap(const LensFrame& frame, const double* u, const double* v,
                    size_t n, double* xs, double* ys) {
  Active().lens_map(frame, u, v, n, xs, ys);
}

}  // namespace kernels
}  // namespace ule

#endif  // ULE_SUPPORT_KERNELS_H_
