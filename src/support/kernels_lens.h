/// \file kernels_lens.h
/// \brief The one source of the lens-map kernel, compiled once per ISA
/// translation unit (kernels.cc for the portable tier, kernels_avx2.cc
/// with `-mavx2`). Not part of the public surface.
///
/// The body is written on GCC/Clang vector extensions, so each TU lowers
/// the same lane arithmetic to its own instruction set. Every lane
/// performs the one-point IEEE operations in the one-point order, and
/// both TUs are built with `-ffp-contract=off` (src/CMakeLists.txt), so
/// no multiply-add is fused and every variant's output is bit-identical
/// to the portable one. Internal linkage keeps the two compiled copies
/// apart: the linker can never hand the AVX2 copy to the portable tier.

#ifndef ULE_SUPPORT_KERNELS_LENS_H_
#define ULE_SUPPORT_KERNELS_LENS_H_

#include <cstddef>
#include <cstring>

#include "support/kernels.h"

namespace ule {
namespace kernels {
namespace internal {
namespace {

#if defined(__GNUC__)
typedef double LensLanes __attribute__((vector_size(32)));
#else
typedef double LensLanes;
#endif
constexpr size_t kLensLanes = sizeof(LensLanes) / sizeof(double);

/// One batch of kLensLanes points.
inline void LensMapBatch(const LensFrame& f, const double* pu,
                         const double* pv, double* xs, double* ys) {
  LensLanes u, v;
  std::memcpy(&u, pu, sizeof u);
  std::memcpy(&v, pv, sizeof v);
  const LensLanes ux = f.tl_x * (1.0 - u) * (1.0 - v) +
                       f.tr_x * u * (1.0 - v) + f.bl_x * (1.0 - u) * v +
                       f.br_x * u * v;
  const LensLanes uy = f.tl_y * (1.0 - u) * (1.0 - v) +
                       f.tr_y * u * (1.0 - v) + f.bl_y * (1.0 - u) * v +
                       f.br_y * u * v;
  LensLanes dx = ux - f.cx;
  LensLanes dy = uy - f.cy;
  for (int it = 0; it < 3; ++it) {
    const LensLanes r2 = (dx * dx + dy * dy) / (f.norm * f.norm);
    const LensLanes f2 = 1.0 + f.k * r2;
    dx = (ux - f.cx) / f2;
    dy = (uy - f.cy) / f2;
  }
  const LensLanes sx = f.cx + dx;
  const LensLanes sy = f.cy + dy;
  std::memcpy(xs, &sx, sizeof sx);
  std::memcpy(ys, &sy, sizeof sy);
}

/// Whole batches in place; a short tail runs as one zero-padded batch
/// whose padding lanes are computed and dropped.
inline void LensMapLanes(const LensFrame& f, const double* u, const double* v,
                         size_t n, double* xs, double* ys) {
  size_t i = 0;
  for (; i + kLensLanes <= n; i += kLensLanes) {
    LensMapBatch(f, u + i, v + i, xs + i, ys + i);
  }
  if (i == n) return;
  const size_t tail = n - i;
  double tu[kLensLanes] = {}, tv[kLensLanes] = {};
  double tx[kLensLanes], ty[kLensLanes];
  std::memcpy(tu, u + i, tail * sizeof(double));
  std::memcpy(tv, v + i, tail * sizeof(double));
  LensMapBatch(f, tu, tv, tx, ty);
  std::memcpy(xs + i, tx, tail * sizeof(double));
  std::memcpy(ys + i, ty, tail * sizeof(double));
}

}  // namespace
}  // namespace internal
}  // namespace kernels
}  // namespace ule

#endif  // ULE_SUPPORT_KERNELS_LENS_H_
