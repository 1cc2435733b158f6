#include "mocoder/detect.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "mocoder/emblem.h"
#include "support/kernels.h"

namespace ule {
namespace mocoder {
namespace {

struct Point {
  double x = 0;
  double y = 0;
};

/// Otsu's threshold over the full image histogram.
uint8_t OtsuThreshold(const media::Image& img) {
  std::array<uint64_t, 256> hist{};
  for (uint8_t p : img.pixels()) ++hist[p];
  const uint64_t total = img.pixels().size();
  uint64_t sum_all = 0;
  for (int i = 0; i < 256; ++i) sum_all += static_cast<uint64_t>(i) * hist[i];
  uint64_t w0 = 0, sum0 = 0;
  double best_var = -1;
  uint8_t best_t = 128;
  for (int t = 0; t < 256; ++t) {
    w0 += hist[t];
    if (w0 == 0) continue;
    const uint64_t w1 = total - w0;
    if (w1 == 0) break;
    sum0 += static_cast<uint64_t>(t) * hist[t];
    const double m0 = static_cast<double>(sum0) / w0;
    const double m1 = static_cast<double>(sum_all - sum0) / w1;
    const double var = static_cast<double>(w0) * w1 * (m0 - m1) * (m0 - m1);
    if (var > best_var) {
      best_var = var;
      best_t = static_cast<uint8_t>(t);
    }
  }
  // Otsu's split puts [0..t] in the dark class; callers test `pixel < t`,
  // so return the first bright level.
  return static_cast<uint8_t>(std::min(best_t + 1, 255));
}

/// "Solid black": the pixel and its 4-neighbours are all below threshold.
/// Kills isolated dust without a full morphological pass.
bool SolidBlack(const media::Image& img, int x, int y, uint8_t t) {
  if (img.at(x, y) >= t) return false;
  return img.at_clamped(x - 1, y) < t && img.at_clamped(x + 1, y) < t &&
         img.at_clamped(x, y - 1) < t && img.at_clamped(x, y + 1) < t;
}

/// Least-squares line fit y = a + b*x over (xs, ys).
void FitLine(const std::vector<double>& xs, const std::vector<double>& ys,
             double* a, double* b) {
  const size_t n = xs.size();
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (size_t i = 0; i < n; ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
  }
  const double d = n * sxx - sx * sx;
  *b = (d == 0) ? 0 : (n * sxy - sx * sy) / d;
  *a = (sy - *b * sx) / n;
}

Point Intersect(double a1, double b1, bool horiz1, double a2, double b2,
                bool horiz2) {
  // horiz: y = a + b*x; vertical fit: x = a + b*y.
  if (horiz1 && !horiz2) {
    // y = a1 + b1*x ; x = a2 + b2*y
    const double y = (a1 + b1 * a2) / (1 - b1 * b2);
    const double x = a2 + b2 * y;
    return {x, y};
  }
  if (!horiz1 && horiz2) return Intersect(a2, b2, true, a1, b1, false);
  return {0, 0};
}

/// Lattice points (cell units on the full grid), kept as the k-independent
/// grid fractions u = x / grid_side and v = y / grid_side.
struct LatticePoints {
  explicit LatticePoints(int grid_side) : grid_side(grid_side) {}
  void Add(double cell_x, double cell_y) {
    u.push_back(cell_x / grid_side);
    v.push_back(cell_y / grid_side);
  }

  int grid_side;
  std::vector<double> u, v;
};

/// The lens coefficients calibration can pick. `near` is the physically
/// plausible range -0.008 … 0.008 in steps of 0.0004, `far` the magnitudes
/// 0.0088 … 0.030 in steps of 0.0008, tried with both signs. Both lists are
/// built by accumulation, so their values are those accumulated doubles.
struct LensCandidates {
  std::vector<double> near, far;
  size_t zero = 0;  ///< index of the near value closest to k = 0
};

const LensCandidates& Lens() {
  static const LensCandidates kLens = [] {
    LensCandidates c;
    for (double k = -0.008; k <= 0.008001; k += 0.0004) c.near.push_back(k);
    for (double mag = 0.0088; mag <= 0.03001; mag += 0.0008) {
      c.far.push_back(mag);
    }
    for (size_t i = 1; i < c.near.size(); ++i) {
      if (std::abs(c.near[i]) < std::abs(c.near[c.zero])) c.zero = i;
    }
    return c;
  }();
  return kLens;
}

/// The coarse lens pass scores every kLensStride-th candidate; the fine
/// pass scores the kLensStride - 1 candidates on each side of the winner.
constexpr size_t kLensStride = 4;

}  // namespace

Result<Bytes> SampleEmblem(const media::Image& scan, int data_side,
                           DetectInfo* info) {
  const int w = scan.width();
  const int h = scan.height();
  // data_side comes from film or disk headers: bound it by the scan before
  // it sizes anything.
  if (data_side <= 0) {
    return Status::InvalidArgument("emblem data_side must be positive");
  }
  if (data_side > std::min(w, h) - 2 * kFrameCells) {
    return Status::Corruption("emblem lattice is larger than the scan");
  }
  const uint8_t t = OtsuThreshold(scan);

  // 1. Bounding box of solid black pixels = outer border square. Each row
  // is scanned from the left to its first solid-black pixel and from the
  // right to its last one; the pixels between cannot move the box.
  int x0 = w, x1 = -1, y0 = h, y1 = -1;
  for (int y = 0; y < h; ++y) {
    int first = 0;
    while (first < w && !SolidBlack(scan, first, y, t)) ++first;
    if (first == w) continue;
    int last = w - 1;
    while (!SolidBlack(scan, last, y, t)) --last;
    x0 = std::min(x0, first);
    x1 = std::max(x1, last);
    y0 = std::min(y0, y);
    y1 = y;
  }
  if (x1 < 0 || x1 - x0 < 8 || y1 - y0 < 8) {
    return Status::Corruption("no emblem border found in scan");
  }

  // 2. Edge point collection: first solid-black pixel scanning inward,
  // sampled over the middle 80% of each side (corners excluded).
  auto collect = [&](bool horizontal, bool from_low, std::vector<double>* ps,
                     std::vector<double>* qs) {
    const int lo = horizontal ? x0 : y0;
    const int hi = horizontal ? x1 : y1;
    const int margin = (hi - lo) / 10;
    for (int p = lo + margin; p <= hi - margin; p += 2) {
      if (horizontal) {
        // scan down (or up) column p
        if (from_low) {
          for (int y = std::max(0, y0 - 2); y <= y1; ++y) {
            if (SolidBlack(scan, p, y, t)) {
              ps->push_back(p);
              qs->push_back(y);
              break;
            }
          }
        } else {
          for (int y = std::min(h - 1, y1 + 2); y >= y0; --y) {
            if (SolidBlack(scan, p, y, t)) {
              ps->push_back(p);
              qs->push_back(y);
              break;
            }
          }
        }
      } else {
        if (from_low) {
          for (int x = std::max(0, x0 - 2); x <= x1; ++x) {
            if (SolidBlack(scan, x, p, t)) {
              ps->push_back(p);
              qs->push_back(x);
              break;
            }
          }
        } else {
          for (int x = std::min(w - 1, x1 + 2); x >= x0; --x) {
            if (SolidBlack(scan, x, p, t)) {
              ps->push_back(p);
              qs->push_back(x);
              break;
            }
          }
        }
      }
    }
  };

  std::vector<double> tx, ty, bx, by, ly, lx, ry, rx;
  collect(true, true, &tx, &ty);    // top edge: y(x)
  collect(true, false, &bx, &by);   // bottom edge: y(x)
  collect(false, true, &ly, &lx);   // left edge: x(y)
  collect(false, false, &ry, &rx);  // right edge: x(y)
  if (tx.size() < 8 || bx.size() < 8 || ly.size() < 8 || ry.size() < 8) {
    return Status::Corruption("emblem border edges too short to fit");
  }

  double ta, tb, ba, bb, la, lb, ra, rb;
  FitLine(tx, ty, &ta, &tb);
  FitLine(bx, by, &ba, &bb);
  FitLine(ly, lx, &la, &lb);
  FitLine(ry, rx, &ra, &rb);

  const Point tl = Intersect(ta, tb, true, la, lb, false);
  const Point tr = Intersect(ta, tb, true, ra, rb, false);
  const Point bl = Intersect(ba, bb, true, la, lb, false);
  const Point br = Intersect(ba, bb, true, ra, rb, false);

  const double cxc = (tl.x + tr.x + bl.x + br.x) / 4;
  const double cyc = (tl.y + tr.y + bl.y + br.y) / 4;
  const double norm = std::sqrt((tr.x - tl.x) * (tr.x - tl.x) +
                                (bl.y - tl.y) * (bl.y - tl.y)) /
                      std::sqrt(2.0);

  // 3. Lens calibration against a *known pattern*: the border ring is pure
  // black and the gap ring pure white, at the largest radii of the grid —
  // exactly where radial distortion hurts most. For each candidate k,
  // undistort the fitted corners, lay the lattice between them, map it
  // forward into the distorted scan, and score the contrast between the two
  // rings. The k that maximises contrast is the scanner's curvature.
  const int n = data_side;
  const int grid_side = n + 2 * kFrameCells;

  auto undistort = [&](Point p, double k) {
    const double dx = p.x - cxc;
    const double dy = p.y - cyc;
    const double r2 = (dx * dx + dy * dy) / (norm * norm);
    return Point{cxc + dx * (1 + k * r2), cyc + dy * (1 + k * r2)};
  };
  // The lens model for k that the lens-map kernel (support/kernels.h)
  // maps lattice points through: the undistorted corners, then the
  // forward distortion about the centre.
  auto make_frame = [&](double k) {
    const Point utl = undistort(tl, k), utr = undistort(tr, k);
    const Point ubl = undistort(bl, k), ubr = undistort(br, k);
    return kernels::LensFrame{utl.x, utl.y, utr.x, utr.y, ubl.x, ubl.y,
                              ubr.x, ubr.y, cxc,   cyc,   norm,  k};
  };

  // The calibration lattice is the same for every k: for each ring step,
  // four border (black) points then four gap (white) points, followed by
  // the n sync-row points.
  const double b = 1.5;
  const double g = kFrameCells - 0.5;
  LatticePoints probe(grid_side);
  int ring_steps = 0;
  for (int i = 2; i < grid_side - 2; i += 2, ++ring_steps) {
    const double c = i + 0.5;
    probe.Add(c, b);
    probe.Add(c, grid_side - b);
    probe.Add(b, c);
    probe.Add(grid_side - b, c);
    probe.Add(c, g);
    probe.Add(c, grid_side - g);
    probe.Add(g, c);
    probe.Add(grid_side - g, c);
  }
  for (int i = 0; i < n; ++i) {
    probe.Add(i + kFrameCells + 0.5, kFrameCells + 0.5);
  }
  std::vector<double> px(probe.u.size()), py(probe.u.size());

  auto calibration_score = [&](double k) {
    kernels::LensMap(make_frame(k), probe.u.data(), probe.v.data(),
                     probe.u.size(), px.data(), py.data());
    // Term 1: contrast between the ring at cell index 1 (middle of the
    // border, black) and the inner gap ring (white), all four sides.
    double black_sum = 0, white_sum = 0;
    int count = 0;
    size_t p = 0;
    for (int s = 0; s < ring_steps; ++s) {
      for (int q = 0; q < 4; ++q, ++p) {
        black_sum += scan.Sample(px[p], py[p]);
        ++count;
      }
      for (int q = 0; q < 4; ++q, ++p) white_sum += scan.Sample(px[p], py[p]);
    }
    const double ring = (white_sum - black_sum) / std::max(count, 1);
    // Term 2: correlation with the sync/type row's 2-cell alternation —
    // the sharpest known pattern in the emblem; |.| makes it type-agnostic.
    double sync = 0;
    for (int i = 0; i < n; ++i, ++p) {
      const double v = scan.Sample(px[p], py[p]);
      sync += (((i / 2) % 2) == 0) ? -v : v;
    }
    return ring + 2.0 * std::abs(sync) / n;
  };

  // The score rises slowly and almost monotonically across neighbouring
  // candidates, so a coarse pass over every kLensStride-th candidate of each
  // range finds the region and a fine pass over the winner's neighbours
  // settles it. The plausible range is a plain argmax seeded with k = 0.
  // A far candidate (the score can have spurious far-away optima on very
  // large emblems) is only accepted on a clear margin; once one is, its
  // neighbours compete with it alone.
  const LensCandidates& lens = Lens();
  double best_k = 0;
  double best_score = calibration_score(0);
  const std::vector<double>* range = &lens.near;
  size_t best_i = lens.zero;
  bool negative = false;
  for (size_t i = 0; i < lens.near.size(); i += kLensStride) {
    const double s = calibration_score(lens.near[i]);
    if (s > best_score) {
      best_score = s;
      best_k = lens.near[i];
      best_i = i;
    }
  }
  for (size_t i = 0; i < lens.far.size(); i += kLensStride) {
    for (bool neg : {false, true}) {
      const double k = neg ? -lens.far[i] : lens.far[i];
      const double s = calibration_score(k);
      if (s > best_score * 1.02 + 1.0) {
        best_score = s;
        best_k = k;
        range = &lens.far;
        best_i = i;
        negative = neg;
      }
    }
  }
  const size_t lo = best_i - std::min(best_i, kLensStride - 1);
  const size_t hi = std::min(best_i + kLensStride - 1, range->size() - 1);
  for (size_t i = lo; i <= hi; ++i) {
    if (i % kLensStride == 0) continue;  // scored by the coarse pass
    const double k = negative ? -(*range)[i] : (*range)[i];
    const double s = calibration_score(k);
    if (s > best_score) {
      best_score = s;
      best_k = k;
    }
  }

  // 4. Sample the data-area lattice with the calibrated frame, one lattice
  // row per transform batch.
  const kernels::LensFrame frame = make_frame(best_k);
  Bytes out(static_cast<size_t>(n) * n);
  LatticePoints row(grid_side);
  for (int i = 0; i < n; ++i) row.Add(i + kFrameCells + 0.5, 0);
  std::vector<double> row_x(row.u.size()), row_y(row.u.size());
  for (int j = 0; j < n; ++j) {
    std::fill(row.v.begin(), row.v.end(),
              (j + kFrameCells + 0.5) / grid_side);
    kernels::LensMap(frame, row.u.data(), row.v.data(), row.u.size(),
                     row_x.data(), row_y.data());
    uint8_t* dst = &out[static_cast<size_t>(j) * n];
    for (int i = 0; i < n; ++i) {
      dst[i] = static_cast<uint8_t>(
          std::clamp(scan.Sample(row_x[i], row_y[i]), 0.0, 255.0));
    }
  }
  const Point utl{frame.tl_x, frame.tl_y};
  const Point utr{frame.tr_x, frame.tr_y};

  if (info) {
    info->rotation_deg = std::atan2(utr.y - utl.y, utr.x - utl.x) * 180.0 /
                         3.14159265358979323846;
    info->cell_pitch = std::sqrt((utr.x - utl.x) * (utr.x - utl.x) +
                                 (utr.y - utl.y) * (utr.y - utl.y)) /
                       grid_side;
    info->lens_k = best_k;
  }
  return out;
}

}  // namespace mocoder
}  // namespace ule
