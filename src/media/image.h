/// \file image.h
/// \brief 8-bit grayscale raster used by the analog-media simulation.
///
/// Scanned microform/paper/film arrives in the restore pipeline as plain
/// grayscale rasters ("the user converts the images containing emblems into
/// a linear flat array of pixel intensities", §3.3). PGM (P5) and PBM (P4)
/// round-tripping is provided so every intermediate artefact can be dumped
/// and inspected.

#ifndef ULE_MEDIA_IMAGE_H_
#define ULE_MEDIA_IMAGE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "support/bytes.h"
#include "support/status.h"

namespace ule {
namespace media {

/// \brief Row-major 8-bit grayscale image. 0 = black, 255 = white.
class Image {
 public:
  Image() = default;
  Image(int width, int height, uint8_t fill = 255)
      : width_(width), height_(height),
        pixels_(static_cast<size_t>(width) * height, fill) {}

  int width() const { return width_; }
  int height() const { return height_; }
  bool empty() const { return pixels_.empty(); }

  uint8_t at(int x, int y) const {
    return pixels_[static_cast<size_t>(y) * width_ + x];
  }
  void set(int x, int y, uint8_t v) {
    pixels_[static_cast<size_t>(y) * width_ + x] = v;
  }
  /// at() with clamped coordinates (edge extension).
  uint8_t at_clamped(int x, int y) const {
    x = std::clamp(x, 0, width_ - 1);
    y = std::clamp(y, 0, height_ - 1);
    return at(x, y);
  }
  /// Bilinear sample at fractional coordinates, clamped at edges.
  double Sample(double x, double y) const {
    // Interior: truncation is floor, and all four neighbours are in range,
    // so they are read through one row pointer.
    if (x >= 0 && y >= 0 && x < width_ - 1 && y < height_ - 1) {
      const int x0 = static_cast<int>(x);
      const int y0 = static_cast<int>(y);
      const size_t i = static_cast<size_t>(y0) * width_ + x0;
      // Implied by the tests above; restated against the buffer so the
      // compiler can prove the four reads in bounds.
      if (i + width_ + 1 < pixels_.size()) {
        const uint8_t* p = &pixels_[i];
        return Bilinear(p[0], p[1], p[width_], p[width_ + 1], x - x0,
                        y - y0);
      }
    }
    return SampleClamped(x, y);
  }

  void FillRect(int x, int y, int w, int h, uint8_t v);

  const std::vector<uint8_t>& pixels() const { return pixels_; }
  std::vector<uint8_t>& mutable_pixels() { return pixels_; }

  /// Serialises as binary PGM (P5).
  Bytes ToPgm() const;
  static Result<Image> FromPgm(BytesView data);

  /// Serialises as bitonal PBM (P4); pixels < 128 become black. Microfilm
  /// writers produce bitonal TIFFs (§4); PBM is our equivalent container.
  Bytes ToPbm() const;
  static Result<Image> FromPbm(BytesView data);

  /// Writes/reads PGM files on the host filesystem (for examples/benches).
  Status SavePgm(const std::string& path) const;
  static Result<Image> LoadPgm(const std::string& path);

  /// Writes/reads bitonal PBM files (used by the film-store directory
  /// backend for microfilm-style bitonal reels). Lossy for grayscale
  /// content: pixels < 128 become black. Round-trips rendered (pure
  /// 0/255) frames exactly.
  Status SavePbm(const std::string& path) const;
  static Result<Image> LoadPbm(const std::string& path);

 private:
  static double Bilinear(double a, double b, double c, double d, double fx,
                         double fy) {
    return a * (1 - fx) * (1 - fy) + b * fx * (1 - fy) + c * (1 - fx) * fy +
           d * fx * fy;
  }
  /// Sample() near or past the edges, where neighbours are clamped.
  double SampleClamped(double x, double y) const;

  int width_ = 0;
  int height_ = 0;
  std::vector<uint8_t> pixels_;
};

}  // namespace media
}  // namespace ule

#endif  // ULE_MEDIA_IMAGE_H_
