// The detect_diff_test checks over a larger scan corpus: 200 A4 scans at the
// bench geometry (data_side 128, 4 dots per cell) and 16 scans per film
// profile, each with its own scanner seed. Every scan must be
// decode-equivalent between the production and reference samplers
// (detect_equivalence.h) and decode to its payload, and some scans of each
// corpus must calibrate the same lens coefficient and so match bit for bit.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "media/image.h"
#include "media/profiles.h"
#include "media/scanner.h"
#include "tests/detect_equivalence.h"

namespace ule {
namespace mocoder {
namespace {

void Sweep(const media::MediaProfile& profile, int data_side,
           uint64_t payload_seed, int scans) {
  int decoded = 0, same_lens = 0;
  for (int i = 0; i < scans; ++i) {
    const uint64_t seed = static_cast<uint64_t>(i);
    media::Image printed = reference::RenderRandomEmblem(
        payload_seed + seed, data_side, profile.dots_per_cell);
    if (profile.bitonal_write) {
      for (auto& px : printed.mutable_pixels()) px = px < 128 ? 0 : 255;
    }
    media::ScanProfile sp = profile.scan;
    sp.seed = profile.scan.seed + seed;
    const reference::Equivalence e =
        reference::CompareSamplers(media::Scan(printed, sp), data_side);
    EXPECT_EQ(e.error, "") << profile.name << " seed " << seed;
    decoded += e.decoded;
    same_lens += e.same_lens;
  }
  EXPECT_EQ(decoded, scans) << profile.name;
  EXPECT_GT(same_lens, 0) << profile.name;
}

TEST(DetectSweepTest, PaperA4AtBenchGeometry) {
  Sweep(media::PaperA4Laser600(), 128, 1000, 200);
}

TEST(DetectSweepTest, Microfilm16mm) {
  Sweep(media::Microfilm16mm(), 72, 2000, 16);
}

TEST(DetectSweepTest, CinemaFilm35mm) {
  Sweep(media::CinemaFilm35mm(), 72, 3000, 16);
}

}  // namespace
}  // namespace mocoder
}  // namespace ule
