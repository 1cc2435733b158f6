// Differential test of the emblem sampler: the production
// mocoder::SampleEmblem against ReferenceSampleEmblem, the original
// exhaustive-calibration implementation kept in reference_detect.h. The two
// must be decode-equivalent on every scan (detect_equivalence.h), and
// bit-identical wherever they calibrate the same lens coefficient; every
// test requires that case to occur, so the stages before and after the lens
// search stay pinned exactly. detect_sweep_test.cc runs the same checks over
// a larger corpus.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "media/image.h"
#include "media/profiles.h"
#include "media/scanner.h"
#include "support/random.h"
#include "tests/detect_equivalence.h"

namespace ule {
namespace mocoder {
namespace {

using reference::RenderRandomEmblem;

/// Tallies CompareSamplers over a test's corpus.
struct Corpus {
  /// Compares the samplers on one scan. Returns whether both detected the
  /// emblem.
  bool Check(const media::Image& scan, int data_side,
             const std::string& label) {
    const reference::Equivalence e =
        reference::CompareSamplers(scan, data_side);
    EXPECT_EQ(e.error, "") << label;
    decoded += e.decoded;
    same_lens += e.same_lens;
    return e.detected;
  }
  int decoded = 0;
  int same_lens = 0;
};

TEST(DetectDiffTest, PaperA4ScansAtBenchGeometry) {
  Corpus corpus;
  const media::MediaProfile a4 = media::PaperA4Laser600();
  for (uint64_t seed = 0; seed < 24; ++seed) {
    const media::Image printed = RenderRandomEmblem(100 + seed, 128, 4);
    media::ScanProfile sp = a4.scan;
    sp.seed = a4.scan.seed + seed;
    const media::Image scan = media::Scan(printed, sp);
    EXPECT_TRUE(
        corpus.Check(scan, 128, "a4 seed " + std::to_string(seed)));
  }
  EXPECT_EQ(corpus.decoded, 24);
  EXPECT_GT(corpus.same_lens, 0);
}

TEST(DetectDiffTest, FilmScanModels) {
  Corpus corpus;
  for (const media::MediaProfile& profile :
       {media::Microfilm16mm(), media::CinemaFilm35mm()}) {
    for (uint64_t seed = 0; seed < 4; ++seed) {
      media::Image printed =
          RenderRandomEmblem(200 + seed, 72, profile.dots_per_cell);
      if (profile.bitonal_write) {
        for (auto& px : printed.mutable_pixels()) px = px < 128 ? 0 : 255;
      }
      media::ScanProfile sp = profile.scan;
      sp.seed = profile.scan.seed + seed;
      const media::Image scan = media::Scan(printed, sp);
      EXPECT_TRUE(corpus.Check(scan, 72,
                                  profile.name + " seed " +
                                      std::to_string(seed)));
    }
  }
  EXPECT_GT(corpus.same_lens, 0);
}

struct DistortionCase {
  const char* name;
  double rotation, barrel, jitter, blur, noise, dust;
};

TEST(DetectDiffTest, DistortionCases) {
  Corpus corpus;
  // The DetectUnderDistortion cases of mocoder_test, plus a stronger barrel
  // and a pincushion lens.
  const DistortionCase cases[] = {
      {"clean", 0, 0, 0, 0, 0, 0},
      {"rotated", 1.0, 0, 0, 0.3, 3, 0},
      {"lens", 0.2, 0.004, 0, 0.3, 3, 0},
      {"jitter", 0.2, 0, 0.5, 0.3, 3, 0},
      {"noisy", 0.3, 0.001, 0.3, 0.8, 10, 2},
      {"dusty", 0.2, 0.001, 0.2, 0.5, 5, 20},
      {"strong_lens", 0.5, 0.012, 0.2, 0.5, 3, 0},
      {"pincushion", -0.7, -0.015, 0, 0.5, 3, 0},
  };
  const media::Image printed = RenderRandomEmblem(8, 80, 5);
  for (const DistortionCase& c : cases) {
    media::ScanProfile sp;
    sp.rotation_deg = c.rotation;
    sp.barrel_k1 = c.barrel;
    sp.jitter_amplitude = c.jitter;
    sp.blur_sigma = c.blur;
    sp.noise_sigma = c.noise;
    sp.dust_per_megapixel = c.dust;
    sp.seed = 77;
    EXPECT_TRUE(corpus.Check(media::Scan(printed, sp), 80, c.name));
  }
  EXPECT_GT(corpus.same_lens, 0);
}

TEST(DetectDiffTest, BorderTouchesImageEdge) {
  Corpus corpus;
  // No quiet zone: the border's outer pixels sit on the image edge, so the
  // solid-black test reads clamped neighbours. Once scanned (skewed, lens
  // curved), calibration samples also fall outside the frame and take
  // Sample's clamped path.
  const media::Image printed = RenderRandomEmblem(9, 80, 4, 0);
  EXPECT_TRUE(corpus.Check(printed, 80, "unscanned, quiet 0"));
  media::ScanProfile sp = media::PaperA4Laser600().scan;
  for (double rotation : {0.0, 1.0, -3.0}) {
    sp.rotation_deg = rotation;
    EXPECT_TRUE(corpus.Check(
        media::Scan(printed, sp), 80,
        "scanned, quiet 0, rotation " + std::to_string(rotation)));
  }
  EXPECT_GT(corpus.same_lens, 0);
}

TEST(DetectDiffTest, WrongDataSide) {
  Corpus corpus;
  const media::Image printed = RenderRandomEmblem(10, 80, 4);
  for (int n : {40, 79, 81, 120}) {
    corpus.Check(printed, n, "data_side " + std::to_string(n));
  }
  EXPECT_GT(corpus.same_lens, 0);
}

TEST(DetectDiffTest, DegenerateImages) {
  Corpus corpus;
  corpus.Check(media::Image(200, 200, 255), 65, "blank");
  corpus.Check(media::Image(200, 200, 0), 65, "all black");
  corpus.Check(media::Image(1, 1, 255), 1, "1x1 white");
  corpus.Check(media::Image(1, 1, 0), 1, "1x1 black");
  corpus.Check(media::Image(20, 20, 0), 10, "20x20 black, exact fit");
  media::Image noise(64, 64);
  Rng rng(11);
  for (auto& px : noise.mutable_pixels()) {
    px = static_cast<uint8_t>(rng.Below(256));
  }
  corpus.Check(noise, 30, "uniform noise");
  EXPECT_GT(corpus.same_lens, 0);
}

}  // namespace
}  // namespace mocoder
}  // namespace ule
