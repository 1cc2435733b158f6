// Differential test of the emblem sampler: the production
// mocoder::SampleEmblem against ReferenceSampleEmblem, the original
// unoptimised implementation kept in reference_detect.h. The two must agree
// bit for bit on every scan — the output intensities, every DetectInfo
// double, and the Status code when detection fails.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "media/image.h"
#include "media/profiles.h"
#include "media/scanner.h"
#include "mocoder/detect.h"
#include "mocoder/emblem.h"
#include "support/crc32.h"
#include "support/random.h"
#include "tests/reference_detect.h"

namespace ule {
namespace mocoder {
namespace {

media::Image RenderRandomEmblem(uint64_t seed, int data_side, int dots,
                                int quiet_cells = 2) {
  Rng rng(seed);
  const Bytes payload = RandomBytes(&rng, EmblemCapacity(data_side));
  EmblemHeader h;
  h.stream = StreamId::kData;
  h.seq = static_cast<uint16_t>(seed);
  h.total = 1;
  h.stream_len = static_cast<uint32_t>(payload.size());
  h.payload_crc = Crc32(payload);
  auto grid = BuildEmblem(h, payload, data_side);
  EXPECT_TRUE(grid.ok()) << grid.status().ToString();
  return RenderEmblem(grid.value(), dots, quiet_cells);
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// Runs both samplers and requires bit-identical results. Returns whether
// detection succeeded, so callers can check the corpus is not all failures.
bool ExpectIdentical(const media::Image& scan, int data_side,
                     const std::string& label) {
  DetectInfo want_info, got_info;
  const auto want =
      reference::ReferenceSampleEmblem(scan, data_side, &want_info);
  const auto got = SampleEmblem(scan, data_side, &got_info);
  EXPECT_EQ(got.status().code(), want.status().code())
      << label << ": reference " << want.status().ToString() << ", got "
      << got.status().ToString();
  if (!want.ok() || !got.ok()) return false;
  EXPECT_TRUE(got.value() == want.value()) << label << ": intensities differ";
  EXPECT_EQ(Bits(got_info.rotation_deg), Bits(want_info.rotation_deg))
      << label;
  EXPECT_EQ(Bits(got_info.cell_pitch), Bits(want_info.cell_pitch)) << label;
  EXPECT_EQ(Bits(got_info.lens_k), Bits(want_info.lens_k)) << label;
  return true;
}

TEST(DetectDiffTest, PaperA4ScansAtBenchGeometry) {
  const media::MediaProfile a4 = media::PaperA4Laser600();
  int decoded = 0;
  for (uint64_t seed = 0; seed < 24; ++seed) {
    const media::Image printed = RenderRandomEmblem(100 + seed, 128, 4);
    media::ScanProfile sp = a4.scan;
    sp.seed = a4.scan.seed + seed;
    const media::Image scan = media::Scan(printed, sp);
    decoded += ExpectIdentical(scan, 128, "a4 seed " + std::to_string(seed));
  }
  EXPECT_EQ(decoded, 24);
}

TEST(DetectDiffTest, FilmScanModels) {
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
      EXPECT_TRUE(ExpectIdentical(scan, 72,
                                  profile.name + " seed " +
                                      std::to_string(seed)));
    }
  }
}

struct DistortionCase {
  const char* name;
  double rotation, barrel, jitter, blur, noise, dust;
};

TEST(DetectDiffTest, DistortionCases) {
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
    EXPECT_TRUE(ExpectIdentical(media::Scan(printed, sp), 80, c.name));
  }
}

TEST(DetectDiffTest, BorderTouchesImageEdge) {
  // No quiet zone: the border's outer pixels sit on the image edge, so the
  // solid-black test reads clamped neighbours. Once scanned (skewed, lens
  // curved), calibration samples also fall outside the frame and take
  // Sample's clamped path.
  const media::Image printed = RenderRandomEmblem(9, 80, 4, 0);
  EXPECT_TRUE(ExpectIdentical(printed, 80, "unscanned, quiet 0"));
  media::ScanProfile sp = media::PaperA4Laser600().scan;
  for (double rotation : {0.0, 1.0, -3.0}) {
    sp.rotation_deg = rotation;
    EXPECT_TRUE(ExpectIdentical(
        media::Scan(printed, sp), 80,
        "scanned, quiet 0, rotation " + std::to_string(rotation)));
  }
}

TEST(DetectDiffTest, WrongDataSide) {
  const media::Image printed = RenderRandomEmblem(10, 80, 4);
  for (int n : {40, 79, 81, 120}) {
    ExpectIdentical(printed, n, "data_side " + std::to_string(n));
  }
}

TEST(DetectDiffTest, DegenerateImages) {
  ExpectIdentical(media::Image(200, 200, 255), 65, "blank");
  ExpectIdentical(media::Image(200, 200, 0), 65, "all black");
  ExpectIdentical(media::Image(1, 1, 255), 1, "1x1 white");
  ExpectIdentical(media::Image(1, 1, 0), 1, "1x1 black");
  ExpectIdentical(media::Image(20, 20, 0), 10, "20x20 black, exact fit");
  media::Image noise(64, 64);
  Rng rng(11);
  for (auto& px : noise.mutable_pixels()) {
    px = static_cast<uint8_t>(rng.Below(256));
  }
  ExpectIdentical(noise, 30, "uniform noise");
}

}  // namespace
}  // namespace mocoder
}  // namespace ule
