// A robustness floor for emblem detection. Every point of the E12
// single-distortion sweep (bench/bench_scan_distortion.cc) that decodes today,
// and every media profile's default scanner, must keep decoding the emblem
// to its exact payload, so a detector change cannot quietly give up margin.
// The emblem, base scanner and sweep values are the bench's.

#include <gtest/gtest.h>

#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "media/profiles.h"
#include "media/scanner.h"
#include "mocoder/detect.h"
#include "mocoder/emblem.h"
#include "support/crc32.h"
#include "support/random.h"

namespace ule {
namespace media {

static void PrintTo(const MediaProfile& p, std::ostream* os) { *os << p.name; }

}  // namespace media

namespace mocoder {
namespace {

constexpr int kDataSide = 96;

struct Emblem {
  Bytes payload;
  media::Image printed;
};

Emblem MakeEmblem(int dots_per_cell) {
  Rng rng(600);
  Emblem e;
  e.payload.resize(static_cast<size_t>(EmblemCapacity(kDataSide)));
  for (auto& b : e.payload) b = static_cast<uint8_t>(rng.Below(256));
  EmblemHeader h;
  h.stream_len = static_cast<uint32_t>(e.payload.size());
  h.payload_crc = Crc32(e.payload);
  e.printed = RenderEmblem(BuildEmblem(h, e.payload, kDataSide).value(),
                           dots_per_cell);
  return e;
}

void ExpectDecodes(const Emblem& e, const media::ScanProfile& sp) {
  auto cells = SampleEmblem(media::Scan(e.printed, sp), kDataSide);
  ASSERT_TRUE(cells.ok()) << cells.status().ToString();
  auto back = DecodeEmblemIntensities(cells.value(), kDataSide, nullptr);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), e.payload);
}

/// One sweep point: the bench's base scanner with one distortion set.
struct SweepPoint {
  const char* axis;
  double media::ScanProfile::*field;
  double value;
};

void PrintTo(const SweepPoint& p, std::ostream* os) {
  *os << p.axis << " " << p.value;
}

std::vector<SweepPoint> DecodingSweepPoints() {
  using SP = media::ScanProfile;
  std::vector<SweepPoint> points;
  auto axis = [&](const char* name, double SP::*field,
                  std::initializer_list<double> values) {
    for (double v : values) points.push_back({name, field, v});
  };
  axis("rotation", &SP::rotation_deg, {0.0, 0.5, 1.0, 2.0, 4.0});
  axis("barrel", &SP::barrel_k1, {0.0, 0.002, 0.005, 0.01, 0.02, 0.04});
  axis("jitter", &SP::jitter_amplitude, {0.0, 0.5, 1.0, 1.5, 2.5});
  axis("blur", &SP::blur_sigma, {0.3, 0.8, 1.2, 1.6});
  axis("noise", &SP::noise_sigma, {0.0, 10.0, 25.0, 45.0});
  axis("dust", &SP::dust_per_megapixel, {0.0, 5.0, 20.0, 60.0, 150.0, 400.0});
  axis("fade", &SP::fade, {0.0, 0.2, 0.4, 0.6, 0.75, 0.9});
  return points;
}

class ScanSweepFloor : public ::testing::TestWithParam<SweepPoint> {};

TEST_P(ScanSweepFloor, DecodesExactPayload) {
  static const Emblem kEmblem = MakeEmblem(4);
  media::ScanProfile sp;
  sp.blur_sigma = 0.3;
  sp.noise_sigma = 3;
  sp.seed = 777;
  sp.*GetParam().field = GetParam().value;
  ExpectDecodes(kEmblem, sp);
}

INSTANTIATE_TEST_SUITE_P(
    E12, ScanSweepFloor, ::testing::ValuesIn(DecodingSweepPoints()),
    [](const ::testing::TestParamInfo<SweepPoint>& info) {
      char value[32];
      std::snprintf(value, sizeof value, "%g", info.param.value);
      std::string name = std::string(info.param.axis) + "_" + value;
      for (auto& c : name) {
        if (c == '.') c = 'p';
      }
      return name;
    });

class MediaProfileFloor
    : public ::testing::TestWithParam<media::MediaProfile> {};

TEST_P(MediaProfileFloor, DecodesExactPayload) {
  const media::MediaProfile& profile = GetParam();
  Emblem e = MakeEmblem(profile.dots_per_cell);
  if (profile.bitonal_write) {
    for (auto& px : e.printed.mutable_pixels()) px = px < 128 ? 0 : 255;
  }
  ExpectDecodes(e, profile.scan);
}

INSTANTIATE_TEST_SUITE_P(E12, MediaProfileFloor,
                         ::testing::ValuesIn(media::AllProfiles()),
                         [](const auto& info) {
                           std::string n = info.param.name;
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

}  // namespace
}  // namespace mocoder
}  // namespace ule
