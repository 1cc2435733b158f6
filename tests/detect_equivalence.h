/// \file detect_equivalence.h
/// \brief The contract between `mocoder::SampleEmblem` and the reference
/// sampler of reference_detect.h: decode-equivalence.
///
/// The reference scores every lens candidate; the production sampler
/// searches them coarse to fine. The calibration score rises almost
/// monotonically across neighbouring candidates, so the two can settle on
/// different k for the same scan. Neither pick is a better measurement of
/// the lens, so the contract is that the two grids decode the same, not that
/// they are the same bytes:
///  - both samplers return the same Status code;
///  - `DecodeEmblemIntensities` returns the same Status, header and payload
///    from both grids;
///  - the production grid needs at most as many inner RS corrections;
///  - the production `lens_k` is one of the candidate values;
///  - where the two `lens_k` agree, the intensities and every `DetectInfo`
///    double are bit-identical, which pins the Otsu, border-box, edge-fit
///    and lattice-sampling stages exactly.
/// `detect_diff_test.cc`, `detect_sweep_test.cc` and `BM_SampleEmblem` check
/// it.

#ifndef ULE_TESTS_DETECT_EQUIVALENCE_H_
#define ULE_TESTS_DETECT_EQUIVALENCE_H_

#include <bit>
#include <cstdint>
#include <string>

#include "media/image.h"
#include "mocoder/detect.h"
#include "mocoder/emblem.h"
#include "support/bytes.h"
#include "support/crc32.h"
#include "support/random.h"
#include "tests/reference_detect.h"

namespace ule {
namespace mocoder {
namespace reference {

/// Renders one emblem of random payload, as printed (not yet scanned).
inline media::Image RenderRandomEmblem(uint64_t seed, int data_side, int dots,
                                       int quiet_cells = 2) {
  Rng rng(seed);
  const Bytes payload = RandomBytes(&rng, EmblemCapacity(data_side));
  EmblemHeader h;
  h.stream = StreamId::kData;
  h.seq = static_cast<uint16_t>(seed);
  h.total = 1;
  h.stream_len = static_cast<uint32_t>(payload.size());
  h.payload_crc = Crc32(payload);
  return RenderEmblem(BuildEmblem(h, payload, data_side).value(), dots,
                      quiet_cells);
}

/// Whether `k` is one of the lens candidates, accumulated exactly as the
/// reference sampler's calibration loops accumulate them.
inline bool IsLensCandidate(double k) {
  if (k == 0) return true;
  for (double c = -0.008; c <= 0.008001; c += 0.0004) {
    if (k == c) return true;
  }
  for (double mag = 0.0088; mag <= 0.03001; mag += 0.0008) {
    if (k == mag || k == -mag) return true;
  }
  return false;
}

/// The outcome of one production-vs-reference comparison.
struct Equivalence {
  std::string error;       ///< empty when the samplers are decode-equivalent
  bool detected = false;   ///< both samplers returned a grid
  bool decoded = false;    ///< both grids decoded to a payload
  bool same_lens = false;  ///< both picked the same k (and so matched bit
                           ///< for bit)
};

/// Runs both samplers on `scan` and checks the contract above.
inline Equivalence CompareSamplers(const media::Image& scan, int data_side) {
  Equivalence r;
  DetectInfo want_info, got_info;
  const auto want = ReferenceSampleEmblem(scan, data_side, &want_info);
  const auto got = SampleEmblem(scan, data_side, &got_info);
  if (got.status().code() != want.status().code()) {
    r.error = "sampler status: reference " + want.status().ToString() +
              ", got " + got.status().ToString();
    return r;
  }
  if (!want.ok()) return r;
  r.detected = true;
  if (!IsLensCandidate(got_info.lens_k)) {
    r.error = "lens_k " + std::to_string(got_info.lens_k) +
              " is not a lens candidate";
    return r;
  }
  auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  if (bits(got_info.lens_k) == bits(want_info.lens_k)) {
    r.same_lens = true;
    if (got.value() != want.value()) {
      r.error = "same lens_k but the intensities differ";
      return r;
    }
    if (bits(got_info.rotation_deg) != bits(want_info.rotation_deg) ||
        bits(got_info.cell_pitch) != bits(want_info.cell_pitch)) {
      r.error = "same lens_k but the geometry differs";
      return r;
    }
  }
  EmblemHeader want_header, got_header;
  EmblemDecodeInfo want_decode, got_decode;
  const auto want_payload = DecodeEmblemIntensities(
      want.value(), data_side, &want_header, &want_decode);
  const auto got_payload = DecodeEmblemIntensities(got.value(), data_side,
                                                   &got_header, &got_decode);
  if (got_payload.status().ToString() != want_payload.status().ToString()) {
    r.error = "decode status: reference " +
              want_payload.status().ToString() + ", got " +
              got_payload.status().ToString();
    return r;
  }
  if (!want_payload.ok()) return r;
  if (SerializeHeader(got_header) != SerializeHeader(want_header)) {
    r.error = "decoded headers differ";
  } else if (got_payload.value() != want_payload.value()) {
    r.error = "decoded payloads differ";
  } else if (got_decode.rs_errors_corrected >
             want_decode.rs_errors_corrected) {
    r.error = "RS corrections: reference " +
              std::to_string(want_decode.rs_errors_corrected) + ", got " +
              std::to_string(got_decode.rs_errors_corrected);
  }
  r.decoded = r.error.empty();
  return r;
}

}  // namespace reference
}  // namespace mocoder
}  // namespace ule

#endif  // ULE_TESTS_DETECT_EQUIVALENCE_H_
