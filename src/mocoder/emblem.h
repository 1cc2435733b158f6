/// \file emblem.h
/// \brief Emblems: Micr'Olonys' archival 2D barcodes (paper §3.1, Fig. 1).
///
/// Unlike QR codes, emblems have no separate clocking pattern: the bit
/// signal and clock signal are paired via differential Manchester encoding
/// (one bit = two cells; a guaranteed transition on every bit boundary
/// carries the clock; a mid-bit transition encodes the bit). The data area
/// is surrounded by a thick black square and a row of large-scale
/// alternating dots for "fast and robust initial detection of the emblem
/// geometry and type".
///
/// ## Cell geometry (side = data_side + 10 cells)
///
///     3 cells   black border ring
///     2 cells   white gap ring
///     N x N     data area; row 0 is the sync/type row (alternating
///               2-cell blocks, inverted for system emblems), rows 1..N-1
///               carry the Manchester-modulated, RS-protected payload in
///               serpentine order.
///
/// ## Payload protection
/// container = 20-byte header + capacity payload bytes, zero-padded to a
/// multiple of 223, split into RS(255,223) blocks ("each holding 223 bytes
/// of user data and 32 redundancy bytes"), byte-interleaved across the
/// emblem so localised damage spreads over all blocks (≤ 7.2% damage per
/// emblem is corrected).

#ifndef ULE_MOCODER_EMBLEM_H_
#define ULE_MOCODER_EMBLEM_H_

#include <cstdint>
#include <vector>

#include "media/image.h"
#include "support/bytes.h"
#include "support/status.h"

namespace ule {
namespace mocoder {

/// Ring widths around the data area.
inline constexpr int kBorderCells = 3;
inline constexpr int kGapCells = 2;
/// Extra cells on each side of the data area.
inline constexpr int kFrameCells = kBorderCells + kGapCells;  // 5
/// Header bytes inside the emblem container.
inline constexpr int kHeaderSize = 20;
inline constexpr uint8_t kEmblemVersion = 1;

/// Stream identifiers (which archive stream an emblem belongs to).
enum class StreamId : uint8_t {
  kData = 0,    ///< the DBCoder-compressed database archive
  kSystem = 1,  ///< the DBDecode DynaRisc program ("system emblems")
};

/// Parsed emblem header.
struct EmblemHeader {
  StreamId stream = StreamId::kData;
  uint16_t seq = 0;         ///< position in the emblem sequence (see outer.h)
  uint16_t total = 0;       ///< emitted emblems in this stream
  uint32_t stream_len = 0;  ///< total stream bytes (for tail trimming)
  uint32_t payload_crc = 0;
};

/// \brief Boolean cell matrix of a full emblem (true = black).
struct CellGrid {
  int side = 0;  // full side including border/gap
  std::vector<uint8_t> cells;  // row-major, 1 = black

  uint8_t at(int x, int y) const { return cells[static_cast<size_t>(y) * side + x]; }
  void set(int x, int y, uint8_t v) { cells[static_cast<size_t>(y) * side + x] = v; }
};

/// Number of payload bytes one emblem carries for a given data-area side.
/// Fails (returns 0) when the geometry is too small for one RS block.
int EmblemCapacity(int data_side);

/// Number of RS(255,223) blocks for a given data-area side.
int EmblemBlocks(int data_side);

/// Builds the cell grid for one emblem.
/// \param payload exactly EmblemCapacity(data_side) bytes
Result<CellGrid> BuildEmblem(const EmblemHeader& header, BytesView payload,
                             int data_side);

/// Statistics of a successful emblem decode.
struct EmblemDecodeInfo {
  int rs_errors_corrected = 0;  ///< byte errors fixed by the inner code
  int blocks = 0;
};

/// \brief Decodes the sampled data-area intensities of an emblem
/// (data_side x data_side bytes, 0 = black) back into header + payload.
///
/// This is the exact algorithm the archived DynaRisc MODecode implements:
/// sync-row thresholding, differential-Manchester demodulation along the
/// serpentine, block de-interleaving, RS correction, header validation.
Result<Bytes> DecodeEmblemIntensities(BytesView intensities, int data_side,
                                      EmblemHeader* header,
                                      EmblemDecodeInfo* info = nullptr);

/// Renders a cell grid to pixels at `dots_per_cell` (≥ 1), with a quiet
/// zone of `quiet_cells` (≥ 0) white cells on every side.
media::Image RenderEmblem(const CellGrid& grid, int dots_per_cell,
                          int quiet_cells = 2);

/// Serialises a header into its 20-byte wire form (exposed for tests and
/// for the DynaRisc decoder's conformance suite).
Bytes SerializeHeader(const EmblemHeader& header);
Result<EmblemHeader> ParseHeader(BytesView bytes);

}  // namespace mocoder
}  // namespace ule

#endif  // ULE_MOCODER_EMBLEM_H_
