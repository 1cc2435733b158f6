#include "core/record_index.h"

#include <algorithm>
#include <string_view>

#include "support/crc32.h"

namespace ule {
namespace core {

// ULE-S1 section wire form (docs/FORMAT.md §11; integers little-endian):
//
//   header (28 bytes):
//     0   4  magic "ULES"
//     4   1  binary version (kIndexBinaryVersion)
//     5   1  DBCoder scheme byte
//     6   1  flags (bit 0: stream is segmented / UDBS)
//     7   1  reserved (0)
//     8   8  dump length
//     16  8  DBCoder stream length
//     24  4  chunk count
//   per chunk:
//     u16 table name length | name bytes ("" for structural text)
//     u64 row_begin | u64 row_count
//     u64 raw_offset | u64 raw_len
//     u64 stream_offset | u64 stream_len
//   trailer (8 bytes at EOF):
//     u32 CRC-32 of all preceding bytes | magic "SIDX"

namespace {

constexpr char kIndexMagic[4] = {'U', 'L', 'E', 'S'};
constexpr char kIndexTrailerMagic[4] = {'S', 'I', 'D', 'X'};
constexpr size_t kIndexHeaderBytes = 28;
constexpr size_t kIndexTrailerBytes = 8;
constexpr size_t kMinChunkRowBytes = 2 + 6 * 8;

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

}  // namespace

std::vector<size_t> RecordIndex::ChunksOfTable(const std::string& table) const {
  std::vector<size_t> out;
  for (size_t i = 0; i < chunks.size(); ++i) {
    if (chunks[i].table == table) out.push_back(i);
  }
  return out;
}

std::vector<std::string> RecordIndex::Tables() const {
  std::vector<std::string> out;
  for (const IndexChunk& c : chunks) {
    if (c.table.empty()) continue;
    if (std::find(out.begin(), out.end(), c.table) == out.end()) {
      out.push_back(c.table);
    }
  }
  return out;
}

uint64_t RecordIndex::RowsOfTable(const std::string& table) const {
  uint64_t rows = 0;
  for (const IndexChunk& c : chunks) {
    if (c.table == table) rows += c.row_count;
  }
  return rows;
}

Bytes RecordIndex::Serialize() const {
  ByteWriter w;
  w.PutBytes(BytesView(reinterpret_cast<const uint8_t*>(kIndexMagic), 4));
  w.PutU8(kIndexBinaryVersion);
  w.PutU8(static_cast<uint8_t>(scheme));
  w.PutU8(segmented ? 1 : 0);
  w.PutU8(0);  // reserved
  w.PutU64(dump_len);
  w.PutU64(stream_len);
  w.PutU32(static_cast<uint32_t>(chunks.size()));
  for (const IndexChunk& c : chunks) {
    w.PutU16(static_cast<uint16_t>(c.table.size()));
    w.PutBytes(ToBytes(c.table));
    w.PutU64(c.row_begin);
    w.PutU64(c.row_count);
    w.PutU64(c.raw_offset);
    w.PutU64(c.raw_len);
    w.PutU64(c.stream_offset);
    w.PutU64(c.stream_len);
  }
  const uint32_t crc = Crc32(w.bytes());
  w.PutU32(crc);
  w.PutBytes(
      BytesView(reinterpret_cast<const uint8_t*>(kIndexTrailerMagic), 4));
  return w.TakeBytes();
}

Result<RecordIndex> RecordIndex::Parse(BytesView bytes) {
  if (bytes.size() < kIndexHeaderBytes + kIndexTrailerBytes) {
    return Status::Corruption("not a ULE-S1 record index (too small)");
  }
  if (!std::equal(kIndexMagic, kIndexMagic + 4, bytes.begin())) {
    return Status::Corruption("bad record-index magic (not ULE-S1)");
  }
  if (bytes[4] != kIndexBinaryVersion) {
    return Status::Unimplemented(
        "unsupported ULE-S1 record-index version " + std::to_string(bytes[4]) +
        " (this reader understands version " +
        std::to_string(kIndexBinaryVersion) + ")");
  }
  const BytesView trailer = bytes.subspan(bytes.size() - kIndexTrailerBytes);
  if (!std::equal(kIndexTrailerMagic, kIndexTrailerMagic + 4,
                  trailer.begin() + 4)) {
    return Status::Corruption(
        "record-index trailer magic missing (truncated?)");
  }
  const BytesView body = bytes.subspan(0, bytes.size() - kIndexTrailerBytes);
  uint32_t stored_crc = 0;
  {
    ByteReader r(trailer);
    ULE_RETURN_IF_ERROR(r.GetU32(&stored_crc));
  }
  if (Crc32(body) != stored_crc) {
    return Status::Corruption("record-index CRC mismatch");
  }

  RecordIndex index;
  if (bytes[5] > static_cast<uint8_t>(dbcoder::Scheme::kColumnar)) {
    return Status::Corruption("record index names an unknown DBCoder scheme " +
                              std::to_string(bytes[5]));
  }
  index.scheme = static_cast<dbcoder::Scheme>(bytes[5]);
  index.segmented = (bytes[6] & 1) != 0;
  ByteReader r(body.subspan(8));
  uint32_t chunk_count = 0;
  ULE_RETURN_IF_ERROR(r.GetU64(&index.dump_len));
  ULE_RETURN_IF_ERROR(r.GetU64(&index.stream_len));
  ULE_RETURN_IF_ERROR(r.GetU32(&chunk_count));
  if (chunk_count > r.remaining() / kMinChunkRowBytes) {
    return Status::Corruption("record-index chunk count " +
                              std::to_string(chunk_count) +
                              " does not fit the section");
  }
  index.chunks.reserve(chunk_count);
  uint64_t next_raw = 0;
  for (uint32_t i = 0; i < chunk_count; ++i) {
    IndexChunk c;
    uint16_t name_len = 0;
    ULE_RETURN_IF_ERROR(r.GetU16(&name_len));
    if (name_len > r.remaining()) {
      return Status::Corruption("record-index chunk " + std::to_string(i) +
                                " has an implausible table name length");
    }
    c.table.resize(name_len);
    for (uint16_t j = 0; j < name_len; ++j) {
      uint8_t ch = 0;
      ULE_RETURN_IF_ERROR(r.GetU8(&ch));
      c.table[j] = static_cast<char>(ch);
    }
    ULE_RETURN_IF_ERROR(r.GetU64(&c.row_begin));
    ULE_RETURN_IF_ERROR(r.GetU64(&c.row_count));
    ULE_RETURN_IF_ERROR(r.GetU64(&c.raw_offset));
    ULE_RETURN_IF_ERROR(r.GetU64(&c.raw_len));
    ULE_RETURN_IF_ERROR(r.GetU64(&c.stream_offset));
    ULE_RETURN_IF_ERROR(r.GetU64(&c.stream_len));
    if (c.raw_offset != next_raw) {
      return Status::Corruption("record-index chunk " + std::to_string(i) +
                                " is not contiguous with its predecessor");
    }
    if (c.stream_offset > index.stream_len ||
        c.stream_len > index.stream_len - c.stream_offset) {
      return Status::Corruption("record-index chunk " + std::to_string(i) +
                                " points outside the DBCoder stream");
    }
    next_raw += c.raw_len;
    index.chunks.push_back(std::move(c));
  }
  if (next_raw != index.dump_len) {
    return Status::Corruption("record-index chunks cover " +
                              std::to_string(next_raw) +
                              " bytes of a " + std::to_string(index.dump_len) +
                              "-byte dump");
  }
  if (r.remaining() != 0) {
    return Status::Corruption("record index has trailing bytes");
  }
  return index;
}

Result<std::vector<IndexChunk>> PlanDumpChunks(const std::string& dump,
                                               size_t target_bytes) {
  if (target_bytes == 0) target_bytes = kDefaultIndexChunkBytes;
  std::vector<IndexChunk> chunks;

  enum class Mode { kFiller, kSchema, kRows };
  Mode mode = Mode::kFiller;
  IndexChunk cur;
  bool open = false;
  std::string table;
  uint64_t row_next = 0;

  const auto flush = [&]() {
    if (open && cur.raw_len > 0) chunks.push_back(cur);
    open = false;
  };
  const auto begin_chunk = [&](const std::string& t, uint64_t row_begin,
                               uint64_t offset) {
    cur = IndexChunk{};
    cur.table = t;
    cur.row_begin = row_begin;
    cur.raw_offset = offset;
    open = true;
  };

  size_t pos = 0;
  const size_t n = dump.size();
  while (pos < n) {
    const size_t eol = dump.find('\n', pos);
    size_t line_end = eol == std::string::npos ? n : eol + 1;
    const std::string_view line(dump.data() + pos,
                                (eol == std::string::npos ? n : eol) - pos);
    switch (mode) {
      case Mode::kFiller: {
        if (StartsWith(line, "CREATE TABLE ")) {
          flush();
          std::string_view name = line.substr(13);
          const size_t cut = name.find_first_of(" (");
          if (cut != std::string_view::npos) name = name.substr(0, cut);
          if (name.empty()) {
            return Status::InvalidArgument(
                "dump has a CREATE TABLE with no table name at byte " +
                std::to_string(pos));
          }
          table = std::string(name);
          row_next = 0;
          begin_chunk(table, 0, pos);
          mode = Mode::kSchema;
        } else if (!open) {
          begin_chunk("", 0, pos);
        }
        cur.raw_len += line_end - pos;
        break;
      }
      case Mode::kSchema: {
        cur.raw_len += line_end - pos;
        if (StartsWith(line, "COPY ") && EndsWith(line, "FROM stdin;")) {
          flush();  // schema chunk ends with the COPY header line
          mode = Mode::kRows;
        }
        break;
      }
      case Mode::kRows: {
        if (line == "\\.") {
          // The terminator (and the blank line after it) ride with the
          // table's last chunk, so a table's chunks concatenate to an
          // exact, re-loadable slice of the dump.
          if (!open) begin_chunk(table, row_next, pos);
          cur.raw_len += line_end - pos;
          if (line_end < n && dump[line_end] == '\n') {
            cur.raw_len += 1;
            line_end += 1;
          }
          flush();
          mode = Mode::kFiller;
        } else {
          if (!open) begin_chunk(table, row_next, pos);
          cur.raw_len += line_end - pos;
          cur.row_count += 1;
          row_next += 1;
          if (cur.raw_len >= target_bytes) flush();
        }
        break;
      }
    }
    pos = line_end;
  }
  if (mode != Mode::kFiller) {
    return Status::InvalidArgument("dump ends inside table '" + table +
                                   "' (no \\. terminator)");
  }
  flush();
  return chunks;
}

Result<RecordIndex> DeriveRecordIndex(const std::string& dump,
                                      BytesView stream,
                                      size_t target_bytes) {
  RecordIndex index;
  ULE_ASSIGN_OR_RETURN(index.scheme, dbcoder::PeekScheme(stream));
  index.dump_len = dump.size();
  index.stream_len = stream.size();
  ULE_ASSIGN_OR_RETURN(index.chunks, PlanDumpChunks(dump, target_bytes));

  if (dbcoder::IsSegmented(stream)) {
    ULE_ASSIGN_OR_RETURN(std::vector<dbcoder::SegmentSpan> segments,
                         dbcoder::ListSegments(stream));
    bool aligned = segments.size() == index.chunks.size();
    for (size_t i = 0; aligned && i < segments.size(); ++i) {
      aligned = segments[i].raw_offset == index.chunks[i].raw_offset &&
                segments[i].raw_len == index.chunks[i].raw_len;
    }
    if (aligned) {
      for (size_t i = 0; i < segments.size(); ++i) {
        index.chunks[i].stream_offset = segments[i].stream_offset;
        index.chunks[i].stream_len = segments[i].stream_len;
      }
      index.segmented = true;
      return index;
    }
    // A segmented stream whose segments do not match this chunk plan
    // (different archive-time target size): fall through to whole-stream
    // spans — correct, just without per-chunk decode savings.
  }
  for (IndexChunk& c : index.chunks) {
    c.stream_offset = 0;
    c.stream_len = stream.size();
  }
  return index;
}

}  // namespace core
}  // namespace ule
