// The three film workloads: a dump is archived onto emblem frames in a
// ULE-C1 reel and restored from scanned frames.
//
//   microfilm_bulk  incompressible payload, Scheme::kStore, 16 mm microfilm
//                   frames (bitonal PBM); pixel work dominates.
//   tpch_selective  TPC-H dump, LZAC + ULE-S1 index, small emblems, A4
//                   paper scans (PGM); archive, full restore and a stream
//                   of size-weighted selective queries on one restorer.
//   tpch_emulated   small TPC-H dump at the same small geometry; the
//                   Bootstrap-only emulated restore beside a native one.
//
// Set-up archives the dump once into a pristine reel, runs the print/scan
// simulator over its frames and writes the scans to the reel the timed
// restores read. The simulator is test harness: it never runs in a timed
// operation.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <filesystem>
#include <optional>

#include "core/micr_olonys.h"
#include "core/record_index.h"
#include "core/selective.h"
#include "cpp/trace.h"
#include "cpp/workloads.h"
#include "dbcoder/dbcoder.h"
#include "decoders/dbdecode.h"
#include "decoders/modecode.h"
#include "filmstore/container.h"
#include "media/profiles.h"
#include "media/scanner.h"
#include "mocoder/detect.h"
#include "mocoder/emblem.h"
#include "mocoder/mocoder.h"
#include "olonys/bootstrap.h"
#include "olonys/dynarisc_in_verisc.h"
#include "support/crc32.h"
#include "support/parallel.h"
#include "support/random.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace ule;
using mocoder::StreamId;

// ---------------------------------------------------------------------------
// Timing decorators around the filmstore boundary (traced run only).
// ---------------------------------------------------------------------------

/// ArchiveWriter decorator: one filmstore.write span per Append,
/// AppendBootstrap, SetIndexSection and Finish.
class TimingSink final : public filmstore::ArchiveWriter {
 public:
  explicit TimingSink(filmstore::ArchiveWriter& inner) : inner_(inner) {}

  Status Append(StreamId id, const mocoder::EncodedEmblem& emblem,
                media::Image&& frame) override {
    Span span("filmstore.write");
    return inner_.Append(id, emblem, std::move(frame));
  }
  Status AppendBootstrap(const std::string& text) override {
    Span span("filmstore.write");
    return inner_.AppendBootstrap(text);
  }
  Status SetIndexSection(Bytes section) override {
    Span span("filmstore.write");
    return inner_.SetIndexSection(std::move(section));
  }
  Status Finish() override {
    Span span("filmstore.write");
    return inner_.Finish();
  }
  std::vector<filmstore::ReelStats> CurrentReelStats() const override {
    return inner_.CurrentReelStats();
  }

 private:
  filmstore::ArchiveWriter& inner_;
};

/// FrameSource decorator: one filmstore.read span per Next.
class TimingSource final : public filmstore::FrameSource {
 public:
  explicit TimingSource(std::unique_ptr<filmstore::FrameSource> inner)
      : inner_(std::move(inner)) {}
  Result<std::optional<media::Image>> Next() override {
    Span span("filmstore.read");
    return inner_->Next();
  }

 private:
  std::unique_ptr<filmstore::FrameSource> inner_;
};

/// Reel decorator for the selective restorer: forwards the whole
/// ReelReader surface and wraps seek reads (SeekableSource::ReadFrame,
/// called from pool workers) in filmstore.read spans.
class TimingReel final : public filmstore::ReelReader,
                         public filmstore::SeekableSource {
 public:
  explicit TimingReel(const filmstore::ContainerReader& inner)
      : inner_(inner) {}

  const char* kind() const override { return inner_.kind(); }
  const mocoder::Options& emblem_options() const override {
    return inner_.emblem_options();
  }
  size_t frame_count(StreamId id) const override {
    return inner_.frame_count(id);
  }
  bool has_bootstrap() const override { return inner_.has_bootstrap(); }
  Result<std::string> ReadBootstrap() const override {
    return inner_.ReadBootstrap();
  }
  std::unique_ptr<filmstore::FrameSource> OpenFrames(
      StreamId id) const override {
    return std::make_unique<TimingSource>(inner_.OpenFrames(id));
  }
  Status Verify() const override { return inner_.Verify(); }
  Result<Bytes> ReadIndexSection() const override {
    return inner_.ReadIndexSection();
  }
  filmstore::ReadCounters read_counters() const override {
    return inner_.read_counters();
  }
  Result<media::Image> ReadFrame(StreamId id, size_t index) const override {
    Span span("filmstore.read");
    return inner_.ReadFrame(id, index);
  }

 private:
  const filmstore::ContainerReader& inner_;
};

// ---------------------------------------------------------------------------
// Selective-restore references, computed from the source dump by the
// benchmark's own parser (never by the code under test).
// ---------------------------------------------------------------------------

struct DumpTable {
  std::string name;
  std::string whole;   ///< CREATE TABLE .. terminator + blank line
  std::string schema;  ///< CREATE TABLE .. COPY header line
  std::vector<std::string> col_names;
  std::vector<std::string> col_defs;  ///< "name type"
  std::vector<std::string> rows;      ///< without the newline
};

std::string_view TrimWs(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

std::vector<DumpTable> ParseDumpTables(const std::string& dump) {
  std::vector<DumpTable> tables;
  enum { kFiller, kColumns, kCopy, kRows } mode = kFiller;
  size_t start = 0;
  size_t pos = 0;
  while (pos < dump.size()) {
    size_t eol = dump.find('\n', pos);
    if (eol == std::string::npos) eol = dump.size();
    const std::string_view line(dump.data() + pos, eol - pos);
    const size_t next = std::min(eol + 1, dump.size());
    if (mode == kFiller && line.rfind("CREATE TABLE ", 0) == 0) {
      DumpTable t;
      std::string_view name = line.substr(13);
      name = name.substr(0, name.find_first_of(" ("));
      t.name = std::string(name);
      tables.push_back(std::move(t));
      start = pos;
      mode = kColumns;
    } else if (mode == kColumns) {
      std::string_view def = TrimWs(line);
      if (def == ");") {
        mode = kCopy;
      } else if (!def.empty()) {
        if (def.back() == ',') def.remove_suffix(1);
        tables.back().col_names.emplace_back(def.substr(0, def.find(' ')));
        tables.back().col_defs.emplace_back(def);
      }
    } else if (mode == kCopy) {
      tables.back().schema = dump.substr(start, next - start);
      mode = kRows;
    } else if (mode == kRows) {
      if (line == "\\.") {
        size_t end = next;
        if (end < dump.size() && dump[end] == '\n') ++end;
        tables.back().whole = dump.substr(start, end - start);
        mode = kFiller;
        pos = end;
        continue;
      }
      tables.back().rows.emplace_back(line);
    }
    pos = next;
  }
  return tables;
}

/// The slice a selective restore of `pred` must return (docs of
/// core/selective.h: whole tables are the exact dump slice; projections
/// are schema text, the selected rows and a synthesized terminator).
std::string ReferenceSlice(const DumpTable& t,
                           const core::RestorePredicate& pred) {
  if (pred.all_rows() && pred.all_columns()) return t.whole;
  std::vector<size_t> keep;
  std::string out;
  if (pred.all_columns()) {
    out = t.schema;
  } else {
    for (size_t i = 0; i < t.col_names.size(); ++i) {
      if (std::find(pred.columns.begin(), pred.columns.end(),
                    t.col_names[i]) != pred.columns.end()) {
        keep.push_back(i);
      }
    }
    out = "CREATE TABLE " + t.name + " (\n";
    for (size_t i = 0; i < keep.size(); ++i) {
      out += "    " + t.col_defs[keep[i]] + (i + 1 < keep.size() ? ",\n" : "\n");
    }
    out += ");\nCOPY " + t.name + " (";
    for (size_t i = 0; i < keep.size(); ++i) {
      out += (i ? ", " : "") + t.col_names[keep[i]];
    }
    out += ") FROM stdin;\n";
  }
  const uint64_t total = t.rows.size();
  const uint64_t begin = std::min<uint64_t>(pred.row_begin, total);
  const uint64_t end = begin + std::min<uint64_t>(pred.row_count, total - begin);
  for (uint64_t r = begin; r < end; ++r) {
    if (pred.all_columns()) {
      out += t.rows[r];
    } else {
      std::vector<std::string_view> fields;
      std::string_view row = t.rows[r];
      for (size_t at = 0;;) {
        const size_t tab = row.find('\t', at);
        fields.push_back(row.substr(at, tab == std::string_view::npos
                                            ? std::string_view::npos
                                            : tab - at));
        if (tab == std::string_view::npos) break;
        at = tab + 1;
      }
      for (size_t i = 0; i < keep.size(); ++i) {
        if (i) out += '\t';
        out += fields[keep[i]];
      }
    }
    out += '\n';
  }
  out += "\\.\n\n";
  return out;
}

struct Query {
  core::RestorePredicate pred;
  std::string expected;
};

/// A seeded query stream, synthetic (no public trace of selective
/// restores exists to copy): each table's share of every block of
/// `block` queries is proportional to its size in the dump (largest
/// remainder), so the large tables are hot; each table's queries are
/// whole-table restores, row windows and single-column projections in
/// equal thirds. A row window is a uniform random interval of the
/// table's rows; a projection keeps one uniform random column of every
/// row. The seed shuffles each block and picks the windows and columns.
std::vector<Query> MakeQueries(const std::vector<DumpTable>& tables,
                               uint64_t seed, int count, int block) {
  double total = 0;
  for (const DumpTable& t : tables) {
    total += static_cast<double>(t.whole.size());
  }
  std::vector<int> share(tables.size());
  std::vector<std::pair<double, size_t>> remainders;
  int assigned = 0;
  for (size_t i = 0; i < tables.size(); ++i) {
    const double exact =
        block * static_cast<double>(tables[i].whole.size()) / total;
    share[i] = static_cast<int>(exact);
    assigned += share[i];
    remainders.push_back({exact - share[i], i});
  }
  std::sort(remainders.rbegin(), remainders.rend());
  for (int i = 0; i < block - assigned; ++i) ++share[remainders[i].second];

  Rng rng(seed);
  std::vector<Query> queries;
  while (static_cast<int>(queries.size()) < count) {
    std::vector<std::pair<const DumpTable*, int>> plan;  // table, kind
    for (size_t t = 0; t < tables.size(); ++t) {
      for (int j = 0; j < share[t]; ++j) plan.push_back({&tables[t], j % 3});
    }
    for (size_t i = plan.size(); i > 1; --i) {
      std::swap(plan[i - 1], plan[rng.Below(i)]);
    }
    for (const auto& [table, kind] : plan) {
      const DumpTable& t = *table;
      Query query;
      query.pred.table = t.name;
      if (kind == 1) {
        uint64_t a = rng.Below(t.rows.size() + 1);
        uint64_t b = rng.Below(t.rows.size() + 1);
        if (a > b) std::swap(a, b);
        query.pred.row_begin = a;
        query.pred.row_count = std::max<uint64_t>(1, b - a);
      } else if (kind == 2) {
        query.pred.columns.push_back(
            t.col_names[rng.Below(t.col_names.size())]);
      }
      query.expected = ReferenceSlice(t, query.pred);
      queries.push_back(std::move(query));
    }
  }
  queries.resize(static_cast<size_t>(count));
  return queries;
}

// ---------------------------------------------------------------------------
// The film workload.
// ---------------------------------------------------------------------------

struct FilmConfig {
  size_t random_bytes = 0;  ///< > 0: incompressible payload of about this size
  double tpch_scale = 0;    ///< else: TPC-H dump at this scale factor...
  size_t tpch_bytes = 0;    ///< ...and this size (see TpchDump)
  core::ArchiveOptions archive;
  media::MediaProfile media;
  /// Frames of the archived reel stored as bitonal PBM (film reels;
  /// exact for rendered frames) rather than ulectl's default PGM.
  bool archive_pbm = false;
  /// Scans stored as PBM too (bitonal scanner model).
  bool scan_pbm = false;
  bool selective = false;  ///< run the selective query stream
  bool emulated = false;   ///< run the Bootstrap-only restore
  int archives_per_round = 1;
  int restores_per_round = 1;  ///< native restores
  int queries = 0;           ///< length of the selective query list
  int queries_per_round = 0;  ///< queries of the list run per round
  double cache_frac = 0;   ///< restorer cache / decoded-payload total
  std::string focus;       ///< op kind of the focus role
};

FilmConfig ConfigFor(const std::string& name) {
  FilmConfig c;
  if (name == "microfilm_bulk") {
    // Paper E5: a 102 KB already-compressed image on 16 mm microfilm.
    c.random_bytes = 102 * 1024;
    c.media = media::Microfilm16mm();
    c.archive.scheme = dbcoder::Scheme::kStore;
    c.archive.emblem.dots_per_cell = c.media.dots_per_cell;
    c.archive.emblem.data_side =
        std::min(c.media.frame_width, c.media.frame_height) /
            c.media.dots_per_cell -
        2 * mocoder::kFrameCells - 2 * c.archive.emblem.quiet_cells;
    c.archive_pbm = true;
    c.scan_pbm = true;
    c.archives_per_round = 2;
    c.focus = "restore";
  } else {
    // ulectl's default geometry (data_side 128, 4 dots/cell) scanned
    // with the A4 paper scanner model.
    c.media = media::PaperA4Laser600();
    c.archive.scheme = dbcoder::Scheme::kLzac;
    c.archive.emblem.data_side = 128;
    c.archive.emblem.dots_per_cell = 4;
    if (name == "tpch_selective") {
      c.tpch_scale = 0.00016;
      c.tpch_bytes = 180'000;
      c.archive.build_index = true;
      c.selective = true;
      c.queries = 300;
      c.queries_per_round = 50;
      c.archives_per_round = 8;
      c.restores_per_round = 2;
      c.cache_frac = 0.25;
      c.focus = "query";
    } else {
      c.tpch_scale = 0.00001;
      c.tpch_bytes = 16'000;
      c.emulated = true;
      c.archives_per_round = 10;
      c.restores_per_round = 5;
      c.focus = "emulated";
    }
  }
  c.archive.emblem.threads = 0;  // nproc: the pipeline's own default
  return c;
}

/// Sums DecodeStats into per-layer counts.
void AddDecodeStats(const mocoder::DecodeStats& s, LayerValues* v) {
  (*v)["mocoder.emblems_total"] += s.emblems_total;
  (*v)["mocoder.emblems_decoded"] += s.emblems_decoded;
  (*v)["mocoder.emblems_recovered"] += s.emblems_recovered;
  (*v)["mocoder.rs_errors_corrected"] += s.rs_errors_corrected;
}

bool SameStats(const mocoder::DecodeStats& a, const mocoder::DecodeStats& b) {
  return a.emblems_total == b.emblems_total &&
         a.emblems_decoded == b.emblems_decoded &&
         a.emblems_recovered == b.emblems_recovered &&
         a.rs_errors_corrected == b.rs_errors_corrected;
}

/// Counters of the nested emulation in one traced round (pool workers
/// add to them concurrently).
struct NestedCounters {
  std::atomic<uint64_t> steps{0};
  std::atomic<uint64_t> fused{0};
  std::atomic<uint64_t> runs{0};
  std::atomic<uint64_t> cache_hits{0};
};

/// The archived-decoder call of core's emulated path, composed from
/// public calls: the translated nested run when the parsed Bootstrap's
/// emulator is the in-tree interpreter, else the cold archival protocol.
Result<Bytes> RunViaBootstrap(const verisc::Program& interpreter,
                              const dynarisc::Program& guest, BytesView input,
                              NestedCounters* counters, uint64_t* steps) {
  verisc::RunOptions opts;
  opts.max_steps = 200'000'000'000ull;
  counters->runs += 1;
  if (interpreter.words == olonys::DynaRiscInterpreter().words) {
    olonys::NestedRunStats stats;
    Result<Bytes> out = olonys::RunNested(guest, input, opts, &verisc::Run,
                                          olonys::NestedMode::kAuto, &stats);
    counters->steps += stats.steps;
    counters->fused += stats.fused;
    counters->cache_hits += stats.cache_hit ? 1 : 0;
    *steps += stats.steps;
    return out;
  }
  const Bytes packed = olonys::PackNestedInput(guest, input);
  ULE_ASSIGN_OR_RETURN(verisc::RunResult r,
                       verisc::Run(interpreter, packed, opts));
  counters->steps += r.steps;
  *steps += r.steps;
  if (r.reason != verisc::StopReason::kHalted) {
    return Status::ExecutionFault("nested emulation did not halt cleanly");
  }
  return std::move(r.output);
}

/// An open selective restorer and where its query stream stands.
struct QueryStream {
  std::unique_ptr<filmstore::ContainerReader> reader;
  std::unique_ptr<TimingReel> timed;  ///< traced rounds read through this
  std::optional<core::SelectiveRestorer> restorer;
  size_t next_query = 0;
};

class FilmWorkload final : public Workload {
 public:
  FilmWorkload(FilmConfig config, uint64_t seed, int threads)
      : c_(std::move(config)), seed_(seed), threads_(threads) {}

  Status Setup(const std::string& dir) override;
  void Round(Recorder& rec, LayerValues* counts) override;
  Roles roles() const override {
    return {"archive", "restore", c_.focus, 1,
            static_cast<size_t>(c_.selective ? c_.queries_per_round : 1)};
  }
  double FramesPerDumpMb() const override {
    return static_cast<double>(frames_) /
           (static_cast<double>(payload_.size()) / 1e6);
  }
  LayerValues SetupLayers() const override { return setup_layers_; }
  LayerValues LayerTimes(
      const std::map<std::string, double>& self) const override;
  uint64_t InputDigest() const override { return Fnv1a(payload_); }

 private:
  Status ArchiveTo(const std::string& path, bool traced,
                   core::ArchiveSummary* summary) const;
  Status WriteScannedReel(const std::string& pristine,
                          const std::string& scanned) const;
  Result<Bytes> ReplayDecodeStream(filmstore::FrameSource& source, StreamId id,
                                   const mocoder::Options& options,
                                   const mocoder::GridDecodeFn& decode,
                                   bool count_unsampled,
                                   mocoder::DecodeStats* stats,
                                   uint64_t* steps) const;
  Result<std::string> ReplayNativeRestore(const filmstore::ContainerReader& r,
                                          core::RestoreStats* stats) const;
  Result<std::string> ReplayEmulatedRestore(
      const filmstore::ContainerReader& r, core::RestoreStats* stats,
      NestedCounters* counters) const;
  /// One timed full restore, native or emulated, of the scanned reel.
  void Restore(Recorder& rec, bool emulated, LayerValues* counts);
  void SelectiveStream(Recorder& rec, bool traced, LayerValues* counts);
  Status CheckDump(const std::string& out) const {
    if (out == payload_) return Status::OK();
    return Status::Corruption("restored dump differs from the source (" +
                              std::to_string(out.size()) + " vs " +
                              std::to_string(payload_.size()) + " bytes)");
  }
  Status CheckArchive(const std::string& path) const {
    ULE_ASSIGN_OR_RETURN(uint64_t h, HashFile(path));
    std::error_code ec;
    fs::remove(path, ec);
    if (h == pristine_hash_) return Status::OK();
    return Status::Corruption("archived reel differs from the set-up reel");
  }

  FilmConfig c_;
  uint64_t seed_;
  int threads_;

  std::string dir_;
  std::string payload_;
  uint64_t pristine_hash_ = 0;
  size_t frames_ = 0;
  size_t compressed_bytes_ = 0;
  size_t payload_capacity_total_ = 0;
  std::string scanned_;
  std::vector<Query> queries_;
  QueryStream stream_;
  LayerValues setup_layers_;
  /// Stats of the first restore of the reel; every later one must match.
  std::optional<core::RestoreStats> native_stats_;
  std::optional<core::RestoreStats> emulated_stats_;
};

Status FilmWorkload::ArchiveTo(const std::string& path, bool traced,
                               core::ArchiveSummary* summary) const {
  filmstore::ContainerWriter::Options copt;
  copt.bitonal = c_.archive_pbm;
  ULE_ASSIGN_OR_RETURN(auto writer, filmstore::ContainerWriter::Create(
                                        path, c_.archive.emblem, copt));
  if (!traced) {
    ULE_ASSIGN_OR_RETURN(*summary, core::ArchiveDumpStreaming(
                                       payload_, c_.archive, *writer));
    ULE_RETURN_IF_ERROR(writer->AppendBootstrap(summary->bootstrap_text));
    return writer->Finish();
  }
  // The traced replay of ArchiveDumpStreaming: the same public calls in
  // the same order, each in its own span.
  TimingSink sink(*writer);
  Bytes container;
  Bytes index_section;
  {
    Span span("dbcoder.encode");
    if (c_.archive.build_index) {
      ULE_ASSIGN_OR_RETURN(std::vector<core::IndexChunk> chunks,
                           core::PlanDumpChunks(payload_, 0));
      std::vector<dbcoder::SegmentSpan> segments(chunks.size());
      for (size_t i = 0; i < chunks.size(); ++i) {
        segments[i].raw_offset = chunks[i].raw_offset;
        segments[i].raw_len = chunks[i].raw_len;
      }
      ULE_ASSIGN_OR_RETURN(container,
                           dbcoder::EncodeSegmented(ToBytes(payload_),
                                                    c_.archive.scheme,
                                                    &segments));
      for (size_t i = 0; i < chunks.size(); ++i) {
        chunks[i].stream_offset = segments[i].stream_offset;
        chunks[i].stream_len = segments[i].stream_len;
      }
      core::RecordIndex index;
      index.scheme = c_.archive.scheme;
      index.segmented = true;
      index.dump_len = payload_.size();
      index.stream_len = container.size();
      index.chunks = std::move(chunks);
      index_section = index.Serialize();
    } else {
      ULE_ASSIGN_OR_RETURN(container, dbcoder::Encode(ToBytes(payload_),
                                                      c_.archive.scheme));
    }
  }
  std::string bootstrap;
  {
    Span span("olonys.bootstrap_text");
    bootstrap = olonys::GenerateBootstrapText(olonys::DynaRiscInterpreter(),
                                              decoders::ModecodeProgram());
  }
  const Bytes dbdecode_stream = decoders::DbDecodeProgram().Serialize();
  for (StreamId id : {StreamId::kData, StreamId::kSystem}) {
    Span span("mocoder.encode");
    ULE_RETURN_IF_ERROR(mocoder::EncodeToSink(
        id == StreamId::kData ? BytesView(container) : BytesView(dbdecode_stream),
        id, c_.archive.emblem, /*render=*/true,
        [&](mocoder::EncodedEmblem&& emblem, media::Image&& frame) -> Status {
          return sink.Append(id, emblem, std::move(frame));
        }));
  }
  if (c_.archive.build_index) {
    ULE_RETURN_IF_ERROR(sink.SetIndexSection(std::move(index_section)));
  }
  ULE_RETURN_IF_ERROR(sink.AppendBootstrap(bootstrap));
  return sink.Finish();
}

Status FilmWorkload::WriteScannedReel(const std::string& pristine,
                                      const std::string& scanned) const {
  ULE_ASSIGN_OR_RETURN(auto reader, filmstore::ContainerReader::Open(pristine));
  filmstore::ContainerWriter::Options copt;
  copt.bitonal = c_.scan_pbm;
  ULE_ASSIGN_OR_RETURN(auto writer, filmstore::ContainerWriter::Create(
                                        scanned, reader->emblem_options(),
                                        copt));
  // Scan damage follows the workload seed: frame i of the reel is
  // scanned with a seed derived from it, plus i.
  const uint64_t scan_seed = DeriveSeed(seed_, 2);
  uint64_t frame_base = 0;
  for (StreamId id : {StreamId::kData, StreamId::kSystem}) {
    const filmstore::RecordType type = id == StreamId::kData
                                           ? filmstore::RecordType::kDataFrame
                                           : filmstore::RecordType::kSystemFrame;
    std::vector<uint16_t> seqs;
    for (const filmstore::ContainerEntry& e : reader->entries()) {
      if (e.type == type) seqs.push_back(e.seq);
    }
    // Frames are scanned in parallel and appended in reel order; at most
    // `threads` frames are in flight.
    std::vector<Bytes> slots(static_cast<size_t>(threads_));
    ULE_RETURN_IF_ERROR(ParallelForOrdered(
        0, seqs.size(),
        [&](size_t i) -> Status {
          ULE_ASSIGN_OR_RETURN(media::Image printed, reader->ReadFrame(id, i));
          if (c_.media.bitonal_write) {
            for (auto& px : printed.mutable_pixels()) px = px < 128 ? 0 : 255;
          }
          media::ScanProfile profile = c_.media.scan;
          profile.seed = scan_seed + frame_base + i;
          const media::Image scan = media::Scan(printed, profile);
          slots[i % slots.size()] = c_.scan_pbm ? scan.ToPbm() : scan.ToPgm();
          return Status::OK();
        },
        [&](size_t i) -> Status {
          Bytes payload = std::move(slots[i % slots.size()]);
          return writer->AppendRecord(type,
                                      c_.scan_pbm ? filmstore::FrameCodec::kPbm
                                                  : filmstore::FrameCodec::kPgm,
                                      seqs[i], payload);
        },
        threads_, threads_));
    frame_base += seqs.size();
  }
  ULE_ASSIGN_OR_RETURN(std::string bootstrap, reader->ReadBootstrap());
  ULE_RETURN_IF_ERROR(writer->AppendBootstrap(bootstrap));
  if (c_.archive.build_index) {
    ULE_ASSIGN_OR_RETURN(Bytes section, reader->ReadIndexSection());
    ULE_RETURN_IF_ERROR(writer->SetIndexSection(std::move(section)));
  }
  return writer->Finish();
}

Status FilmWorkload::Setup(const std::string& dir) {
  dir_ = dir;
  stream_ = QueryStream();
  setup_layers_.clear();
  native_stats_.reset();
  emulated_stats_.reset();
  double t0 = NowS();
  if (c_.random_bytes > 0) {
    // The size varies by +-1 KB with the seed, like the TPC-H dumps do.
    Rng rng(DeriveSeed(seed_, 1));
    const size_t size = c_.random_bytes - 1024 + rng.Below(2048);
    const Bytes bytes = RandomBytes(&rng, size);
    payload_.assign(bytes.begin(), bytes.end());
  } else {
    ULE_ASSIGN_OR_RETURN(payload_, TpchDump(c_.tpch_scale, c_.tpch_bytes,
                                            DeriveSeed(seed_, 1)));
    setup_layers_["tpch.generate_s"] = NowS() - t0;
  }

  const std::string pristine = dir + "/pristine.ulec";
  core::ArchiveSummary summary;
  ULE_RETURN_IF_ERROR(ArchiveTo(pristine, /*traced=*/false, &summary));
  ULE_ASSIGN_OR_RETURN(pristine_hash_, HashFile(pristine));
  frames_ = summary.data_frames + summary.system_frames;
  compressed_bytes_ = summary.compressed_bytes;
  payload_capacity_total_ =
      summary.data_frames *
      static_cast<size_t>(mocoder::EmblemCapacity(c_.archive.emblem.data_side));

  t0 = NowS();
  scanned_ = dir + "/scanned.ulec";
  ULE_RETURN_IF_ERROR(WriteScannedReel(pristine, scanned_));
  setup_layers_["media.scan_s"] = NowS() - t0;
  fs::remove(pristine);

  if (c_.selective) {
    queries_ = MakeQueries(ParseDumpTables(payload_), DeriveSeed(seed_, 3),
                           c_.queries, c_.queries_per_round);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Traced restore replay: frame-source decorator -> SampleEmblem on pool
// workers -> StreamDecoder::PushGrid with a timing GridDecodeFn ->
// Finish -> dbcoder::Decode or nested DBDecode.
// ---------------------------------------------------------------------------

Result<Bytes> FilmWorkload::ReplayDecodeStream(
    filmstore::FrameSource& source, StreamId id,
    const mocoder::Options& options, const mocoder::GridDecodeFn& decode,
    bool count_unsampled, mocoder::DecodeStats* stats, uint64_t* steps) const {
  // Sampling and the timed inner decode of a batch of frames fan out on
  // pool workers here; the StreamDecoder then runs serially and its
  // GridDecodeFn hands back each grid's finished result in push order.
  // Finish is thus only the outer reassembly: its span never contains
  // time spent waiting for decodes still running on other threads.
  struct Decoded {
    Bytes grid;
    mocoder::GridDecodeResult result;
  };
  std::deque<Decoded> decoded;  // PushGrid views must outlive Finish
  size_t next = 0;
  mocoder::Options serial = options;
  serial.threads = 1;
  mocoder::StreamDecoder decoder(
      id, serial,
      [&](BytesView grid) {
        Decoded& d = decoded[next++];
        if (grid.data() != d.grid.data()) return mocoder::GridDecodeResult();
        return std::move(d.result);
      },
      count_unsampled);
  size_t pulled = 0;
  for (;;) {
    std::vector<media::Image> batch;
    while (batch.size() < static_cast<size_t>(threads_)) {
      ULE_ASSIGN_OR_RETURN(std::optional<media::Image> frame, source.Next());
      if (!frame.has_value()) break;
      batch.push_back(std::move(*frame));
    }
    if (batch.empty()) break;
    pulled += batch.size();
    std::vector<std::optional<Decoded>> slots(batch.size());
    ULE_RETURN_IF_ERROR(ParallelFor(
        0, batch.size(),
        [&](size_t i) -> Status {
          Result<Bytes> cells = Status::NotFound("unsampled");
          {
            Span span("mocoder.detect");
            cells = mocoder::SampleEmblem(batch[i], options.data_side);
          }
          // An unsampled scan is dropped where the product does not count
          // it; where it does, an empty grid stands for it.
          if (!cells.ok() && !count_unsampled) return Status::OK();
          slots[i].emplace();
          if (cells.ok()) {
            slots[i]->grid = cells.TakeValue();
            slots[i]->result = decode(slots[i]->grid);
          }
          return Status::OK();
        },
        threads_));
    for (auto& slot : slots) {
      if (!slot.has_value()) continue;
      decoded.push_back(std::move(*slot));
      ULE_RETURN_IF_ERROR(decoder.PushGrid(decoded.back().grid));
    }
  }
  if (id == StreamId::kSystem && pulled == 0 && !count_unsampled) {
    return Bytes();
  }
  Span span("mocoder.outer");
  return decoder.Finish(stats, steps);
}

mocoder::GridDecodeFn NativeDecodeFn(int data_side) {
  return [data_side](BytesView grid) {
    Span span("mocoder.inner_decode");
    mocoder::GridDecodeResult out;
    mocoder::EmblemHeader header;
    mocoder::EmblemDecodeInfo info;
    auto payload =
        mocoder::DecodeEmblemIntensities(grid, data_side, &header, &info);
    if (!payload.ok()) return out;
    out.ok = true;
    out.header = header;
    out.payload = payload.TakeValue();
    out.rs_errors_corrected = info.rs_errors_corrected;
    return out;
  };
}

Result<std::string> FilmWorkload::ReplayNativeRestore(
    const filmstore::ContainerReader& reader, core::RestoreStats* stats) const {
  const mocoder::Options& options = reader.emblem_options();
  TimingSource system(reader.OpenFrames(StreamId::kSystem));
  TimingSource data(reader.OpenFrames(StreamId::kData));
  ULE_RETURN_IF_ERROR(
      ReplayDecodeStream(system, StreamId::kSystem, options,
                         NativeDecodeFn(options.data_side), false,
                         &stats->system_stream, nullptr)
          .status());
  ULE_ASSIGN_OR_RETURN(Bytes container,
                       ReplayDecodeStream(data, StreamId::kData, options,
                                          NativeDecodeFn(options.data_side),
                                          false, &stats->data_stream, nullptr));
  Span span("dbcoder.decode");
  ULE_ASSIGN_OR_RETURN(Bytes dump, dbcoder::Decode(container));
  return ToString(dump);
}

Result<std::string> FilmWorkload::ReplayEmulatedRestore(
    const filmstore::ContainerReader& reader, core::RestoreStats* stats,
    NestedCounters* counters) const {
  const mocoder::Options& options = reader.emblem_options();
  ULE_ASSIGN_OR_RETURN(std::string text, reader.ReadBootstrap());
  olonys::ParsedBootstrap bootstrap;
  {
    Span span("olonys.bootstrap");
    ULE_ASSIGN_OR_RETURN(bootstrap, olonys::ParseBootstrapText(text));
  }
  const int data_side = options.data_side;
  const int blocks = mocoder::EmblemBlocks(data_side);
  const int capacity = mocoder::EmblemCapacity(data_side);
  // core's nested grid decode: MODecode under nested emulation, then the
  // Bootstrap-documented header parse and payload CRC check.
  const mocoder::GridDecodeFn modecode = [&](BytesView grid) {
    Span span("olonys.modecode");
    mocoder::GridDecodeResult out;
    const Bytes input = decoders::PackModecodeInput(grid, data_side);
    auto decoded = RunViaBootstrap(bootstrap.dynarisc_emulator,
                                   bootstrap.mocoder, input, counters,
                                   &out.steps);
    if (!decoded.ok() ||
        decoded.value().size() != static_cast<size_t>(blocks) * 223) {
      return out;
    }
    auto header = mocoder::ParseHeader(decoded.value());
    if (!header.ok()) return out;
    Bytes payload(decoded.value().begin() + mocoder::kHeaderSize,
                  decoded.value().begin() + mocoder::kHeaderSize + capacity);
    if (Crc32(payload) != header.value().payload_crc) return out;
    out.ok = true;
    out.header = header.value();
    out.payload = std::move(payload);
    return out;
  };
  TimingSource system(reader.OpenFrames(StreamId::kSystem));
  TimingSource data(reader.OpenFrames(StreamId::kData));
  uint64_t system_steps = 0, data_steps = 0;
  ULE_ASSIGN_OR_RETURN(Bytes dbdecode_stream,
                       ReplayDecodeStream(system, StreamId::kSystem, options,
                                          modecode, true,
                                          &stats->system_stream,
                                          &system_steps));
  ULE_ASSIGN_OR_RETURN(Bytes container,
                       ReplayDecodeStream(data, StreamId::kData, options,
                                          modecode, true, &stats->data_stream,
                                          &data_steps));
  stats->emulated_steps = system_steps + data_steps;
  ULE_ASSIGN_OR_RETURN(dynarisc::Program dbdecode,
                       dynarisc::Program::Deserialize(dbdecode_stream));
  Span span("olonys.dbdecode");
  Bytes dump;
  if (!dbcoder::IsSegmented(container)) {
    ULE_ASSIGN_OR_RETURN(dump, RunViaBootstrap(bootstrap.dynarisc_emulator,
                                               dbdecode, container, counters,
                                               &stats->emulated_steps));
  } else {
    ULE_ASSIGN_OR_RETURN(std::vector<dbcoder::SegmentSpan> segments,
                         dbcoder::ListSegments(container));
    for (const dbcoder::SegmentSpan& seg : segments) {
      ULE_ASSIGN_OR_RETURN(
          Bytes piece,
          RunViaBootstrap(bootstrap.dynarisc_emulator, dbdecode,
                          BytesView(container).subspan(seg.stream_offset,
                                                       seg.stream_len),
                          counters, &stats->emulated_steps));
      dump.insert(dump.end(), piece.begin(), piece.end());
    }
  }
  return ToString(dump);
}

// ---------------------------------------------------------------------------
// Rounds.
// ---------------------------------------------------------------------------

void FilmWorkload::SelectiveStream(Recorder& rec, bool traced,
                                   LayerValues* counts) {
  // The untraced stream runs on one long-lived restorer across rounds,
  // continuing through the query list; a traced round replays the
  // list's first block on a fresh restorer, so every traced round does
  // the same work and reports the same counts.
  QueryStream fresh;
  QueryStream& s = traced ? fresh : stream_;
  if (!s.restorer) {
    core::SelectiveOptions sopt;
    sopt.threads = 0;
    sopt.cache_bytes = static_cast<size_t>(
        c_.cache_frac * static_cast<double>(payload_capacity_total_));
    const bool opened = rec.Time(
        "selective_open", 0,
        [&]() -> Status {
          Span root("op.selective_open", Span::Kind::kOpRoot);
          ULE_ASSIGN_OR_RETURN(s.reader,
                               filmstore::ContainerReader::Open(scanned_));
          const filmstore::ReelReader* surface = s.reader.get();
          if (traced) {
            s.timed = std::make_unique<TimingReel>(*s.reader);
            surface = s.timed.get();
          }
          Span span("core.selective_open", Span::Kind::kStage);
          ULE_ASSIGN_OR_RETURN(core::SelectiveRestorer r,
                               core::SelectiveRestorer::Open(*surface, sopt));
          s.restorer.emplace(std::move(r));
          return Status::OK();
        },
        [] { return Status::OK(); });
    if (!opened) return;
  }
  for (int i = 0; i < c_.queries_per_round; ++i) {
    const Query& q = queries_[s.next_query++ % queries_.size()];
    std::string out;
    core::SelectiveStats stats;
    rec.Time(
        "query", static_cast<double>(q.expected.size()),
        [&]() -> Status {
          Span root("op.query", Span::Kind::kOpRoot);
          Span span("core.selective_query", Span::Kind::kStage);
          ULE_ASSIGN_OR_RETURN(out, s.restorer->Restore(q.pred, &stats));
          return Status::OK();
        },
        [&]() -> Status {
          if (out == q.expected) return Status::OK();
          return Status::Corruption("selective slice of '" + q.pred.table +
                                    "' differs from the set-up reference");
        });
    if (counts != nullptr) {
      (*counts)["core.selective_emblems_decoded"] += stats.emblems_decoded;
      (*counts)["core.selective_chunks_decoded"] += stats.chunks_decoded;
    }
  }
  if (counts != nullptr) {
    const auto cache = s.restorer->cache_counters();
    const double probes = static_cast<double>(cache.hits + cache.misses);
    (*counts)["core.selective_cache_hit_ratio"] =
        probes > 0 ? static_cast<double>(cache.hits) / probes : 0;
    (*counts)["core.selective_cache_budget_frac"] = c_.cache_frac;
    (*counts)["filmstore.records_read"] += s.reader->read_counters().records;
    (*counts)["filmstore.bytes_read"] += s.reader->read_counters().bytes;
  }
}

void FilmWorkload::Restore(Recorder& rec, bool emulated, LayerValues* counts) {
  const bool traced = counts != nullptr;
  std::string out;
  core::RestoreStats stats;
  NestedCounters nested;
  filmstore::ReadCounters reads;
  const double t0 = NowS();
  rec.Time(
      emulated ? "emulated" : "restore", static_cast<double>(payload_.size()),
      [&]() -> Status {
        Span root(emulated ? "op.emulated" : "op.restore",
                  Span::Kind::kOpRoot);
        ULE_ASSIGN_OR_RETURN(auto reader,
                             filmstore::ContainerReader::Open(scanned_));
        if (traced && emulated) {
          ULE_ASSIGN_OR_RETURN(out,
                               ReplayEmulatedRestore(*reader, &stats, &nested));
        } else if (traced) {
          ULE_ASSIGN_OR_RETURN(out, ReplayNativeRestore(*reader, &stats));
        } else {
          auto system = reader->OpenFrames(StreamId::kSystem);
          auto data = reader->OpenFrames(StreamId::kData);
          if (emulated) {
            ULE_ASSIGN_OR_RETURN(std::string bootstrap,
                                 reader->ReadBootstrap());
            ULE_ASSIGN_OR_RETURN(
                out, core::RestoreEmulatedStreaming(*data, *system, bootstrap,
                                                    reader->emblem_options(),
                                                    &stats));
          } else {
            ULE_ASSIGN_OR_RETURN(out, core::RestoreNativeStreaming(
                                          *data, system.get(),
                                          reader->emblem_options(), &stats));
          }
        }
        reads = reader->read_counters();
        return Status::OK();
      },
      [&]() -> Status {
        ULE_RETURN_IF_ERROR(CheckDump(out));
        // Every restore of the reel, untraced or replayed, must report the
        // DecodeStats and VeRisc step count of the first one.
        std::optional<core::RestoreStats>& want =
            emulated ? emulated_stats_ : native_stats_;
        if (!want) want = stats;
        if (SameStats(want->data_stream, stats.data_stream) &&
            SameStats(want->system_stream, stats.system_stream) &&
            want->emulated_steps == stats.emulated_steps) {
          return Status::OK();
        }
        return Status::Corruption("decode stats differ from the first "
                                  "restore of the same reel");
      });
  if (!traced) return;
  const double wall = NowS() - t0;
  AddDecodeStats(stats.data_stream, counts);
  AddDecodeStats(stats.system_stream, counts);
  (*counts)["filmstore.records_read"] += reads.records;
  (*counts)["filmstore.bytes_read"] += reads.bytes;
  if (emulated) {
    const double steps = static_cast<double>(nested.steps.load());
    (*counts)["verisc.steps"] += static_cast<double>(stats.emulated_steps);
    (*counts)["verisc.fused_frac"] =
        steps > 0 ? static_cast<double>(nested.fused.load()) / steps : 0;
    (*counts)["verisc.steps_per_s"] = wall > 0 ? steps / wall : 0;
    (*counts)["olonys.translation_hit_ratio"] =
        nested.runs > 0 ? static_cast<double>(nested.cache_hits.load()) /
                              static_cast<double>(nested.runs.load())
                        : 0;
  }
}

void FilmWorkload::Round(Recorder& rec, LayerValues* counts) {
  const bool traced = counts != nullptr;
  const std::string out_path = dir_ + "/archive.ulec";
  for (int i = 0; i < c_.archives_per_round; ++i) {
    core::ArchiveSummary summary;
    rec.Time(
        "archive", static_cast<double>(payload_.size()),
        [&] {
          Span root("op.archive", Span::Kind::kOpRoot);
          return ArchiveTo(out_path, traced, &summary);
        },
        [&] { return CheckArchive(out_path); });
  }
  for (int i = 0; i < c_.restores_per_round; ++i) Restore(rec, false, counts);
  if (c_.emulated) Restore(rec, true, counts);
  if (c_.selective) SelectiveStream(rec, traced, counts);
  if (!traced) return;
  const double total = (*counts)["mocoder.emblems_total"];
  (*counts)["mocoder.decode_yield"] =
      total > 0 ? (*counts)["mocoder.emblems_decoded"] / total : 0;
  (*counts)["mocoder.frames"] = static_cast<double>(frames_);
  (*counts)["dbcoder.ratio"] = static_cast<double>(payload_.size()) /
                               static_cast<double>(compressed_bytes_);
}

LayerValues FilmWorkload::LayerTimes(
    const std::map<std::string, double>& self) const {
  LayerValues v;
  for (const auto& [name, seconds] : self) {
    if (name.rfind("op.", 0) != 0) v[name + "_s"] = seconds;
  }
  return v;
}

}  // namespace

std::unique_ptr<Workload> MakeFilmWorkload(const std::string& name,
                                           uint64_t seed, int threads) {
  return std::make_unique<FilmWorkload>(ConfigFor(name), seed, threads);
}

}  // namespace perfbench
