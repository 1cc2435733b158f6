// The scrub engine behind `ulectl scrub`: fleet discovery, per-archive
// verdicts, parity repair, and checkpointed resume. The heart of the
// suite is a reel-loss fault-injection matrix — {shard size} × {whole
// reels deleted, truncations at three ratios, silent bit flips in data
// and parity, a corrupted catalog parity section} — asserting that
// repair restores every file byte-identically when the damage is within
// the parity budget, and that anything beyond it degrades to a clean,
// named data-loss verdict, never a crash or a silently wrong repair.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "filmstore/container.h"
#include "filmstore/parity.h"
#include "filmstore/reel_set.h"
#include "filmstore/scrub.h"
#include "mocoder/mocoder.h"
#include "support/io.h"
#include "tests/filmstore_testutil.h"

namespace ule {
namespace filmstore {
namespace {

using testutil::ByFrames;
using testutil::Drain;
using testutil::EncodedStream;
using testutil::ExpectSameFrames;
using testutil::FillSink;
using testutil::MakeStream;
using testutil::SmallOptions;
using testutil::WriteSetAt;

/// Fresh directory under the test temp dir (shared by concurrently
/// running test processes, so every name carries the test's own tag).
std::string FreshDir(const std::string& tag) {
  const std::string dir = testing::TempDir() + tag + "/";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Byte snapshot of every regular file under `dir` (relative name →
/// contents) — the ground truth a repair must reproduce exactly.
std::map<std::string, Bytes> SnapshotDir(const std::string& dir) {
  std::map<std::string, Bytes> files;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    auto bytes = ReadFileBytes(entry.path().string());
    EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
    files[std::filesystem::relative(entry.path(), dir).string()] =
        std::move(bytes).TakeValue();
  }
  return files;
}

/// Writes a standalone single-container archive holding `data`.
void WriteContainerAt(const std::string& path, const EncodedStream& data) {
  auto writer = ContainerWriter::Create(path, SmallOptions());
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  FillSink(*writer.value(), data, EncodedStream());
  ASSERT_TRUE(writer.value()->Finish().ok());
}

// ---------------------------------------------------------------------------
// Fault-injection matrix

enum class FaultKind {
  kNone,                  // untouched archive
  kDeleteOne,             // 1 whole reel removed (≤ m)
  kDeleteTwo,             // 2 whole reels removed (= m)
  kDeleteThree,           // 3 whole reels removed (> m)
  kTruncateQuarter,       // one reel cut to 25% of its bytes
  kTruncateHalf,          //                 50%
  kTruncateNinety,        //                 90%
  kFlipDataByte,          // silent corruption inside a record payload
  kFlipParityByte,        // silent corruption inside a parity stripe
  kCorruptCatalogParity,  // flipped byte in the catalog's ULE-P1 section
};

struct FaultCase {
  const char* name;
  FaultKind kind;
  ArchiveState unrepaired;  ///< scrub verdict without repair
  ArchiveState repaired;    ///< scrub verdict with repair
};

constexpr FaultCase kFaultCases[] = {
    {"none", FaultKind::kNone, ArchiveState::kHealthy, ArchiveState::kHealthy},
    {"delete_one", FaultKind::kDeleteOne, ArchiveState::kRepairable,
     ArchiveState::kRepaired},
    {"delete_two", FaultKind::kDeleteTwo, ArchiveState::kRepairable,
     ArchiveState::kRepaired},
    {"delete_three", FaultKind::kDeleteThree, ArchiveState::kDataLoss,
     ArchiveState::kDataLoss},
    {"truncate_quarter", FaultKind::kTruncateQuarter, ArchiveState::kRepairable,
     ArchiveState::kRepaired},
    {"truncate_half", FaultKind::kTruncateHalf, ArchiveState::kRepairable,
     ArchiveState::kRepaired},
    {"truncate_ninety", FaultKind::kTruncateNinety, ArchiveState::kRepairable,
     ArchiveState::kRepaired},
    {"flip_data_byte", FaultKind::kFlipDataByte, ArchiveState::kRepairable,
     ArchiveState::kRepaired},
    {"flip_parity_byte", FaultKind::kFlipParityByte, ArchiveState::kRepairable,
     ArchiveState::kRepaired},
    {"corrupt_catalog_parity", FaultKind::kCorruptCatalogParity,
     ArchiveState::kDataLoss, ArchiveState::kDataLoss},
};

// Prints the case by name, so the ctest names of the matrix (which carry
// GetParam()) stay the same from run to run instead of dumping its pointer.
void PrintTo(const FaultCase& c, std::ostream* os) { *os << c.name; }

/// Matrix axis 2: frames per reel, which sets how many data reels the
/// fixed stream shards into (m = 2 parity reels throughout).
class ScrubMatrixTest
    : public ::testing::TestWithParam<std::tuple<size_t, FaultCase>> {};

void FlipByteAt(const std::string& path, size_t offset, uint8_t mask) {
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  Bytes mutated = std::move(bytes).TakeValue();
  ASSERT_LT(offset, mutated.size());
  mutated[offset] ^= mask;
  ASSERT_TRUE(WriteFileBytes(path, mutated).ok());
}

TEST_P(ScrubMatrixTest, VerdictAndRepairMatchTheInjectedFault) {
  const size_t shard_frames = std::get<0>(GetParam());
  const FaultCase& fault = std::get<1>(GetParam());
  const std::string dir = FreshDir(
      "scrubm_" + std::to_string(shard_frames) + "_" + fault.name);
  const std::string catalog_path = dir + "arch.uler";

  const EncodedStream data = MakeStream(mocoder::StreamId::kData, 2200, 80);
  const EncodedStream system = MakeStream(mocoder::StreamId::kSystem, 400, 81);
  WriteSetAt(catalog_path, data, system, ByFrames(shard_frames),
             /*parity_reels=*/2);
  auto catalog = LoadCatalog(catalog_path);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  const std::vector<CatalogReel>& reels = catalog.value().reels;
  ASSERT_GE(reels.size(), 3u);
  const std::map<std::string, Bytes> pristine = SnapshotDir(dir);

  std::vector<std::string> expect_damaged;
  switch (fault.kind) {
    case FaultKind::kNone:
      break;
    case FaultKind::kDeleteOne:
    case FaultKind::kDeleteTwo:
    case FaultKind::kDeleteThree: {
      const size_t count = fault.kind == FaultKind::kDeleteOne   ? 1
                           : fault.kind == FaultKind::kDeleteTwo ? 2
                                                                 : 3;
      for (size_t i = 0; i < count; ++i) {
        ASSERT_TRUE(std::filesystem::remove(dir + reels[i].name));
        expect_damaged.push_back(reels[i].name);
      }
      break;
    }
    case FaultKind::kTruncateQuarter:
    case FaultKind::kTruncateHalf:
    case FaultKind::kTruncateNinety: {
      const double ratio = fault.kind == FaultKind::kTruncateQuarter ? 0.25
                           : fault.kind == FaultKind::kTruncateHalf  ? 0.5
                                                                     : 0.9;
      const uint64_t keep = static_cast<uint64_t>(reels[1].bytes * ratio);
      std::filesystem::resize_file(dir + reels[1].name, keep);
      expect_damaged.push_back(reels[1].name);
      break;
    }
    case FaultKind::kFlipDataByte:
      FlipByteAt(dir + reels[1].name,
                 kContainerHeaderBytes + kContainerRecordHeaderBytes + 40,
                 0xFF);
      expect_damaged.push_back(reels[1].name);
      break;
    case FaultKind::kFlipParityByte:
      FlipByteAt(dir + catalog.value().parity.reels[1].name,
                 kParityReelHeaderBytes + 3, 0x10);
      expect_damaged.push_back(catalog.value().parity.reels[1].name);
      break;
    case FaultKind::kCorruptCatalogParity: {
      // Flip the first byte of the catalog's ULE-P1 section magic: the
      // catalog no longer parses (its own CRC seals the section), which
      // is data loss for the scrub — parity lives in that section.
      auto bytes = ReadFileBytes(catalog_path);
      ASSERT_TRUE(bytes.ok());
      size_t section = 0;
      for (size_t i = 8; i + 4 <= bytes.value().size(); ++i) {
        if (bytes.value()[i] == 'U' && bytes.value()[i + 1] == 'L' &&
            bytes.value()[i + 2] == 'E' && bytes.value()[i + 3] == 'P') {
          section = i;
          break;
        }
      }
      ASSERT_GT(section, 0u);
      FlipByteAt(catalog_path, section, 0x08);
      expect_damaged.push_back("arch.uler");
      break;
    }
  }

  // --- Scrub without repair: a verdict, never a write. -------------------
  auto dry = ScrubArchive(catalog_path, /*repair=*/false);
  ASSERT_TRUE(dry.ok()) << dry.status().ToString();
  EXPECT_EQ(dry.value().state, fault.unrepaired)
      << ArchiveStateName(dry.value().state) << " detail: "
      << dry.value().detail;
  EXPECT_EQ(dry.value().kind, "reel-set");
  EXPECT_EQ(dry.value().damaged, expect_damaged);
  EXPECT_TRUE(dry.value().repaired.empty());
  if (fault.kind == FaultKind::kNone) {
    EXPECT_GE(dry.value().records, data.frames.size() + system.frames.size());
  }
  if (fault.kind == FaultKind::kDeleteThree) {
    // The loss report names a dead reel and the record range it owned.
    EXPECT_NE(dry.value().detail.find(reels[0].name), std::string::npos)
        << dry.value().detail;
    EXPECT_NE(dry.value().detail.find("records"), std::string::npos);
  }
  // Surviving files are untouched by a dry scrub.
  for (const auto& [name, bytes] : SnapshotDir(dir)) {
    auto it = pristine.find(name);
    ASSERT_NE(it, pristine.end()) << "dry scrub created " << name;
    if (name == "arch.uler" &&
        fault.kind == FaultKind::kCorruptCatalogParity) {
      continue;  // our own injected damage
    }
    if (!expect_damaged.empty() && name == expect_damaged.front()) continue;
    EXPECT_EQ(bytes, it->second) << "dry scrub modified " << name;
  }

  // --- Scrub with repair. ------------------------------------------------
  auto fixed = ScrubArchive(catalog_path, /*repair=*/true);
  ASSERT_TRUE(fixed.ok()) << fixed.status().ToString();
  EXPECT_EQ(fixed.value().state, fault.repaired)
      << ArchiveStateName(fixed.value().state) << " detail: "
      << fixed.value().detail;

  if (fault.repaired == ArchiveState::kRepaired) {
    EXPECT_EQ(fixed.value().repaired, expect_damaged);
    EXPECT_GT(fixed.value().repaired_bytes, 0u);
    // Every file in the archive is byte-identical to the pristine set —
    // whole-reel reconstruction, not approximate recovery.
    const std::map<std::string, Bytes> now = SnapshotDir(dir);
    ASSERT_EQ(now.size(), pristine.size());
    for (const auto& [name, bytes] : pristine) {
      auto it = now.find(name);
      ASSERT_NE(it, now.end()) << name << " missing after repair";
      EXPECT_EQ(it->second, bytes) << name << " differs after repair";
    }
    // And the repaired set opens clean end to end.
    auto reader = ReelSetReader::Open(catalog_path);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    EXPECT_EQ(reader.value()->reconstructed_reels(), 0u);
    EXPECT_TRUE(reader.value()->Verify().ok());
    auto source = reader.value()->OpenFrames(mocoder::StreamId::kData);
    ExpectSameFrames(Drain(*source), data.frames);
  } else if (fault.repaired == ArchiveState::kHealthy) {
    EXPECT_TRUE(fixed.value().damaged.empty());
  } else {
    // Beyond the parity budget nothing may be "repaired" — and the
    // survivors must not have been touched by the failed attempt.
    EXPECT_TRUE(fixed.value().repaired.empty());
    for (const auto& [name, bytes] : SnapshotDir(dir)) {
      if (name == "arch.uler" &&
          fault.kind == FaultKind::kCorruptCatalogParity) {
        continue;
      }
      EXPECT_EQ(bytes, pristine.at(name)) << name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ReelLossMatrix, ScrubMatrixTest,
    ::testing::Combine(::testing::Values(size_t{3}, size_t{5}),
                       ::testing::ValuesIn(kFaultCases)),
    [](const ::testing::TestParamInfo<ScrubMatrixTest::ParamType>& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_" +
             std::get<1>(info.param).name;
    });

// ---------------------------------------------------------------------------
// Discovery, fleet sweeps, checkpointed resume

TEST(ScrubDiscoverTest, FindsSetsAndUnclaimedContainersOnly) {
  const std::string root = FreshDir("scrub_discover");
  const EncodedStream data = MakeStream(mocoder::StreamId::kData, 900, 82);
  const EncodedStream system = MakeStream(mocoder::StreamId::kSystem, 0, 83);
  WriteSetAt(root + "arch.uler", data, system, ByFrames(3),
             /*parity_reels=*/1);
  WriteContainerAt(root + "standalone.ulec", data);
  std::filesystem::create_directories(root + "nested");
  WriteContainerAt(root + "nested/deep.ulec", data);
  ASSERT_TRUE(WriteFileText(root + "note.txt", "not an archive\n").ok());

  auto found = DiscoverArchives(root);
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  // Member reels (arch-*.ulec) and parity files belong to the catalog
  // and must not be listed as archives of their own.
  EXPECT_EQ(found.value(),
            (std::vector<std::string>{"arch.uler", "nested/deep.ulec",
                                      "standalone.ulec"}));
}

TEST(ScrubFleetTest, RepairsAcrossMixedArchivesAndReportsJson) {
  const std::string root = FreshDir("scrub_fleet");
  const EncodedStream data = MakeStream(mocoder::StreamId::kData, 1400, 84);
  const EncodedStream system = MakeStream(mocoder::StreamId::kSystem, 0, 85);
  // healthy set / repairable set / data-loss set / healthy container.
  WriteSetAt(root + "good.uler", data, system, ByFrames(3), 2);
  WriteSetAt(root + "hurt.uler", data, system, ByFrames(3), 2);
  WriteSetAt(root + "lost.uler", data, system, ByFrames(3), 2);
  WriteContainerAt(root + "solo.ulec", data);
  auto hurt = LoadCatalog(root + "hurt.uler");
  ASSERT_TRUE(hurt.ok());
  ASSERT_TRUE(std::filesystem::remove(root + hurt.value().reels[1].name));
  auto lost = LoadCatalog(root + "lost.uler");
  ASSERT_TRUE(lost.ok());
  ASSERT_GE(lost.value().reels.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(std::filesystem::remove(root + lost.value().reels[i].name));
  }

  ScrubOptions options;
  options.repair = true;
  auto report = ScrubFleet(root, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().archives.size(), 4u);
  EXPECT_EQ(report.value().healthy, 2u);
  EXPECT_EQ(report.value().repaired, 1u);
  EXPECT_EQ(report.value().repairable, 0u);
  EXPECT_EQ(report.value().data_loss, 1u);
  EXPECT_EQ(report.value().errors, 0u);
  EXPECT_GT(report.value().repaired_bytes, 0u);
  EXPECT_EQ(report.value().ExitCode(), 2);  // the lost set is gone
  // Verdicts are sorted by path and the JSON carries every archive.
  const std::string json = report.value().ToJson();
  for (const char* path : {"good.uler", "hurt.uler", "lost.uler", "solo.ulec"}) {
    EXPECT_NE(json.find(path), std::string::npos) << json;
  }
  EXPECT_NE(json.find("\"repaired_bytes\""), std::string::npos);
  EXPECT_EQ(json.find("resumed"), std::string::npos);
  // The repaired set verifies clean now.
  auto reader = ReelSetReader::Open(root + "hurt.uler");
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader.value()->Verify().ok());
}

TEST(ScrubFleetTest, CheckpointResumeMatchesUninterruptedSweep) {
  const std::string root = FreshDir("scrub_ckpt");
  const std::string journal = testing::TempDir() + "scrub_ckpt_journal.tsv";
  std::filesystem::remove(journal);
  const EncodedStream data = MakeStream(mocoder::StreamId::kData, 1400, 86);
  const EncodedStream system = MakeStream(mocoder::StreamId::kSystem, 0, 87);
  WriteSetAt(root + "a.uler", data, system, ByFrames(3), 2);
  WriteSetAt(root + "b.uler", data, system, ByFrames(3), 2);
  WriteSetAt(root + "c.uler", data, system, ByFrames(3), 2);
  WriteSetAt(root + "d.uler", data, system, ByFrames(3), 2);
  WriteContainerAt(root + "e.ulec", data);
  // One repairable, one beyond repair (scrubbed read-only throughout, so
  // the sweeps are repeatable).
  auto b = LoadCatalog(root + "b.uler");
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(std::filesystem::remove(root + b.value().reels[0].name));
  auto c = LoadCatalog(root + "c.uler");
  ASSERT_TRUE(c.ok());
  ASSERT_GE(c.value().reels.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(std::filesystem::remove(root + c.value().reels[i].name));
  }

  ScrubOptions plain;
  auto uninterrupted = ScrubFleet(root, plain);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status().ToString();
  ASSERT_EQ(uninterrupted.value().archives.size(), 5u);
  EXPECT_EQ(uninterrupted.value().repairable, 1u);
  EXPECT_EQ(uninterrupted.value().data_loss, 1u);
  EXPECT_EQ(uninterrupted.value().ExitCode(), 2);

  // The same sweep killed twice: each bounded run scrubs only what the
  // journal doesn't already hold.
  ScrubOptions staged;
  staged.checkpoint_path = journal;
  staged.max_archives = 2;
  auto run1 = ScrubFleet(root, staged);
  ASSERT_TRUE(run1.ok());
  EXPECT_EQ(run1.value().archives.size(), 2u);
  EXPECT_EQ(run1.value().resumed, 0u);
  auto run2 = ScrubFleet(root, staged);
  ASSERT_TRUE(run2.ok());
  EXPECT_EQ(run2.value().archives.size(), 4u);
  EXPECT_EQ(run2.value().resumed, 2u);
  staged.max_archives = 0;
  auto run3 = ScrubFleet(root, staged);
  ASSERT_TRUE(run3.ok());
  EXPECT_EQ(run3.value().archives.size(), 5u);
  EXPECT_EQ(run3.value().resumed, 4u);

  // Every archive was scrubbed exactly once across the three runs...
  size_t fresh = 0;
  for (const auto* run : {&run1.value(), &run2.value(), &run3.value()}) {
    fresh += run->archives.size() - run->resumed;
  }
  EXPECT_EQ(fresh, 5u);
  auto journal_bytes = ReadFileBytes(journal);
  ASSERT_TRUE(journal_bytes.ok());
  const std::string journal_text(journal_bytes.value().begin(),
                                 journal_bytes.value().end());
  std::map<std::string, int> seen;
  size_t lines = 0;
  for (size_t pos = 0; pos < journal_text.size();) {
    size_t end = journal_text.find('\n', pos);
    if (end == std::string::npos) end = journal_text.size();
    const std::string line = journal_text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    ++lines;
    ++seen[line.substr(0, line.find('\t'))];
  }
  EXPECT_EQ(lines, 5u);
  for (const auto& [path, count] : seen) {
    EXPECT_EQ(count, 1) << path << " scrubbed more than once";
  }

  // ...and the resumed report is byte-identical to the uninterrupted one.
  EXPECT_EQ(run3.value().ToJson(), uninterrupted.value().ToJson());

  // A sweep resumed from a complete journal re-scrubs nothing.
  auto run4 = ScrubFleet(root, staged);
  ASSERT_TRUE(run4.ok());
  EXPECT_EQ(run4.value().resumed, 5u);
  EXPECT_EQ(run4.value().ToJson(), uninterrupted.value().ToJson());
}

// TSan coverage: the CI sanitizer job runs every fast suite with
// ULE_THREADS=4, so eight archives scrubbed on four workers exercise the
// journal mutex and the shared-pool fan-out under the race detector.
TEST(ScrubFleetTest, ParallelSweepAcrossEightArchivesTalliesExactly) {
  const std::string root = FreshDir("scrub_par8");
  const EncodedStream data = MakeStream(mocoder::StreamId::kData, 900, 88);
  const EncodedStream system = MakeStream(mocoder::StreamId::kSystem, 0, 89);
  for (int i = 0; i < 4; ++i) {
    WriteSetAt(root + "set" + std::to_string(i) + ".uler", data, system,
               ByFrames(3), 1);
    WriteContainerAt(root + "box" + std::to_string(i) + ".ulec", data);
  }
  // Two sets lose a reel (repairable); two containers take a silent
  // payload flip (data loss — a lone container has no parity).
  for (int i = 0; i < 2; ++i) {
    auto catalog = LoadCatalog(root + "set" + std::to_string(i) + ".uler");
    ASSERT_TRUE(catalog.ok());
    ASSERT_TRUE(
        std::filesystem::remove(root + catalog.value().reels[0].name));
    FlipByteAt(root + "box" + std::to_string(i) + ".ulec",
               kContainerHeaderBytes + kContainerRecordHeaderBytes + 21, 0xFF);
  }

  ScrubOptions options;
  options.repair = true;
  options.threads = 4;
  auto report = ScrubFleet(root, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().archives.size(), 8u);
  EXPECT_EQ(report.value().healthy, 4u);
  EXPECT_EQ(report.value().repaired, 2u);
  EXPECT_EQ(report.value().data_loss, 2u);
  EXPECT_EQ(report.value().errors, 0u);
  EXPECT_EQ(report.value().ExitCode(), 2);
  for (int i = 0; i < 2; ++i) {
    auto reader =
        ReelSetReader::Open(root + "set" + std::to_string(i) + ".uler");
    ASSERT_TRUE(reader.ok());
    EXPECT_TRUE(reader.value()->Verify().ok());
  }
}

}  // namespace
}  // namespace filmstore
}  // namespace ule
