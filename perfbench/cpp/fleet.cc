// fleet_scrub: a fleet of seeded sharded reel sets (4 data reels + m=2
// ULE-P1 parity reels each), built in set-up. Timed: the parity build of
// one set, a verify-only sweep of the healthy fleet, and a repair sweep
// after seeded whole-reel deletions and byte flips (re-applied, untimed,
// before every repair sweep). Only filmstore parity/scrub, the GF(256)
// and CRC32 kernels and file digesting run in the timed operations: no
// pixel or emulation work.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>

#include "core/micr_olonys.h"
#include "cpp/trace.h"
#include "cpp/workloads.h"
#include "filmstore/parity.h"
#include "filmstore/reel_set.h"
#include "filmstore/scrub.h"
#include "support/parallel.h"
#include "support/random.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace ule;

constexpr int kSets = 8;
constexpr int kDataReels = 4;
constexpr int kParityReels = 2;
constexpr int kDamagedSets = 4;
constexpr int kBuildsPerRound = 3;
constexpr int kVerifiesPerRound = 3;
constexpr double kScale = 0.00005;  // TPC-H scale factor of each set's dump
constexpr size_t kDumpBytes = 60'000;  // and its size (see TpchDump)

struct FileRef {
  uint64_t hash = 0;
  uint64_t bytes = 0;
};

/// One damage event: a whole file deleted, or bytes flipped in place.
struct Damage {
  std::string path;
  bool remove = false;
  std::vector<std::pair<uint64_t, uint8_t>> flips;  ///< offset, xor mask
};

class FleetWorkload final : public Workload {
 public:
  FleetWorkload(uint64_t seed, int threads) : seed_(seed), threads_(threads) {}

  Status Setup(const std::string& dir) override;
  void Round(Recorder& rec, LayerValues* counts) override;
  Roles roles() const override {
    return {"parity_build", "repair_sweep", "verify_sweep", kSets,
            kVerifiesPerRound};
  }
  double FramesPerDumpMb() const override {
    return static_cast<double>(frames_) /
           (static_cast<double>(dump_bytes_) / 1e6);
  }
  LayerValues SetupLayers() const override { return setup_layers_; }
  LayerValues LayerTimes(
      const std::map<std::string, double>& self) const override {
    LayerValues v;
    const auto get = [&](const char* name) {
      auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second;
    };
    v["filmstore.parity_build_s"] =
        get("filmstore.parity_build") / kBuildsPerRound;
    v["filmstore.assess_s"] =
        assess_calls_ > 0 ? get("filmstore.assess") / assess_calls_ : 0;
    v["filmstore.reconstruct_s"] = get("filmstore.reconstruct");
    return v;
  }
  uint64_t InputDigest() const override { return input_digest_; }

 private:
  Status ApplyDamage() const;
  Status CheckFiles(const std::vector<std::string>& paths) const;
  Status CheckReport(const filmstore::FleetReport& report, bool repair) const;
  /// Traced replays of ScrubFleet, composed from the public per-set calls.
  Status ReplayVerify();
  Result<uint64_t> ReplayRepair();

  uint64_t seed_;
  int threads_;
  std::string root_;
  std::vector<std::string> catalogs_;  ///< catalog path of each set
  std::vector<uint64_t> data_bytes_;   ///< per set, data reels only
  std::map<std::string, FileRef> pristine_;
  std::vector<Damage> damage_;
  uint64_t expected_repair_bytes_ = 0;
  size_t frames_ = 0;
  uint64_t dump_bytes_ = 0;
  uint64_t input_digest_ = 0;
  size_t next_build_ = 0;
  std::atomic<int> assess_calls_{0};
  LayerValues setup_layers_;
};

Status FleetWorkload::Setup(const std::string& dir) {
  root_ = dir + "/fleet";
  fs::create_directories(root_);
  catalogs_.clear();
  data_bytes_.clear();
  pristine_.clear();
  damage_.clear();
  expected_repair_bytes_ = 0;
  frames_ = 0;
  dump_bytes_ = 0;
  input_digest_ = 0;
  next_build_ = 0;
  setup_layers_.clear();
  double generate_s = 0;
  for (int s = 0; s < kSets; ++s) {
    const double t0 = NowS();
    ULE_ASSIGN_OR_RETURN(
        const std::string dump,
        TpchDump(kScale, kDumpBytes, DeriveSeed(seed_, 100 + static_cast<uint64_t>(s))));
    generate_s += NowS() - t0;
    dump_bytes_ += dump.size();
    input_digest_ = Fnv1a(dump.data(), dump.size(), input_digest_ ^ 0x9e37);

    core::ArchiveOptions options;  // ulectl's defaults: LZAC, 128 cells
    options.emblem.threads = 0;
    // Emblem count first (no rendering), so the set splits into exactly
    // kDataReels reels.
    core::ArchiveOptions count_only = options;
    count_only.render_images = false;
    ULE_ASSIGN_OR_RETURN(core::Archive plan, core::ArchiveDump(dump, count_only));
    const size_t frames = plan.data_emblems.size() + plan.system_emblems.size();
    frames_ += frames;

    const std::string set_dir = root_ + "/set" + std::to_string(s);
    fs::create_directories(set_dir);
    filmstore::ReelSetWriter::Options wopt;
    wopt.shard.max_frames_per_reel = (frames + kDataReels - 1) / kDataReels;
    wopt.archive_id = static_cast<uint64_t>(s) + 1;
    wopt.parity_reels = kParityReels;
    const std::string catalog = set_dir + "/archive.uler";
    ULE_ASSIGN_OR_RETURN(auto writer, filmstore::ReelSetWriter::Create(
                                          catalog, options.emblem, wopt));
    ULE_ASSIGN_OR_RETURN(core::ArchiveSummary summary,
                         core::ArchiveDumpStreaming(dump, options, *writer));
    ULE_RETURN_IF_ERROR(writer->AppendBootstrap(summary.bootstrap_text));
    ULE_RETURN_IF_ERROR(writer->Finish());
    if (writer->reel_count() != kDataReels) {
      return Status::Corruption("set " + std::to_string(s) + " has " +
                                std::to_string(writer->reel_count()) +
                                " reels, want " + std::to_string(kDataReels));
    }
    uint64_t data_bytes = 0;
    for (const auto& row : writer->catalog().reels) data_bytes += row.bytes;
    data_bytes_.push_back(data_bytes);
    catalogs_.push_back(catalog);
  }
  setup_layers_["tpch.generate_s"] = generate_s;

  for (const auto& entry : fs::recursive_directory_iterator(root_)) {
    if (!entry.is_regular_file()) continue;
    ULE_ASSIGN_OR_RETURN(uint64_t h, HashFile(entry.path().string()));
    pristine_[entry.path().string()] = FileRef{h, entry.file_size()};
  }

  // Seeded damage: kDamagedSets sets each have one file deleted and one
  // with bytes flipped in place (all that the m = 2 parity reels cover).
  // Targets are drawn from the files of stripe size (every data reel but
  // the short last one, and the parity reels), so the amount of damage
  // is the same for every seed; which sets and files vary.
  Rng rng(DeriveSeed(seed_, 5));
  std::vector<int> sets(kSets);
  for (int i = 0; i < kSets; ++i) sets[static_cast<size_t>(i)] = i;
  for (int i = 0; i < kDamagedSets; ++i) {
    std::swap(sets[static_cast<size_t>(i)],
              sets[static_cast<size_t>(i) + rng.Below(kSets - i)]);
    const std::string& catalog =
        catalogs_[static_cast<size_t>(sets[static_cast<size_t>(i)])];
    std::vector<std::string> files;
    for (int r = 0; r + 1 < kDataReels; ++r) {
      files.push_back(filmstore::ReelFileName(catalog, static_cast<size_t>(r)));
    }
    for (int p = 0; p < kParityReels; ++p) {
      files.push_back(
          filmstore::ParityReelFileName(catalog, static_cast<size_t>(p)));
    }
    for (int h = 0; h < kParityReels; ++h) {
      std::swap(files[static_cast<size_t>(h)],
                files[static_cast<size_t>(h) + rng.Below(files.size() - h)]);
      Damage d;
      d.path = files[static_cast<size_t>(h)];
      auto it = pristine_.find(d.path);
      if (it == pristine_.end()) {
        return Status::NotFound("damage target not in the fleet: " + d.path);
      }
      d.remove = h == 0;
      if (!d.remove) {
        for (int f = 0; f < 16; ++f) {
          d.flips.push_back({rng.Below(it->second.bytes),
                             static_cast<uint8_t>(1 + rng.Below(255))});
        }
      }
      expected_repair_bytes_ += it->second.bytes;
      damage_.push_back(std::move(d));
    }
  }
  return Status::OK();
}

Status FleetWorkload::ApplyDamage() const {
  for (const Damage& d : damage_) {
    if (d.remove) {
      std::error_code ec;
      if (!fs::remove(d.path, ec)) {
        return Status::IoError("cannot delete " + d.path);
      }
      continue;
    }
    std::fstream f(d.path, std::ios::in | std::ios::out | std::ios::binary);
    for (const auto& [offset, mask] : d.flips) {
      char c = 0;
      f.seekg(static_cast<std::streamoff>(offset));
      f.get(c);
      f.seekp(static_cast<std::streamoff>(offset));
      f.put(static_cast<char>(c ^ static_cast<char>(mask)));
    }
    if (!f) return Status::IoError("cannot flip bytes in " + d.path);
  }
  return Status::OK();
}

Status FleetWorkload::CheckFiles(const std::vector<std::string>& paths) const {
  for (const std::string& path : paths) {
    ULE_ASSIGN_OR_RETURN(uint64_t h, HashFile(path));
    if (h != pristine_.at(path).hash) {
      return Status::Corruption(path + " differs from its set-up bytes");
    }
  }
  return Status::OK();
}

Status FleetWorkload::CheckReport(const filmstore::FleetReport& report,
                                  bool repair) const {
  std::set<std::string> damaged_sets;
  for (const Damage& d : damage_) {
    damaged_sets.insert(fs::path(d.path).parent_path().string());
  }
  const size_t want_repaired = repair ? damaged_sets.size() : 0;
  if (report.archives.size() != static_cast<size_t>(kSets) ||
      report.repaired != want_repaired ||
      report.healthy != kSets - want_repaired ||
      report.repaired_bytes != (repair ? expected_repair_bytes_ : 0)) {
    return Status::Corruption("fleet report: " + report.ToJson());
  }
  return Status::OK();
}

Status FleetWorkload::ReplayVerify() {
  std::vector<int> clean(catalogs_.size(), 0);
  ULE_RETURN_IF_ERROR(ParallelFor(
      0, catalogs_.size(),
      [&](size_t i) -> Status {
        ULE_ASSIGN_OR_RETURN(filmstore::ReelCatalog cat,
                             filmstore::LoadCatalog(catalogs_[i]));
        Span span("filmstore.assess");
        ++assess_calls_;
        ULE_ASSIGN_OR_RETURN(
            filmstore::SetHealth health,
            filmstore::AssessSet(cat, fs::path(catalogs_[i]).parent_path().string()));
        clean[i] = health.clean() ? 1 : 0;
        return Status::OK();
      },
      threads_));
  if (std::count(clean.begin(), clean.end(), 1) != kSets) {
    return Status::Corruption("traced verify found damage in a healthy fleet");
  }
  return Status::OK();
}

Result<uint64_t> FleetWorkload::ReplayRepair() {
  std::vector<uint64_t> rebuilt(catalogs_.size(), 0);
  ULE_RETURN_IF_ERROR(ParallelFor(
      0, catalogs_.size(),
      [&](size_t i) -> Status {
        const std::string dir = fs::path(catalogs_[i]).parent_path().string();
        ULE_ASSIGN_OR_RETURN(filmstore::ReelCatalog cat,
                             filmstore::LoadCatalog(catalogs_[i]));
        filmstore::SetHealth health;
        {
          Span span("filmstore.assess");
          ++assess_calls_;
          ULE_ASSIGN_OR_RETURN(health, filmstore::AssessSet(cat, dir));
        }
        if (health.clean()) return Status::OK();
        if (!filmstore::Recoverable(cat, health)) {
          return Status::Corruption("set " + dir + " is beyond its parity");
        }
        filmstore::ReconstructOptions ropt;
        ropt.rebuild_parity = true;
        {
          Span span("filmstore.reconstruct");
          ULE_ASSIGN_OR_RETURN(rebuilt[i], filmstore::ReconstructDamaged(
                                               cat, dir, health, ropt));
        }
        Span span("filmstore.assess");
        ++assess_calls_;
        ULE_ASSIGN_OR_RETURN(health, filmstore::AssessSet(cat, dir));
        if (!health.clean()) {
          return Status::Corruption("repair left " + dir + " unhealthy");
        }
        return Status::OK();
      },
      threads_));
  uint64_t total = 0;
  for (uint64_t b : rebuilt) total += b;
  return total;
}

void FleetWorkload::Round(Recorder& rec, LayerValues* counts) {
  const bool traced = counts != nullptr;
  assess_calls_ = 0;

  // Parity builds of the next sets (round robin); each must rewrite the
  // same parity reels and catalog bytes as the set-up build.
  for (int b = 0; b < kBuildsPerRound; ++b) {
    const size_t s = next_build_++ % catalogs_.size();
    const std::string catalog = catalogs_[s];
    std::vector<std::string> outputs = {catalog};
    for (int p = 0; p < kParityReels; ++p) {
      outputs.push_back(
          filmstore::ParityReelFileName(catalog, static_cast<size_t>(p)));
    }
    rec.Time(
        "parity_build", static_cast<double>(data_bytes_[s]),
        [&]() -> Status {
          Span root("op.parity_build", Span::Kind::kOpRoot);
          Span span("filmstore.parity_build");
          return filmstore::ParityReelWriter::Build(catalog, kParityReels)
              .status();
        },
        [&] { return CheckFiles(outputs); });
  }

  filmstore::ScrubOptions verify;
  verify.threads = threads_;
  for (int v = 0; v < kVerifiesPerRound; ++v) {
    rec.Time(
        "verify_sweep", static_cast<double>(kSets),
        [&]() -> Status {
          Span root("op.verify_sweep", Span::Kind::kOpRoot);
          if (traced) return ReplayVerify();
          ULE_ASSIGN_OR_RETURN(filmstore::FleetReport report,
                               filmstore::ScrubFleet(root_, verify));
          return CheckReport(report, /*repair=*/false);
        },
        [] { return Status::OK(); });
  }

  const Status damaged = ApplyDamage();
  if (!damaged.ok()) {
    rec.Fail("damage injection", damaged);
    return;
  }
  std::vector<std::string> repaired_files;
  for (const Damage& d : damage_) repaired_files.push_back(d.path);
  uint64_t repaired = 0;
  filmstore::ScrubOptions repair = verify;
  repair.repair = true;
  rec.Time(
      "repair_sweep", static_cast<double>(expected_repair_bytes_),
      [&]() -> Status {
        Span root("op.repair_sweep", Span::Kind::kOpRoot);
        if (traced) {
          ULE_ASSIGN_OR_RETURN(repaired, ReplayRepair());
          return Status::OK();
        }
        ULE_ASSIGN_OR_RETURN(filmstore::FleetReport report,
                             filmstore::ScrubFleet(root_, repair));
        repaired = report.repaired_bytes;
        return CheckReport(report, /*repair=*/true);
      },
      [&]() -> Status {
        if (repaired != expected_repair_bytes_) {
          return Status::Corruption("repair rebuilt " +
                                    std::to_string(repaired) + " bytes, want " +
                                    std::to_string(expected_repair_bytes_));
        }
        return CheckFiles(repaired_files);
      });
  if (counts != nullptr) {
    (*counts)["filmstore.repaired_bytes"] = static_cast<double>(repaired);
  }
}

}  // namespace

std::unique_ptr<Workload> MakeFleetWorkload(uint64_t seed, int threads) {
  return std::make_unique<FleetWorkload>(seed, threads);
}

}  // namespace perfbench
