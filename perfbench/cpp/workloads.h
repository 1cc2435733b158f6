// The benchmark's workloads. Each is a closed loop with one client: a
// round is a fixed sequence of timed operations, repeated until the run's
// measuring time is spent. Inputs come only from the workload seed.

#ifndef PERFBENCH_CPP_WORKLOADS_H_
#define PERFBENCH_CPP_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cpp/probes.h"

namespace perfbench {

/// Per-layer values of one workload, keyed by the metric names of
/// PerLayerMetrics(). Layers a workload does not exercise stay absent
/// and are reported as 0.
using LayerValues = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds every input and reference in the empty directory `dir`.
  /// Called several times per run (set-up time is reported as the
  /// median); the state of the last call is what the rounds use.
  virtual Status Setup(const std::string& dir) = 0;
  /// One round: every operation timed through `rec` and checked against
  /// the set-up references. With `counts`, the round is a traced replay
  /// (spans go to the active Tracer) and its exact counts are added to
  /// `counts`.
  virtual void Round(Recorder& rec, LayerValues* counts) = 0;

  /// Which timed operation kinds the end-to-end metrics are read from.
  struct Roles {
    std::string write;  ///< archive_cpu_s_per_mb (and archive_mb_s)
    std::string read;   ///< restore_cpu_s_per_mb (and restore_mb_s)
    std::string focus;  ///< focus_p50_ms, focus_cpu_ms
    /// Units of work in one focus operation (the fleet's sweeps are
    /// quoted per archive).
    double focus_units = 1;
    /// Consecutive focus operations averaged into one focus sample
    /// (a block of the selective query stream, a round's sweeps).
    size_t focus_block = 1;
  };
  virtual Roles roles() const = 0;
  /// Film length: frames archived per MB of dump.
  virtual double FramesPerDumpMb() const = 0;
  /// Set-up-only layer timings of the last Setup (media.scan_s, ...).
  virtual LayerValues SetupLayers() const = 0;
  /// Converts one traced round's self seconds per span name into the
  /// workload's per-layer time metrics.
  virtual LayerValues LayerTimes(
      const std::map<std::string, double>& self_seconds) const = 0;
  /// A digest of the generated inputs (differs between seeds).
  virtual uint64_t InputDigest() const = 0;
};

/// Names of the workloads, in BENCHMARK.json order.
std::vector<std::string> WorkloadNames();
/// Builds a workload by name; null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       int threads);
std::unique_ptr<Workload> MakeFleetWorkload(uint64_t seed, int threads);
std::unique_ptr<Workload> MakeFilmWorkload(const std::string& name,
                                           uint64_t seed, int threads);

/// Every per-layer metric (name, unit) the traced run reports.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// \brief A seeded TPC-H dump (minidb::DumpSql of tpch::Generate at
/// `scale`) whose size is within 1% of `target_bytes`: sub-seeds of `seed`
/// are tried in order and the first dump inside the window is kept, so
/// seeds change the dump's content but hardly its volume.
ule::Result<std::string> TpchDump(double scale, size_t target_bytes,
                                  uint64_t seed);

/// Derives an independent 64-bit stream seed from the workload seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt);

}  // namespace perfbench

#endif  // PERFBENCH_CPP_WORKLOADS_H_
