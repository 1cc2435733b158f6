// Measurement primitives of the benchmark program: clocks, observed
// memory gauges, sample statistics, an independent content hash for
// output checks, and the per-operation recorder every workload times
// its operations through.

#ifndef PERFBENCH_CPP_PROBES_H_
#define PERFBENCH_CPP_PROBES_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "support/bytes.h"
#include "support/status.h"

namespace perfbench {

using ule::Status;

/// Monotonic wall clock, seconds.
double NowS();
/// CPU seconds used by every thread of this process so far.
double ProcessCpuS();

/// Resets the kernel's resident-set high-water mark (VmHWM) by writing
/// "5" to /proc/self/clear_refs, so the next PeakRssMb() reading is the
/// peak of the phase that starts now, not of the whole process.
Status ResetPeakRss();
/// VmHWM of /proc/self/status in MB (10^6 bytes).
double PeakRssMb();

/// Median of `v` (the mean of the two middle values for even sizes).
double Median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q);

/// The highest percentile with at least ten samples beyond it, among
/// 50, 75, 90, 95, 99 and 99.9; 0 when fewer than 20 samples exist.
double SupportedTailPercentile(size_t samples);

/// 64-bit FNV-1a. The output checks hash with this rather than with a
/// checksum of the code under test, so a reference never depends on the
/// path it checks.
uint64_t Fnv1a(const void* data, size_t size, uint64_t h = 1469598103934665603ull);
inline uint64_t Fnv1a(const std::string& s) { return Fnv1a(s.data(), s.size()); }
/// FNV-1a of a whole file's bytes; an unreadable file is an error.
ule::Result<uint64_t> HashFile(const std::string& path);

/// One timed operation as observed from outside.
struct OpSample {
  double wall_s = 0;
  double cpu_s = 0;          ///< process CPU seconds spent during the op
  double peak_rss_mb = 0;    ///< VmHWM of the phase (reset before the op)
  double work_bytes = 0;     ///< bytes the op's throughput is quoted in
};

/// \brief Times operations by kind. An operation is the product call
/// (`op`), timed; its output check (`check`) runs after the clock stops.
/// A non-OK status from either counts the operation as failed; only
/// successful, verified operations contribute samples.
class Recorder {
 public:
  explicit Recorder(int threads) : threads_(threads) {}

  /// Runs and times one operation of `kind`. Returns false on failure
  /// (the reason is logged to stderr).
  bool Time(const std::string& kind, double work_bytes,
            const std::function<Status()>& op,
            const std::function<Status()>& check);
  /// Counts a failure that happened outside a timed operation.
  void Fail(const std::string& what, const Status& status);

  const std::vector<OpSample>& samples(const std::string& kind) const;
  /// Median wall seconds of `kind` (0 when it never succeeded).
  double MedianWall(const std::string& kind) const;
  /// Median of work_bytes / wall over the samples of `kind`, in MB/s.
  double MedianMbPerS(const std::string& kind) const;
  /// Median of cpu / work_bytes over the samples of `kind`, in s/MB.
  double MedianCpuPerMb(const std::string& kind) const;
  /// Median over consecutive blocks of `block` samples of `kind` of the
  /// block's mean wall (or CPU) seconds. Blocks follow the order the
  /// samples were taken; a short last block is dropped unless it is the
  /// only one.
  double MedianBlockMean(const std::string& kind, size_t block,
                         bool cpu) const;
  /// Largest per-kind median phase peak, MB.
  double PeakRssMb() const;
  /// Process CPU seconds / (wall seconds x threads), over every sample.
  double PoolUtil() const;
  /// Summed wall seconds of every sample.
  double TotalWall() const;
  /// {"kind": [wall seconds of each sample, in order], ...} as JSON.
  std::string WallsJson() const;

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  int threads_;
  std::map<std::string, std::vector<OpSample>> samples_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// \brief Ordered metric list for the result line: name, value, unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Writes the result object: {"correct", "attempted",
/// "failed", "metrics": {name: {"value", "unit"}}} on one line.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_CPP_PROBES_H_
