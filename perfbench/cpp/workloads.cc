#include "cpp/workloads.h"

#include <cstdlib>

#include "minidb/sqldump.h"
#include "tpch/tpch.h"

namespace perfbench {

std::vector<std::string> WorkloadNames() {
  return {"microfilm_bulk", "tpch_selective", "tpch_emulated", "fleet_scrub"};
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       int threads) {
  if (name == "fleet_scrub") return MakeFleetWorkload(seed, threads);
  for (const std::string& known : WorkloadNames()) {
    if (name == known) return MakeFilmWorkload(name, seed, threads);
  }
  return nullptr;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"filmstore.write_s", "s"},
      {"filmstore.read_s", "s"},
      {"filmstore.records_read", "count"},
      {"filmstore.bytes_read", "bytes"},
      {"filmstore.parity_build_s", "s"},
      {"filmstore.assess_s", "s"},
      {"filmstore.reconstruct_s", "s"},
      {"filmstore.repaired_bytes", "bytes"},
      {"dbcoder.encode_s", "s"},
      {"dbcoder.decode_s", "s"},
      {"dbcoder.ratio", "ratio"},
      {"mocoder.encode_s", "s"},
      {"mocoder.detect_s", "s"},
      {"mocoder.inner_decode_s", "s"},
      {"mocoder.outer_s", "s"},
      {"mocoder.emblems_total", "count"},
      {"mocoder.emblems_decoded", "count"},
      {"mocoder.emblems_recovered", "count"},
      {"mocoder.rs_errors_corrected", "count"},
      {"mocoder.decode_yield", "frac"},
      {"mocoder.frames", "count"},
      {"core.selective_open_s", "s"},
      {"core.selective_query_s", "s"},
      {"core.selective_emblems_decoded", "count"},
      {"core.selective_chunks_decoded", "count"},
      {"core.selective_cache_hit_ratio", "frac"},
      {"core.selective_cache_budget_frac", "frac"},
      {"core.emulated_slowdown", "ratio"},
      {"olonys.bootstrap_s", "s"},
      {"olonys.bootstrap_text_s", "s"},
      {"olonys.modecode_s", "s"},
      {"olonys.dbdecode_s", "s"},
      {"olonys.translation_hit_ratio", "frac"},
      {"verisc.steps", "count"},
      {"verisc.fused_frac", "frac"},
      {"verisc.steps_per_s", "1/s"},
      {"support.pool_util", "frac"},
      {"media.scan_s", "s"},
      {"tpch.generate_s", "s"},
      {"archive_mb_s", "MB/s"},
      {"focus_p50_ms", "ms"},
      {"restore_mb_s", "MB/s"},
      {"focus_tail_ms", "ms"},
      {"focus_tail_pct", "%"},
      {"focus_samples", "count"},
      {"trace.overhead", "ratio"},
      {"trace.coverage", "frac"},
      {"trace.spans", "count"},
  };
  return kMetrics;
}

ule::Result<std::string> TpchDump(double scale, size_t target_bytes,
                                  uint64_t seed) {
  for (uint64_t attempt = 0; attempt < 1000; ++attempt) {
    ule::tpch::Options options;
    options.scale_factor = scale;
    options.seed = DeriveSeed(seed, attempt);
    ULE_ASSIGN_OR_RETURN(ule::minidb::Database db, ule::tpch::Generate(options));
    std::string dump = ule::minidb::DumpSql(db);
    const double off = std::abs(static_cast<double>(dump.size()) -
                                static_cast<double>(target_bytes));
    if (off <= 0.01 * static_cast<double>(target_bytes)) return dump;
  }
  return Status::NotFound("no TPC-H dump within 1% of " +
                          std::to_string(target_bytes) + " bytes");
}

uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  // SplitMix64 finalizer over the pair.
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
