// perfbench: the repository benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--out-dir DIR]
//
// A single process and a closed loop with one client: each workload's
// round of operations runs back to back until S seconds of measuring are
// spent; the pipeline inside each operation uses every hardware thread.
// With --trace 0 the result line carries the end-to-end metrics; with
// --trace 1 untraced rounds fill the first half of the time and traced
// replays of the same round the second, and the result line carries the
// per-layer metrics.
// The last line of stdout is the result object; a readable table goes to
// stderr and a full report (plus, when traced, the span trace) to
// --out-dir. Any failed or unverified operation makes the exit code 1.

#include <fcntl.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>

#include "cpp/probes.h"
#include "cpp/trace.h"
#include "cpp/workloads.h"
#include "support/parallel.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string work_dir = ".bench_work";
  std::string out_dir = ".bench_out";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0') return false;
    } else if (flag == "--trace") {
      args->trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && have_seed &&
         args->seconds > 0 && args->trace >= 0;
}

/// syncfs(2) on the filesystem holding `dir`.
void FlushFilesystem(const std::string& dir) {
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  syncfs(fd);
  close(fd);
}

/// Keys of the per-layer counts that must repeat exactly for a seed.
bool IsExactCount(const std::string& name) {
  static const std::set<std::string> kExact = {
      "filmstore.records_read",     "filmstore.bytes_read",
      "filmstore.repaired_bytes",   "mocoder.emblems_total",
      "mocoder.emblems_decoded",    "mocoder.emblems_recovered",
      "mocoder.rs_errors_corrected", "mocoder.frames",
      "core.selective_emblems_decoded", "core.selective_chunks_decoded",
      "verisc.steps"};
  return kExact.count(name) > 0;
}

/// The end-to-end metrics, read off the untraced samples of the
/// workload's write, read and focus operations: what each costs in CPU
/// seconds across all threads, per MB or per unit of work. Wall-clock
/// figures of the same operations are reported per layer: on a shared
/// virtual machine they move with the host's load far more than the
/// largest bound a gate may have (see perfbench/README.md).
std::vector<Metric> EndToEnd(const Workload& workload, const Recorder& rec,
                             double setup_s) {
  const Workload::Roles r = workload.roles();
  return {
      {"setup_s", setup_s, "s"},
      {"focus_cpu_ms",
       1000 * rec.MedianBlockMean(r.focus, r.focus_block, true) /
           r.focus_units,
       "ms"},
      {"archive_cpu_s_per_mb", rec.MedianCpuPerMb(r.write), "s/MB"},
      {"restore_cpu_s_per_mb", rec.MedianCpuPerMb(r.read), "s/MB"},
      {"peak_rss_mb", rec.PeakRssMb(), "MB"},
      {"frames_per_dump_mb", workload.FramesPerDumpMb(), "frames/MB"},
  };
}

/// Per-layer values read off untraced samples: the write and read
/// wall-clock throughputs, the focus operation's per-operation tail (the
/// highest percentile with ten samples beyond it), the pool utilization
/// and, where both restores run, the emulation cost.
LayerValues UntracedLayers(const Workload& workload, const Recorder& rec) {
  const Workload::Roles r = workload.roles();
  std::vector<double> ms;
  for (const OpSample& s : rec.samples(r.focus)) {
    ms.push_back(1000 * s.wall_s / r.focus_units);
  }
  LayerValues v;
  v["archive_mb_s"] = rec.MedianMbPerS(r.write);
  v["restore_mb_s"] = rec.MedianMbPerS(r.read);
  v["focus_p50_ms"] = 1000 * rec.MedianBlockMean(r.focus, r.focus_block,
                                                 false) / r.focus_units;
  const double pct = SupportedTailPercentile(ms.size());
  v["focus_tail_pct"] = pct;
  v["focus_tail_ms"] = pct > 0 ? Quantile(ms, pct / 100.0) : 0;
  v["focus_samples"] = static_cast<double>(ms.size());
  v["support.pool_util"] = rec.PoolUtil();
  if (!rec.samples("emulated").empty() && rec.MedianWall("restore") > 0) {
    v["core.emulated_slowdown"] =
        rec.MedianWall("emulated") / rec.MedianWall("restore");
  }
  return v;
}

int Run(const Args& args) {
  const int threads = ule::ResolveThreadCount(0);
  std::unique_ptr<Workload> workload =
      MakeWorkload(args.workload, args.seed, threads);
  if (workload == nullptr) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  std::error_code ec;
  fs::create_directories(args.out_dir, ec);
  const std::string tag =
      args.workload + "-seed" + std::to_string(args.seed) + "-trace" +
      std::to_string(args.trace);

  // Set-up, twice in an untraced run, whose median is setup_s; once in
  // a traced run, which reports no setup_s. The last set-up's state is
  // what the rounds measure.
  const int setups = args.trace == 0 ? 2 : 1;
  std::vector<double> setup_times;
  std::vector<LayerValues> setup_layers;
  for (int r = 0; r < setups; ++r) {
    fs::remove_all(args.work_dir, ec);
    fs::create_directories(args.work_dir + "/setup", ec);
    const double t0 = NowS();
    const Status status = workload->Setup(args.work_dir + "/setup");
    setup_times.push_back(NowS() - t0);
    // Write the set-up's files back to disk before anything is timed, so
    // their writeback never overlaps a measured operation. (The product
    // itself never flushes; timed operations use the page cache alone.)
    FlushFilesystem(args.work_dir);
    if (!status.ok()) {
      std::cerr << "perfbench: set-up failed: " << status.ToString() << "\n";
      std::cout << ResultJson(false, 1, 1, {}) << std::endl;
      fs::remove_all(args.work_dir, ec);
      return 1;
    }
    setup_layers.push_back(workload->SetupLayers());
  }
  const double setup_s = Median(setup_times);

  Recorder untraced(threads);
  std::vector<Metric> metrics;
  std::map<std::string, double> report;
  uint64_t attempted = 0, failed = 0;
  const double deadline = NowS() + args.seconds;
  if (args.trace == 0) {
    do {
      workload->Round(untraced, nullptr);
    } while (NowS() < deadline && untraced.failed() == 0);
    metrics = EndToEnd(*workload, untraced, setup_s);
    attempted = untraced.attempted();
    failed = untraced.failed();
    for (const Metric& m : metrics) report[m.name] = m.value;
  } else {
    // Untraced rounds for the first half of the time (the median of
    // their walls is the reference the tracing overhead is measured
    // against), then traced replays of the same round for the second
    // half.
    const double half = NowS() + args.seconds / 2;
    std::vector<double> untraced_walls;
    do {
      const double before = untraced.TotalWall();
      workload->Round(untraced, nullptr);
      untraced_walls.push_back(untraced.TotalWall() - before);
    } while (NowS() < half && untraced.failed() == 0);
    const double untraced_wall = Median(untraced_walls);
    Tracer tracer;
    Tracer::SetActive(&tracer);
    Recorder traced(threads);
    LayerValues counts;
    std::map<std::string, std::vector<double>> times;
    std::vector<double> round_walls;
    int rounds = 0;
    do {
      const size_t from = tracer.span_count();
      LayerValues round_counts;
      workload->Round(traced, &round_counts);
      for (const auto& [name, v] : workload->LayerTimes(tracer.SelfSeconds(from))) {
        times[name].push_back(v);
      }
      round_walls.push_back(tracer.RootSeconds(from));
      if (rounds++ == 0) counts = round_counts;
    } while (NowS() < deadline && traced.failed() == 0);
    Tracer::SetActive(nullptr);

    LayerValues layers = counts;
    for (const auto& [name, v] : times) layers[name] = Median(v);
    std::map<std::string, std::vector<double>> setup_values;
    for (const LayerValues& lv : setup_layers) {
      for (const auto& [name, v] : lv) setup_values[name].push_back(v);
    }
    for (const auto& [name, v] : setup_values) layers[name] = Median(v);
    for (const auto& [name, v] : UntracedLayers(*workload, untraced)) {
      layers[name] = v;
    }
    double self_total = 0;
    for (const auto& [name, v] : tracer.SelfSeconds()) {
      if (name.rfind("op.", 0) != 0) self_total += v;
    }
    const double traced_wall = tracer.RootSeconds();
    layers["trace.overhead"] =
        untraced_wall > 0 ? Median(round_walls) / untraced_wall : 0;
    layers["trace.coverage"] =
        traced_wall > 0 ? self_total / (traced_wall * threads) : 0;
    layers["trace.spans"] = static_cast<double>(tracer.span_count());

    for (const auto& [name, unit] : PerLayerMetrics()) {
      auto it = layers.find(name);
      metrics.push_back({name, it == layers.end() ? 0.0 : it->second, unit});
    }
    attempted = untraced.attempted() + traced.attempted();
    failed = untraced.failed() + traced.failed();
    for (const Metric& m : metrics) report[m.name] = m.value;
    for (const auto& [name, v] : counts) {
      if (IsExactCount(name)) report["exact." + name] = v;
    }
    report["frames_per_dump_mb"] = workload->FramesPerDumpMb();
    report["traced_rounds"] = rounds;

    std::ofstream trace_file(args.out_dir + "/" + tag + ".trace.json");
    trace_file << "{\"traceEvents\":[\n" << tracer.Events() << "\n]}\n";
  }
  fs::remove_all(args.work_dir, ec);

  // Human-readable table and the full report file.
  std::cerr << "perfbench " << args.workload << " seed " << args.seed
            << " trace " << args.trace << " threads " << threads
            << " input_digest " << workload->InputDigest() << "\n";
  for (const Metric& m : metrics) {
    std::cerr << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  std::cerr << "  attempted " << attempted << ", failed " << failed
            << ", failed_op_frac "
            << (attempted ? static_cast<double>(failed) / attempted : 0.0)
            << "\n";
  {
    std::ofstream out(args.out_dir + "/" + tag + ".report.json");
    out << "{\"workload\": \"" << args.workload << "\", \"seed\": "
        << args.seed << ", \"trace\": " << args.trace
        << ", \"threads\": " << threads << ", \"input_digest\": \""
        << workload->InputDigest() << "\", \"attempted\": " << attempted
        << ", \"failed\": " << failed << ", \"values\": {";
    bool first = true;
    for (const auto& [name, v] : report) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out << (first ? "" : ", ") << "\"" << name << "\": " << buf;
      first = false;
    }
    out << "}, \"setup_s\": [";
    for (size_t i = 0; i < setup_times.size(); ++i) {
      out << (i ? ", " : "") << setup_times[i];
    }
    out << "], \"untraced_op_wall_s\": " << untraced.WallsJson() << "}\n";
  }

  const bool correct = failed == 0;
  std::cout << ResultJson(correct, attempted, failed, metrics) << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] [--out-dir DIR]\n";
    return 2;
  }
  return perfbench::Run(args);
}
