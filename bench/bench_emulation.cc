// Experiments E1 + E11 — the cost of Universal Layout Emulation.
// §2 of the paper argues ULE "obviates the need for emulating a full
// DBMS... queries can be executed at bare-metal performance" and the only
// emulation cost is paid by the decoders at restore time. This bench
// quantifies the three execution tiers on the same workload (LZAC
// decompression by DBDecode) plus raw instruction throughput:
//   native C++ decoder -> DynaRisc emulator -> DynaRisc-on-VeRisc (nested).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_report.h"
#include "dbcoder/dbcoder.h"
#include "decoders/dbdecode.h"
#include "decoders/modecode.h"
#include "dynarisc/assembler.h"
#include "dynarisc/machine.h"
#include "mocoder/emblem.h"
#include "olonys/dynarisc_in_verisc.h"
#include "olonys/translation_cache.h"
#include "support/crc32.h"
#include "support/parallel.h"
#include "support/random.h"
#include "verisc/machine.h"

using namespace ule;
using Clock = std::chrono::steady_clock;

int main() {
  bench::BenchReport report;
  std::printf("=== E11: emulation tiers (LZAC decode of the same payload) "
              "===\n");
  Rng rng(11);
  std::string text;
  while (text.size() < 64 * 1024) {
    text += "the quick brown fox jumps over the lazy archival database ";
    text += std::to_string(rng.Below(1000));
    text.push_back('\n');
  }
  const Bytes raw = ToBytes(text);
  auto container = dbcoder::Encode(raw, dbcoder::Scheme::kLzac);
  if (!container.ok()) return 1;

  std::printf("payload: %zu bytes (LZAC container %zu bytes)\n\n", raw.size(),
              container.value().size());
  std::printf("%-34s %12s %14s %10s\n", "tier", "seconds", "KB/s", "slowdown");

  // Tier 0: native C++.
  const auto t0 = Clock::now();
  auto native = dbcoder::Decode(container.value());
  const auto t1 = Clock::now();
  const double native_s = std::chrono::duration<double>(t1 - t0).count();
  if (!native.ok() || native.value() != raw) return 1;
  std::printf("%-34s %12.4f %14.0f %9.1fx\n", "native C++ decoder", native_s,
              raw.size() / 1000.0 / native_s, 1.0);
  report.Add("lzac_decode_native", 1, native_s, static_cast<double>(raw.size()));

  // Tier 1: archived DBDecode on the DynaRisc emulator.
  const auto t2 = Clock::now();
  auto emu = dynarisc::RunProgram(decoders::DbDecodeProgram(),
                                  container.value());
  const auto t3 = Clock::now();
  const double emu_s = std::chrono::duration<double>(t3 - t2).count();
  if (!emu.ok() || emu.value() != raw) return 1;
  std::printf("%-34s %12.4f %14.0f %9.1fx\n", "DBDecode on DynaRisc", emu_s,
              raw.size() / 1000.0 / emu_s, emu_s / native_s);
  report.Add("lzac_decode_dynarisc", 1, emu_s, static_cast<double>(raw.size()));

  // Tier 2: nested (VeRisc hosting the DynaRisc interpreter), smaller
  // payload, throughput extrapolated. Measured twice: forced down the
  // cold archival-protocol path (boot + table fill + fetch/decode every
  // guest instruction), then as the cached DynaRisc->VeRisc translation —
  // the steady state every restore frame after the first one sees. Both
  // paths must produce byte-identical output.
  const Bytes small(raw.begin(), raw.begin() + 4096);
  auto small_container = dbcoder::Encode(small, dbcoder::Scheme::kLzac);

  olonys::NestedRunStats cold_stats;
  const auto t4c = Clock::now();
  auto nested_cold = olonys::RunNested(
      decoders::DbDecodeProgram(), small_container.value(), {}, &verisc::Run,
      olonys::NestedMode::kCold, &cold_stats);
  const auto t5c = Clock::now();
  const double cold_s = std::chrono::duration<double>(t5c - t4c).count();
  if (!nested_cold.ok() || nested_cold.value() != small) return 1;
  const double cold_kbs = small.size() / 1000.0 / cold_s;
  std::printf("%-34s %12.4f %14.0f %9.1fx\n",
              "DBDecode nested cold (4 KB)", cold_s, cold_kbs,
              (raw.size() / 1000.0 / cold_kbs) / native_s);
  report.Add("lzac_decode_nested_4k_cold", 1, cold_s,
             static_cast<double>(small.size()));

  olonys::TranslationCache::Global().Clear();
  olonys::NestedRunStats warm_stats;
  // Warm-up run: populates the translation cache and the thread's
  // machine-resident tables, exactly like a restore's first frame.
  auto warm_up = olonys::RunNested(
      decoders::DbDecodeProgram(), small_container.value(), {}, &verisc::Run,
      olonys::NestedMode::kTranslated, &warm_stats);
  if (!warm_up.ok()) return 1;
  const auto t4 = Clock::now();
  auto nested = olonys::RunNested(
      decoders::DbDecodeProgram(), small_container.value(), {}, &verisc::Run,
      olonys::NestedMode::kTranslated, &warm_stats);
  const auto t5 = Clock::now();
  const double nested_s = std::chrono::duration<double>(t5 - t4).count();
  if (!nested.ok() || nested.value() != small) return 1;
  if (nested.value() != nested_cold.value() || !warm_stats.cache_hit ||
      warm_stats.bailed) {
    return 1;
  }
  const double nested_kbs = small.size() / 1000.0 / nested_s;
  std::printf("%-34s %12.4f %14.0f %9.1fx\n",
              "DBDecode nested (VeRisc, 4 KB)", nested_s, nested_kbs,
              (raw.size() / 1000.0 / nested_kbs) / native_s);
  report.Add("lzac_decode_nested_4k", 1, nested_s,
             static_cast<double>(small.size()));
  // Dispatch-core instrumentation: the translated run's share of the cold
  // run's VeRisc instructions, and how much of it retired fused.
  std::printf("  translated: %.1f%% of cold VeRisc instructions, "
              "%.1f%% retired fused\n",
              100.0 * warm_stats.steps / cold_stats.steps,
              100.0 * warm_stats.fused / warm_stats.steps);
  report.AddGauge("nested_cold_retired",
                  static_cast<double>(cold_stats.steps), "instructions");
  report.AddGauge("nested_dbdecode_retired",
                  static_cast<double>(warm_stats.steps), "instructions");
  report.AddGauge(
      "nested_fused_pct",
      warm_stats.steps ? 100.0 * warm_stats.fused / warm_stats.steps : 0.0,
      "%");
  const auto cache_stats = olonys::TranslationCache::Global().stats();
  report.AddGauge("translation_cache_hits",
                  static_cast<double>(cache_stats.hits), "hits");
  report.AddGauge("translation_cache_misses",
                  static_cast<double>(cache_stats.misses), "misses");

  // One MODecode grid (data_side 128, undamaged) on the translated path:
  // the per-frame cost of the emulated restore. Median of repeated runs.
  {
    const int n = 128;
    Rng grid_rng(128);
    const int cap = mocoder::EmblemCapacity(n);
    const Bytes payload = RandomBytes(&grid_rng, static_cast<size_t>(cap));
    mocoder::EmblemHeader h;
    h.payload_crc = Crc32(payload);
    h.stream_len = static_cast<uint32_t>(cap);
    auto grid = mocoder::BuildEmblem(h, payload, n);
    if (!grid.ok()) return 1;
    Bytes cells(static_cast<size_t>(n) * n);
    for (int y = 0; y < n; ++y) {
      for (int x = 0; x < n; ++x) {
        cells[static_cast<size_t>(y) * n + x] =
            grid.value().at(mocoder::kFrameCells + x,
                            mocoder::kFrameCells + y)
                ? 12
                : 240;
      }
    }
    const Bytes input = decoders::PackModecodeInput(cells, n);
    auto native = dynarisc::RunProgram(decoders::ModecodeProgram(), input);
    if (!native.ok()) return 1;
    verisc::RunOptions opts;
    opts.max_steps = 20'000'000'000ull;
    olonys::NestedRunStats grid_stats;
    constexpr int kRuns = 7;
    std::vector<double> seconds;
    for (int run = 0; run <= kRuns; ++run) {  // run 0 warms the cache
      const auto a = Clock::now();
      auto out = olonys::RunNested(decoders::ModecodeProgram(), input, opts,
                                   &verisc::Run,
                                   olonys::NestedMode::kTranslated,
                                   &grid_stats);
      const auto b = Clock::now();
      if (!out.ok() || out.value() != native.value() || grid_stats.bailed) {
        return 1;
      }
      if (run > 0) {
        seconds.push_back(std::chrono::duration<double>(b - a).count());
      }
    }
    std::sort(seconds.begin(), seconds.end());
    const double median = seconds[seconds.size() / 2];
    std::printf("\nMODecode grid (128, translated): %7.2f ms median of %d, "
                "%.1f M VeRisc instructions\n",
                median * 1e3, kRuns, grid_stats.steps / 1e6);
    report.Add("nested_modecode_grid", kRuns, median * kRuns,
               static_cast<double>(native.value().size()) * kRuns);
    report.AddGauge("nested_modecode_retired",
                    static_cast<double>(grid_stats.steps), "instructions");
  }

  // Raw instruction throughput of both emulators on a busy loop.
  // Endless ALU loop; both runs stop at their step limits and report
  // steps/second from the harness counters.
  const char* kLoop =
      "LDI R0,#0\nLDI R1,#1\nLDI R2,#0\n"
      "loop: ADD R0,R1\nXOR R2,R0\nLSR R2,#1\nADD R2,R1\nJUMP loop\n";
  auto loop_prog = dynarisc::Assemble(kLoop);
  if (!loop_prog.ok()) return 1;
  {
    const auto a = Clock::now();
    dynarisc::Machine m(loop_prog.value(), {});
    dynarisc::RunOptions opts;
    opts.max_steps = 30'000'000;
    auto r = m.Run(opts);
    const auto b = Clock::now();
    const double s = std::chrono::duration<double>(b - a).count();
    std::printf("\nDynaRisc emulator:        %7.1f M guest instructions/s\n",
                r.steps / 1e6 / s);
    report.Add("dynarisc_steps", r.steps, s);
  }
  {
    const auto a = Clock::now();
    verisc::RunOptions opts;
    opts.max_steps = 120'000'000;
    auto r = verisc::Run(olonys::DynaRiscInterpreter(),
                         olonys::PackNestedInput(loop_prog.value(), {}), opts);
    const auto b = Clock::now();
    if (!r.ok()) return 1;
    const double s = std::chrono::duration<double>(b - a).count();
    std::printf("VeRisc emulator:          %7.1f M VeRisc instructions/s\n",
                r.value().steps / 1e6 / s);
    report.Add("verisc_nested_steps", r.value().steps, s);
  }
  std::printf("\nshape check: emulation cost confined to restore-time "
              "decoding; each tier trades portability for speed.\n");

  // Pool reuse: the per-call cost of dispatching a small ParallelFor on
  // the persistent shared pool. Before the shared pool this path built a
  // pool (thread create + join) per call; now it only enqueues claim
  // loops, so thousands of pipeline-stage dispatches per second are
  // cheap and worker thread-local VeRisc machines stay warm.
  {
    const int kRounds = 2000;
    std::atomic<uint64_t> sink(0);
    auto tiny = [&](size_t i) {
      sink.fetch_add(i, std::memory_order_relaxed);
      return Status::OK();
    };
    (void)ParallelFor(0, 16, tiny, 4);  // warm the pool
    const uint64_t machines_before = verisc::Machine::TotalConstructed();
    const auto a = Clock::now();
    for (int round = 0; round < kRounds; ++round) {
      if (!ParallelFor(0, 16, tiny, 4).ok()) return 1;
    }
    const auto b = Clock::now();
    const double s = std::chrono::duration<double>(b - a).count();
    std::printf("\nshared-pool dispatch:     %7.1f us per 16-iteration "
                "ParallelFor (%d rounds)\n", s / kRounds * 1e6, kRounds);
    report.Add("parallel_for_dispatch_16", kRounds, s);
    // Machines constructed while re-dispatching must stay flat: stages
    // reuse per-thread scratch machines instead of rebuilding them.
    report.AddGauge(
        "verisc_machines_built_during_dispatch",
        static_cast<double>(verisc::Machine::TotalConstructed() -
                            machines_before),
        "machines");
    report.AddGauge("verisc_machines_total",
                    static_cast<double>(verisc::Machine::TotalConstructed()),
                    "machines");
  }
  report.Write("emulation");
  return 0;
}
