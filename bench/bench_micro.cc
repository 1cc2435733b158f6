// Google-benchmark microbenchmarks for the primitives every experiment
// rests on: GF(256) RS coding, differential-Manchester emblem building,
// emblem detection, range coding, LZ77 parsing and the two emulators.
// Complements the table-style experiment benches with statistically solid
// numbers.

#include <benchmark/benchmark.h>

#include "dbcoder/dbcoder.h"
#include "dbcoder/lz77.h"
#include "dbcoder/rangecoder.h"
#include "dynarisc/assembler.h"
#include "dynarisc/machine.h"
#include "media/profiles.h"
#include "media/scanner.h"
#include "mocoder/detect.h"
#include "mocoder/emblem.h"
#include "olonys/dynarisc_in_verisc.h"
#include "rs/gf256.h"
#include "rs/reed_solomon.h"
#include "support/crc32.h"
#include "support/kernels.h"
#include "support/random.h"
#include "tests/detect_equivalence.h"

namespace ule {
namespace {

// ---- Hot kernels: every compiled variant side by side -----------------

void KernelArgs(benchmark::internal::Benchmark* b) {
  const int variants = static_cast<int>(kernels::Available().size());
  for (int v = 0; v < variants; ++v) {
    for (int64_t len : {int64_t{64}, int64_t{4096}, int64_t{1} << 20}) {
      b->Args({v, len});
    }
  }
}

void BM_Crc32(benchmark::State& state) {
  const kernels::KernelSet& k =
      *kernels::Available()[static_cast<size_t>(state.range(0))];
  const size_t len = static_cast<size_t>(state.range(1));
  const Bytes data = RandomBytes(11, len);
  // Byte-identity asserted in-run: the measured variant must agree with
  // scalar on the exact buffer being timed.
  if (k.crc32_update(0xFFFFFFFFu, data.data(), len) !=
      kernels::Scalar().crc32_update(0xFFFFFFFFu, data.data(), len)) {
    state.SkipWithError("kernel disagrees with scalar");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(k.crc32_update(0xFFFFFFFFu, data.data(), len));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(len));
  state.SetLabel(k.name);
}
BENCHMARK(BM_Crc32)->Apply(KernelArgs);

void BM_Gf256MulAccum(benchmark::State& state) {
  const kernels::KernelSet& k =
      *kernels::Available()[static_cast<size_t>(state.range(0))];
  const size_t len = static_cast<size_t>(state.range(1));
  const Bytes src = RandomBytes(12, len);
  Bytes dst(len, 0), ref(len, 0);
  k.gf256_mul_accum(dst.data(), src.data(), 0x8E, len);
  kernels::Scalar().gf256_mul_accum(ref.data(), src.data(), 0x8E, len);
  if (dst != ref) {
    state.SkipWithError("kernel disagrees with scalar");
    return;
  }
  for (auto _ : state) {
    k.gf256_mul_accum(dst.data(), src.data(), 0x8E, len);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(len));
  state.SetLabel(k.name);
}
BENCHMARK(BM_Gf256MulAccum)->Apply(KernelArgs);

void BM_RsEncode255(benchmark::State& state) {
  static const rs::Codec codec(255, 223);
  const Bytes data = RandomBytes(1, 223);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.Encode(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 223);
}
BENCHMARK(BM_RsEncode255);

void BM_RsDecodeClean(benchmark::State& state) {
  static const rs::Codec codec(255, 223);
  const Bytes cw = codec.Encode(RandomBytes(2, 223)).TakeValue();
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.Decode(cw));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 223);
}
BENCHMARK(BM_RsDecodeClean);

void BM_RsDecodeErrors(benchmark::State& state) {
  static const rs::Codec codec(255, 223);
  Bytes cw = codec.Encode(RandomBytes(3, 223)).TakeValue();
  Rng rng(4);
  for (int i = 0; i < state.range(0); ++i) {
    cw[rng.Below(255)] ^= static_cast<uint8_t>(1 + rng.Below(255));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.Decode(cw));
  }
}
BENCHMARK(BM_RsDecodeErrors)->Arg(1)->Arg(8)->Arg(16);

void BM_EmblemBuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Bytes payload = RandomBytes(5, static_cast<size_t>(
                                           mocoder::EmblemCapacity(n)));
  mocoder::EmblemHeader h;
  h.payload_crc = Crc32(payload);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mocoder::BuildEmblem(h, payload, n));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          mocoder::EmblemCapacity(n));
}
BENCHMARK(BM_EmblemBuild)->Arg(65)->Arg(128)->Arg(256);

// ---- Emblem detection: one A4 scan at data_side 128, 4 dots/cell -------

const media::Image& A4Scan() {
  static const media::Image kScan = [] {
    const int n = 128;
    const Bytes payload = RandomBytes(6, static_cast<size_t>(
                                             mocoder::EmblemCapacity(n)));
    mocoder::EmblemHeader h;
    h.stream_len = static_cast<uint32_t>(payload.size());
    h.payload_crc = Crc32(payload);
    const media::Image printed =
        mocoder::RenderEmblem(mocoder::BuildEmblem(h, payload, n).value(), 4);
    return media::Scan(printed, media::PaperA4Laser600().scan);
  }();
  return kScan;
}

void BM_SampleEmblem(benchmark::State& state) {
  const media::Image& scan = A4Scan();
  // Decode-equivalence asserted in-run: the timed sampler's grid must decode
  // like the reference sampler's on this scan (tests/detect_equivalence.h).
  const mocoder::reference::Equivalence e =
      mocoder::reference::CompareSamplers(scan, 128);
  if (!e.error.empty() || !e.decoded) {
    state.SkipWithError(("SampleEmblem is not decode-equivalent to the "
                         "reference sampler: " + e.error).c_str());
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(mocoder::SampleEmblem(scan, 128));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SampleEmblem)->Unit(benchmark::kMillisecond);

void BM_RangeCoderBit(benchmark::State& state) {
  Rng rng(6);
  std::vector<int> bits(4096);
  for (auto& b : bits) b = rng.Chance(0.8) ? 0 : 1;
  for (auto _ : state) {
    dbcoder::RangeEncoder enc;
    uint8_t p = dbcoder::kProbInit;
    for (int b : bits) enc.EncodeBit(&p, b);
    benchmark::DoNotOptimize(enc.Finish());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_RangeCoderBit);

void BM_Lz77Parse(benchmark::State& state) {
  Rng rng(7);
  std::string s;
  while (s.size() < 64 * 1024) {
    s += "lineitem|1995-03-15|TRUCK|";
    s += std::to_string(rng.Below(100000));
  }
  const Bytes data = ToBytes(s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dbcoder::Parse(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_Lz77Parse);

const dynarisc::Program& LoopProgram() {
  static const dynarisc::Program kProgram = [] {
    return dynarisc::Assemble(
               "LDI R0,#0\nLDI R1,#1\nloop: ADD R0,R1\nXOR R2,R0\n"
               "LSR R2,#1\nJUMP loop\n")
        .TakeValue();
  }();
  return kProgram;
}

void BM_DynaRiscEmulator(benchmark::State& state) {
  for (auto _ : state) {
    dynarisc::Machine m(LoopProgram(), {});
    dynarisc::RunOptions opts;
    opts.max_steps = 100000;
    benchmark::DoNotOptimize(m.Run(opts));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 100000);
}
BENCHMARK(BM_DynaRiscEmulator);

void BM_NestedEmulator(benchmark::State& state) {
  const Bytes packed = olonys::PackNestedInput(LoopProgram(), {});
  for (auto _ : state) {
    verisc::RunOptions opts;
    opts.max_steps = 100000;
    benchmark::DoNotOptimize(verisc::Run(olonys::DynaRiscInterpreter(),
                                         packed, opts));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 100000);
}
BENCHMARK(BM_NestedEmulator);

}  // namespace
}  // namespace ule

BENCHMARK_MAIN();
