// Differential tests for the runtime-dispatched SIMD kernel layer
// (support/kernels.h). The contract under test: every compiled variant
// is byte-identical to the scalar baseline (the lens map's doubles bit
// for bit) — for an archival format, a
// kernel that is "almost right" writes checksums and parity a future
// reader cannot reproduce.
//
// ctest registers this suite twice: once under the dispatcher's own
// choice and once with ULE_KERNELS=scalar (see tests/CMakeLists.txt),
// and CI additionally runs the whole fast matrix with ULE_KERNELS=scalar.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "rs/gf256.h"
#include "support/crc32.h"
#include "support/kernels.h"
#include "support/random.h"

namespace ule {
namespace kernels {
namespace {

// First test in the file: in a fresh process (gtest_discover_tests runs
// each test in its own process) this is the *first* use of Active(), so
// the TSan CI job sees genuinely concurrent first-use resolution.
TEST(KernelsDispatchTest, ConcurrentFirstUseResolvesOnce) {
  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::vector<const KernelSet*> seen(kThreads, nullptr);
  std::vector<uint32_t> crc(kThreads, 0);
  std::vector<std::thread> threads;
  const uint8_t sample[] = {'u', 'l', 'e', '-', 'k', 'e', 'r', 'n'};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }  // line everyone up on the first call
      const KernelSet& k = Active();
      seen[static_cast<size_t>(t)] = &k;
      crc[static_cast<size_t>(t)] = k.crc32_update(0, sample, sizeof sample);
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<size_t>(t)], seen[0]);
    EXPECT_EQ(crc[static_cast<size_t>(t)], crc[0]);
  }
}

TEST(KernelsDispatchTest, ScalarIsAlwaysAvailable) {
  ASSERT_FALSE(Available().empty());
  EXPECT_EQ(Available().front(), &Scalar());
  EXPECT_STREQ(Scalar().name, "scalar");
  ASSERT_NE(Scalar().crc32_update, nullptr);
  ASSERT_NE(Scalar().gf256_mul_accum, nullptr);
}

TEST(KernelsDispatchTest, ResolveHonorsForceAndFallsBackToAuto) {
  const KernelSet& best = *Available().back();
  EXPECT_EQ(&Resolve("auto"), &best);
  EXPECT_EQ(&Resolve(""), &best);
  EXPECT_EQ(&Resolve("scalar"), &Scalar());
  for (const KernelSet* k : Available()) {
    EXPECT_EQ(&Resolve(k->name), k);
  }
  // An unknown or unavailable tier degrades to auto, never crashes.
  EXPECT_EQ(&Resolve("no-such-tier"), &best);
}

TEST(KernelsDispatchTest, ActiveRespectsEnvironment) {
  // The harness sets ULE_KERNELS for the scalar-forced registration;
  // either way Active() must equal what Resolve says for that setting.
  const char* setting = std::getenv("ULE_KERNELS");
  EXPECT_EQ(&Active(), &Resolve(setting ? setting : "auto"));
  EXPECT_NE(Describe().find(Active().name), std::string::npos);
}

// ---------------------------------------------------------------------
// Differential fuzz: every compiled variant vs scalar, every length
// 0..1025, unaligned offsets 0..31.
// ---------------------------------------------------------------------

constexpr size_t kMaxLen = 1025;
constexpr size_t kMaxOffset = 31;

Bytes FuzzBuffer(uint64_t seed) {
  Rng rng(seed);
  return RandomBytes(&rng, kMaxLen + kMaxOffset + 1);
}

TEST(KernelsDifferentialTest, Crc32AllVariantsMatchScalar) {
  const Bytes buf = FuzzBuffer(0xC4C32);
  const KernelSet& scalar = Scalar();
  for (const KernelSet* k : Available()) {
    SCOPED_TRACE(k->name);
    for (size_t off = 0; off <= kMaxOffset; ++off) {
      for (size_t len = 0; len <= kMaxLen; ++len) {
        const uint32_t seed = static_cast<uint32_t>(len * 2654435761u + off);
        const uint32_t want = scalar.crc32_update(seed, buf.data() + off, len);
        const uint32_t got = k->crc32_update(seed, buf.data() + off, len);
        ASSERT_EQ(want, got) << "len=" << len << " off=" << off;
      }
    }
  }
}

TEST(KernelsDifferentialTest, Gf256MulAccumAllVariantsMatchScalar) {
  const Bytes buf = FuzzBuffer(0x6F256);
  const KernelSet& scalar = Scalar();
  for (const KernelSet* k : Available()) {
    SCOPED_TRACE(k->name);
    for (size_t off = 0; off <= kMaxOffset; ++off) {
      for (size_t len = 0; len <= kMaxLen; ++len) {
        // Cycle through factors, always touching 0, 1 and a high one.
        const uint8_t factor = static_cast<uint8_t>(
            (len + off * 7) % 4 == 0 ? (len + off) % 3
                                     : 0x80 | ((len * 13 + off) & 0x7F));
        Bytes want(len + 2, 0x5A);  // +2 sentinel bytes: no overruns
        Bytes got = want;
        scalar.gf256_mul_accum(want.data(), buf.data() + off, factor, len);
        k->gf256_mul_accum(got.data(), buf.data() + off, factor, len);
        ASSERT_EQ(want, got) << "len=" << len << " off=" << off
                             << " factor=" << int(factor);
      }
    }
  }
}

// The stripe transform (filmstore/parity.cc) is, per chunk, exactly
// `out_o[j] = XOR_r Mul(weights[o][r], in_r[j])`. Check that shape —
// accumulation over many rows — against a Gf256::Mul reference for
// every variant, so a kernel that is right for one accumulate but
// drifts over repeated accumulation (carry bugs, dirty state) fails.
TEST(KernelsDifferentialTest, StripeTransformCombinationMatchesReference) {
  constexpr size_t kRows = 7;
  std::vector<Bytes> rows;
  for (size_t r = 0; r < kRows; ++r) {
    rows.push_back(FuzzBuffer(0x57817E + r));
  }
  const uint8_t weights[kRows] = {0x00, 0x01, 0x02, 0x53, 0x8E, 0xF1, 0xFF};
  for (const KernelSet* k : Available()) {
    SCOPED_TRACE(k->name);
    for (size_t len : {size_t{0}, size_t{1}, size_t{15}, size_t{16},
                       size_t{17}, size_t{100}, size_t{1024}, kMaxLen}) {
      for (size_t off = 0; off <= kMaxOffset; off += 5) {
        Bytes want(len, 0), got(len, 0);
        for (size_t r = 0; r < kRows; ++r) {
          for (size_t j = 0; j < len; ++j) {
            want[j] ^= rs::Gf256::Mul(weights[r], rows[r][off + j]);
          }
          k->gf256_mul_accum(got.data(), rows[r].data() + off, weights[r],
                             len);
        }
        ASSERT_EQ(want, got) << "len=" << len << " off=" << off;
      }
    }
  }
}

// The lens map is floating point: every variant must give the portable
// tier's doubles bit for bit (compared as bit patterns), on random
// frames and coefficients, at lengths that end in a partial batch, and
// must not write past n.
TEST(KernelsDifferentialTest, LensMapAllVariantsMatchScalarBitForBit) {
  Rng rng(0x1E25);
  const KernelSet& scalar = Scalar();
  for (int trial = 0; trial < 200; ++trial) {
    const double side = 200 + 800 * rng.NextDouble();
    const double x0 = 40 * rng.NextDouble(), y0 = 40 * rng.NextDouble();
    auto jitter = [&] { return 6 * (rng.NextDouble() - 0.5); };
    LensFrame f;
    f.tl_x = x0 + jitter();
    f.tl_y = y0 + jitter();
    f.tr_x = x0 + side + jitter();
    f.tr_y = y0 + jitter();
    f.bl_x = x0 + jitter();
    f.bl_y = y0 + side + jitter();
    f.br_x = x0 + side + jitter();
    f.br_y = y0 + side + jitter();
    f.cx = (f.tl_x + f.tr_x + f.bl_x + f.br_x) / 4;
    f.cy = (f.tl_y + f.tr_y + f.bl_y + f.br_y) / 4;
    f.norm = side / std::sqrt(2.0) * (0.9 + 0.2 * rng.NextDouble());
    f.k = trial == 0 ? 0.0 : 0.060 * (rng.NextDouble() - 0.5);  // ±0.030
    const size_t n = static_cast<size_t>(trial % 68);  // 0..67
    std::vector<double> u(n), v(n);
    for (size_t i = 0; i < n; ++i) {
      u[i] = rng.Chance(0.1) ? 0.0 : rng.NextDouble();
      v[i] = rng.Chance(0.1) ? 1.0 : rng.NextDouble();
    }
    // Two sentinel slots past n catch overruns.
    std::vector<double> want_x(n + 2, -1.5), want_y(n + 2, -1.5);
    scalar.lens_map(f, u.data(), v.data(), n, want_x.data(), want_y.data());
    ASSERT_EQ(want_x[n], -1.5);
    ASSERT_EQ(want_y[n + 1], -1.5);
    for (const KernelSet* k : Available()) {
      SCOPED_TRACE(k->name);
      std::vector<double> got_x(n + 2, -1.5), got_y(n + 2, -1.5);
      k->lens_map(f, u.data(), v.data(), n, got_x.data(), got_y.data());
      ASSERT_EQ(std::memcmp(want_x.data(), got_x.data(),
                            want_x.size() * sizeof(double)),
                0)
          << "trial=" << trial << " n=" << n << " k=" << f.k;
      ASSERT_EQ(std::memcmp(want_y.data(), got_y.data(),
                            want_y.size() * sizeof(double)),
                0)
          << "trial=" << trial << " n=" << n << " k=" << f.k;
    }
  }
}

// ---------------------------------------------------------------------
// The domain wrappers route through the kernel layer without changing
// their observable contract.
// ---------------------------------------------------------------------

TEST(KernelsWrapperTest, Crc32KnownVectorsThroughDispatch) {
  const uint8_t kCheck[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32(BytesView(kCheck, sizeof kCheck)), 0xCBF43926u);
  EXPECT_EQ(Crc32(BytesView()), 0u);
  // Seed chaining: CRC of a split buffer equals CRC of the whole.
  const Bytes buf = FuzzBuffer(0xCAFE);
  for (size_t cut : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                     size_t{500}, buf.size()}) {
    const uint32_t whole = Crc32(buf);
    const uint32_t head = Crc32(BytesView(buf).subspan(0, cut));
    const uint32_t chained = Crc32(BytesView(buf).subspan(cut), head);
    EXPECT_EQ(whole, chained) << "cut=" << cut;
  }
}

TEST(KernelsWrapperTest, MulSliceAccumMatchesScalarMulLoop) {
  const Bytes buf = FuzzBuffer(0x517CE);
  for (int factor : {0, 1, 2, 83, 142, 255}) {
    Bytes want(buf.size(), 0x33), got = want;
    for (size_t j = 0; j < buf.size(); ++j) {
      want[j] ^= rs::Gf256::Mul(static_cast<uint8_t>(factor), buf[j]);
    }
    rs::Gf256::MulSliceAccum(got.data(), buf.data(),
                             static_cast<uint8_t>(factor), buf.size());
    EXPECT_EQ(want, got) << "factor=" << factor;
  }
}

}  // namespace
}  // namespace kernels
}  // namespace ule
