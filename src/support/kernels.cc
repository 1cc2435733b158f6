#include "support/kernels.h"

#include <array>
#include <cstdio>
#include <cstdlib>

#include "support/kernels_internal.h"
#include "support/kernels_lens.h"

namespace ule {
namespace kernels {
namespace {

// ---------------------------------------------------------------------
// Scalar CRC-32: slice-by-8 over compile-time tables.
//
// Eight 256-entry tables let one iteration fold eight message bytes into
// the register with eight independent loads — about 4-6x the classic
// 1-byte loop. The tables are constexpr: a short-lived `ulectl` digest
// pays no first-call table build and no hidden init guard per call.
// ---------------------------------------------------------------------

struct Crc32Tables {
  uint32_t t[8][256];
};

constexpr Crc32Tables BuildCrc32Tables() {
  Crc32Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    tables.t[0][i] = c;
  }
  for (int k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      tables.t[k][i] =
          (tables.t[k - 1][i] >> 8) ^ tables.t[0][tables.t[k - 1][i] & 0xFF];
    }
  }
  return tables;
}

constexpr Crc32Tables kCrc32Tables = BuildCrc32Tables();

constexpr uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

// ---------------------------------------------------------------------
// Scalar GF(256) multiply-accumulate over the shared split-nibble
// tables (two 16-entry lookups per byte, no per-call table build).
// ---------------------------------------------------------------------

void Gf256MulAccumScalar(uint8_t* dst, const uint8_t* src, uint8_t factor,
                         size_t n) {
  if (factor == 0) return;
  if (factor == 1) {
    for (size_t i = 0; i < n; ++i) dst[i] ^= src[i];
    return;
  }
  const uint8_t* lo = internal::kGfNib.lo[factor];
  const uint8_t* hi = internal::kGfNib.hi[factor];
  for (size_t i = 0; i < n; ++i) {
    const uint8_t s = src[i];
    dst[i] ^= static_cast<uint8_t>(lo[s & 0x0F] ^ hi[s >> 4]);
  }
}

// ---------------------------------------------------------------------
// CPU feature detection. __builtin_cpu_supports handles the full dance
// (CPUID leaves plus the XGETBV/OS-state check AVX needs); everything
// is gated on x86 so other targets resolve straight to scalar.
// ---------------------------------------------------------------------

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define ULE_KERNELS_X86 1
#endif

bool CpuHas(const char* feature) {
#ifdef ULE_KERNELS_X86
  __builtin_cpu_init();
  if (feature[0] == 's' && feature[1] == 's') {
    return __builtin_cpu_supports("ssse3");
  }
  if (feature[0] == 'a') return __builtin_cpu_supports("avx2");
  if (feature[0] == 'p') {
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }
  return false;
#else
  (void)feature;
  return false;
#endif
}

// ---------------------------------------------------------------------
// Registry: the KernelSets this build + this CPU can actually run.
// ---------------------------------------------------------------------

struct Registry {
  KernelSet scalar;
  KernelSet ssse3;
  KernelSet avx2;
  std::vector<const KernelSet*> available;

  Registry() {
    scalar = KernelSet{"scalar", "slice8", "scalar", "generic",
                       &internal::Crc32Slice8, &Gf256MulAccumScalar,
                       &internal::LensMapLanes};
    available.push_back(&scalar);

    const internal::IsaKernels& s3 = internal::Ssse3Raw();
    const bool pclmul_ok = s3.crc32_pclmul != nullptr && CpuHas("pclmul");
    if (s3.gf256_mul_accum != nullptr && CpuHas("ssse3")) {
      // The lens map has no 128-bit variant; this tier keeps the portable one.
      ssse3 = KernelSet{"ssse3", pclmul_ok ? "pclmul" : "slice8", "pshufb128",
                        scalar.lens_name,
                        pclmul_ok ? s3.crc32_pclmul : &internal::Crc32Slice8,
                        s3.gf256_mul_accum, scalar.lens_map};
      available.push_back(&ssse3);
    }
    const internal::IsaKernels& a2 = internal::Avx2Raw();
    if (a2.gf256_mul_accum != nullptr && CpuHas("avx2")) {
      // The PCLMUL fold is 128-bit either way; the avx2 tier reuses it.
      avx2 = KernelSet{"avx2", pclmul_ok ? "pclmul" : "slice8", "pshufb256",
                       "avx256",
                       pclmul_ok ? s3.crc32_pclmul : &internal::Crc32Slice8,
                       a2.gf256_mul_accum, a2.lens_map};
      available.push_back(&avx2);
    }
  }
};

const Registry& TheRegistry() {
  static const Registry registry;
  return registry;
}

const KernelSet& ResolveOrWarn(const char* setting, bool warn) {
  const Registry& r = TheRegistry();
  const KernelSet& best = *r.available.back();
  if (setting == nullptr || setting[0] == '\0') return best;
  const std::string_view want(setting);
  if (want == "auto") return best;
  if (const KernelSet* found = FindByName(want)) return *found;
  if (warn) {
    std::fprintf(stderr,
                 "ule: ULE_KERNELS=%s is not available on this build/CPU "
                 "(have:", setting);
    for (const KernelSet* k : r.available) {
      std::fprintf(stderr, " %s", k->name);
    }
    std::fprintf(stderr, "); using %s\n", best.name);
  }
  return best;
}

}  // namespace

namespace internal {

uint32_t Crc32Slice8(uint32_t crc, const uint8_t* data, size_t n) {
  const auto& t = kCrc32Tables.t;
  while (n >= 8) {
    const uint32_t lo = crc ^ LoadLe32(data);
    const uint32_t hi = LoadLe32(data + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    data += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = t[0][(crc ^ *data++) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

}  // namespace internal

const KernelSet& Scalar() { return TheRegistry().scalar; }

const std::vector<const KernelSet*>& Available() {
  return TheRegistry().available;
}

const KernelSet* FindByName(std::string_view name) {
  for (const KernelSet* k : TheRegistry().available) {
    if (name == k->name) return k;
  }
  return nullptr;
}

const KernelSet& Active() {
  // Resolved exactly once, first use; the magic static makes concurrent
  // first calls race-free (tests/kernels_test.cc covers this under TSan).
  static const KernelSet& active =
      ResolveOrWarn(std::getenv("ULE_KERNELS"), /*warn=*/true);
  return active;
}

const KernelSet& Resolve(std::string_view setting) {
  return ResolveOrWarn(std::string(setting).c_str(), /*warn=*/false);
}

std::string Describe() {
  const KernelSet& a = Active();
  std::string out = a.name;
  out += " (crc32=";
  out += a.crc32_name;
  out += ", gf256=";
  out += a.gf256_name;
  out += ", lens=";
  out += a.lens_name;
  out += "); available:";
  for (const KernelSet* k : Available()) {
    out += ' ';
    out += k->name;
  }
  return out;
}

}  // namespace kernels
}  // namespace ule
