// Differential tests for the nested-emulation fast paths. The archived
// cold interpreter (boot-from-ports, fetch/decode every guest
// instruction) is the semantic reference; the DynaRISC->VeRISC
// translation and the fused dispatch core underneath it are engine
// accelerations that must be byte-identical on every program — including
// self-modifying ones (which bail to the cold interpreter), jumps into
// immediate words, illegal opcodes, pauses that land mid-slice, and
// step-limit faults.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <string>

#include "dbcoder/dbcoder.h"
#include "decoders/dbdecode.h"
#include "decoders/modecode.h"
#include "dynarisc/assembler.h"
#include "dynarisc/isa.h"
#include "dynarisc/machine.h"
#include "olonys/dynarisc_in_verisc.h"
#include "mocoder/emblem.h"
#include "olonys/translation_cache.h"
#include "support/crc32.h"
#include "support/random.h"
#include "verisc/implementations.h"

namespace ule {
namespace olonys {
namespace {

dynarisc::Program Asm(const std::string& src) {
  auto r = dynarisc::Assemble(src);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? r.TakeValue() : dynarisc::Program{};
}

// Hand-encoded programs for cases the assembler cannot express (jumps
// into immediate words, instruction words built to be overwritten).
uint16_t Enc(uint8_t op, uint8_t rd, uint8_t rs, uint8_t mode) {
  return static_cast<uint16_t>((op << 11) | (rd << 8) | (rs << 5) | mode);
}

dynarisc::Program FromWords(std::initializer_list<uint16_t> words,
                            uint16_t entry = 0) {
  dynarisc::Program p;
  p.entry = entry;
  for (uint16_t w : words) {
    p.image.push_back(static_cast<uint8_t>(w & 0xFF));
    p.image.push_back(static_cast<uint8_t>(w >> 8));
  }
  return p;
}

// Runs one program through the cold archival path and through the
// translated path twice (cache miss, then cache hit), requiring
// byte-identical output everywhere, the expected cache behaviour, and
// that the translated runs bail exactly when `bails`. Returns the agreed
// output.
Bytes ExpectPathsAgree(const dynarisc::Program& p, BytesView input,
                       bool bails = false) {
  TranslationCache::Global().Clear();
  auto cold = RunNested(p, input, {}, &verisc::Run, NestedMode::kCold);
  EXPECT_TRUE(cold.ok()) << cold.status().ToString();
  if (!cold.ok()) return {};

  NestedRunStats miss, hit;
  auto xlat1 =
      RunNested(p, input, {}, &verisc::Run, NestedMode::kTranslated, &miss);
  EXPECT_TRUE(xlat1.ok()) << xlat1.status().ToString();
  auto xlat2 =
      RunNested(p, input, {}, &verisc::Run, NestedMode::kTranslated, &hit);
  EXPECT_TRUE(xlat2.ok()) << xlat2.status().ToString();
  if (!xlat1.ok() || !xlat2.ok()) return {};

  EXPECT_TRUE(miss.translated);
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_TRUE(hit.translated);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(miss.bailed, bails);
  EXPECT_EQ(hit.bailed, bails);
  EXPECT_EQ(xlat1.value(), cold.value());
  EXPECT_EQ(xlat2.value(), cold.value());
  return cold.TakeValue();
}

// Same, also pinned against the native DynaRisc emulator.
void ExpectPathsMatchNative(const dynarisc::Program& p, BytesView input,
                            bool bails = false) {
  auto native = dynarisc::RunProgram(p, input);
  ASSERT_TRUE(native.ok()) << native.status().ToString();
  EXPECT_EQ(ExpectPathsAgree(p, input, bails), native.value());
}

// Restores the default engine slice size even when a test fails.
struct SliceOverride {
  explicit SliceOverride(uint64_t steps) { SetNestedSliceStepsForTest(steps); }
  ~SliceOverride() { SetNestedSliceStepsForTest(0); }
};

// The guest overwrites an upcoming instruction word with SYS #2 via
// STM.W and then falls through into it: the store hits translated code,
// so the translated run must bail to the cold interpreter, or it would
// still run the stale LDI and emit a byte the other paths never produce.
TEST(NestedDiffTest, SelfModifyingStoreInvalidatesTranslation) {
  using namespace dynarisc;
  const uint16_t halt_word = Enc(kSys, 0, 0, kSysHalt);
  auto patched = FromWords({
      Enc(kLdi, 0, 0, 0), halt_word,     // R0 = encoded SYS #2 (bytes 0-3)
      Enc(kLdi, 1, 0, 0), 12,            // R1 = target address  (bytes 4-7)
      Enc(kMove, 0, 1, kMoveDstD),       // D0 = R1              (bytes 8-9)
      Enc(kStm, 0, 0, kModeWord),        // mem[12..13] = R0     (bytes 10-11)
      Enc(kLdi, 0, 0, 0), 0x41,          // target: overwritten  (bytes 12-15)
      Enc(kSys, 0, 0, kSysWriteByte),    // never reached once patched
      Enc(kSys, 0, 0, kSysHalt),
  });
  ExpectPathsMatchNative(patched, {}, /*bails=*/true);
  EXPECT_TRUE(ExpectPathsAgree(patched, {}, /*bails=*/true).empty());

  // Control: the identical program with the store turned into a no-op
  // ALU instruction reaches the LDI and emits 0x41 — proving the
  // self-modifying variant actually exercised the patch.
  auto control = patched;
  const uint16_t nop = Enc(kAdd, 2, 2, 0);
  control.image[10] = static_cast<uint8_t>(nop & 0xFF);
  control.image[11] = static_cast<uint8_t>(nop >> 8);
  ExpectPathsMatchNative(control, {});
  EXPECT_EQ(ExpectPathsAgree(control, {}), Bytes({0x41}));
}

// DynaRisc allows jumping into the middle of an instruction: the
// immediate word of the LDI doubles as a SYS #2 when entered at its own
// address. Block discovery starts a separate block at the jump target
// (a different decode of the same bytes), so all paths must halt without
// output.
TEST(NestedDiffTest, JumpIntoImmediateWord) {
  using namespace dynarisc;
  auto p = FromWords({
      Enc(kJump, 0, 0, 0), 6,                      // jump to byte 6
      Enc(kLdi, 1, 0, 0), Enc(kSys, 0, 0, kSysHalt),  // imm bytes 6-7
      Enc(kLdi, 0, 0, 0), 0x05,                    // unreachable
      Enc(kSys, 0, 0, kSysWriteByte),
      Enc(kSys, 0, 0, kSysHalt),
  });
  ExpectPathsMatchNative(p, {});
  EXPECT_TRUE(ExpectPathsAgree(p, {}).empty());
}

// The archived interpreter defines illegal opcodes as halt; the
// translated path must agree (the native emulator faults instead, so it is not
// compared here).
TEST(NestedDiffTest, IllegalOpcodeHaltsOnEveryPath) {
  dynarisc::Program p;
  p.image = {0xFF, 0xFF};
  p.entry = 0;
  EXPECT_TRUE(ExpectPathsAgree(p, {}).empty());
}

// Pauses that land mid-slice (and, with an odd slice size, between the
// constituents of fused pairs) must not be observable in the output.
TEST(NestedDiffTest, MidSlicePausesAreInvisible) {
  SliceOverride slice(777);
  ExpectPathsMatchNative(
      Asm("loop: SYS #0\nJC done\nSYS #1\nJUMP loop\ndone: SYS #2"),
      Bytes{9, 8, 7, 0, 255, 1});
  ExpectPathsMatchNative(Asm(R"(
      LDI R5,#0x8000
      MOVE D3,R5
      LDI R0,#11
      CALL fib
      MOVE R0,R1
      SYS #1
      SYS #2
fib:  LDI R1,#1
      LDI R2,#1
      CMP R0,R2
      JC ret
      JZ ret
      MOVE R4,R0
      SUB R0,R2
      CALL fib
      MOVE R3,R1
      MOVE R0,R4
      LDI R2,#2
      SUB R0,R2
      CALL fib
      ADD R1,R3
ret:  RET
)"),
                         {});
}

// A guest that never halts must exhaust the step budget with the same
// status code on the cold and translated paths (the translated path
// retires fewer VeRisc instructions, but the failure mode is identical).
TEST(NestedDiffTest, StepLimitFaultsIdentically) {
  auto p = Asm("loop: JUMP loop");
  verisc::RunOptions opts;
  opts.max_steps = 300'000'000;  // past cold boot, nowhere near a halt
  auto cold = RunNested(p, {}, opts, &verisc::Run, NestedMode::kCold);
  auto xlat = RunNested(p, {}, opts, &verisc::Run, NestedMode::kTranslated);
  ASSERT_FALSE(cold.ok());
  ASSERT_FALSE(xlat.ok());
  EXPECT_EQ(cold.status().code(), xlat.status().code());
}

// The translated path is an engine acceleration of the reference VeRisc
// machine only; demanding it on a portability implementation is an error.
TEST(NestedDiffTest, TranslatedModeRequiresReferenceEngine) {
  auto p = Asm("SYS #2");
  for (const auto& impl : verisc::AllImplementations()) {
    if (impl.run == &verisc::Run) continue;
    auto r = RunNested(p, {}, {}, impl.run, NestedMode::kTranslated);
    EXPECT_FALSE(r.ok()) << impl.name;
  }
}

// Shared-cache bookkeeping: misses insert, hits splice, capacity evicts,
// and eviction never affects correctness.
TEST(NestedDiffTest, TranslationCacheStatsAndEviction) {
  auto& cache = TranslationCache::Global();
  cache.Clear();
  auto a = Asm("LDI R0,#1\nSYS #1\nSYS #2");
  auto b = Asm("LDI R0,#2\nSYS #1\nSYS #2");

  NestedRunStats s;
  ASSERT_TRUE(RunNested(a, {}, {}, &verisc::Run, NestedMode::kTranslated, &s)
                  .ok());
  EXPECT_FALSE(s.cache_hit);
  ASSERT_TRUE(RunNested(a, {}, {}, &verisc::Run, NestedMode::kTranslated, &s)
                  .ok());
  EXPECT_TRUE(s.cache_hit);
  auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);

  // Capacity 1: alternating programs evict each other every run.
  cache.set_capacity(1);
  for (int round = 0; round < 3; ++round) {
    auto ra = RunNested(a, {}, {}, &verisc::Run, NestedMode::kTranslated, &s);
    ASSERT_TRUE(ra.ok());
    EXPECT_EQ(ra.value(), Bytes({1}));
    auto rb = RunNested(b, {}, {}, &verisc::Run, NestedMode::kTranslated, &s);
    ASSERT_TRUE(rb.ok());
    EXPECT_EQ(rb.value(), Bytes({2}));
  }
  stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GE(stats.evictions, 5u);
  cache.set_capacity(8);
  cache.Clear();
}

// Randomized straight-line programs over the ALU, shifts, moves and
// pointer memory ops, checked against the native emulator on all paths.
// Pointers are confined to a scratch window far above the code so the
// deterministic self-modification test above stays the only writer of
// instruction bytes.
class NestedDiffFuzz : public ::testing::TestWithParam<int> {};

TEST_P(NestedDiffFuzz, RandomProgramsAgreeOnEveryPath) {
  Rng rng(0xD1FF0000u + static_cast<uint32_t>(GetParam()));
  std::string src;
  src += "LDI R5,#0x8000\nMOVE D3,R5\n";
  src += "LDI R6,#0x4000\nMOVE D0,R6\n";  // scratch pointer
  const int n = 12 + static_cast<int>(rng.Below(28));
  for (int i = 0; i < n; ++i) {
    const char* kAlu[] = {"ADD", "ADC", "SUB", "SBB", "CMP",
                          "MUL", "AND", "OR",  "XOR"};
    const char* kShift[] = {"LSL", "LSR", "ASR", "ROR"};
    char buf[64];
    const int rd = static_cast<int>(rng.Below(5));
    const int rs = static_cast<int>(rng.Below(5));
    switch (rng.Below(6)) {
      case 0:
        std::snprintf(buf, sizeof buf, "LDI R%d,#%u\n", rd,
                      static_cast<unsigned>(rng.Below(0x10000)));
        break;
      case 1:
        std::snprintf(buf, sizeof buf, "%s R%d,R%d\n",
                      kAlu[rng.Below(9)], rd, rs);
        break;
      case 2:
        std::snprintf(buf, sizeof buf, "%s R%d,#%u\n",
                      kShift[rng.Below(4)], rd,
                      static_cast<unsigned>(rng.Below(16)));
        break;
      case 3:
        std::snprintf(buf, sizeof buf, "MOVE R%d,R%d\n", rd, rs);
        break;
      case 4:
        std::snprintf(buf, sizeof buf, "STM.%c R%d,[D0+]\n",
                      rng.Below(2) ? 'W' : 'B', rd);
        break;
      default:
        std::snprintf(buf, sizeof buf, "LDM.%c R%d,[D0]\n",
                      rng.Below(2) ? 'W' : 'B', rd);
        break;
    }
    src += buf;
  }
  // Dump the registers so every computed bit reaches the output.
  for (int r = 0; r < 5; ++r) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "MOVE R0,R%d\nSYS #1\n", r);
    src += buf;
  }
  src += "SYS #2\n";

  Bytes input;
  const size_t input_len = 4 + rng.Below(12);
  for (size_t i = 0; i < input_len; ++i) {
    input.push_back(static_cast<uint8_t>(rng.Below(256)));
  }
  ExpectPathsMatchNative(Asm(src), input);
}

INSTANTIATE_TEST_SUITE_P(Sweep, NestedDiffFuzz, ::testing::Range(0, 10));

// Random programs with control flow, for the translator's block
// discovery, chaining and flag liveness: bounded loops, a JZ/JC after
// flag-setting ops (shifts by 0 included, which leave C unchanged), nested
// CALL/RET, MUL read back through HI, D-register round trips, and SYS #0
// running past the end of the input. Every path must match the native
// emulator, and the translated runs must never bail.
class ProgramGen {
 public:
  explicit ProgramGen(uint32_t seed) : rng_(seed) {}

  std::string Build() {
    Line("LDI R5,#0x8000");
    Line("MOVE D3,R5");
    Line("LDI R6,#0x4000");
    Line("MOVE D0,R6");
    const int subs = 1 + static_cast<int>(rng_.Below(3));
    Body(10 + static_cast<int>(rng_.Below(20)), subs, 0, true);
    // Observe every register, HI and both flags.
    Line("JZ zset");
    Line("LDI R7,#0x21");
    Line("JUMP zdone");
    Line("zset: LDI R7,#0x12");
    Line("zdone: JC cset");
    Line("LDI R6,#0x34");
    Line("JUMP cdone");
    Line("cset: LDI R6,#0x43");
    Line("cdone: MOVE R0,R7");
    Line("SYS #1");
    Line("MOVE R0,R6");
    Line("SYS #1");
    for (int r = 1; r < 5; ++r) {
      Line("MOVE R0,R" + std::to_string(r));
      Line("SYS #1");
      Line("LSR R0,#8");
      Line("SYS #1");
    }
    Line("MOVE R0,HI");
    Line("SYS #1");
    Line("MOVE R0,D0");
    Line("SYS #1");
    Line("SYS #2");
    // Subroutine k may call any higher-numbered one: nesting, no recursion.
    for (int k = 0; k < subs; ++k) {
      Line("sub" + std::to_string(k) + ":");
      Body(3 + static_cast<int>(rng_.Below(8)), subs, k + 1, false);
      Line("RET");
    }
    return src_;
  }

 private:
  void Line(const std::string& line) {
    src_ += line;
    src_ += '\n';
  }
  std::string Reg() { return "R" + std::to_string(rng_.Below(5)); }
  std::string NewLabel() { return "L" + std::to_string(labels_++); }

  // `n` items over R0..R4; loops count in R5 (saved around nesting).
  void Body(int n, int subs, int first_sub, bool loops) {
    for (int i = 0; i < n; ++i) {
      const uint64_t kind = rng_.Below(10);
      if (kind == 0 && first_sub < subs) {
        Line("CALL sub" + std::to_string(first_sub +
                                         rng_.Below(subs - first_sub)));
      } else if (kind == 1 && loops) {
        const std::string top = NewLabel();
        Line("LDI R5,#" + std::to_string(1 + rng_.Below(4)));
        Line(top + ":");
        Body(2 + static_cast<int>(rng_.Below(5)), subs, first_sub, false);
        Line("LDI R6,#1");
        Line("SUB R5,R6");
        Line("JNZ " + top);
      } else {
        Op();
      }
    }
  }

  // One flag-setting op, sometimes followed by a conditional skip.
  void Op() {
    static const char* kAlu[] = {"ADD", "ADC", "SUB", "SBB", "CMP",
                                 "MUL", "AND", "OR",  "XOR"};
    static const char* kShift[] = {"LSL", "LSR", "ASR", "ROR"};
    static const uint32_t kImm[] = {0, 1, 0x7FFF, 0x8000, 0xFFFF, 255, 256};
    switch (rng_.Below(11)) {
      case 9: {
        // A constant operand: the translator folds it into the ALU op.
        const std::string k = Reg();
        const uint64_t v =
            rng_.Below(2) ? kImm[rng_.Below(7)] : rng_.Below(0x10000);
        Line("LDI " + k + ",#" + std::to_string(v));
        Line(std::string(kAlu[rng_.Below(9)]) + " " + Reg() + "," + k);
        break;
      }
      case 10:
        // A pointer known at translation time: fixed-address access.
        Line("LDI R6,#" + std::to_string(0x4100 + rng_.Below(64)));
        Line("MOVE D2,R6");
        Line(std::string(rng_.Below(2) ? "STM" : "LDM") +
             (rng_.Below(2) ? ".W " : ".B ") + Reg() +
             (rng_.Below(2) ? ",[D2+]" : ",[D2]"));
        break;
      case 0: {
        const uint64_t v =
            rng_.Below(2) ? kImm[rng_.Below(7)] : rng_.Below(0x10000);
        Line("LDI " + Reg() + ",#" + std::to_string(v));
        break;
      }
      case 1:
      case 2:
        Line(std::string(kAlu[rng_.Below(9)]) + " " + Reg() + "," + Reg());
        break;
      case 3:
        Line(std::string(kShift[rng_.Below(4)]) + " " + Reg() + ",#" +
             std::to_string(rng_.Below(3) == 0 ? 0 : rng_.Below(16)));
        break;
      case 4:
        Line(std::string(kShift[rng_.Below(4)]) + " " + Reg() + "," + Reg());
        break;
      case 5:
        Line("MUL " + Reg() + "," + Reg());
        Line("MOVE " + Reg() + ",HI");
        break;
      case 6:
        Line(std::string(rng_.Below(2) ? "STM" : "LDM") +
             (rng_.Below(2) ? ".W " : ".B ") + Reg() +
             (rng_.Below(2) ? ",[D0+]" : ",[D0]"));
        break;
      case 7:
        Line("SYS #0");
        break;
      default:
        Line("MOVE D1," + Reg());
        Line("MOVE " + Reg() + ",D1");
        break;
    }
    if (rng_.Below(2)) {
      const std::string skip = NewLabel();
      Line(std::string(rng_.Below(2) ? "JZ " : "JC ") + skip);
      Line(std::string(kAlu[rng_.Below(9)]) + " " + Reg() + "," + Reg());
      Line(skip + ":");
    }
  }

  Rng rng_;
  std::string src_;
  int labels_ = 0;
};

class ControlFlowFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ControlFlowFuzz, RandomProgramsAgreeOnEveryPath) {
  const uint32_t seed = 0xC0F10000u + static_cast<uint32_t>(GetParam());
  const std::string src = ProgramGen(seed).Build();
  Rng rng(seed);
  Bytes input;
  const size_t input_len = rng.Below(6);  // SYS #0 often hits the end
  for (size_t i = 0; i < input_len; ++i) {
    input.push_back(static_cast<uint8_t>(rng.Below(256)));
  }
  SCOPED_TRACE(src);
  ExpectPathsMatchNative(Asm(src), input);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ControlFlowFuzz, ::testing::Range(0, 40));

// Every MUL operand class: both bytes (one product-table read), one or
// both operands >= 256 (the four-product routine), zero, and the
// extremes; HI and C are observed after each.
TEST(NestedDiffTest, MulOperandClasses) {
  static const uint32_t kValues[] = {0, 1, 2, 255, 256, 257, 0x1234,
                                     0x7FFF, 0x8000, 0xFF00, 0xFFFF};
  std::string src;
  for (uint32_t a : kValues) {
    for (uint32_t b : kValues) {
      src += "LDI R1,#" + std::to_string(a) + "\nLDI R2,#" +
             std::to_string(b) + "\nMUL R1,R2\nMOVE R3,HI\n";
      src += "LDI R0,#0\nJC c" + std::to_string(a) + "_" + std::to_string(b) +
             "\nLDI R0,#1\nc" + std::to_string(a) + "_" + std::to_string(b) +
             ":\nSYS #1\nMOVE R0,R1\nSYS #1\nLSR R0,#8\nSYS #1\n"
             "MOVE R0,R3\nSYS #1\nLSR R0,#8\nSYS #1\n";
    }
  }
  src += "SYS #2\n";
  ExpectPathsMatchNative(Asm(src), {});
}

// Every ALU op with an operand known at translation time (an LDI in the
// same block), entered with the VeRisc borrow known clear, known set and
// unknown: the translator folds constants differently in each state.
TEST(NestedDiffTest, ConstantOperandsUnderEveryBorrowState) {
  static const char* kAlu[] = {"ADD", "ADC", "SUB", "SBB", "CMP",
                               "MUL", "AND", "OR",  "XOR"};
  static const char* kPrefix[] = {
      "OR R4,R4",   // leaves the borrow clear
      "LSR R4,#1",  // table lookup: leaves it set
      "CMP R4,R3",  // leaves it unknown
  };
  static const uint32_t kConst[] = {0, 1, 0x00FF, 0x8000, 0xFFFF};
  std::string src = "LDI R3,#0x1234\nLDI R4,#0x0F0F\n";
  int label = 0;
  for (const char* op : kAlu) {
    for (const char* prefix : kPrefix) {
      for (uint32_t c : kConst) {
        for (uint32_t v : {0u, 1u, 0xFFFFu, 0x7FF0u}) {
          const std::string l = "k" + std::to_string(label++);
          src += "LDI R1,#" + std::to_string(v) + "\n" + prefix +
                 "\nLDI R2,#" + std::to_string(c) + "\n" + op +
                 " R1,R2\nMOVE R0,R1\nSYS #1\nLSR R0,#8\nSYS #1\n"
                 "LDI R0,#0\nJC " + l + "\nLDI R0,#1\n" + l +
                 ":\nSYS #1\n";
        }
      }
    }
  }
  src += "SYS #2\n";
  ExpectPathsMatchNative(Asm(src), {});
}

// SUB/SBB/CMP followed directly by JZ or JC, entered with C clear and
// set, on operands known in the block and loaded in an earlier one. The
// edge pairs include SBB 0 - 0xFFFF - 1, whose 16-bit result is zero
// although the subtraction borrows, so Z and C are both set.
TEST(NestedDiffTest, SubtractThenBranchOnEveryEdge) {
  static const char* kOps[] = {"SUB", "SBB", "CMP"};
  static const char* kBranches[] = {"JZ", "JC"};
  static const uint32_t kPairs[][2] = {
      {0, 0xFFFF}, {0, 0},      {5, 5},      {0xFFFF, 0xFFFF},
      {0, 1},      {1, 0},      {0xFFFF, 0}, {0x8000, 0x7FFF}};
  std::string src = "LDI R5,#0\nLDI R6,#1\n";
  int label = 0;
  for (const char* op : kOps) {
    for (const char* branch : kBranches) {
      for (const char* set_c : {"CMP R6,R5", "CMP R5,R6"}) {  // C = 0, 1
        for (const auto& pair : kPairs) {
          for (bool split : {false, true}) {
            const std::string n = std::to_string(label++);
            src += "LDI R1,#" + std::to_string(pair[0]) + "\nLDI R2,#" +
                   std::to_string(pair[1]) + "\n";
            if (split) src += "JUMP s" + n + "\ns" + n + ":\n";
            src += std::string(set_c) + "\n" + op + " R1,R2\n" + branch +
                   " t" + n + "\nLDI R0,#0x30\nJUMP o" + n + "\nt" + n +
                   ":\nLDI R0,#0x31\no" + n +
                   ":\nSYS #1\nMOVE R0,R1\nSYS #1\nLSR R0,#8\nSYS #1\n";
          }
        }
      }
    }
  }
  src += "SYS #2\n";
  ExpectPathsMatchNative(Asm(src), {});
}

// ---- bail cases: each must give the archival bytes via the cold path ----

// STM.B into the immediate word of a later LDI.
TEST(NestedDiffTest, StoreIntoImmediateWordBails) {
  using namespace dynarisc;
  auto p = FromWords({
      Enc(kLdi, 1, 0, 0), 18,           // R1 = address of the LDI immediate
      Enc(kMove, 0, 1, kMoveDstD),      // D0 = R1
      Enc(kLdi, 0, 0, 0), 0x77,         // R0 = new immediate low byte
      Enc(kStm, 0, 0, 0),               // mem[18] = 0x77            (byte 10)
      Enc(kJump, 0, 0, 0), 16,          // jump over nothing          (12-15)
      Enc(kLdi, 2, 0, 0), 0x41,         // imm at bytes 18-19         (16-19)
      Enc(kMove, 0, 2, 0),
      Enc(kSys, 0, 0, kSysWriteByte),
      Enc(kSys, 0, 0, kSysHalt),
  });
  ExpectPathsMatchNative(p, {}, /*bails=*/true);
  EXPECT_EQ(ExpectPathsAgree(p, {}, /*bails=*/true), Bytes({0x77}));
}

// CALL with D3 pointing just past the call: the push overwrites the
// CALL's own immediate word, which is translated code.
TEST(NestedDiffTest, CallPushOverwritingCodeBails) {
  using namespace dynarisc;
  auto p = FromWords({
      Enc(kLdi, 1, 0, 0), 10,           // R1 = 10                     (0-3)
      Enc(kMove, 3, 1, kMoveDstD),      // D3 = 10                     (4-5)
      Enc(kCall, 0, 0, 0), 12,          // pushes 10 into bytes 8-9    (6-9)
      Enc(kSys, 0, 0, kSysHalt),        // return site                 (10-11)
      Enc(kLdi, 0, 0, 0), 0x5A,         // sub                         (12-15)
      Enc(kSys, 0, 0, kSysWriteByte),
      Enc(kRet, 0, 0, 0),
  });
  ExpectPathsMatchNative(p, {}, /*bails=*/true);
  EXPECT_EQ(ExpectPathsAgree(p, {}, /*bails=*/true), Bytes({0x5A}));
}

// A store through a pointer only known at run time (set in another
// block) into the immediate of a later LDI: the code map catches it.
TEST(NestedDiffTest, DynamicStoreIntoCodeBails) {
  auto p = Asm(R"(
      LDI R1,#target
      LDI R2,#2
      ADD R1,R2
      MOVE D1,R1
      JUMP store
store:
      LDI R0,#0x66
      STM.B R0,[D1]
target:
      LDI R0,#0x11
      SYS #1
      SYS #2
)");
  ExpectPathsMatchNative(p, {}, /*bails=*/true);
  EXPECT_EQ(ExpectPathsAgree(p, {}, /*bails=*/true), Bytes({0x66}));
}

// RET to an address no CALL returns to: block discovery never reached it.
TEST(NestedDiffTest, RetToNonReturnSiteBails) {
  auto p = Asm(R"(
      LDI R1,#0x8000
      MOVE D3,R1
      LDI R1,#hidden
      STM.W R1,[D3]
      RET
hidden:
      LDI R0,#0x41
      SYS #1
      SYS #2
)");
  ExpectPathsMatchNative(p, {}, /*bails=*/true);
  EXPECT_EQ(ExpectPathsAgree(p, {}, /*bails=*/true), Bytes({0x41}));
}

// A program whose translation cannot fit the 64 Ki-word program area
// runs on the cold interpreter from the start.
TEST(NestedDiffTest, ImageTooLargeToTranslateRunsCold) {
  using namespace dynarisc;
  dynarisc::Program p;
  auto word = [&p](uint16_t w) {
    p.image.push_back(static_cast<uint8_t>(w & 0xFF));
    p.image.push_back(static_cast<uint8_t>(w >> 8));
  };
  word(Enc(kLdi, 1, 0, 0));
  word(0x1234);
  word(Enc(kLdi, 2, 0, 0));
  word(0x00F1);
  for (int i = 0; i < 20000; ++i) word(Enc(kXor, 1, 2, 0));
  word(Enc(kMove, 0, 1, 0));
  word(Enc(kSys, 0, 0, kSysWriteByte));
  word(Enc(kSys, 0, 0, kSysHalt));
  ExpectPathsMatchNative(p, {}, /*bails=*/true);
}

// The archived DBDecode never bails, on every scheme it decodes.
TEST(NestedDiffTest, ArchivedDbDecodeNeverBails) {
  Rng rng(77);
  std::string text;
  while (text.size() < 6000) {
    text += "INSERT INTO lineitem VALUES (" + std::to_string(rng.Below(99999)) +
            ", 'archival row');\n";
  }
  const Bytes raw(text.begin(), text.end());
  for (auto scheme : {dbcoder::Scheme::kStore, dbcoder::Scheme::kLzss,
                      dbcoder::Scheme::kLzac}) {
    auto container = dbcoder::Encode(raw, scheme);
    ASSERT_TRUE(container.ok());
    NestedRunStats stats;
    auto out = RunNested(decoders::DbDecodeProgram(), container.value(), {},
                         &verisc::Run, NestedMode::kTranslated, &stats);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out.value(), raw) << dbcoder::SchemeName(scheme);
    EXPECT_FALSE(stats.bailed) << dbcoder::SchemeName(scheme);
  }
}

// The damaged-emblem MODecode conformance cases, through the translated
// path: these are the only inputs that drive MODecode's Berlekamp-Massey,
// Chien and Forney code (no benchmark workload corrects an RS error).
struct EmblemCase {
  int n;
  int flipped_cells;
};

class TranslatedModecode : public ::testing::TestWithParam<EmblemCase> {};

TEST_P(TranslatedModecode, MatchesNativeAndCold) {
  const auto [n, flipped] = GetParam();
  Rng rng(static_cast<uint64_t>(n) * 31 + static_cast<uint64_t>(flipped));
  const int cap = mocoder::EmblemCapacity(n);
  ASSERT_GT(cap, 0);
  Bytes payload = RandomBytes(&rng, static_cast<size_t>(cap));
  mocoder::EmblemHeader h;
  h.stream = mocoder::StreamId::kData;
  h.seq = 5;
  h.total = 9;
  h.stream_len = static_cast<uint32_t>(cap);
  h.payload_crc = Crc32(payload);
  auto grid = mocoder::BuildEmblem(h, payload, n);
  ASSERT_TRUE(grid.ok());
  Bytes cells(static_cast<size_t>(n) * n);
  for (int y = 0; y < n; ++y) {
    for (int x = 0; x < n; ++x) {
      cells[static_cast<size_t>(y) * n + x] =
          grid.value().at(mocoder::kFrameCells + x, mocoder::kFrameCells + y)
              ? 12
              : 240;
    }
  }
  for (int i = 0; i < flipped; ++i) cells[rng.Below(cells.size())] = 128;
  const Bytes input = decoders::PackModecodeInput(cells, n);

  auto native = dynarisc::RunProgram(decoders::ModecodeProgram(), input);
  ASSERT_TRUE(native.ok());
  verisc::RunOptions opts;
  opts.max_steps = 20'000'000'000ull;
  NestedRunStats stats;
  auto xlat = RunNested(decoders::ModecodeProgram(), input, opts,
                        &verisc::Run, NestedMode::kTranslated, &stats);
  ASSERT_TRUE(xlat.ok()) << xlat.status().ToString();
  EXPECT_FALSE(stats.bailed);
  EXPECT_EQ(xlat.value(), native.value());
  auto cold = RunNested(decoders::ModecodeProgram(), input, opts,
                        &verisc::Run, NestedMode::kCold);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold.value(), native.value());
  const Bytes got(xlat.value().begin() + mocoder::kHeaderSize,
                  xlat.value().begin() + mocoder::kHeaderSize + cap);
  EXPECT_EQ(got, payload);
}

INSTANTIATE_TEST_SUITE_P(
    Emblems, TranslatedModecode,
    ::testing::Values(EmblemCase{65, 0}, EmblemCase{65, 8},
                      EmblemCase{80, 0}, EmblemCase{80, 20},
                      EmblemCase{128, 0}, EmblemCase{128, 40},
                      EmblemCase{128, 60}),
    [](const ::testing::TestParamInfo<EmblemCase>& info) {
      return "n" + std::to_string(info.param.n) + "_flipped" +
             std::to_string(info.param.flipped_cells);
    });

}  // namespace
}  // namespace olonys
}  // namespace ule
