#include "olonys/translation_cache.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <functional>
#include <optional>
#include <utility>

#include "dynarisc/isa.h"
#include "verisc/builder.h"

namespace ule {
namespace olonys {
namespace {

using verisc::Builder;
using Cell = Builder::Cell;
using Label = Builder::Label;

constexpr uint32_t kSpace = dynarisc::kMemorySize;
/// `& kPtrMask` wraps a biased guest pointer after adding 1, 2 or 0xFFFE:
/// the carry out of the 16-bit address lands in bit 16, which the base
/// leaves clear.
constexpr uint32_t kPtrMask = kXGuestBase | 0xFFFF;
static_assert((kXGuestBase & 0x1FFFF) == 0, "guest base needs bit 16 clear");

/// Liveness bits for the flag-like state the translation materialises
/// only on demand.
constexpr uint8_t kLiveZ = 1;
constexpr uint8_t kLiveC = 2;
constexpr uint8_t kLiveHi = 4;

/// How an instruction passes control on.
enum class Flow { kFall, kJump, kCond, kCall, kRet, kHalt };

struct Insn {
  uint16_t addr = 0;
  uint16_t next = 0;  // address after the instruction (wraps)
  uint16_t imm = 0;
  uint8_t op = 0, rd = 0, rs = 0, mode = 0;
};

Insn Decode(const std::vector<uint8_t>& mem, uint16_t a) {
  auto byte = [&mem](uint32_t x) -> uint32_t { return mem[x & 0xFFFF]; };
  const uint16_t w = static_cast<uint16_t>(byte(a) | (byte(a + 1u) << 8));
  Insn i;
  i.addr = a;
  i.op = dynarisc::DecodeOp(w);
  i.rd = dynarisc::DecodeRd(w);
  i.rs = dynarisc::DecodeRs(w);
  i.mode = dynarisc::DecodeMode(w);
  const bool has_imm = dynarisc::HasImmediate(i.op);
  if (has_imm) {
    i.imm = static_cast<uint16_t>(byte(a + 2u) | (byte(a + 3u) << 8));
  }
  i.next = static_cast<uint16_t>(a + (has_imm ? 4 : 2));
  return i;
}

Flow FlowOf(const Insn& i) {
  switch (i.op) {
    case dynarisc::kJump:
      return Flow::kJump;
    case dynarisc::kJz:
    case dynarisc::kJc:
      return Flow::kCond;
    case dynarisc::kCall:
      return Flow::kCall;
    case dynarisc::kRet:
      return Flow::kRet;
    case dynarisc::kSys:
      // The archived interpreter halts on port 2 and on unknown ports.
      return i.mode <= dynarisc::kSysWriteByte ? Flow::kFall : Flow::kHalt;
    default:
      // Illegal opcodes halt, as in the archived interpreter.
      return i.op < dynarisc::kOpcodeCount ? Flow::kFall : Flow::kHalt;
  }
}

/// Immediate shift amount, or -1 for a register amount.
int ShiftAmount(const Insn& i) {
  if ((i.mode & dynarisc::kShiftImm) == 0) return -1;
  return i.rs | ((i.mode & dynarisc::kShiftImm8) ? 8 : 0);
}

bool IsShift(uint8_t op) {
  return op >= dynarisc::kLsl && op <= dynarisc::kRor;
}

/// Flag state an instruction reads (`use`) and definitely overwrites
/// (`def`). A register-amount shift may leave C alone, so it does not
/// define C.
void FlagEffects(const Insn& i, uint8_t* use, uint8_t* def) {
  *use = 0;
  *def = 0;
  switch (i.op) {
    case dynarisc::kAdc:
    case dynarisc::kSbb:
      *use = kLiveC;
      *def = kLiveZ | kLiveC;
      break;
    case dynarisc::kAdd:
    case dynarisc::kSub:
    case dynarisc::kCmp:
      *def = kLiveZ | kLiveC;
      break;
    case dynarisc::kMul:
      *def = kLiveZ | kLiveC | kLiveHi;
      break;
    case dynarisc::kAnd:
    case dynarisc::kOr:
    case dynarisc::kXor:
    case dynarisc::kLdi:
    case dynarisc::kLdm:
      *def = kLiveZ;
      break;
    case dynarisc::kMove:
      if (i.mode & dynarisc::kMoveSrcHi) *use = kLiveHi;
      *def = kLiveZ;
      break;
    case dynarisc::kJz:
      *use = kLiveZ;
      break;
    case dynarisc::kJc:
      *use = kLiveC;
      break;
    case dynarisc::kSys:
      if (i.mode == dynarisc::kSysReadByte) *def = kLiveC;
      break;
    default:
      if (IsShift(i.op)) *def = ShiftAmount(i) > 0 ? kLiveZ | kLiveC : kLiveZ;
      break;
  }
}

struct Block {
  uint16_t start = 0;
  std::vector<Insn> insns;
  Flow flow = Flow::kFall;  // of the last instruction
  int taken = -1;           // JUMP/JZ/JC/CALL target block
  int next = -1;            // fallthrough (kFall, kCond) or return site (kCall)
  uint8_t live_in = 0;
  uint8_t live_out = 0;
};

/// The guest's static control-flow graph.
struct Cfg {
  std::vector<Block> blocks;
  std::vector<int32_t> block_at;   // guest address -> block index or -1
  std::vector<uint8_t> code_byte;  // covered by a discovered instruction
  std::vector<int> ret_sites;      // blocks that start at a return site
  int entry = -1;
};

/// Static traversal from the entry point.
void Discover(const std::vector<uint8_t>& mem, uint16_t entry, Cfg* cfg) {
  std::vector<uint8_t> is_insn(kSpace, 0), leader(kSpace, 0),
      fall_in(kSpace, 0), ret_site(kSpace, 0);
  std::vector<uint16_t> work;
  auto visit = [&](uint16_t a, bool is_leader) {
    if (is_leader) leader[a] = 1;
    if (is_insn[a]) return;
    is_insn[a] = 1;
    work.push_back(a);
  };
  visit(entry, true);
  while (!work.empty()) {
    const Insn i = Decode(mem, work.back());
    work.pop_back();
    switch (FlowOf(i)) {
      case Flow::kFall:
        ++fall_in[i.next];
        visit(i.next, false);
        break;
      case Flow::kJump:
        visit(i.imm, true);
        break;
      case Flow::kCond:
        visit(i.imm, true);
        visit(i.next, true);
        break;
      case Flow::kCall:
        visit(i.imm, true);
        ret_site[i.next] = 1;
        visit(i.next, true);
        break;
      case Flow::kRet:
      case Flow::kHalt:
        break;
    }
  }
  // Two decodes that converge on one address (possible with overlapping
  // instruction streams) meet at a block boundary instead of duplicating.
  for (uint32_t a = 0; a < kSpace; ++a) {
    if (fall_in[a] > 1) leader[a] = 1;
  }

  cfg->block_at.assign(kSpace, -1);
  cfg->code_byte.assign(kSpace, 0);
  for (uint32_t a = 0; a < kSpace; ++a) {
    if (!leader[a]) continue;
    cfg->block_at[a] = static_cast<int32_t>(cfg->blocks.size());
    Block blk;
    blk.start = static_cast<uint16_t>(a);
    uint16_t pc = blk.start;
    for (;;) {
      const Insn i = Decode(mem, pc);
      blk.insns.push_back(i);
      blk.flow = FlowOf(i);
      if (blk.flow != Flow::kFall || leader[i.next]) break;
      pc = i.next;
    }
    cfg->blocks.push_back(std::move(blk));
  }
  for (Block& blk : cfg->blocks) {
    const Insn& last = blk.insns.back();
    for (const Insn& i : blk.insns) {
      for (uint16_t b = i.addr; b != i.next; ++b) cfg->code_byte[b] = 1;
    }
    if (blk.flow == Flow::kJump || blk.flow == Flow::kCond ||
        blk.flow == Flow::kCall) {
      blk.taken = cfg->block_at[last.imm];
    }
    if (blk.flow == Flow::kFall || blk.flow == Flow::kCond ||
        blk.flow == Flow::kCall) {
      blk.next = cfg->block_at[last.next];
    }
  }
  for (uint32_t a = 0; a < kSpace; ++a) {
    if (ret_site[a]) cfg->ret_sites.push_back(cfg->block_at[a]);
  }
  cfg->entry = cfg->block_at[entry];
}

/// Flag state live into a block, given what is live out of it.
uint8_t LiveIn(const Block& blk, uint8_t live) {
  for (auto it = blk.insns.rbegin(); it != blk.insns.rend(); ++it) {
    uint8_t use, def;
    FlagEffects(*it, &use, &def);
    live = static_cast<uint8_t>((live & ~def) | use);
  }
  return live;
}

/// Global backward liveness of Z, C and HI. A CALL block's successor is
/// its target; a RET block's successors are all return sites; bails and
/// halts have none.
void ComputeLiveness(Cfg* cfg) {
  for (bool changed = true; changed;) {
    changed = false;
    uint8_t ret_live = 0;
    for (int b : cfg->ret_sites) ret_live |= cfg->blocks[b].live_in;
    for (auto it = cfg->blocks.rbegin(); it != cfg->blocks.rend(); ++it) {
      Block& blk = *it;
      uint8_t out = 0;
      switch (blk.flow) {
        case Flow::kFall:
          out = cfg->blocks[blk.next].live_in;
          break;
        case Flow::kJump:
        case Flow::kCall:
          out = cfg->blocks[blk.taken].live_in;
          break;
        case Flow::kCond:
          out = cfg->blocks[blk.taken].live_in | cfg->blocks[blk.next].live_in;
          break;
        case Flow::kRet:
          out = ret_live;
          break;
        case Flow::kHalt:
          break;
      }
      const uint8_t in = LiveIn(blk, out);
      if (in != blk.live_in || out != blk.live_out) {
        blk.live_in = in;
        blk.live_out = out;
        changed = true;
      }
    }
  }
}

/// Emits the VeRisc translation of a discovered CFG.
///
/// The emitter tracks the VeRisc borrow flag statically (`br_`): known 0,
/// known 1, or unknown. Subtracting a constant needs a known borrow, and
/// clearing an unknown one costs two instructions (LD [0]; ST [2]) that
/// also clobber R, so sequences establish it before loading their first
/// operand and keep it known where the arithmetic allows. Every label a
/// jump can reach resets it to unknown.
class Translator {
 public:
  explicit Translator(const Cfg& cfg)
      : cfg_(cfg),
        r_(b_.NewArray(8)),
        d_(b_.NewArray(4, kXGuestBase)),
        hi_(b_.NewCell()),
        zc_(b_.NewCell(1)),  // Z starts clear: any nonzero value
        cc_(b_.NewCell()),
        t0_(b_.NewCell()),
        t1_(b_.NewCell()),
        sum_(b_.NewCell()),
        ma_(b_.NewCell()),
        mb_(b_.NewCell()),
        plo_(b_.NewCell()),
        phi_(b_.NewCell()),
        sv_(b_.NewCell()),
        sa_(b_.NewCell()),
        ret_(b_.NewCell()) {
    for (size_t i = 0; i < cfg.blocks.size(); ++i) {
      labels_.push_back(b_.NewLabel());
    }
    emitted_.assign(cfg.blocks.size(), 0);
  }

  /// Emits every block (entry first) and the shared routines.
  Result<verisc::Program> Build() {
    std::vector<int> pending{cfg_.entry};
    size_t scan = 0;
    for (;;) {
      int cur = -1;
      while (!pending.empty() && cur < 0) {
        cur = pending.back();
        pending.pop_back();
        if (emitted_[cur]) cur = -1;
      }
      while (cur < 0 && scan < emitted_.size()) {
        if (!emitted_[scan]) cur = static_cast<int>(scan);
        ++scan;
      }
      if (cur < 0) break;
      // Emit a chain of blocks that fall into each other.
      while (cur >= 0) cur = EmitBlock(cur, &pending);
    }
    for (auto& emit : cold_) emit();
    for (auto& emit : cold_routines_) emit();
    return b_.Build();
  }

  uint32_t BlockAddress(int block) const {
    return b_.LabelAddress(labels_[block]);
  }

 private:
  enum Borrow { kB0, kB1, kBx };

  Cell R(int i) const { return Builder::At(r_, static_cast<uint32_t>(i)); }
  Cell D(int i) const { return Builder::At(d_, static_cast<uint32_t>(i & 3)); }
  Cell K(uint32_t v) { return b_.Const(v); }

  void Bind(Label l) {
    b_.Bind(l);
    br_ = kBx;
  }
  void Clc() {
    b_.Clc();
    br_ = kB0;
  }
  /// Makes the borrow known; clobbers R when it has to clear it.
  void Known() {
    if (br_ == kBx) Clc();
  }
  /// R <- R + v for 0 < v with no 32-bit overflow; leaves borrow = 1.
  void AddK(uint32_t v) {
    assert(br_ != kBx && v != 0);
    b_.Sbb(K((0u - v) - (br_ == kB1 ? 1u : 0u)));
    br_ = kB1;
  }
  /// R <- R - v with the exact borrow-out (R < v); v != 0 when borrow = 1.
  void SubK(uint32_t v) {
    assert(br_ == kB0 || (br_ == kB1 && v != 0));
    b_.Sbb(K(br_ == kB1 ? v - 1 : v));
    br_ = kBx;
  }
  /// Executes the word in R as the next instruction (a patched LD/SBB).
  void Exec() {
    const Label slot = b_.NewLabel();
    b_.StSlot(slot);
    b_.Slot(slot);
  }
  /// R <- mem[base + R].
  void Lookup(uint32_t base) {
    AddK(base);
    Exec();
  }
  /// R <- x + y (no 32-bit overflow), as x - ~y - 1 with borrow 1.
  void LoadSum(Cell x, Cell y) {
    if (br_ != kB1) {
      b_.LdImm(1);
      b_.StMapped(2);
    }
    b_.LdMapped(0);
    b_.Sbb(y);  // 0 - y - 1 = ~y, always borrows
    b_.St(sum_);
    b_.Ld(x);
    b_.Sbb(sum_);
    br_ = kB1;
  }
  /// R <- biased pointer `d` + v, wrapped to the guest space.
  void LoadPtrPlus(Cell d, uint32_t v) {
    Known();
    b_.Ld(d);
    AddK(v);
    b_.And(K(kPtrMask));
  }
  /// Stores a byte through code map `map` (kXStoreMap: at the biased
  /// pointer in R; kXStoreMapNext: one byte past it); `value` leaves the
  /// byte in R. A translated byte maps to the bail word, which faults
  /// instead of storing.
  void StoreAtPtr(uint32_t map, const std::function<void()>& value) {
    AddK(map - kXGuestBase);
    Exec();  // R = ST word for the byte, or the bail word
    const Label slot = b_.NewLabel();
    b_.StSlot(slot);
    value();
    b_.Slot(slot);
  }
  /// PC <- borrow ? if_borrow : if_clear, through a two-word target table
  /// {if_borrow, if_clear}: load from `&if_clear - borrow`.
  void SelectOnBorrow(Label if_borrow, Label if_clear) {
    b_.NewLabelCell(if_borrow);
    const Cell clear = b_.NewLabelCell(if_clear);
    b_.Ld(b_.CellAddrConst(clear));
    b_.Sbb(K(0));
    Exec();
    b_.StMapped(1);
  }
  /// PC <- borrow ? taken : next word.
  void BranchIfBorrow(Label taken) {
    const Label fall = b_.NewLabel();
    SelectOnBorrow(taken, fall);
    Bind(fall);
    br_ = kB0;  // the table address never borrows
  }
  /// PC <- borrow ? next word : taken.
  void BranchIfNoBorrow(Label taken) {
    const Label fall = b_.NewLabel();
    SelectOnBorrow(fall, taken);
    Bind(fall);
    br_ = kB0;
  }
  /// Calls a shared routine that returns through `ret_`.
  void CallRoutine(Label entry) {
    const Label back = b_.NewLabel();
    b_.Ld(b_.LabelConst(back));
    b_.St(ret_);
    b_.Jmp(entry);
    Bind(back);
  }
  /// Jumps to the bail word (the guest would store into its own code).
  void Bail() {
    b_.Ld(K(kXBailAddr));
    b_.StMapped(1);
  }
  static uint32_t GuestAddr(uint32_t a) { return kXGuestBase + (a & 0xFFFF); }
  /// Post-increment of pointer `p` (index 0..3) by `step`.
  void PostInc(int p, uint32_t step) {
    if (dk_[p]) {
      dk_[p] = static_cast<uint16_t>(*dk_[p] + step);
      b_.Ld(K(GuestAddr(*dk_[p])));
    } else {
      LoadPtrPlus(D(p), step);
    }
    b_.St(D(p));
  }
  void SetZ(uint8_t live) {
    if (live & kLiveZ) b_.St(zc_);
  }
  /// Stores C = 1 - borrow (the carry of an ADD done as a subtraction).
  void CarryFromNoBorrow() {
    b_.LdImm(1);
    b_.Sbb(K(0));
    b_.St(cc_);
    br_ = kB0;
  }
  /// Stores C = borrow.
  void CarryFromBorrow() {
    b_.LdMapped(2);
    b_.And(K(1));
    b_.St(cc_);
  }

  /// Continues at block `target`: falls through when it is emitted next
  /// (returned), else jumps.
  int Chain(int target) {
    if (!emitted_[target]) return target;
    b_.Jmp(labels_[target]);
    return -1;
  }

  int EmitBlock(int bi, std::vector<int>* pending) {
    const Block& blk = cfg_.blocks[bi];
    emitted_[bi] = 1;
    Bind(labels_[bi]);
    for (auto& k : rk_) k.reset();
    for (auto& k : dk_) k.reset();
    std::vector<uint8_t> live_after(blk.insns.size());
    uint8_t live = blk.live_out;
    for (size_t k = blk.insns.size(); k-- > 0;) {
      live_after[k] = live;
      uint8_t use, def;
      FlagEffects(blk.insns[k], &use, &def);
      live = static_cast<uint8_t>((live & ~def) | use);
    }
    const Insn& last = blk.insns.back();
    for (size_t k = 0; k + 1 < blk.insns.size(); ++k) {
      EmitOp(blk.insns[k], live_after[k]);
    }
    switch (blk.flow) {
      case Flow::kFall:
        EmitOp(last, live_after.back());
        return Chain(blk.next);
      case Flow::kJump:
        return Chain(blk.taken);
      case Flow::kCond:
        if (last.op == dynarisc::kJz) {
          Known();
          b_.Ld(zc_);
          b_.Sbb(K(br_ == kB1 ? 0 : 1));  // borrow = (Z value == 0)
        } else {
          b_.Ld(cc_);
          b_.StMapped(2);  // borrow = C
        }
        BranchIfBorrow(labels_[blk.taken]);
        pending->push_back(blk.taken);
        return Chain(blk.next);
      case Flow::kCall: {
        const uint16_t ret = last.next;
        LoadPtrPlus(D(3), 0xFFFE);
        b_.St(D(3));
        StoreAtPtr(kXStoreMap, [&] { b_.LdImm(ret & 0xFF); });
        b_.Ld(D(3));
        StoreAtPtr(kXStoreMapNext, [&] { b_.LdImm(ret >> 8); });
        pending->push_back(blk.next);
        return Chain(blk.taken);
      }
      case Flow::kRet:
        EmitRet();
        return -1;
      case Flow::kHalt:
        b_.Halt();
        return -1;
    }
    return -1;
  }

  void EmitRet() {
    LoadPtrPlus(D(3), 1);
    Exec();  // high byte h
    AddK(0x20000000u + kXNotRetRow);
    const Label row = b_.NewLabel();
    b_.StSlot(row);  // SBB ~(kXRetTable + h*256)
    b_.Ld(D(3));
    Exec();         // low byte
    b_.Slot(row);   // R = kXRetTable + return address
    const Label target = b_.NewLabel();
    b_.StSlot(target);
    LoadPtrPlus(D(3), 2);
    b_.St(D(3));
    b_.Slot(target);  // R = translated return site, or the bail address
    b_.StMapped(1);
  }

  void EmitOp(const Insn& i, uint8_t live) {
    using namespace dynarisc;
    const Cell rd = R(i.rd);
    const Cell rs = R(i.rs);
    switch (i.op) {
      case kAdd:
      case kAdc:
        Known();
        if (i.op == kAdd && rk_[i.rs]) {
          // rd - (0x10000 - rs) with the subtrahend folded.
          b_.Ld(rd);
          b_.Sbb(K(0x10000u - *rk_[i.rs] - (br_ == kB1 ? 1 : 0)));
        } else if (i.op == kAdd) {
          b_.Ld(K(0x10000u + (br_ == kB1 ? 1 : 0)));
          b_.Sbb(rs);  // 0x10000 - rs
          b_.St(t0_);
        } else {
          b_.Ld(K(0xFFFFu + (br_ == kB1 ? 1 : 0)));
          b_.Sbb(rs);  // 0xFFFF - rs, borrow 0
          b_.St(t0_);
          b_.LdImm(1);
          b_.Sbb(cc_);
          b_.StMapped(2);  // borrow = !C
        }
        if (i.op == kAdc || !rk_[i.rs]) {
          b_.Ld(rd);
          b_.Sbb(t0_);  // rd + rs (+ C) - 0x10000; borrow = !carry
        }
        br_ = kBx;
        b_.And(K(0xFFFF));
        b_.St(rd);
        SetZ(live);
        if (live & kLiveC) CarryFromNoBorrow();
        break;
      case kSub:
      case kSbb:
      case kCmp:
        EmitDifference(i);
        b_.And(K(0xFFFF));
        if (i.op != kCmp) b_.St(rd);
        SetZ(live);
        if (live & kLiveC) CarryFromBorrow();
        break;
      case kMul:
        EmitMul(i, live);
        break;
      case kAnd:
        b_.Ld(rd);
        b_.And(rs);
        b_.St(rd);
        SetZ(live);
        break;
      case kOr:  // ~(~a & ~b)
        Known();
        b_.Ld(K(0xFFFFu + (br_ == kB1 ? 1 : 0)));
        b_.Sbb(rd);
        b_.St(t0_);
        b_.Ld(K(0xFFFF));
        b_.Sbb(rs);
        b_.And(t0_);
        b_.St(t0_);
        b_.Ld(K(0xFFFF));
        b_.Sbb(t0_);
        br_ = kB0;
        b_.St(rd);
        SetZ(live);
        break;
      case kXor:  // 0xFFFF - (a & b) - (~a & ~b): the two never overlap
        Known();
        b_.Ld(K(0xFFFFu + (br_ == kB1 ? 1 : 0)));
        b_.Sbb(rd);
        b_.St(t0_);
        b_.Ld(K(0xFFFF));
        b_.Sbb(rs);
        b_.And(t0_);
        b_.St(t0_);
        b_.Ld(rd);
        b_.And(rs);
        b_.St(t1_);
        b_.Ld(K(0xFFFF));
        b_.Sbb(t1_);
        b_.Sbb(t0_);
        br_ = kB0;
        b_.St(rd);
        SetZ(live);
        break;
      case kLsl:
      case kLsr:
      case kAsr:
      case kRor:
        EmitShift(i, live);
        break;
      case kMove:
        EmitMove(i, live);
        return;
      case kLdi:
        b_.LdImm(i.imm);
        b_.St(rd);
        SetZ(live);
        rk_[i.rd] = i.imm;
        return;
      case kLdm: {
        const int pi = i.rs & 3;
        const Cell p = D(pi);
        if (dk_[pi]) {
          // Fixed address: read guest memory directly.
          const uint16_t a = *dk_[pi];
          if (i.mode & kModeWord) {
            Known();
            b_.LdAbs(GuestAddr(a + 1u));
            AddK(0x20000000u + kXNotShl8);  // SBB ~(h << 8)
            const Label slot = b_.NewLabel();
            b_.StSlot(slot);
            b_.LdAbs(GuestAddr(a));
            b_.Slot(slot);  // low + (h << 8)
          } else {
            b_.LdAbs(GuestAddr(a));
          }
          b_.St(rd);
          SetZ(live);
          rk_[i.rd].reset();
          if (i.mode & kModePostInc) PostInc(pi, (i.mode & kModeWord) ? 2 : 1);
          return;
        }
        b_.Ld(p);
        Exec();
        if (i.mode & kModeWord) {
          b_.St(t0_);
          LoadPtrPlus(p, 1);
          Exec();  // high byte h
          AddK(0x20000000u + kXNotShl8);  // SBB ~(h << 8)
          const Label slot = b_.NewLabel();
          b_.StSlot(slot);
          b_.Ld(t0_);
          b_.Slot(slot);  // low + (h << 8)
        }
        b_.St(rd);
        SetZ(live);
        rk_[i.rd].reset();
        if (i.mode & kModePostInc) PostInc(pi, (i.mode & kModeWord) ? 2 : 1);
        return;
      }
      case kStm: {
        const int pi = i.rd & 3;
        const Cell p = D(pi);
        if (dk_[pi]) {
          // Fixed address: the code-map check happens here, statically.
          const uint16_t a = *dk_[pi];
          const bool word = (i.mode & kModeWord) != 0;
          if (cfg_.code_byte[a] ||
              (word && cfg_.code_byte[static_cast<uint16_t>(a + 1)])) {
            Bail();
          } else {
            if (rk_[i.rs]) {
              b_.LdImm(*rk_[i.rs] & 0xFF);
            } else {
              b_.Ld(rs);
              b_.And(K(0xFF));
            }
            b_.StAbs(GuestAddr(a));
            if (word) {
              if (rk_[i.rs]) {
                b_.LdImm(*rk_[i.rs] >> 8);
              } else {
                Known();
                b_.Ld(rs);
                Lookup(kXLsr8);
              }
              b_.StAbs(GuestAddr(a + 1u));
            }
          }
          if (i.mode & kModePostInc) PostInc(pi, word ? 2 : 1);
          return;
        }
        Known();
        b_.Ld(p);
        StoreAtPtr(kXStoreMap, [&] {
          b_.Ld(rs);
          b_.And(K(0xFF));
        });
        if (i.mode & kModeWord) {
          b_.Ld(p);
          StoreAtPtr(kXStoreMapNext, [&] {
            b_.Ld(rs);
            Lookup(kXLsr8);
          });
        }
        if (i.mode & kModePostInc) PostInc(pi, (i.mode & kModeWord) ? 2 : 1);
        return;
      }
      case kSys:
        if (i.mode == kSysReadByte) {
          EmitRead(live);
          rk_[0].reset();
        } else {
          b_.Ld(R(0));
          b_.OutByte();  // the port writes R & 0xFF
        }
        break;
      default:
        assert(false && "control flow is emitted per block");
        break;
    }
    // Every remaining case that writes rd leaves it unknown.
    if (i.op != kCmp && i.op != kSys) rk_[i.rd].reset();
  }

  /// R <- rd - rs (- C for SBB) as a 32-bit difference; borrow = the
  /// DynaRisc carry (rd < rs (+ C)).
  void EmitDifference(const Insn& i) {
    if (i.op != dynarisc::kSbb && rk_[i.rs] && br_ != kBx &&
        (br_ == kB0 || *rk_[i.rs] != 0)) {
      b_.Ld(R(i.rd));
      SubK(*rk_[i.rs]);
    } else {
      if (i.op == dynarisc::kSbb) {
        b_.Ld(cc_);
        b_.StMapped(2);  // borrow = C
      } else if (br_ != kB0) {
        Clc();
      }
      b_.Ld(R(i.rd));
      b_.Sbb(R(i.rs));
    }
    br_ = kBx;
  }

  void EmitMove(const Insn& i, uint8_t live) {
    using namespace dynarisc;
    const bool dst_d = (i.mode & kMoveDstD) != 0;
    const bool src_hi = (i.mode & kMoveSrcHi) != 0;
    const bool src_d = !src_hi && (i.mode & kMoveSrcD) != 0;
    const Cell src = src_hi ? hi_ : src_d ? D(i.rs) : R(i.rs);
    const Cell dst = dst_d ? D(i.rd) : R(i.rd);
    const std::optional<uint16_t> value =
        src_hi ? std::nullopt : src_d ? dk_[i.rs & 3] : rk_[i.rs];
    if (dst_d) {
      dk_[i.rd & 3] = value;
    } else {
      rk_[i.rd] = value;
    }
    if (value) {
      b_.LdImm(dst_d ? GuestAddr(*value) : *value);
      b_.St(dst);
      if (live & kLiveZ) {
        if (dst_d) b_.LdImm(*value);
        b_.St(zc_);
      }
    } else if (src_d == dst_d) {
      // Same representation: a plain copy; Z needs the unbiased value.
      if (src_d && (live & kLiveZ)) Known();
      b_.Ld(src);
      b_.St(dst);
      if (src_d && (live & kLiveZ)) SubK(kXGuestBase);
      SetZ(live);
    } else if (src_d) {
      Known();
      b_.Ld(src);
      SubK(kXGuestBase);
      br_ = kB0;
      b_.St(dst);
      SetZ(live);
    } else {
      Known();
      b_.Ld(src);
      SetZ(live);
      AddK(kXGuestBase);
      b_.St(dst);
    }
  }

  void EmitRead(uint8_t live) {
    Known();
    b_.InByte();
    b_.St(t0_);
    SubK(0xFFFFFFFFu);  // borrow = not end of input
    const Label done = b_.NewLabel();
    if (!(live & kLiveC)) {
      BranchIfNoBorrow(done);
      b_.Ld(t0_);
      b_.St(R(0));
      Bind(done);
      return;
    }
    const Label eof = b_.NewLabel();
    BranchIfNoBorrow(eof);
    b_.Ld(t0_);
    b_.St(R(0));
    b_.LdMapped(0);
    b_.St(cc_);
    b_.Jmp(done);
    Bind(eof);
    b_.LdImm(1);
    b_.St(cc_);
    Bind(done);
  }

  void EmitMul(const Insn& i, uint8_t live) {
    const Cell rd = R(i.rd);
    const Cell rs = R(i.rs);
    // Fast path: both operands below 256 -> one product-table read. Row
    // and column of a larger operand land on a sentinel >= 0x10000.
    Known();
    b_.Ld(rs);
    Lookup(kXMulNotCol);
    b_.St(t0_);
    b_.Ld(rd);
    Lookup(kXMulRow);
    b_.Sbb(t0_);  // row + column
    Exec();
    b_.St(t1_);
    SubK(0x10000);  // borrow = product < 0x10000
    const Label slow = b_.NewLabel();
    const Label done = b_.NewLabel();
    BranchIfNoBorrow(slow);
    b_.Ld(t1_);
    b_.St(rd);
    SetZ(live);
    if (live & kLiveHi) {
      b_.LdMapped(0);
      b_.St(hi_);
    }
    if (live & kLiveC) {
      b_.LdMapped(0);
      b_.St(cc_);
    }
    Bind(done);

    const Label routine = MulRoutine();
    cold_.push_back([this, rd, rs, live, slow, done, routine] {
      Bind(slow);
      b_.Ld(rd);
      b_.St(ma_);
      b_.Ld(rs);
      b_.St(mb_);
      CallRoutine(routine);
      b_.Ld(plo_);
      b_.St(rd);
      SetZ(live);
      if (live & kLiveHi) {
        b_.Ld(phi_);
        b_.St(hi_);
      }
      if (live & kLiveC) {
        Clc();
        b_.Sbb(phi_);  // 0 - HI borrows iff HI != 0
        CarryFromBorrow();
      }
      b_.Jmp(done);
    });
  }

  void EmitShift(const Insn& i, uint8_t live) {
    using namespace dynarisc;
    const Cell rd = R(i.rd);
    const int amount = ShiftAmount(i);
    if (amount == 0) {  // value and C unchanged
      if (live & kLiveZ) {
        b_.Ld(rd);
        b_.St(zc_);
      }
      return;
    }
    if (amount > 0 && (i.op == kLsl || i.op == kLsr) && !(live & kLiveC)) {
      const bool left = i.op == kLsl;
      Known();
      b_.Ld(rd);
      int k = amount;
      for (; k >= 8; k -= 8) Lookup(left ? kXLsl8 : kXLsr8);
      for (; k >= 4; k -= 4) Lookup(left ? kXLsl4 : kXLsr4);
      for (; k >= 1; k -= 1) Lookup(left ? kXLsl1 : kXLsr1);
      b_.St(rd);
      SetZ(live);
      return;
    }
    // Single-step routine: per-step carry, and amount 0 leaves C alone.
    if (amount > 0) {
      b_.LdImm(static_cast<uint32_t>(amount));
    } else {
      b_.Ld(R(i.rs));
      b_.And(K(15));
    }
    b_.St(sa_);
    b_.Ld(rd);
    b_.St(sv_);
    CallRoutine(ShiftRoutine(i.op - kLsl));
    b_.Ld(sv_);
    b_.St(rd);
    SetZ(live);
  }

  /// Shared routine: plo/phi <- ma * mb (any 16-bit operands), from four
  /// byte products.
  Label MulRoutine() {
    if (mul_used_) return mul_;
    mul_used_ = true;
    mul_ = b_.NewLabel();
    cold_routines_.push_back([this] {
      const Cell al = b_.NewCell(), ah = b_.NewCell(), bl = b_.NewCell(),
                 bh = b_.NewCell(), p0 = b_.NewCell(), p1 = b_.NewCell(),
                 p2 = b_.NewCell(), p3 = b_.NewCell(), s1 = b_.NewCell(),
                 t = b_.NewCell(), x = b_.NewCell();
      Bind(mul_);
      auto product = [&](Cell a, Cell b, Cell out) {
        Known();
        b_.Ld(b);
        Lookup(kXMulNotCol);
        b_.St(x);
        b_.Ld(a);
        Lookup(kXMulRow);
        b_.Sbb(x);
        Exec();
        b_.St(out);
      };
      auto low_byte = [&](Cell v, Cell out) {
        b_.Ld(v);
        b_.And(K(0xFF));
        b_.St(out);
      };
      auto high_byte = [&](Cell v, Cell out) {
        Known();
        b_.Ld(v);
        Lookup(kXLsr8);
        b_.St(out);
      };
      low_byte(ma_, al);
      high_byte(ma_, ah);
      low_byte(mb_, bl);
      high_byte(mb_, bh);
      product(al, bl, p0);
      product(ah, bl, p1);
      product(al, bh, p2);
      product(ah, bh, p3);
      // s1 = (p0 >> 8) + p1; t = (s1 & 0xFF) + (p2 & 0xFF)
      high_byte(p0, x);
      LoadSum(x, p1);
      b_.St(s1);
      low_byte(s1, x);
      low_byte(p2, t);
      LoadSum(x, t);
      b_.St(t);
      // lo = (p0 & 0xFF) + ((t << 8) & 0xFFFF)
      Known();
      b_.Ld(t);
      Lookup(kXLsl8);
      b_.St(x);
      low_byte(p0, plo_);
      LoadSum(plo_, x);
      b_.St(plo_);
      // hi = p3 + (s1 >> 8) + (p2 >> 8) + (t >> 8)
      high_byte(s1, x);
      LoadSum(p3, x);
      b_.St(phi_);
      high_byte(p2, x);
      LoadSum(phi_, x);
      b_.St(phi_);
      high_byte(t, x);
      LoadSum(phi_, x);
      b_.St(phi_);
      b_.JmpCell(ret_);
    });
    return mul_;
  }

  /// Shared routine per shift kind (0 LSL, 1 LSR, 2 ASR, 3 ROR): shifts
  /// sv by sa (0..15) single-bit steps, setting C each step.
  Label ShiftRoutine(int kind) {
    if (shift_used_[kind]) return shift_[kind];
    shift_used_[kind] = true;
    shift_[kind] = b_.NewLabel();
    cold_routines_.push_back([this, kind] {
      const Cell part = b_.NewCell();
      const Label loop = b_.NewLabel();
      const Label done = b_.NewLabel();
      Bind(shift_[kind]);
      Bind(loop);
      b_.Ld(sa_);
      b_.Jz(done);
      br_ = kBx;
      if (kind == 0) {
        Clc();
        b_.Ld(sv_);
        b_.Sbb(K(0x8000));  // borrow = bit 15 clear
        CarryFromNoBorrow();
        b_.Ld(sv_);
        Lookup(kXLsl1);
        b_.St(sv_);
      } else {
        b_.Ld(sv_);
        b_.And(K(1));
        b_.St(cc_);
        if (kind == 2) {  // ASR keeps the sign bit
          b_.Ld(sv_);
          b_.And(K(0x8000));
          b_.St(part);
        } else if (kind == 3) {  // ROR rotates bit 0 into bit 15
          Clc();
          b_.Sbb(cc_);  // 0 - C: 0 or all-ones
          b_.And(K(0x8000));
          b_.St(part);
          br_ = kBx;
        }
        Known();
        b_.Ld(sv_);
        Lookup(kXLsr1);
        if (kind >= 2) {
          b_.St(t0_);
          LoadSum(t0_, part);
        }
        b_.St(sv_);
      }
      b_.Ld(sa_);
      b_.SubImm(1);
      b_.St(sa_);
      br_ = kBx;
      b_.Jmp(loop);
      Bind(done);
      b_.JmpCell(ret_);
    });
    return shift_[kind];
  }

  const Cfg& cfg_;
  Builder b_;
  Borrow br_ = kBx;
  const Cell r_, d_, hi_, zc_, cc_;
  const Cell t0_, t1_, sum_;
  const Cell ma_, mb_, plo_, phi_, sv_, sa_, ret_;
  /// Guest register values known at translation time inside the current
  /// block: set by LDI, carried by MOVE and pointer post-increments.
  std::optional<uint16_t> rk_[8];
  std::optional<uint16_t> dk_[4];
  std::vector<Label> labels_;
  std::vector<char> emitted_;
  std::vector<std::function<void()>> cold_;
  std::vector<std::function<void()>> cold_routines_;
  bool mul_used_ = false;
  Label mul_{};
  bool shift_used_[4] = {false, false, false, false};
  Label shift_[4]{};
};

/// FNV-1a 64 over entry point + image bytes. Collisions are survivable:
/// Acquire verifies the exact image before declaring a hit.
uint64_t HashProgram(const dynarisc::Program& program) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ull;
  };
  mix(static_cast<uint8_t>(program.entry & 0xFF));
  mix(static_cast<uint8_t>(program.entry >> 8));
  for (uint8_t byte : program.image) mix(byte);
  return h;
}

/// Host-computed contents of [kXLsl1, kXNotRetRow + 256): the shift,
/// product and byte-row tables every translation shares.
const std::vector<uint32_t>& StaticTables() {
  static const std::vector<uint32_t> kTables = [] {
    std::vector<uint32_t> t(kXNotRetRow + 256 - kXLsl1, 0);
    auto at = [&t](uint32_t addr) -> uint32_t& { return t[addr - kXLsl1]; };
    for (uint32_t v = 0; v < kSpace; ++v) {
      at(kXLsl1 + v) = (v << 1) & 0xFFFF;
      at(kXLsl4 + v) = (v << 4) & 0xFFFF;
      at(kXLsl8 + v) = (v << 8) & 0xFFFF;
      at(kXLsr1 + v) = v >> 1;
      at(kXLsr4 + v) = v >> 4;
      at(kXLsr8 + v) = v >> 8;
      at(kXProduct + v) = (v >> 8) * (v & 0xFF);
      // Row + column addresses the product for operands below 256. A
      // larger operand pushes the sum into the row table (entries >=
      // kXProduct) or onto kXMulNotCol[0] = ~0: both read as >= 0x10000.
      at(kXMulRow + v) = v < 256 ? kXProduct + v * 256 : kXMulRow;
      at(kXMulNotCol + v) = ~(v < 256 ? v : 0x10000u);
    }
    for (uint32_t h = 0; h < 256; ++h) {
      at(kXNotShl8 + h) = ~(h << 8);
      at(kXNotRetRow + h) = ~(kXRetTable + h * 256);
    }
    return t;
  }();
  return kTables;
}

std::atomic<uint64_t> g_next_entry_id{1};

/// Discovers, analyses and translates `program`. An entry that did not fit
/// comes back with `translated == false`.
TranslationCache::EntryPtr TranslateProgram(const dynarisc::Program& program) {
  auto e = std::make_shared<TranslationCache::Entry>();
  e->image = program.image;
  e->entry_point = program.entry;
  e->id = g_next_entry_id.fetch_add(1, std::memory_order_relaxed);

  std::vector<uint8_t> mem(kSpace, 0);
  std::copy_n(program.image.begin(),
              std::min<size_t>(program.image.size(), kSpace), mem.begin());
  Cfg cfg;
  Discover(mem, program.entry, &cfg);
  ComputeLiveness(&cfg);
  Translator translator(cfg);
  Result<verisc::Program> built = translator.Build();
  if (!built.ok()) return e;  // does not fit the program area

  e->translated = true;
  e->program = built.TakeValue();
  e->guest_words.assign(mem.begin(), mem.end());
  e->store_map.resize(kSpace);
  for (uint32_t a = 0; a < kSpace; ++a) {
    e->store_map[a] = cfg.code_byte[a]
                          ? kXBailWord
                          : verisc::Instr(verisc::kSt, kXGuestBase + a);
  }
  e->ret_table.assign(kSpace, kXBailAddr);
  for (int b : cfg.ret_sites) {
    e->ret_table[cfg.blocks[b].start] = translator.BlockAddress(b);
  }
  return e;
}

}  // namespace

Status LoadTranslation(const TranslationCache::Entry& entry,
                       verisc::Machine& machine) {
  assert(entry.translated);
  // The static tables, and the previous entry's store map and return
  // table, survive across runs as long as nobody else re-loaded this
  // thread's machine since (load_seq detects any interleaved Load).
  static thread_local const verisc::Machine* resident_machine = nullptr;
  static thread_local uint64_t resident_seq = 0;
  static thread_local uint64_t resident_entry = 0;
  const bool resident = resident_machine == &machine &&
                        resident_seq == machine.load_seq() &&
                        resident_seq != 0;
  if (resident) {
    ULE_RETURN_IF_ERROR(machine.LoadNoZero(entry.program));
  } else {
    ULE_RETURN_IF_ERROR(machine.Load(entry.program));
    const std::vector<uint32_t>& tables = StaticTables();
    machine.WriteWords(kXLsl1, tables.data(), tables.size());
    const uint32_t bail = kXBailWord;
    machine.WriteWords(kXBailAddr, &bail, 1);
  }
  if (!resident || resident_entry != entry.id) {
    machine.WriteWords(kXStoreMap, entry.store_map.data(), kSpace);
    machine.WriteWords(kXStoreMapNext, entry.store_map.data() + 1,
                       kSpace - 1);
    machine.WriteWords(kXStoreMapNext + kSpace - 1, entry.store_map.data(), 1);
    machine.WriteWords(kXRetTable, entry.ret_table.data(), kSpace);
  }
  machine.WriteWords(kXGuestBase, entry.guest_words.data(), kSpace);
  resident_machine = &machine;
  resident_seq = machine.load_seq();
  resident_entry = entry.id;
  return Status::OK();
}

TranslationCache& TranslationCache::Global() {
  // Leaked: shared with detached pool threads at process exit.
  static TranslationCache* cache = new TranslationCache;
  return *cache;
}

TranslationCache::EntryPtr TranslationCache::Acquire(
    const dynarisc::Program& program, bool* cache_hit) {
  const uint64_t key = HashProgram(program);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_key_.find(key);
    if (it != by_key_.end()) {
      EntryPtr entry = it->second->entry;
      if (entry->entry_point == program.entry &&
          entry->image.size() == program.image.size() &&
          std::equal(entry->image.begin(), entry->image.end(),
                     program.image.begin())) {
        ++stats_.hits;
        lru_.splice(lru_.begin(), lru_, it->second);
        if (cache_hit != nullptr) *cache_hit = true;
        return entry;
      }
      // Hash collision with a different program: evict the old entry and
      // fall through to a rebuild.
      lru_.erase(it->second);
      by_key_.erase(it);
      ++stats_.evictions;
    }
  }

  // Translate outside the lock: building is the expensive part, and two
  // threads racing on the same miss merely duplicate work, never state —
  // the loser's entry is dropped below.
  EntryPtr entry = TranslateProgram(program);

  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.misses;
  if (cache_hit != nullptr) *cache_hit = false;
  if (by_key_.find(key) == by_key_.end()) {
    lru_.push_front(Slot{key, entry});
    by_key_[key] = lru_.begin();
    while (lru_.size() > capacity_) {
      by_key_.erase(lru_.back().key);
      lru_.pop_back();
      ++stats_.evictions;
    }
  }
  return entry;
}

TranslationCache::Stats TranslationCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.entries = lru_.size();
  return s;
}

void TranslationCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  by_key_.clear();
  stats_ = Stats{};
}

void TranslationCache::set_capacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = std::max<size_t>(capacity, 1);
  while (lru_.size() > capacity_) {
    by_key_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

}  // namespace olonys
}  // namespace ule
