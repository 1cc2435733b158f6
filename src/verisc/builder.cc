#include "verisc/builder.h"

#include <cassert>

namespace ule {
namespace verisc {

Builder::Builder() {
  for (auto& t : t_) t = NewCell(0);
}

Builder::Cell Builder::NewCell(uint32_t initial) {
  cells_.push_back(CellInit{initial, -1});
  return Cell{static_cast<uint32_t>(cells_.size() - 1)};
}

Builder::Cell Builder::NewArray(uint32_t size, uint32_t fill) {
  assert(size > 0);
  const Cell first = NewCell(fill);
  for (uint32_t i = 1; i < size; ++i) NewCell(fill);
  return first;
}

Builder::Cell Builder::NewLabelCell(Label l) {
  cells_.push_back(CellInit{0, static_cast<int>(l.id)});
  return Cell{static_cast<uint32_t>(cells_.size() - 1)};
}

Builder::Cell Builder::NewJumpTable(const std::vector<Label>& targets) {
  assert(!targets.empty());
  const Cell first = NewLabelCell(targets[0]);
  for (size_t i = 1; i < targets.size(); ++i) NewLabelCell(targets[i]);
  return first;
}

Builder::Label Builder::NewLabel() {
  label_pos_.push_back(-1);
  return Label{static_cast<uint32_t>(label_pos_.size() - 1)};
}

void Builder::Bind(Label l) {
  assert(label_pos_[l.id] == -1 && "label bound twice");
  label_pos_[l.id] = static_cast<int64_t>(code_.size());
  last_bind_pos_ = code_.size();
}

void Builder::Emit(Opcode op, OperandRef ref) {
  // Peephole: `ST c; LD c` — the LD is a no-op (ST leaves R == mem[c] and
  // neither touches borrow). Dropping it is only legal when no label is
  // bound here (a jump could land on the LD alone).
  if (op == kLd && ref.kind == OperandRef::kCellRef && !code_.empty() &&
      last_bind_pos_ != code_.size()) {
    const Emitted& prev = code_.back();
    if (prev.op == kSt && prev.ref.kind == OperandRef::kCellRef &&
        prev.ref.index == ref.index) {
      return;
    }
  }
  code_.push_back({op, ref});
}

Builder::Fn Builder::DeclareFn() { return Fn{NewLabel(), NewCell(0)}; }

void Builder::BeginFn(Fn f) { Bind(f.entry); }

void Builder::Call(Fn f) {
  Label after = NewLabel();
  Ld(PoolConst(ConstSpec{0, static_cast<int>(after.id), -1, false}));
  St(f.ret_slot);
  Jmp(f.entry);
  Bind(after);
}

void Builder::Ret(Fn f) { JmpCell(f.ret_slot); }

void Builder::Ld(Cell c) { Emit(kLd, CellOp(c)); }
void Builder::St(Cell c) { Emit(kSt, CellOp(c)); }
void Builder::Sbb(Cell c) { Emit(kSbb, CellOp(c)); }
void Builder::And(Cell c) { Emit(kAnd, CellOp(c)); }
void Builder::LdMapped(uint32_t addr) {
  assert(addr < kProgramOrigin);
  Emit(kLd, OperandRef{OperandRef::kMappedAddr, addr});
}
void Builder::StMapped(uint32_t addr) {
  assert(addr < kProgramOrigin);
  Emit(kSt, OperandRef{OperandRef::kMappedAddr, addr});
}

Builder::Cell Builder::PoolConst(ConstSpec spec) {
  auto it = const_pool_.find(spec);
  if (it != const_pool_.end()) return Cell{it->second};
  cells_.push_back(CellInit{0, -1});
  const uint32_t id = static_cast<uint32_t>(cells_.size() - 1);
  const_pool_[spec] = id;
  pool_cells_.push_back({id, spec});
  return Cell{id};
}

void Builder::LdImm(uint32_t v) {
  if (v == 0) {
    LdMapped(0);
    return;
  }
  Ld(PoolConst(ConstSpec{v, -1, -1, false}));
}

void Builder::Clc() {
  LdMapped(0);   // R <- 0
  StMapped(2);   // borrow <- R & 1 = 0
}

void Builder::AddSpec(ConstSpec spec) {
  // R <- R + value(spec), implemented as R - (-value). Clobbers t0.
  spec.negate = !spec.negate;
  const Cell neg = PoolConst(spec);
  St(t_[0]);
  Clc();
  Ld(t_[0]);
  Sbb(neg);
}

void Builder::AddCell(Cell a) {
  // R <- R + mem[a]; clobbers t0, t1.
  St(t_[0]);
  Clc();         // R = 0, borrow = 0
  Sbb(a);        // R = -mem[a]
  St(t_[1]);
  Clc();
  Ld(t_[0]);
  Sbb(t_[1]);    // R = t0 + mem[a]
}

void Builder::AddImm(uint32_t v) {
  if (v == 0) return;
  AddSpec(ConstSpec{v, -1, -1, false});
}

void Builder::SubCell(Cell a) {
  St(t_[0]);
  Clc();
  Ld(t_[0]);
  Sbb(a);
}

void Builder::SubImm(uint32_t v) {
  St(t_[0]);
  Clc();
  Ld(t_[0]);
  Sbb(PoolConst(ConstSpec{v, -1, -1, false}));
}

void Builder::AndImm(uint32_t v) { And(PoolConst(ConstSpec{v, -1, -1, false})); }

void Builder::Not() {
  // ~R = 0xFFFFFFFF - R (never borrows).
  St(t_[0]);
  Clc();
  LdImm(0xFFFFFFFFu);
  Sbb(t_[0]);
}

void Builder::Jmp(Label l) {
  Ld(PoolConst(ConstSpec{0, static_cast<int>(l.id), -1, false}));
  StMapped(1);
}

void Builder::JmpCell(Cell c) {
  Ld(c);
  StMapped(1);
}

void Builder::BorrowSelectJump(Label taken) {
  // PC <- borrow ? taken : fallthrough, via the arithmetic select
  //   PC = fall - (mask & (fall - taken)),
  // which is `taken` when the mask is all-ones and `fall` when it is zero
  // (exact under mod-2^32 wraparound). 8 instructions; clobbers t1.
  Label fall = NewLabel();
  const Cell diff_c = PoolConst(ConstSpec{0, static_cast<int>(fall.id), -1,
                                          false, static_cast<int>(taken.id)});
  const Cell fall_c =
      PoolConst(ConstSpec{0, static_cast<int>(fall.id), -1, false});
  LdMapped(2);     // R = mask (all-ones when borrow)
  And(diff_c);     // R = mask & (fall - taken)
  St(t_[1]);
  Clc();
  Ld(fall_c);
  Sbb(t_[1]);      // R = fall - (mask & (fall - taken)); borrow was 0
  StMapped(1);
  Bind(fall);
}

void Builder::Jc(Label l) { BorrowSelectJump(l); }

void Builder::Jnc(Label l) {
  // Mirror of BorrowSelectJump: PC = l - (mask & (l - fall)), i.e. stay on
  // borrow, jump to l when the mask is zero. Clobbers t1.
  Label fall = NewLabel();
  const Cell diff_c = PoolConst(ConstSpec{0, static_cast<int>(l.id), -1,
                                          false, static_cast<int>(fall.id)});
  const Cell l_c = PoolConst(ConstSpec{0, static_cast<int>(l.id), -1, false});
  LdMapped(2);
  And(diff_c);     // R = mask & (l - fall)
  St(t_[1]);
  Clc();
  Ld(l_c);
  Sbb(t_[1]);      // R = l - (mask & (l - fall))
  StMapped(1);
  Bind(fall);
}

void Builder::Jz(Label l) {
  // borrow <- (R == 0): R - 1 borrows only for R == 0.
  St(t_[4]);
  Clc();
  Ld(t_[4]);
  Sbb(PoolConst(ConstSpec{1, -1, -1, false}));
  BorrowSelectJump(l);
}

void Builder::Jnz(Label l) {
  St(t_[4]);
  Clc();
  Ld(t_[4]);
  Sbb(PoolConst(ConstSpec{1, -1, -1, false}));
  Jnc(l);
}

void Builder::Halt() { StMapped(5); }

void Builder::PatchSlot(Label l) {
  Bind(l);
  // Placeholder word; always overwritten before execution. Recorded so the
  // fusion pass never pairs across a word whose opcode is decided at run
  // time (StIndexed patches an ST word over this LD template).
  patch_slots_.push_back(static_cast<uint32_t>(code_.size()));
  Emit(kLd, OperandRef{OperandRef::kMappedAddr, 0});
}

void Builder::LdIndexed(Cell base, Cell index) {
  Label slot = NewLabel();
  Ld(index);
  AddSpec(ConstSpec{0, -1, static_cast<int>(base.id), false});  // + addr(base)
  Emit(kSt, LabelOp(slot));  // patch the next word: "LD base+index"
  PatchSlot(slot);
}

void Builder::StIndexed(Cell base, Cell index) {
  Label slot = NewLabel();
  St(t_[6]);  // save the value to store
  Ld(index);
  AddSpec(ConstSpec{1u << 28, -1, static_cast<int>(base.id), false});
  Emit(kSt, LabelOp(slot));
  Ld(t_[6]);
  PatchSlot(slot);
}

void Builder::LdIndexedAbs(uint32_t abs_base, Cell index) {
  Label slot = NewLabel();
  Ld(index);
  AddSpec(ConstSpec{abs_base, -1, -1, false});
  Emit(kSt, LabelOp(slot));
  PatchSlot(slot);
}

void Builder::StIndexedAbs(uint32_t abs_base, Cell index) {
  Label slot = NewLabel();
  St(t_[6]);
  Ld(index);
  AddSpec(ConstSpec{(1u << 28) + abs_base, -1, -1, false});
  Emit(kSt, LabelOp(slot));
  Ld(t_[6]);
  PatchSlot(slot);
}

Result<Program> Builder::Build() {
  const uint32_t data_base =
      kProgramOrigin + static_cast<uint32_t>(code_.size());

  auto label_addr = [&](uint32_t id) -> Result<uint32_t> {
    if (label_pos_[id] < 0) {
      return Status::InvalidArgument("VeRisc builder: unbound label " +
                                     std::to_string(id));
    }
    return kProgramOrigin + static_cast<uint32_t>(label_pos_[id]);
  };
  auto cell_addr = [&](uint32_t id) { return data_base + id; };

  Program p;
  p.words.reserve(code_.size() + cells_.size());
  for (const Emitted& e : code_) {
    uint32_t addr = 0;
    switch (e.ref.kind) {
      case OperandRef::kMappedAddr:
      case OperandRef::kAbsAddr:
        addr = e.ref.index;
        break;
      case OperandRef::kCellRef:
        addr = cell_addr(e.ref.index);
        break;
      case OperandRef::kLabelRef: {
        ULE_ASSIGN_OR_RETURN(uint32_t a, label_addr(e.ref.index));
        addr = a;
        break;
      }
    }
    p.words.push_back(Instr(static_cast<Opcode>(e.op), addr));
  }

  // Data segment: plain cells first (label cells resolved), then patch the
  // pooled constants (which may reference cell addresses).
  std::vector<uint32_t> data(cells_.size(), 0);
  for (size_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i].label_id >= 0) {
      ULE_ASSIGN_OR_RETURN(uint32_t a,
                           label_addr(static_cast<uint32_t>(cells_[i].label_id)));
      data[i] = a;
    } else {
      data[i] = cells_[i].literal;
    }
  }
  for (const auto& [id, spec] : pool_cells_) {
    uint32_t v = spec.literal;
    if (spec.label_id >= 0) {
      ULE_ASSIGN_OR_RETURN(uint32_t a,
                           label_addr(static_cast<uint32_t>(spec.label_id)));
      v += a;
    }
    if (spec.cell_id >= 0) v += cell_addr(static_cast<uint32_t>(spec.cell_id));
    if (spec.sub_label_id >= 0) {
      ULE_ASSIGN_OR_RETURN(
          uint32_t a, label_addr(static_cast<uint32_t>(spec.sub_label_id)));
      v -= a;
    }
    if (spec.negate) v = 0u - v;
    data[id] = v;
  }
  p.words.insert(p.words.end(), data.begin(), data.end());

  if (kProgramOrigin + p.words.size() > (1u << 16)) {
    return Status::ResourceExhausted(
        "VeRisc program overlaps the fixed table/guest regions (size " +
        std::to_string(p.words.size()) + " words)");
  }
  AppendFusionPlan(p);
  return p;
}

void Builder::AppendFusionPlan(Program& p) const {
  // Greedy left-to-right scan for fusible 2-3 instruction sequences. The
  // plan is advisory metadata: the engine rewrites only the *first* word of
  // a sequence, so jumping into the middle of one still executes the plain
  // tail words. Patch-slot words are excluded on either side — their opcode
  // is decided at run time (StIndexed patches an ST over the LD template),
  // so no static pairing across them is sound.
  std::vector<char> is_slot(code_.size(), 0);
  for (uint32_t s : patch_slots_) is_slot[s] = 1;
  // Cell, label and absolute operands all resolve to addresses >=
  // kProgramOrigin, so any non-mapped operand is a plain memory access.
  auto plain = [&](size_t i, Opcode op) {
    return !is_slot[i] && code_[i].op == op &&
           code_[i].ref.kind != OperandRef::kMappedAddr;
  };
  auto mapped = [&](size_t i, Opcode op, uint32_t addr) {
    return !is_slot[i] && code_[i].op == op &&
           code_[i].ref.kind == OperandRef::kMappedAddr &&
           code_[i].ref.index == addr;
  };
  for (size_t i = 0; i + 1 < code_.size();) {
    uint8_t nibble = 0;
    size_t len = 2;
    if (i + 2 < code_.size() && plain(i, kSt) && mapped(i + 1, kLd, 0) &&
        mapped(i + 2, kSt, 2)) {
      nibble = kFusedStClc;
      len = 3;
    } else if (mapped(i, kLd, 0) && mapped(i + 1, kSt, 2)) {
      nibble = kFusedClc;
    } else if (mapped(i, kLd, 2) && plain(i + 1, kAnd)) {
      nibble = kFusedMaskAnd;
    } else if (plain(i, kLd) && plain(i + 1, kSbb)) {
      nibble = kFusedLdSbb;
    } else if (plain(i, kLd) && plain(i + 1, kSt)) {
      nibble = kFusedLdSt;
    } else if (plain(i, kLd) && plain(i + 1, kAnd)) {
      nibble = kFusedLdAnd;
    } else if (plain(i, kLd) && mapped(i + 1, kSt, 1)) {
      nibble = kFusedLdJmp;
    } else if (plain(i, kSbb) && plain(i + 1, kSt)) {
      nibble = kFusedSbbSt;
    } else if (plain(i, kSbb) && mapped(i + 1, kSt, 1)) {
      nibble = kFusedSbbJmp;
    } else if (plain(i, kAnd) && plain(i + 1, kSt)) {
      nibble = kFusedAndSt;
    } else if (plain(i, kSt) && plain(i + 1, kLd)) {
      nibble = kFusedStLd;
    } else if (plain(i, kSt) && plain(i + 1, kSt)) {
      nibble = kFusedStSt;
    }
    if (nibble != 0) {
      p.fusion_plan.push_back(
          Program::Fusion{static_cast<uint32_t>(i), nibble});
      i += len;
    } else {
      ++i;
    }
  }
}

}  // namespace verisc
}  // namespace ule
