/// \file builder.h
/// \brief Macro-assembler for VeRisc programs.
///
/// VeRisc has four instructions and no branch, no add, no index register.
/// Real programs for it (most importantly the DynaRisc interpreter that
/// Olonys archives, §3.2) are written against this builder, which provides
/// the classic one-instruction-set-computer toolkit:
///
///  * `ADD` is synthesised from two subtractions (a + b = a - (0 - b));
///  * conditionals select between two target addresses with the borrow
///    mask at mapped word [2] and jump by storing to the PC at [1];
///  * indexed loads/stores patch the address field of the *next*
///    instruction word (self-modifying code, which the VeRisc spec makes
///    legal precisely for this purpose);
///  * calls store a return address into a per-function return slot
///    (non-reentrant, which is sufficient for decoders).
///
/// All macros clobber R, the borrow flag and the shared temp cells; code
/// written with the builder treats VeRisc cells, not R, as its variables.

#ifndef ULE_VERISC_BUILDER_H_
#define ULE_VERISC_BUILDER_H_

#include <cassert>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "support/status.h"
#include "verisc/verisc.h"

namespace ule {
namespace verisc {

/// \brief Emits VeRisc code + data and resolves labels/constants at Build().
class Builder {
 public:
  /// Handle to one data word (cells are the builder's "variables").
  struct Cell {
    uint32_t id = 0;
  };
  /// Handle to a code position.
  struct Label {
    uint32_t id = 0;
  };
  /// A non-reentrant function: entry label plus return-address slot.
  struct Fn {
    Label entry;
    Cell ret_slot;
  };

  Builder();

  // ---- data allocation ----

  /// Allocates one data word with an initial value.
  Cell NewCell(uint32_t initial = 0);
  /// Allocates `size` contiguous words; index with At().
  Cell NewArray(uint32_t size, uint32_t fill = 0);
  /// Allocates one word whose initial value is the address of `l`.
  Cell NewLabelCell(Label l);
  /// Allocates a table of code addresses (e.g. an opcode dispatch table).
  Cell NewJumpTable(const std::vector<Label>& targets);
  /// Handle to `base[offset]` of an array allocated with NewArray.
  static Cell At(Cell base, uint32_t offset) { return Cell{base.id + offset}; }

  // ---- labels & functions ----

  Label NewLabel();
  void Bind(Label l);
  Fn DeclareFn();
  /// Binds the function entry; emit its body next, ending with Ret(f).
  void BeginFn(Fn f);
  void Call(Fn f);
  void Ret(Fn f);

  // ---- raw instructions ----

  void Ld(Cell c);
  void St(Cell c);
  void Sbb(Cell c);
  void And(Cell c);
  void LdMapped(uint32_t addr);
  void StMapped(uint32_t addr);

  // ---- macros: register loads and arithmetic ----

  void LdImm(uint32_t v);         ///< R <- v
  void Clc();                     ///< borrow <- 0 (R <- 0)
  void AddCell(Cell a);           ///< R <- R + mem[a]
  void AddImm(uint32_t v);        ///< R <- R + v
  void SubCell(Cell a);           ///< R <- R - mem[a]; borrow = underflow
  void SubImm(uint32_t v);        ///< R <- R - v; borrow = underflow
  void AndImm(uint32_t v);        ///< R <- R & v
  void Not();                     ///< R <- ~R

  // ---- macros: control flow ----

  void Jmp(Label l);
  void JmpCell(Cell c);           ///< PC <- mem[c]
  void Jz(Label l);               ///< jump when R == 0
  void Jnz(Label l);              ///< jump when R != 0
  void Jc(Label l);               ///< jump when borrow == 1
  void Jnc(Label l);              ///< jump when borrow == 0
  void Halt();

  // ---- macros: indexed memory (self-modifying) ----

  /// R <- mem[base_addr_of(base) + mem[index]]
  void LdIndexed(Cell base, Cell index);
  /// mem[base_addr_of(base) + mem[index]] <- R
  void StIndexed(Cell base, Cell index);
  /// R <- mem[abs_base + mem[index]] for a fixed region (e.g. guest memory).
  void LdIndexedAbs(uint32_t abs_base, Cell index);
  /// mem[abs_base + mem[index]] <- R
  void StIndexedAbs(uint32_t abs_base, Cell index);

  // ---- code generators (translators) ----

  /// Pooled read-only cell holding `v` (shared with the macros' pool).
  Cell Const(uint32_t v) { return PoolConst(ConstSpec{v, -1, -1, false}); }
  /// Pooled cell holding the address of cell `c`.
  Cell CellAddrConst(Cell c) {
    return PoolConst(ConstSpec{0, -1, static_cast<int>(c.id), false});
  }
  /// Pooled cell holding the address of label `l` (bound before or after).
  Cell LabelConst(Label l) {
    return PoolConst(ConstSpec{0, static_cast<int>(l.id), -1, false});
  }
  /// LD/ST of a fixed word outside the program image (a table or region
  /// the host pokes, e.g. a translated guest's memory).
  void LdAbs(uint32_t addr) { EmitAbs(kLd, addr); }
  void StAbs(uint32_t addr) { EmitAbs(kSt, addr); }
  /// ST to the code word bound at `slot`: patches a PatchSlot placeholder
  /// with the instruction word currently in R.
  void StSlot(Label slot) { Emit(kSt, LabelOp(slot)); }
  /// Binds `slot` to a placeholder word that earlier code patches (via
  /// StSlot) before it executes. Placeholders are never fused.
  void Slot(Label slot) { PatchSlot(slot); }

  // ---- macros: I/O ----

  void InByte() { LdMapped(3); }   ///< R <- next input byte / 0xFFFFFFFF
  void OutByte() { StMapped(4); }  ///< output <- R & 0xFF

  /// Number of instruction words emitted so far.
  size_t code_size() const { return code_.size(); }

  /// Absolute address of a bound label in the built image (e.g. a
  /// translated block start a host pokes into a dispatch table).
  uint32_t LabelAddress(Label l) const {
    assert(label_pos_[l.id] >= 0 && "label not bound");
    return kProgramOrigin + static_cast<uint32_t>(label_pos_[l.id]);
  }

  /// Lays out code then data, resolves labels/constants, computes the
  /// superinstruction fusion plan (Program::fusion_plan), and returns the
  /// program. Fails if a label was never bound or the image exceeds the
  /// fixed data regions (see dynarisc_in_verisc.h layout).
  Result<Program> Build();

 private:
  // Operand of an emitted instruction, resolved at Build() time.
  struct OperandRef {
    enum Kind { kMappedAddr, kCellRef, kLabelRef, kAbsAddr } kind = kMappedAddr;
    uint32_t index = 0;  // mapped address / cell id / label id / address
  };
  struct Emitted {
    Opcode op;
    OperandRef ref;
  };
  // Initial value of a data word; exactly one source applies.
  struct CellInit {
    uint32_t literal = 0;
    int label_id = -1;  // if >= 0, value = address of that label
  };
  // Constant-pool key:
  //   value = sign * (literal + addr(label) + addr(cell) - addr(sub_label)).
  // The subtracted label lets macros pool label-difference constants
  // (BorrowSelectJump needs `fallthrough - taken`).
  struct ConstSpec {
    uint32_t literal = 0;
    int label_id = -1;
    int cell_id = -1;
    bool negate = false;
    int sub_label_id = -1;
    bool operator<(const ConstSpec& o) const {
      return std::tie(literal, label_id, cell_id, negate, sub_label_id) <
             std::tie(o.literal, o.label_id, o.cell_id, o.negate,
                      o.sub_label_id);
    }
  };

  void Emit(Opcode op, OperandRef ref);
  void EmitAbs(Opcode op, uint32_t addr) {
    assert(addr >= (1u << 16) && addr < kMemoryWords);
    Emit(op, OperandRef{OperandRef::kAbsAddr, addr});
  }
  void AppendFusionPlan(Program& p) const;
  OperandRef CellOp(Cell c) { return {OperandRef::kCellRef, c.id}; }
  OperandRef LabelOp(Label l) { return {OperandRef::kLabelRef, l.id}; }
  Cell PoolConst(ConstSpec spec);
  /// R <- R + (lit + addr(label) + addr(cell)); clobbers t0.
  void AddSpec(ConstSpec spec);
  /// Emits mask-select jump: PC <- borrow ? addr(taken) : addr(fallthrough).
  void BorrowSelectJump(Label taken);
  /// Emits a placeholder word that preceding code patches, then binds l there.
  void PatchSlot(Label l);

  std::vector<Emitted> code_;
  std::vector<CellInit> cells_;
  std::vector<int64_t> label_pos_;          // code index or -1
  std::map<ConstSpec, uint32_t> const_pool_;  // spec -> cell id
  std::vector<std::pair<uint32_t, ConstSpec>> pool_cells_;
  std::vector<uint32_t> patch_slots_;       // code indices of PatchSlot words
  size_t last_bind_pos_ = SIZE_MAX;         // code_.size() at the last Bind()
  Cell t_[8];                                // shared macro temps
};

}  // namespace verisc
}  // namespace ule

#endif  // ULE_VERISC_BUILDER_H_
