/// \file translation_cache.h
/// \brief DynaRISC→VeRISC binary translation, cached per guest program.
///
/// The archived recovery path (§3.2) runs the DynaRisc decoders on a
/// DynaRisc interpreter written in VeRisc: every guest instruction is
/// fetched, table-decoded and dispatched again, which costs 90-1500 VeRisc
/// steps per guest instruction. This module removes the interpreter from
/// the in-process restore path: each distinct guest program is translated
/// once, with `verisc::Builder`, into straight-line VeRisc code, and
/// `RunNested` runs that code directly. Nothing here is archival: the
/// cold interpreter, its input-port protocol and the Bootstrap text are
/// untouched, and a translated program never leaves the process.
///
/// ## Block discovery
/// Basic blocks are found by static traversal from the entry point,
/// following fallthrough, both arms of JZ/JC, JUMP and CALL targets, and
/// CALL return sites. DynaRisc has no alignment rule, so a jump into the
/// middle of an instruction simply starts another block at that address
/// (a different decode of the same bytes). A block ends at a control
/// transfer, at a halt, or where it falls into another block's start.
///
/// ## Emission
///  * R0-R7, D0-D3, HI, Z and C are fixed VeRisc cells; rd, rs, mode and
///    immediates are static operands (no patched index loads, no helper
///    calls). D cells hold `kXGuestBase + D`, so a guest load is one
///    patched LD; the base has bit 16 clear, so `& (base | 0xFFFF)` after
///    an add wraps the 16-bit pointer in place.
///  * Inside a block, register values set by LDI (and carried by MOVE and
///    pointer post-increments) are known at translation time: a guest
///    load or store through a known pointer becomes a fixed-address
///    access, with the code-map check done during translation.
///  * Z is kept as the last Z-setting 16-bit result (Z = cell == 0) and C
///    as 0/1. A global backward liveness pass over the block graph stores
///    Z, C and HI only where a later instruction can read them.
///  * JZ/JC, JUMP and CALL chain directly to the translated target block;
///    blocks are laid out so that one successor usually falls through.
///  * CALL pushes its static return address into guest memory exactly as
///    the interpreter does. RET pops it and dispatches through a 64 Ki
///    per-address table (kXRetTable) holding a return site's block start
///    or the bail address.
///  * MUL reads a resident 8×8-bit product table. Operands below 256 take
///    one lookup; any other operand pair lands on a sentinel and runs a
///    shared four-product routine.
///  * Immediate LSL/LSR compose resident shift-by-1/4/8 tables; ASR, ROR,
///    register amounts and shifts whose C is live run a shared single-step
///    routine that keeps the per-step carry semantics.
///
/// ## Exactness by bailing
/// Every guest store (STM, CALL's push) goes through a host-poked per-byte
/// code map, kXStoreMap (kXStoreMapNext for the second byte of a word):
/// its entry is the ST word for a data byte and an illegal VeRisc word for
/// a byte some translated instruction covers, so a store into code faults
/// the machine before it happens. A RET to an
/// address that is not a return site faults the same way, and a program
/// whose translation does not fit the 64 Ki-word program area is never
/// run translated. On any of these bails `RunNested` discards the attempt
/// and re-runs the guest on the cold archived interpreter within the
/// remaining step budget, so self-modifying or adversarial guests get
/// exactly the archival semantics. The archived decoders never bail.
///
/// Entries are immutable and shared (`shared_ptr`), keyed by a hash of
/// the program image, bounded by an LRU, and safe to use from SharedPool
/// workers concurrently: the mutex only guards the map, never a machine.

#ifndef ULE_OLONYS_TRANSLATION_CACHE_H_
#define ULE_OLONYS_TRANSLATION_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "dynarisc/machine.h"
#include "support/bytes.h"
#include "support/status.h"
#include "verisc/machine.h"
#include "verisc/verisc.h"

namespace ule {
namespace olonys {

/// VeRisc memory layout of a translated run (word addresses). The
/// translated program itself sits at 0x10 .. 0xFFFF.
inline constexpr uint32_t kXGuestBase = 0x20000;   ///< guest byte per word
inline constexpr uint32_t kXStoreMap = 0x30000;    ///< ST word or bail word
inline constexpr uint32_t kXRetTable = 0x40000;    ///< RET target per address
inline constexpr uint32_t kXLsl1 = 0x50000;        ///< (v << 1) & 0xFFFF
inline constexpr uint32_t kXLsl4 = 0x60000;        ///< (v << 4) & 0xFFFF
inline constexpr uint32_t kXLsl8 = 0x70000;        ///< (v << 8) & 0xFFFF
inline constexpr uint32_t kXLsr1 = 0x80000;        ///< v >> 1
inline constexpr uint32_t kXLsr4 = 0x90000;        ///< v >> 4
inline constexpr uint32_t kXLsr8 = 0xA0000;        ///< v >> 8
inline constexpr uint32_t kXProduct = 0xB0000;     ///< [x*256 + y] = x * y
inline constexpr uint32_t kXMulRow = 0xC0000;      ///< product row per operand
inline constexpr uint32_t kXMulNotCol = 0xD0000;   ///< ~column per operand
inline constexpr uint32_t kXNotShl8 = 0xE0000;     ///< [h] = ~(h << 8)
inline constexpr uint32_t kXNotRetRow = 0xE0100;   ///< [h] = ~(ret + h*256)
/// Jumping here faults the machine: the word is an illegal instruction.
inline constexpr uint32_t kXBailAddr = 0xE0200;
inline constexpr uint32_t kXStoreMapNext = 0xF0000;  ///< kXStoreMap[a + 1]
/// LD with an out-of-range address: executing it faults.
inline constexpr uint32_t kXBailWord = 0x0FFFFFFFu;

class TranslationCache {
 public:
  /// One translated program plus the per-program memory it needs.
  struct Entry {
    /// False when the translation did not fit the program area; such a
    /// program always runs on the cold interpreter.
    bool translated = false;
    verisc::Program program;
    /// Guest memory image, one word per byte (64 Ki words at kXGuestBase).
    std::vector<uint32_t> guest_words;
    /// kXStoreMap and kXRetTable contents (64 Ki words each);
    /// kXStoreMapNext is the store map rotated by one address.
    std::vector<uint32_t> store_map;
    std::vector<uint32_t> ret_table;
    /// Process-unique id (detects which entry a machine already holds).
    uint64_t id = 0;
    /// Exact identity for hit verification (hashes can collide).
    Bytes image;
    uint16_t entry_point = 0;
  };
  using EntryPtr = std::shared_ptr<const Entry>;

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t entries = 0;
  };

  /// Process-wide cache shared by all RunNested callers and pool workers.
  static TranslationCache& Global();

  /// Returns the translation for `program`, building and inserting it on a
  /// miss (evicting the least-recently-used entry beyond the capacity).
  /// `cache_hit`, when non-null, reports whether the entry was served from
  /// the cache (per-call, race-free, unlike diffing stats()).
  EntryPtr Acquire(const dynarisc::Program& program,
                   bool* cache_hit = nullptr);

  Stats stats() const;
  /// Drops all entries and zeroes the counters (tests and benches).
  void Clear();
  /// Maximum resident entries (default 8, ~1 MiB each).
  void set_capacity(size_t capacity);

 private:
  struct Slot {
    uint64_t key = 0;
    EntryPtr entry;
  };

  mutable std::mutex mu_;
  std::list<Slot> lru_;  // front = most recently used
  std::unordered_map<uint64_t, std::list<Slot>::iterator> by_key_;
  size_t capacity_ = 8;
  Stats stats_;
};

/// Loads a translated entry into `machine`: the program, the resident
/// shift/product tables (kept across runs while nothing else re-loads the
/// machine), the entry's store map and return table, and a fresh guest
/// image. Requires `entry.translated`.
Status LoadTranslation(const TranslationCache::Entry& entry,
                       verisc::Machine& machine);

}  // namespace olonys
}  // namespace ule

#endif  // ULE_OLONYS_TRANSLATION_CACHE_H_
