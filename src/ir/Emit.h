//===- ir/Emit.h - InstrList emission with label resolution ---------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Emits an InstrList to a flat byte buffer, resolving label operands and
/// choosing short branch forms where permitted. Unmodified instructions
/// (valid raw bits) are copied byte-for-byte — the core fast path of the
/// paper's level-of-detail design; only Level 4 instructions and relocated
/// direct CTIs go through the full encoder.
///
//===----------------------------------------------------------------------===//

#ifndef RIO_IR_EMIT_H
#define RIO_IR_EMIT_H

#include "ir/InstrList.h"

#include <cstddef>
#include <vector>

namespace rio {

/// Placement results of one emission: the total size and the offset of
/// every Instr relative to the base address.
struct EmitResult {
  unsigned TotalSize = 0;
  std::vector<Instr *> Instrs;
  std::vector<unsigned> Offsets;
  /// The instruction that failed to encode, when emission failed on one.
  Instr *Failed = nullptr;

  /// Offset of \p I within the emitted bytes; \p I must be in the list.
  unsigned offsetOf(const Instr *I) const {
    for (size_t Idx = 0; Idx != Instrs.size(); ++Idx)
      if (Instrs[Idx] == I)
        return Offsets[Idx];
    return ~0u;
  }
};

/// Emits \p IL as if placed at \p BaseAddr. If \p Out is null, performs a
/// sizing pass only; otherwise writes at most \p OutCap bytes.
/// \returns true on success (false on encoding failure or overflow).
bool emitInstrList(InstrList &IL, AppPc BaseAddr, uint8_t *Out, size_t OutCap,
                   bool AllowShortBranches, EmitResult &Result);

} // namespace rio

#endif // RIO_IR_EMIT_H
