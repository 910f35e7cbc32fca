//===- ir/Emit.cpp - InstrList emission with label resolution --------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "ir/Emit.h"

#include "isa/Encode.h"
#include "support/Compiler.h"

#include <cstring>

using namespace rio;

namespace {

/// True if \p I cannot simply have its raw bits copied when placed at a new
/// address: Level 4 instructions, and direct CTIs being relocated (their
/// pc-relative displacement would otherwise point at the wrong place).
bool needsReencode(Instr &I, AppPc PlacedAt) {
  if (I.isBundle())
    return false; // bundles never contain CTIs (bb-builder invariant)
  if (!I.rawBitsValid())
    return true;
  if (I.level() < Instr::Level::OpcodeKnown) {
    // Cheap check without decoding: only CTIs are position-dependent, and
    // every CTI the runtime handles is at least Level 2 already. Raw Level 1
    // instructions in the middle of a block are position-independent.
    return false;
  }
  return I.isDirectCti() && PlacedAt != I.appAddr();
}

/// Resolves the branch target of a direct CTI whose operand may be a label.
bool resolveTarget(Instr &I, AppPc BaseAddr, const EmitResult &Placement,
                   AppPc &Target) {
  const Operand &Op = I.getSrc(0);
  if (Op.isPc()) {
    Target = Op.getPc();
    return true;
  }
  if (Op.isInstr()) {
    unsigned Off = Placement.offsetOf(static_cast<Instr *>(Op.getInstr()));
    if (Off == ~0u)
      return false;
    Target = AppPc(BaseAddr + Off);
    return true;
  }
  return false;
}

/// Encodes \p I at \p Pc with its label operand (if any) resolved against
/// the current placement. Returns the length or -1.
int encodeAt(Instr &I, AppPc Pc, AppPc BaseAddr, const EmitResult &Placement,
             bool AllowShort, uint8_t *Out) {
  uint8_t Scratch[MaxInstrLength];
  uint8_t *Buf = Out ? Out : Scratch;
  if (I.isLabel())
    return 0;
  if (I.isDirectCti()) {
    AppPc Target;
    if (!resolveTarget(I, BaseAddr, Placement, Target))
      return -1;
    // Encode a copy with a concrete pc target so label operands need not be
    // mutated in place.
    EncodeOptions Opts;
    Opts.AllowShortBranches = AllowShort;
    Operand Srcs[MaxSrcs];
    unsigned NumSrcs = I.numSrcs();
    for (unsigned Idx = 0; Idx != NumSrcs; ++Idx)
      Srcs[Idx] = I.getSrc(Idx);
    Srcs[0] = Operand::pc(Target);
    Operand Dsts[MaxDsts];
    unsigned NumDsts = I.numDsts();
    for (unsigned Idx = 0; Idx != NumDsts; ++Idx)
      Dsts[Idx] = I.getDst(Idx);
    return encodeInstr(I.getOpcode(), I.getPrefixes(), Srcs, NumSrcs, Dsts,
                       NumDsts, Pc, Buf, Opts);
  }
  return I.encode(Pc, Buf, AllowShort);
}

} // namespace

bool rio::emitInstrList(InstrList &IL, AppPc BaseAddr, uint8_t *Out,
                        size_t OutCap, bool AllowShortBranches,
                        EmitResult &Result) {
  Result.Instrs.clear();
  Result.Offsets.clear();
  Result.Failed = nullptr;
  for (Instr &I : IL)
    Result.Instrs.push_back(&I);
  size_t N = Result.Instrs.size();
  Result.Offsets.assign(N, 0);

  // Pass 0: crude offset estimates (raw length, or the maximum length for
  // anything that needs encoding) so forward label references resolve to a
  // sane nearby address in pass 1. This matters for rel8-only branches
  // (jecxz), whose encoders reject far targets outright.
  {
    unsigned Estimate = 0;
    for (size_t Idx = 0; Idx != N; ++Idx) {
      Instr &I = *Result.Instrs[Idx];
      Result.Offsets[Idx] = Estimate;
      if (I.isLabel())
        continue;
      unsigned Len;
      if (I.rawBitsValid()) {
        Len = I.rawLength();
      } else if (I.isDirectCti()) {
        // Worst-case fixed sizes; cannot self-encode yet (label targets).
        Opcode Op = I.getOpcode();
        Len = Op == OP_jecxz ? 2 : I.isCondBranch() ? 6 : 5;
      } else {
        int L = I.encodedLength(/*Pc=*/0, /*AllowShortBranches=*/false);
        Len = L < 0 ? MaxInstrLength : unsigned(L);
      }
      Estimate += Len;
    }
  }

  // Pass 1: conservative lengths (labels resolve "far", no short forms), so
  // every subsequent pass can only shrink placements.
  std::vector<unsigned> Lengths(N, 0);
  unsigned Offset = 0;
  for (size_t Idx = 0; Idx != N; ++Idx) {
    Instr &I = *Result.Instrs[Idx];
    Result.Offsets[Idx] = Offset;
    int Len;
    if (!I.isBundle() && !I.rawBitsValid() && !I.isLabel() &&
        I.isDirectCti()) {
      // Worst case: rel32 form regardless of target.
      Len = encodeAt(I, BaseAddr + Offset, BaseAddr, Result,
                     /*AllowShort=*/false, nullptr);
    } else if (needsReencode(I, BaseAddr + Offset)) {
      Len = encodeAt(I, BaseAddr + Offset, BaseAddr, Result,
                     /*AllowShort=*/false, nullptr);
    } else {
      Len = I.isLabel() ? 0 : int(I.rawLength());
    }
    if (Len < 0) {
      Result.Failed = &I;
      return false;
    }
    Lengths[Idx] = unsigned(Len);
    Offset += unsigned(Len);
  }

  // Pass 2..k: refine with real label offsets and (optionally) short forms
  // until the layout stabilizes. Sizes only ever shrink, so this converges.
  for (unsigned Iter = 0; Iter != 8; ++Iter) {
    bool Changed = false;
    Offset = 0;
    for (size_t Idx = 0; Idx != N; ++Idx) {
      Instr &I = *Result.Instrs[Idx];
      if (Result.Offsets[Idx] != Offset) {
        Result.Offsets[Idx] = Offset;
        Changed = true;
      }
      unsigned Len = Lengths[Idx];
      if (needsReencode(I, BaseAddr + Offset) || I.isLabel()) {
        int NewLen = encodeAt(I, BaseAddr + Offset, BaseAddr, Result,
                              AllowShortBranches, nullptr);
        if (NewLen < 0) {
          Result.Failed = &I;
          return false;
        }
        if (unsigned(NewLen) <= Len)
          Len = unsigned(NewLen);
        // (A grown branch keeps its conservative size; offsets stay valid.)
      }
      if (Len != Lengths[Idx]) {
        Lengths[Idx] = Len;
        Changed = true;
      }
      Offset += Len;
    }
    Result.TotalSize = Offset;
    if (!Changed)
      break;
  }

  if (!Out)
    return true;
  if (Result.TotalSize > OutCap)
    return false;

  // Final pass: write bytes at the settled offsets.
  for (size_t Idx = 0; Idx != N; ++Idx) {
    Instr &I = *Result.Instrs[Idx];
    unsigned At = Result.Offsets[Idx];
    if (I.isLabel())
      continue;
    if (needsReencode(I, BaseAddr + At)) {
      int Len = encodeAt(I, BaseAddr + At, BaseAddr, Result,
                         AllowShortBranches, Out + At);
      if (Len < 0) {
        Result.Failed = &I;
        return false;
      }
      // A short form may come in under the reserved size; pad with nops so
      // the following instruction lands at its computed offset.
      for (unsigned Pad = unsigned(Len); Pad < Lengths[Idx]; ++Pad)
        Out[At + Pad] = 0x90;
    } else {
      std::memcpy(Out + At, I.rawBits(), I.rawLength());
    }
  }
  return true;
}
