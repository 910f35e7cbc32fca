//===- vm/Machine.cpp - The simulated machine -------------------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "vm/Machine.h"

#include "vm/Syscall.h"
#include "support/Compiler.h"

#include <sys/mman.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <new>

using namespace rio;

Machine::Machine(const MachineConfig &Config)
    : Config(Config), Mem(Config.AppRegionSize + Config.RuntimeRegionSize) {
  CurCpu = &Threads[CurThread].Cpu;
}

Machine::Machine(const Machine &Template)
    : Config(Template.Config), Mem(Template.Mem), Threads(Template.Threads),
      CurThread(Template.CurThread), Pred(Template.Pred),
      Status(Template.Status), ExitCode(Template.ExitCode),
      FaultReason(Template.FaultReason), Output(Template.Output),
      Cycles(Template.Cycles), InstrsExecuted(Template.InstrsExecuted),
      LastPc(Template.LastPc), ResetPc(Template.ResetPc),
      ResetSp(Template.ResetSp), WatchLo(Template.WatchLo),
      WatchHi(Template.WatchHi), InheritedWatches(Template.watchCounts()),
      CodeWrites(Template.CodeWrites) {
  // The cold decode cache has nothing for the template's pending
  // invalidations to orphan, so they stay behind with the template.
  CurCpu = &Threads[CurThread].Cpu;
}

Machine::~Machine() {
  if (DecodeCache)
    ::munmap(DecodeCache, tableBytes());
}

size_t Machine::tableBytes() const {
  return DecodeCacheLines * sizeof(DecodeLine) +
         2 * size_t(NumLines) * sizeof(uint32_t);
}

void Machine::allocTables() {
  NumLines = Mem.size() / WriteWatchLine + 1;
  void *Block = ::mmap(nullptr, tableBytes(), PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (Block == MAP_FAILED)
    throw std::bad_alloc();
  // Zero-filled: every decode line has Gen 0 and fills store LineGen+1 >= 1,
  // so an untouched line never reads as valid.
  DecodeCache = static_cast<DecodeLine *>(Block);
  LineGen = reinterpret_cast<uint32_t *>(DecodeCache + DecodeCacheLines);
  LineState = LineGen + NumLines;
  for (size_t I = 0; I != InheritedWatches.size(); ++I)
    lineState(WatchLo + uint32_t(I)) = InheritedWatches[I];
  InheritedWatches = {};
}

std::vector<uint32_t> Machine::watchCounts() const {
  if (!LineState || WatchLo > WatchHi)
    return InheritedWatches; // empty once the tables exist
  std::vector<uint32_t> Counts(LineState + WatchLo, LineState + WatchHi + 1);
  for (uint32_t &C : Counts)
    C &= ~1u; // the fork caches no decodes yet
  return Counts;
}

void Machine::resetForRun() {
  Threads.assign(1, Thread());
  CurThread = 0;
  CurCpu = &Threads[0].Cpu;
  CurCpu->Pc = ResetPc;
  CurCpu->writeGpr32(REG_ESP, ResetSp);
  Status = RunStatus::Running;
  ExitCode = 0;
  FaultReason.clear();
}

void Machine::fault(const std::string &Reason) {
  Status = RunStatus::Faulted;
  FaultReason = Reason;
}

const DecodedInstr *Machine::fetchDecode(AppPc Pc) {
  if (Pc >= Mem.size())
    return nullptr;
  if (RIO_UNLIKELY(!DecodeCache))
    allocTables();
  const uint32_t Line = Pc / WriteWatchLine;
  const uint32_t Gen = lineGen(Line);
  {
    const DecodeLine &L = decodeLine(Pc);
    if (L.Tag == Pc && L.Gen == Gen + 1)
      return &L.DI;
  }
  // All instructions are at most MaxInstrLength bytes, so a bounded window
  // is as good as the old whole-image pointer; readWindow stitches a
  // page-straddling fetch through the scratch buffer.
  uint8_t Scratch[MaxInstrLength];
  uint32_t Win = std::min<uint32_t>(Mem.size() - Pc, MaxInstrLength);
  const uint8_t *Bytes = Mem.readWindow(Pc, Win, Scratch);
  DecodedInstr DI;
  if (!Bytes || !decodeInstr(Bytes, Win, Pc, DI))
    return nullptr;
  lineState(Line) |= 1; // sticky: stores here now invalidate
  DecodeLine &L = decodeLine(Pc);
  L.Tag = Pc;
  L.Gen = Gen + 1;
  L.Cost = Config.Cost.cyclesFor(DI);
  L.DI = DI;
  return &L.DI;
}

void Machine::invalidateDecodeRange(uint32_t Lo, uint32_t Hi) {
  // Bump the generation of every watch line the range touches: cached
  // decodes tagged with the old generation fail the validity check on
  // their next probe. No scan of the decode cache, no per-pc erasure.
  Hi = std::min<uint64_t>(Hi, Mem.size());
  if (!LineGen || Lo >= Hi)
    return;
  for (uint32_t L = Lo / WriteWatchLine; L <= (Hi - 1) / WriteWatchLine; ++L)
    ++lineGen(L);
}

//===----------------------------------------------------------------------===//
// Code-write monitoring
//===----------------------------------------------------------------------===//

void Machine::addWriteWatch(uint32_t Lo, uint32_t Hi) {
  Hi = std::min<uint64_t>(Hi, Mem.size());
  if (Lo >= Hi)
    return;
  if (!LineState)
    allocTables();
  WatchLo = std::min(WatchLo, Lo / WriteWatchLine);
  WatchHi = std::max(WatchHi, (Hi - 1) / WriteWatchLine);
  for (uint32_t L = Lo / WriteWatchLine; L <= (Hi - 1) / WriteWatchLine; ++L)
    lineState(L) += 2; // watch count lives above the sticky decoded bit
}

void Machine::removeWriteWatch(uint32_t Lo, uint32_t Hi) {
  Hi = std::min<uint64_t>(Hi, Mem.size());
  if (Lo >= Hi)
    return;
  if (!LineState)
    allocTables(); // a fork's inherited counts live there
  for (uint32_t L = Lo / WriteWatchLine; L <= (Hi - 1) / WriteWatchLine; ++L)
    if (lineState(L) >> 1)
      lineState(L) -= 2;
}

void Machine::noteWriteSlow(uint32_t Addr, uint32_t Len, uint32_t State) {
  // The inline fast path already OR-ed the (at most two) line states; only
  // monitored stores land here.
  if (State & 1) {
    // Any instruction starting up to MaxInstrLength-1 bytes before the
    // store may span the written bytes.
    uint32_t Lo = Addr >= MaxInstrLength - 1 ? Addr - (MaxInstrLength - 1) : 0;
    PendingInval.push_back({Lo, Addr + Len});
  }
  if (State >> 1)
    CodeWrites.push_back({Addr, Addr + Len});
}

void Machine::drainPendingInvalidations() {
  for (const CodeWriteEvent &Ev : PendingInval)
    invalidateDecodeRange(Ev.Lo, Ev.Hi);
  PendingInval.clear();
}

//===----------------------------------------------------------------------===//
// Operand evaluation
//===----------------------------------------------------------------------===//

bool Machine::memAddr(const Operand &Op, uint32_t &Addr) const {
  assert(Op.isMem() && "not a memory operand");
  uint32_t A = uint32_t(Op.getDisp());
  if (Op.getBase() != REG_NULL)
    A += cpu().readGpr32(Op.getBase());
  if (Op.getIndex() != REG_NULL)
    A += cpu().readGpr32(Op.getIndex()) * Op.getScale();
  Addr = A;
  return true;
}

bool Machine::readOp32(const Operand &Op, uint32_t &Value) {
  switch (Op.kind()) {
  case Operand::RegKind:
    // Byte registers zero-extend when read in a 32-bit context (the only
    // such case is a shift's CL count operand).
    Value = isGpr8(Op.getReg()) ? cpu().readGpr8(Op.getReg())
                                : cpu().readGpr32(Op.getReg());
    return true;
  case Operand::ImmKind:
    Value = uint32_t(Op.getImm());
    return true;
  case Operand::PcKind:
    Value = Op.getPc();
    return true;
  case Operand::MemKind: {
    uint32_t Addr;
    memAddr(Op, Addr);
    return Mem.read32(Addr, Value);
  }
  default:
    return false;
  }
}

bool Machine::writeOp32(const Operand &Op, uint32_t Value) {
  if (Op.isReg()) {
    cpu().writeGpr32(Op.getReg(), Value);
    return true;
  }
  if (Op.isMem()) {
    uint32_t Addr;
    memAddr(Op, Addr);
    if (!Mem.write32(Addr, Value))
      return false;
    noteWrite(Addr, 4);
    return true;
  }
  return false;
}

bool Machine::readOp8(const Operand &Op, uint8_t &Value) {
  if (Op.isReg()) {
    Value = cpu().readGpr8(Op.getReg());
    return true;
  }
  if (Op.isImm()) {
    Value = uint8_t(Op.getImm());
    return true;
  }
  if (Op.isMem()) {
    uint32_t Addr;
    memAddr(Op, Addr);
    return Mem.read8(Addr, Value);
  }
  return false;
}

bool Machine::writeOp8(const Operand &Op, uint8_t Value) {
  if (Op.isReg()) {
    cpu().writeGpr8(Op.getReg(), Value);
    return true;
  }
  if (Op.isMem()) {
    uint32_t Addr;
    memAddr(Op, Addr);
    if (!Mem.write8(Addr, Value))
      return false;
    noteWrite(Addr, 1);
    return true;
  }
  return false;
}

bool Machine::readOpF64(const Operand &Op, double &Value) {
  if (Op.isReg()) {
    Value = cpu().readXmm(Op.getReg());
    return true;
  }
  if (Op.isMem()) {
    uint32_t Addr;
    memAddr(Op, Addr);
    return Mem.readF64(Addr, Value);
  }
  return false;
}

bool Machine::writeOpF64(const Operand &Op, double Value) {
  if (Op.isReg()) {
    cpu().writeXmm(Op.getReg(), Value);
    return true;
  }
  if (Op.isMem()) {
    uint32_t Addr;
    memAddr(Op, Addr);
    if (!Mem.writeF64(Addr, Value))
      return false;
    noteWrite(Addr, 8);
    return true;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Flag computation
//===----------------------------------------------------------------------===//

namespace {

/// Parity of the low result byte, precomputed: ParityLut.T[b] is EFLAGS_PF
/// if b has even parity, else 0.
struct ParityLut {
  uint32_t T[256];
  constexpr ParityLut() : T() {
    for (unsigned I = 0; I != 256; ++I) {
      unsigned B = I ^ (I >> 4);
      B ^= B >> 2;
      B ^= B >> 1;
      T[I] = (B & 1) == 0 ? uint32_t(EFLAGS_PF) : 0u;
    }
  }
};
constexpr ParityLut Parity;

constexpr uint32_t ArithFlags = EFLAGS_CF | EFLAGS_PF | EFLAGS_AF |
                                EFLAGS_ZF | EFLAGS_SF | EFLAGS_OF;

/// PF/ZF/SF bits for \p Result. SF is bit 7, so the sign bit shifts into
/// place directly.
inline uint32_t pzsBits(uint32_t Result) {
  uint32_t Bits = Parity.T[Result & 0xFF];
  if (Result == 0)
    Bits |= EFLAGS_ZF;
  Bits |= (Result >> 24) & EFLAGS_SF;
  return Bits;
}

void setPZS(CpuState &St, uint32_t Result) {
  St.Eflags = (St.Eflags & ~(EFLAGS_PF | EFLAGS_ZF | EFLAGS_SF)) |
              pzsBits(Result);
}

/// add/adc result flags; \p CarryIn is 0 or 1. All six arithmetic flags
/// are merged into Eflags with one read-modify-write.
inline uint32_t doAdd(CpuState &St, uint32_t A, uint32_t B, uint32_t CarryIn,
                      bool WriteCarry = true) {
  uint64_t Wide = uint64_t(A) + B + CarryIn;
  uint32_t Result = uint32_t(Wide);
  uint32_t Bits = pzsBits(Result);
  Bits |= ((A ^ B ^ Result) & EFLAGS_AF); // AF is bit 4 of the carry vector
  if (((A ^ Result) & (B ^ Result)) >> 31)
    Bits |= EFLAGS_OF;
  uint32_t Mask = ArithFlags & ~EFLAGS_CF;
  if (WriteCarry) {
    Mask = ArithFlags;
    if (Wide >> 32)
      Bits |= EFLAGS_CF;
  }
  St.Eflags = (St.Eflags & ~Mask) | Bits;
  return Result;
}

/// sub/sbb/cmp result flags.
inline uint32_t doSub(CpuState &St, uint32_t A, uint32_t B, uint32_t BorrowIn,
                      bool WriteCarry = true) {
  uint64_t Rhs = uint64_t(B) + BorrowIn;
  uint32_t Result = uint32_t(A - B - BorrowIn);
  uint32_t Bits = pzsBits(Result);
  Bits |= ((A ^ B ^ Result) & EFLAGS_AF);
  if (((A ^ B) & (A ^ Result)) >> 31)
    Bits |= EFLAGS_OF;
  uint32_t Mask = ArithFlags & ~EFLAGS_CF;
  if (WriteCarry) {
    Mask = ArithFlags;
    if (uint64_t(A) < Rhs)
      Bits |= EFLAGS_CF;
  }
  St.Eflags = (St.Eflags & ~Mask) | Bits;
  return Result;
}

inline void doLogicFlags(CpuState &St, uint32_t Result) {
  St.Eflags = (St.Eflags & ~ArithFlags) | pzsBits(Result);
}

bool condHolds(const CpuState &St, unsigned Cc) {
  bool CF = St.flag(EFLAGS_CF);
  bool PF = St.flag(EFLAGS_PF);
  bool ZF = St.flag(EFLAGS_ZF);
  bool SF = St.flag(EFLAGS_SF);
  bool OF = St.flag(EFLAGS_OF);
  bool Result;
  switch (Cc >> 1) {
  case 0:
    Result = OF;
    break; // o / no
  case 1:
    Result = CF;
    break; // b / nb
  case 2:
    Result = ZF;
    break; // z / nz
  case 3:
    Result = CF || ZF;
    break; // be / nbe
  case 4:
    Result = SF;
    break; // s / ns
  case 5:
    Result = PF;
    break; // p / np
  case 6:
    Result = SF != OF;
    break; // l / nl
  case 7:
    Result = ZF || (SF != OF);
    break; // le / nle
  default:
    RIO_UNREACHABLE("bad condition code");
  }
  return (Cc & 1) ? !Result : Result;
}

} // namespace

//===----------------------------------------------------------------------===//
// Syscalls
//===----------------------------------------------------------------------===//

unsigned Machine::createThread(AppPc Entry, uint32_t StackTop) {
  Thread T;
  T.Cpu.Pc = Entry;
  T.Cpu.writeGpr32(REG_ESP, StackTop & ~15u);
  Threads.push_back(T);
  CurCpu = &Threads[CurThread].Cpu; // push_back may have reallocated
  return unsigned(Threads.size() - 1);
}

Machine::SyscallResult Machine::doSyscall() {
  uint32_t Nr = cpu().readGpr32(REG_EAX);
  uint32_t Arg1 = cpu().readGpr32(REG_EBX);
  uint32_t Arg2 = cpu().readGpr32(REG_ECX);
  uint32_t Arg3 = cpu().readGpr32(REG_EDX);
  switch (Nr) {
  case RSYS_exit:
    Status = RunStatus::Exited;
    ExitCode = int(Arg1);
    return SyscallResult::Ok;
  case RSYS_print_int: {
    char Buf[16];
    int Len = std::snprintf(Buf, sizeof(Buf), "%d\n", int(Arg1));
    Output.append(Buf, size_t(Len));
    return SyscallResult::Ok;
  }
  case RSYS_print_char:
    Output.push_back(char(Arg1));
    return SyscallResult::Ok;
  case RSYS_write: {
    if (Arg1 != 1 && Arg1 != 2) {
      fault("write to bad fd");
      return SyscallResult::Fault;
    }
    if (!Mem.inBounds(Arg2, Arg3)) {
      fault("write from unmapped buffer");
      return SyscallResult::Fault;
    }
    Mem.forEachSpan(Arg2, Arg3, [&](const uint8_t *Run, uint32_t Len) {
      Output.append(reinterpret_cast<const char *>(Run), Len);
    });
    cpu().writeGpr32(REG_EAX, Arg3);
    return SyscallResult::Ok;
  }
  case RSYS_thread_create: {
    if (!Mem.inBounds(Arg2 - 16, 16)) {
      fault("thread_create with bad stack");
      return SyscallResult::Fault;
    }
    unsigned Tid = createThread(Arg1, Arg2);
    cpu().writeGpr32(REG_EAX, Tid);
    return SyscallResult::Spawned;
  }
  case RSYS_thread_exit:
    Threads[CurThread].Alive = false;
    // The whole program ends when the last thread leaves.
    {
      bool AnyAlive = false;
      for (const Thread &T : Threads)
        AnyAlive = AnyAlive || T.Alive;
      if (!AnyAlive) {
        Status = RunStatus::Exited;
        ExitCode = 0;
      }
    }
    return SyscallResult::ThreadExited;
  case RSYS_gettid:
    cpu().writeGpr32(REG_EAX, CurThread);
    return SyscallResult::Ok;
  default:
    fault("unknown syscall " + std::to_string(Nr));
    return SyscallResult::Fault;
  }
}

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

StepResult Machine::step() {
  StepResult Result;
  if (RIO_UNLIKELY(!PendingInval.empty()))
    drainPendingInvalidations();
  if (RIO_UNLIKELY(Status != RunStatus::Running)) {
    Result.Kind =
        Status == RunStatus::Exited ? StepKind::Exited : StepKind::Faulted;
    return Result;
  }
  if (RIO_UNLIKELY(InstrsExecuted >= Config.MaxInstructions)) {
    fault("instruction budget exceeded");
    Result.Kind = StepKind::Faulted;
    return Result;
  }
  if (RIO_UNLIKELY(!DecodeCache))
    allocTables();
  // Inline decode-cache hit path: one line probe serves both the decoded
  // instruction and its memoized cycle cost.
  const AppPc Pc = CurCpu->Pc;
  const DecodedInstr *DI;
  if (RIO_LIKELY(Pc < Mem.size())) {
    const DecodeLine &L = decodeLine(Pc);
    if (RIO_LIKELY(L.Tag == Pc && L.Gen == lineGen(Pc / WriteWatchLine) + 1)) {
      DI = &L.DI;
    } else {
      DI = fetchDecode(Pc); // on success, refills L
      if (RIO_UNLIKELY(!DI)) {
        fault("undecodable instruction at pc");
        Result.Kind = StepKind::Faulted;
        return Result;
      }
    }
    Cycles += L.Cost;
  } else {
    fault("undecodable instruction at pc");
    Result.Kind = StepKind::Faulted;
    return Result;
  }
  ++InstrsExecuted;
  LastPc = Pc;
  return execute(*DI);
}

StepResult Machine::execute(const DecodedInstr &DI) {
  StepResult Result;
  const CostModel &CM = Config.Cost;
  AppPc Pc = cpu().Pc;
  AppPc Next = Pc + DI.Length;
  bool InApp = !inRuntimeRegion(Pc);
  bool Ok = true;

  auto memFault = [&]() {
    fault("memory access out of bounds at pc " + std::to_string(Pc));
    Result.Kind = StepKind::Faulted;
    return Result;
  };

  switch (DI.Op) {
  //===--- data movement -------------------------------------------------===
  case OP_mov: {
    uint32_t V;
    Ok = readOp32(DI.Srcs[0], V) && writeOp32(DI.Dsts[0], V);
    break;
  }
  case OP_mov_b: {
    uint8_t V;
    Ok = readOp8(DI.Srcs[0], V) && writeOp8(DI.Dsts[0], V);
    break;
  }
  case OP_movzx_b: {
    uint8_t V;
    Ok = readOp8(DI.Srcs[0], V) && writeOp32(DI.Dsts[0], V);
    break;
  }
  case OP_movsx_b: {
    uint8_t V;
    Ok = readOp8(DI.Srcs[0], V) &&
         writeOp32(DI.Dsts[0], uint32_t(int32_t(int8_t(V))));
    break;
  }
  case OP_movzx_w:
  case OP_movsx_w: {
    uint32_t Addr;
    memAddr(DI.Srcs[0], Addr);
    uint16_t V;
    Ok = Mem.read16(Addr, V);
    if (Ok)
      Ok = writeOp32(DI.Dsts[0], DI.Op == OP_movzx_w
                                     ? uint32_t(V)
                                     : uint32_t(int32_t(int16_t(V))));
    break;
  }
  case OP_lea: {
    uint32_t Addr;
    memAddr(DI.Srcs[0], Addr);
    Ok = writeOp32(DI.Dsts[0], Addr);
    break;
  }
  case OP_xchg: {
    uint32_t A, B;
    Ok = readOp32(DI.Srcs[0], A) && readOp32(DI.Srcs[1], B) &&
         writeOp32(DI.Dsts[0], B) && writeOp32(DI.Dsts[1], A);
    break;
  }
  case OP_push: {
    uint32_t V;
    Ok = readOp32(DI.Srcs[0], V);
    if (Ok) {
      uint32_t Esp = cpu().readGpr32(REG_ESP) - 4;
      Ok = Mem.write32(Esp, V);
      if (Ok) {
        noteWrite(Esp, 4);
        cpu().writeGpr32(REG_ESP, Esp);
      }
    }
    break;
  }
  case OP_pop: {
    uint32_t Esp = cpu().readGpr32(REG_ESP);
    uint32_t V;
    Ok = Mem.read32(Esp, V);
    if (Ok) {
      // Order matters for `pop esp`-style cases: write the value last.
      cpu().writeGpr32(REG_ESP, Esp + 4);
      Ok = writeOp32(DI.Dsts[0], V);
    }
    break;
  }

  //===--- integer ALU ---------------------------------------------------===
  case OP_add:
  case OP_adc: {
    uint32_t A, B;
    Ok = readOp32(DI.Srcs[1], A) && readOp32(DI.Srcs[0], B);
    if (Ok) {
      uint32_t Cin = DI.Op == OP_adc && cpu().flag(EFLAGS_CF) ? 1 : 0;
      Ok = writeOp32(DI.Dsts[0], doAdd(cpu(), A, B, Cin));
    }
    break;
  }
  case OP_sub:
  case OP_sbb: {
    uint32_t A, B;
    Ok = readOp32(DI.Srcs[1], A) && readOp32(DI.Srcs[0], B);
    if (Ok) {
      uint32_t Bin = DI.Op == OP_sbb && cpu().flag(EFLAGS_CF) ? 1 : 0;
      Ok = writeOp32(DI.Dsts[0], doSub(cpu(), A, B, Bin));
    }
    break;
  }
  case OP_cmp: {
    uint32_t A, B;
    Ok = readOp32(DI.Srcs[1], A) && readOp32(DI.Srcs[0], B);
    if (Ok)
      doSub(cpu(), A, B, 0);
    break;
  }
  case OP_and:
  case OP_or:
  case OP_xor: {
    uint32_t A, B;
    Ok = readOp32(DI.Srcs[1], A) && readOp32(DI.Srcs[0], B);
    if (Ok) {
      uint32_t R = DI.Op == OP_and ? (A & B) : DI.Op == OP_or ? (A | B)
                                                              : (A ^ B);
      doLogicFlags(cpu(), R);
      Ok = writeOp32(DI.Dsts[0], R);
    }
    break;
  }
  case OP_test: {
    uint32_t A, B;
    Ok = readOp32(DI.Srcs[1], A) && readOp32(DI.Srcs[0], B);
    if (Ok)
      doLogicFlags(cpu(), A & B);
    break;
  }
  case OP_inc:
  case OP_dec: {
    uint32_t A;
    Ok = readOp32(DI.Srcs[0], A);
    if (Ok) {
      // inc/dec leave CF untouched — the hinge of the paper's Section 4.2.
      uint32_t R = DI.Op == OP_inc ? doAdd(cpu(), A, 1, 0, /*WriteCarry=*/false)
                                   : doSub(cpu(), A, 1, 0, /*WriteCarry=*/false);
      Ok = writeOp32(DI.Dsts[0], R);
    }
    break;
  }
  case OP_neg: {
    uint32_t A;
    Ok = readOp32(DI.Srcs[0], A);
    if (Ok)
      Ok = writeOp32(DI.Dsts[0], doSub(cpu(), 0, A, 0));
    break;
  }
  case OP_not: {
    uint32_t A;
    Ok = readOp32(DI.Srcs[0], A) && writeOp32(DI.Dsts[0], ~A);
    break;
  }
  case OP_imul: {
    // Two forms share canonical shape S={x, y}, D={r}.
    uint32_t A, B;
    Ok = readOp32(DI.Srcs[0], A) && readOp32(DI.Srcs[1], B);
    if (Ok) {
      int64_t Full = int64_t(int32_t(A)) * int64_t(int32_t(B));
      uint32_t R = uint32_t(Full);
      bool Overflow = Full != int64_t(int32_t(R));
      cpu().setFlag(EFLAGS_CF, Overflow);
      cpu().setFlag(EFLAGS_OF, Overflow);
      cpu().setFlag(EFLAGS_AF, false);
      setPZS(cpu(), R);
      Ok = writeOp32(DI.Dsts[0], R);
    }
    break;
  }
  case OP_mul: {
    uint32_t Src;
    Ok = readOp32(DI.Srcs[0], Src);
    if (Ok) {
      uint64_t Full = uint64_t(cpu().readGpr32(REG_EAX)) * Src;
      uint32_t Lo = uint32_t(Full), Hi = uint32_t(Full >> 32);
      cpu().writeGpr32(REG_EAX, Lo);
      cpu().writeGpr32(REG_EDX, Hi);
      cpu().setFlag(EFLAGS_CF, Hi != 0);
      cpu().setFlag(EFLAGS_OF, Hi != 0);
      cpu().setFlag(EFLAGS_AF, false);
      setPZS(cpu(), Lo);
    }
    break;
  }
  case OP_idiv: {
    uint32_t Src;
    Ok = readOp32(DI.Srcs[0], Src);
    if (Ok) {
      int64_t Dividend = int64_t(
          (uint64_t(cpu().readGpr32(REG_EDX)) << 32) | cpu().readGpr32(REG_EAX));
      int32_t Divisor = int32_t(Src);
      if (Divisor == 0) {
        fault("integer divide by zero");
        Result.Kind = StepKind::Faulted;
        return Result;
      }
      int64_t Quot = Dividend / Divisor;
      if (Quot > std::numeric_limits<int32_t>::max() ||
          Quot < std::numeric_limits<int32_t>::min()) {
        fault("integer divide overflow");
        Result.Kind = StepKind::Faulted;
        return Result;
      }
      cpu().writeGpr32(REG_EAX, uint32_t(int32_t(Quot)));
      cpu().writeGpr32(REG_EDX, uint32_t(int32_t(Dividend % Divisor)));
    }
    break;
  }
  case OP_cdq:
    cpu().writeGpr32(REG_EDX,
                   (cpu().readGpr32(REG_EAX) & 0x80000000u) ? 0xFFFFFFFFu : 0);
    break;

  case OP_shl:
  case OP_shr:
  case OP_sar: {
    uint32_t Count, A;
    Ok = readOp32(DI.Srcs[0], Count) && readOp32(DI.Srcs[1], A);
    if (Ok) {
      Count &= 31;
      if (Count == 0)
        break; // no result change, no flag change
      uint32_t R;
      bool LastOut;
      if (DI.Op == OP_shl) {
        LastOut = ((A >> (32 - Count)) & 1) != 0;
        R = A << Count;
        cpu().setFlag(EFLAGS_OF, Count == 1 && ((R >> 31) != 0) != LastOut);
      } else if (DI.Op == OP_shr) {
        LastOut = ((A >> (Count - 1)) & 1) != 0;
        R = A >> Count;
        cpu().setFlag(EFLAGS_OF, Count == 1 && (A >> 31) != 0);
      } else {
        LastOut = ((uint32_t(int32_t(A) >> (Count - 1))) & 1) != 0;
        R = uint32_t(int32_t(A) >> Count);
        cpu().setFlag(EFLAGS_OF, false);
      }
      cpu().setFlag(EFLAGS_CF, LastOut);
      cpu().setFlag(EFLAGS_AF, false);
      setPZS(cpu(), R);
      Ok = writeOp32(DI.Dsts[0], R);
    }
    break;
  }

  //===--- control transfer ----------------------------------------------===
  case OP_jmp:
    Cycles += CM.TakenBranchCost;
    cpu().Pc = DI.Srcs[0].getPc();
    return Result;

  case OP_jmp_ind: {
    uint32_t Target;
    Ok = readOp32(DI.Srcs[0], Target);
    if (!Ok)
      return memFault();
    Cycles += CM.TakenBranchCost;
    if (InApp && !Pred.predictIndirect(Pc, Target))
      Cycles += CM.MispredictPenalty;
    cpu().Pc = Target;
    return Result;
  }

  case OP_call: {
    uint32_t Esp = cpu().readGpr32(REG_ESP) - 4;
    if (!Mem.write32(Esp, Next))
      return memFault();
    noteWrite(Esp, 4);
    cpu().writeGpr32(REG_ESP, Esp);
    Cycles += CM.TakenBranchCost;
    if (InApp)
      Pred.pushReturn(Next);
    cpu().Pc = DI.Srcs[0].getPc();
    return Result;
  }

  case OP_call_ind: {
    uint32_t Target;
    Ok = readOp32(DI.Srcs[0], Target);
    if (!Ok)
      return memFault();
    uint32_t Esp = cpu().readGpr32(REG_ESP) - 4;
    if (!Mem.write32(Esp, Next))
      return memFault();
    noteWrite(Esp, 4);
    cpu().writeGpr32(REG_ESP, Esp);
    Cycles += CM.TakenBranchCost;
    if (InApp) {
      Pred.pushReturn(Next);
      if (!Pred.predictIndirect(Pc, Target))
        Cycles += CM.MispredictPenalty;
    }
    cpu().Pc = Target;
    return Result;
  }

  case OP_ret:
  case OP_ret_imm: {
    uint32_t Esp = cpu().readGpr32(REG_ESP);
    uint32_t Target;
    if (!Mem.read32(Esp, Target))
      return memFault();
    uint32_t Extra =
        DI.Op == OP_ret_imm ? uint32_t(DI.Srcs[0].getImm()) : 0;
    cpu().writeGpr32(REG_ESP, Esp + 4 + Extra);
    Cycles += CM.TakenBranchCost;
    // Natively, `ret` rides the return-address stack. In the code cache the
    // runtime charges BTB-style costs at the IBL instead (the translated
    // return is an indirect jump there — the paper's key penalty).
    if (InApp && !Pred.popReturn(Target))
      Cycles += CM.MispredictPenalty;
    cpu().Pc = Target;
    return Result;
  }

  case OP_jo:
  case OP_jno:
  case OP_jb:
  case OP_jnb:
  case OP_jz:
  case OP_jnz:
  case OP_jbe:
  case OP_jnbe:
  case OP_js:
  case OP_jns:
  case OP_jp:
  case OP_jnp:
  case OP_jl:
  case OP_jnl:
  case OP_jle:
  case OP_jnle:
  case OP_jecxz: {
    bool Taken = DI.Op == OP_jecxz ? cpu().readGpr32(REG_ECX) == 0
                                   : condHolds(cpu(), condCodeOf(DI.Op));
    if (!Pred.predictCond(Pc, Taken))
      Cycles += CM.MispredictPenalty;
    if (Taken) {
      Cycles += CM.TakenBranchCost;
      cpu().Pc = DI.Srcs[0].getPc();
    } else {
      cpu().Pc = Next;
    }
    return Result;
  }

  //===--- system --------------------------------------------------------===
  case OP_int: {
    cpu().Pc = Next; // syscall returns to the following instruction
    SyscallResult Sys = doSyscall();
    if (Sys == SyscallResult::Fault) {
      Result.Kind = StepKind::Faulted;
      return Result;
    }
    if (Status == RunStatus::Exited) {
      Result.Kind = StepKind::Exited;
      return Result;
    }
    if (Sys == SyscallResult::ThreadExited)
      Result.Kind = StepKind::ThreadExited;
    else if (Sys == SyscallResult::Spawned)
      Result.Kind = StepKind::ThreadSpawned;
    return Result;
  }

  case OP_hlt:
    Status = RunStatus::Exited;
    ExitCode = 0;
    Result.Kind = StepKind::Exited;
    return Result;

  case OP_nop:
    break;

  //===--- scalar double -------------------------------------------------===
  case OP_movsd: {
    double V;
    Ok = readOpF64(DI.Srcs[0], V) && writeOpF64(DI.Dsts[0], V);
    break;
  }
  case OP_addsd:
  case OP_subsd:
  case OP_mulsd:
  case OP_divsd: {
    double A, B;
    Ok = readOpF64(DI.Srcs[1], A) && readOpF64(DI.Srcs[0], B);
    if (Ok) {
      double R = DI.Op == OP_addsd   ? A + B
                 : DI.Op == OP_subsd ? A - B
                 : DI.Op == OP_mulsd ? A * B
                                     : A / B;
      Ok = writeOpF64(DI.Dsts[0], R);
    }
    break;
  }
  case OP_ucomisd: {
    double A, B;
    Ok = readOpF64(DI.Srcs[1], A) && readOpF64(DI.Srcs[0], B);
    if (Ok) {
      bool Unordered = std::isnan(A) || std::isnan(B);
      cpu().setFlag(EFLAGS_ZF, Unordered || A == B);
      cpu().setFlag(EFLAGS_PF, Unordered);
      cpu().setFlag(EFLAGS_CF, Unordered || A < B);
      cpu().setFlag(EFLAGS_OF, false);
      cpu().setFlag(EFLAGS_AF, false);
      cpu().setFlag(EFLAGS_SF, false);
    }
    break;
  }
  case OP_cvtsi2sd: {
    uint32_t V;
    Ok = readOp32(DI.Srcs[0], V) && writeOpF64(DI.Dsts[0], double(int32_t(V)));
    break;
  }
  case OP_cvttsd2si: {
    double V;
    Ok = readOpF64(DI.Srcs[0], V);
    if (Ok) {
      int32_t R;
      if (std::isnan(V) || V >= 2147483648.0 || V < -2147483648.0)
        R = std::numeric_limits<int32_t>::min(); // x86 "integer indefinite"
      else
        R = int32_t(V);
      Ok = writeOp32(DI.Dsts[0], uint32_t(R));
    }
    break;
  }

  //===--- runtime extensions --------------------------------------------===
  case OP_clientcall:
    cpu().Pc = Next;
    Result.Kind = StepKind::ClientCall;
    Result.ClientCallId = uint32_t(DI.Srcs[0].getImm());
    return Result;

  case OP_savef: {
    uint32_t Addr;
    memAddr(DI.Dsts[0], Addr);
    Ok = Mem.write32(Addr, cpu().Eflags);
    if (Ok)
      noteWrite(Addr, 4);
    break;
  }
  case OP_restf: {
    uint32_t Addr;
    memAddr(DI.Srcs[0], Addr);
    uint32_t V;
    Ok = Mem.read32(Addr, V);
    if (Ok)
      cpu().Eflags = V;
    break;
  }

  case OP_label:
  case OP_INVALID:
  default:
    fault("executed invalid opcode");
    Result.Kind = StepKind::Faulted;
    return Result;
  }

  if (!Ok)
    return memFault();
  cpu().Pc = Next;
  return Result;
}
