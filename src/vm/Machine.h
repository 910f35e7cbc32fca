//===- vm/Machine.h - The simulated machine --------------------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulated IA-32-like machine: flat memory (application region plus a
/// runtime region for the code cache and spill slots), one CPU context,
/// branch predictors, a deterministic cycle counter, and an interpreter for
/// RIO-32. This is the "hardware" substitute for the paper's Pentium 4
/// testbed (DESIGN.md §1).
///
/// The Machine is policy-free: it executes whatever the pc points at and
/// charges microarchitectural costs. The DynamoRIO-style runtime (src/core)
/// drives it — placing code in the runtime region, watching the pc cross
/// region boundaries, and charging runtime overheads via chargeCycles().
///
//===----------------------------------------------------------------------===//

#ifndef RIO_VM_MACHINE_H
#define RIO_VM_MACHINE_H

#include "vm/CostModel.h"
#include "vm/Cpu.h"
#include "vm/Memory.h"
#include "vm/Predictors.h"

#include "support/Compiler.h"

#include <cassert>
#include <string>
#include <type_traits>
#include <vector>

namespace rio {

struct MachineConfig {
  uint32_t AppRegionSize = 8u << 20;      ///< app code + data + stack
  uint32_t RuntimeRegionSize = 24u << 20; ///< code cache + runtime slots
  CostModel Cost;
  uint64_t MaxInstructions = 2'000'000'000ull; ///< runaway-execution guard
};

enum class RunStatus { Running, Exited, Faulted };

/// What one step() did.
enum class StepKind {
  Ok,           ///< executed one instruction
  Exited,       ///< program exited (status() == Exited)
  Faulted,      ///< simulated fault (status() == Faulted)
  ClientCall,   ///< executed OP_clientcall; the runtime must service it
  ThreadExited, ///< the *current thread* ended; the program may live on
  ThreadSpawned ///< the instruction also created a new thread
};

struct StepResult {
  StepKind Kind = StepKind::Ok;
  uint32_t ClientCallId = 0;
};

/// The simulated machine. See file comment.
class Machine {
public:
  explicit Machine(const MachineConfig &Config = MachineConfig());

  /// Forks \p Template: memory pages are loaned copy-on-write — the first
  /// write to a shared page on either side copies just that page
  /// (observable via mem().cowPageCopies()) — while the architectural
  /// state (threads, predictors, cycle clock) is copied privately. The
  /// derived host-side tables are not shared: the fork starts with a cold
  /// decode cache and takes only the template's write-watch counts (the
  /// lines between the lowest and highest ever watched), so stores into
  /// code the template's fragments cover are still reported. A cold decode
  /// costs no simulated cycles, so the fork is an exact replica: resume
  /// it, reset it with resetForRun(), or hand it to Runtime::forkFrom for a
  /// warm tenant.
  Machine(const Machine &Template);
  Machine &operator=(const Machine &) = delete;
  ~Machine();

  MemoryImage &mem() { return Mem; }
  const MemoryImage &mem() const { return Mem; }
  CpuState &cpu() { return *CurCpu; }
  const CpuState &cpu() const { return *CurCpu; }
  BranchPredictors &predictors() { return Pred; }
  /// The cost model. Mutate it only before execution starts: decode-cache
  /// lines memoize per-instruction costs at fill time.
  CostModel &cost() { return Config.Cost; }
  const MachineConfig &config() const { return Config; }

  /// First address of the runtime (code cache) region.
  uint32_t runtimeBase() const { return Config.AppRegionSize; }
  bool inRuntimeRegion(AppPc Pc) const { return Pc >= runtimeBase(); }

  //===--------------------------------------------------------------------===
  // Execution
  //===--------------------------------------------------------------------===

  /// Executes the instruction at cpu().Pc, charging its cycle cost and any
  /// branch-prediction penalties, and advances the pc.
  StepResult step();

  /// Adds runtime-overhead cycles (context switches, IBL, block builds...).
  void chargeCycles(uint64_t N) { Cycles += N; }

  /// Removes cycles that turned out not to be on the application's
  /// critical path (sideline optimization, paper Section 3.4).
  void refundCycles(uint64_t N) { Cycles -= N > Cycles ? Cycles : N; }

  RunStatus status() const { return Status; }
  int exitCode() const { return ExitCode; }
  const std::string &faultReason() const { return FaultReason; }

  /// All bytes the application wrote via the write/print syscalls. The
  /// transparency tests compare this across execution configurations.
  const std::string &output() const { return Output; }

  uint64_t cycles() const { return Cycles; }
  uint64_t instructionsExecuted() const { return InstrsExecuted; }

  /// Application pc of the most recently executed instruction.
  AppPc lastPc() const { return LastPc; }

  /// Snapshots the current pc and stack pointer as the program's entry
  /// state. The loader calls this once after placing the program;
  /// resetForRun() returns to it.
  void recordResetState() {
    ResetPc = CurCpu->Pc;
    ResetSp = CurCpu->readGpr32(REG_ESP);
  }

  /// Re-arms the machine to run the loaded program again from its entry
  /// state: one fresh thread at the recorded pc/stack, status Running.
  /// Memory, the cycle clock, predictors, and captured output are
  /// deliberately kept — callers measuring steady-state cost diff the
  /// clock across runs, and a forked tenant must see exactly the
  /// template's warmed state.
  void resetForRun();

  //===--------------------------------------------------------------------===
  // Decode caching
  //===--------------------------------------------------------------------===

  /// Number of lines in the direct-mapped decode cache. A pc maps to line
  /// `pc & (DecodeCacheLines - 1)`; pcs that far apart alias (and evict
  /// each other on fill — never serving a wrong decode, because each line
  /// is tagged with its exact pc and a per-region generation).
  static constexpr uint32_t DecodeCacheLines = 1u << 15;

  /// Decoded-instruction cache lookup (a software stand-in for the
  /// hardware's instruction/uop cache). Returns null on undecodable bytes.
  /// The returned pointer is valid until the next fetchDecode call (an
  /// aliasing pc may refill the same line).
  const DecodedInstr *fetchDecode(AppPc Pc);

  /// Invalidates cached decodes in [Lo, Hi); the runtime calls this when it
  /// patches, deletes or replaces cache code. O(1) per WriteWatchLine-sized
  /// line spanned: bumps the line generations, instantly orphaning every
  /// decode tagged with the old generation. A no-op until the tables exist:
  /// nothing can be cached yet.
  void invalidateDecodeRange(uint32_t Lo, uint32_t Hi);

  //===--------------------------------------------------------------------===
  // Code-write monitoring (cache consistency; self-modifying code)
  //===--------------------------------------------------------------------===

  /// Granularity of write monitoring: one counter per aligned line.
  static constexpr uint32_t WriteWatchLine = 256;

  /// One store that hit a watched line (byte range [Lo, Hi)).
  struct CodeWriteEvent {
    uint32_t Lo;
    uint32_t Hi;
  };

  /// Registers [Lo, Hi) as executable code backing live cache fragments.
  /// Watches are counted per line, so overlapping registrations nest.
  void addWriteWatch(uint32_t Lo, uint32_t Hi);
  void removeWriteWatch(uint32_t Lo, uint32_t Hi);

  /// Append-only log of stores into watched lines. Consumers (one per
  /// runtime — several runtimes may share one machine) keep their own
  /// cursor into it.
  const std::vector<CodeWriteEvent> &codeWriteLog() const {
    return CodeWrites;
  }

  /// Raises a simulated fault (also used by the runtime for internal
  /// errors it wants surfaced as program failures).
  void fault(const std::string &Reason);

  //===--------------------------------------------------------------------===
  // Threads (cooperative; a scheduler such as core/ThreadedRunner rotates)
  //===--------------------------------------------------------------------===

  unsigned numThreads() const { return unsigned(Threads.size()); }
  bool threadAlive(unsigned Tid) const { return Threads[Tid].Alive; }

  /// Switches the architectural context to thread \p Tid (must be alive).
  void switchToThread(unsigned Tid) {
    assert(Tid < Threads.size() && Threads[Tid].Alive && "bad thread");
    CurThread = Tid;
    CurCpu = &Threads[Tid].Cpu;
  }

  /// Creates a thread (entry pc + stack top); returns its id. Exposed for
  /// tests and the thread_create syscall.
  unsigned createThread(AppPc Entry, uint32_t StackTop);

private:
  enum class SyscallResult { Ok, Fault, ThreadExited, Spawned };

  StepResult execute(const DecodedInstr &DI);

  /// Records a store for write monitoring: queues decode invalidation when
  /// the target line ever held cached decodes (self-modifying code must not
  /// execute stale decodes, natively or under a runtime) and logs an event
  /// when the line is watched. Invalidation is deferred to the next step()
  /// because the currently executing DecodedInstr lives in the cache.
  ///
  /// The fast path is a single indexed load: LineState packs the sticky
  /// decoded bit and the watch count per line, and is zero for ordinary
  /// data lines (the stack, the heap). Callers guarantee [Addr, Addr+Len)
  /// is in bounds (they note only successful writes) and Len <= 8, so a
  /// store spans at most two lines.
  RIO_ALWAYS_INLINE void noteWrite(uint32_t Addr, uint32_t Len) {
    uint32_t L0 = Addr / WriteWatchLine;
    uint32_t State = lineState(L0);
    uint32_t L1 = (Addr + Len - 1) / WriteWatchLine;
    if (RIO_UNLIKELY(L1 != L0))
      State |= lineState(L1);
    if (RIO_UNLIKELY(State != 0))
      noteWriteSlow(Addr, Len, State);
  }
  void noteWriteSlow(uint32_t Addr, uint32_t Len, uint32_t State);
  void drainPendingInvalidations();

  /// Maps the derived tables (first step(), fetchDecode or watch change)
  /// and applies the watch counts a fork inherited.
  void allocTables();
  size_t tableBytes() const;
  /// Watch counts (LineState with the decoded bit cleared) of lines
  /// [WatchLo, WatchHi]: what a fork of this machine inherits.
  std::vector<uint32_t> watchCounts() const;

  // Operand evaluation helpers (see Machine.cpp). Force-inlined into the
  // interpreter switch: they are tiny and on the hottest host path.
  RIO_ALWAYS_INLINE bool memAddr(const Operand &Op, uint32_t &Addr) const;
  RIO_ALWAYS_INLINE bool readOp32(const Operand &Op, uint32_t &Value);
  RIO_ALWAYS_INLINE bool writeOp32(const Operand &Op, uint32_t Value);
  RIO_ALWAYS_INLINE bool readOp8(const Operand &Op, uint8_t &Value);
  RIO_ALWAYS_INLINE bool writeOp8(const Operand &Op, uint8_t Value);
  RIO_ALWAYS_INLINE bool readOpF64(const Operand &Op, double &Value);
  RIO_ALWAYS_INLINE bool writeOpF64(const Operand &Op, double Value);

  SyscallResult doSyscall();

  struct Thread {
    CpuState Cpu;
    bool Alive = true;
  };

  MachineConfig Config;
  MemoryImage Mem;
  std::vector<Thread> Threads{1};
  unsigned CurThread = 0;
  BranchPredictors Pred;

  RunStatus Status = RunStatus::Running;
  int ExitCode = 0;
  std::string FaultReason;
  std::string Output;

  uint64_t Cycles = 0;
  uint64_t InstrsExecuted = 0;
  AppPc LastPc = 0;

  AppPc ResetPc = 0;    ///< program entry state; see recordResetState()
  uint32_t ResetSp = 0;

  /// One direct-mapped decode-cache line: valid iff Tag matches the probe
  /// pc and Gen is one more than the current generation of the pc's watch
  /// line (fills store LineGen+1, so the stored Gen is always >= 1 and an
  /// all-zero line — a freshly mapped table — never reads as valid). Cost
  /// memoizes the (fixed) cost model's cyclesFor at fill time so the hit
  /// path charges cycles with one load instead of an operand walk.
  struct DecodeLine {
    uint32_t Tag = 0;
    uint32_t Gen = 0;
    uint32_t Cost = 0;
    DecodedInstr DI;
  };
  static_assert(std::is_trivially_copyable<DecodeLine>::value &&
                    std::is_trivially_destructible<DecodeLine>::value,
                "decode lines live in raw zero-filled pages");

  // Bounds-checked table access. NumLines stays 0 until allocTables(), so
  // the line asserts also catch a table used before it exists.
  DecodeLine &decodeLine(AppPc Pc) {
    const uint32_t Slot = Pc & (DecodeCacheLines - 1);
    assert(DecodeCache && Slot < DecodeCacheLines && "decode slot unmapped");
    return DecodeCache[Slot];
  }
  uint32_t &lineGen(uint32_t Line) {
    assert(Line < NumLines && "LineGen index out of range");
    return LineGen[Line];
  }
  uint32_t &lineState(uint32_t Line) {
    assert(Line < NumLines && "LineState index out of range");
    return LineState[Line];
  }

  // The derived host-side tables: plain per-Machine arrays in one
  // anonymous mapping, allocated on first use and never shared with a
  // fork. The kernel zero-fills pages on first touch, so a machine pays
  // only for the lines it uses.
  DecodeLine *DecodeCache = nullptr; ///< DecodeCacheLines entries
  uint32_t *LineGen = nullptr;       ///< per-WriteWatchLine generation

  /// Write-monitor state, one word per WriteWatchLine-sized line:
  /// bit 0 is sticky "a decode was cached from this line" (stores there
  /// must invalidate); bits 1+ count live write watches (registrations
  /// nest). Zero means stores to the line are unmonitored — the common
  /// case, and noteWrite's single-load fast path.
  uint32_t *LineState = nullptr;
  uint32_t NumLines = 0; ///< LineGen/LineState length; 0 until allocated

  /// Lowest and highest line ever watched (empty while WatchLo > WatchHi).
  uint32_t WatchLo = ~0u;
  uint32_t WatchHi = 0;
  /// A fork's inherited watch counts for [WatchLo, WatchHi], held until
  /// allocTables() writes them into LineState.
  std::vector<uint32_t> InheritedWatches;

  std::vector<CodeWriteEvent> CodeWrites;
  std::vector<CodeWriteEvent> PendingInval; ///< drained at next step()

  CpuState *CurCpu = nullptr; ///< &Threads[CurThread].Cpu, cached
};

} // namespace rio

#endif // RIO_VM_MACHINE_H
