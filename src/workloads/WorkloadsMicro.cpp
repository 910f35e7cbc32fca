//===- workloads/WorkloadsMicro.cpp - Subsystem micro-workloads ---------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small programs that each stress one runtime subsystem rather than a
/// SPEC-like code property. The benches and tests share these copies.
///
///   smc           self-modifying code: the program repeatedly patches a
///                 small function between two 8-byte templates and calls
///                 it, so the consistency machinery must invalidate and
///                 re-translate the overwritten code or the checksum is
///                 wrong (bench_paper asserts it against native).
///
///   cachepressure a hot core plus a pseudo-random stream of calls into a
///                 table of functions whose combined bodies exceed any
///                 reasonably bounded basic-block cache: the
///                 FIFO-vs-flush-all comparison workload.
///
///   vdispatch, rettree, interp
///                 the indirect-branch-heavy trio (bench_ibl,
///                 bench_sideline): virtual dispatch, a ret-heavy call
///                 tree, and a switch-dispatch bytecode interpreter.
///
///   redload, incdec, deadstore, combo
///                 trace-optimizer fuel (bench_traceopt): each leans on one
///                 pass of the pipeline; combo carries one instance of
///                 every pattern the pipeline targets.
///
///   dataloop      a loop whose bound lives in a data word, so its code
///                 bytes are identical at every scale (bench_persist).
///
///   sharedwork    Scale worker threads all running one routine; needs the
///                 thread scheduler (bench_threads).
///
//===----------------------------------------------------------------------===//

#include "workloads/Workloads.h"

#include "support/Compiler.h"

#include <cstdio>

namespace rio::workloads {

static const char *const ChecksumExit = R"(
    mov ebx, esi
    mov eax, 2
    int 0x80
    mov ebx, 0
    mov eax, 1
    int 0x80
)";

/// smc: each outer iteration copies one of two 8-byte code templates
/// (mov eax, imm / ret / 2x nop) over `patchfn`, then calls it from a hot
/// inner loop. The patched value feeds the checksum, so executing stale
/// code is immediately visible in the output.
std::string smcSource(int Scale) {
  std::string S = R"(
    .entry main
    main:
      mov esi, 0
      mov edi, )" + std::to_string(Scale) + R"(
    outer:
      mov eax, edi
      and eax, 1
      jz evencase
      mov eax, [tmpl1]
      mov edx, [tmpl1+4]
      jmp dopatch
    evencase:
      mov eax, [tmpl2]
      mov edx, [tmpl2+4]
    dopatch:
      mov [patchfn], eax
      mov [patchfn+4], edx
      mov ecx, 12
    inner:
      call patchfn
      add esi, eax
      and esi, 0xFFFFFF
      dec ecx
      jnz inner
      dec edi
      jnz outer
)";
  S += ChecksumExit;
  // patchfn starts identical to tmpl2 so the first (odd-edi) patch really
  // changes the bytes. All three are the same 8-byte shape:
  //   mov eax, imm32 (5) ; ret (1) ; nop ; nop
  S += R"(
    patchfn:
      mov eax, 1111
      ret
      nop
      nop
    tmpl1:
      mov eax, 3333
      ret
      nop
      nop
    tmpl2:
      mov eax, 1111
      ret
      nop
      nop
  )";
  return S;
}

/// cachepressure: every iteration runs a hot core (eight small functions
/// called back to back) and one function picked pseudo-randomly from a
/// table of 128 bulky bodies whose combined fragments overflow a bounded
/// block cache. Capacity policy decides how much of that working set
/// stays translated: incremental eviction retires only the oldest
/// fragment when room is needed, a wholesale flush re-translates
/// everything — hot core included — on every overflow.
std::string cachePressureSource(int Scale) {
  constexpr int NumCold = 128;
  std::string S = "    .entry main\n    coldtab: .word";
  for (int I = 0; I != NumCold; ++I)
    S += " c" + std::to_string(I);
  S += R"(
    main:
      mov esi, 0
      mov ebp, 12345
      mov edi, )" + std::to_string(Scale) + R"(
    mainloop:
      call h0
      call h1
      call h2
      call h3
      call h4
      call h5
      call h6
      call h7
      imul ebp, ebp, 1103515245
      add ebp, 12345
      mov edx, ebp
      shr edx, 16
      and edx, 127
      call [coldtab+edx*4]
      add esi, eax
      and esi, 0xFFFFFF
      dec edi
      jnz mainloop
)";
  S += ChecksumExit;
  for (int I = 0; I != 8; ++I) {
    S += "    h" + std::to_string(I) + ":\n";
    S += "      mov eax, " + std::to_string(1000 + 37 * I) + "\n";
    S += "      add esi, eax\n";
    S += "      and esi, 0xFFFFFF\n";
    S += "      ret\n";
  }
  for (int I = 0; I != NumCold; ++I) {
    // Bulky bodies: several dependent ops so each cold fragment costs
    // real cache bytes and build cycles.
    unsigned Seed = (unsigned(I) * 2654435761u >> 7) & 0xFFFF;
    S += "    c" + std::to_string(I) + ":\n";
    S += "      mov eax, " + std::to_string(Seed) + "\n";
    for (int J = 0; J != 6; ++J) {
      S += "      imul eax, eax, 33\n";
      S += "      add eax, " + std::to_string((Seed >> J) | 1) + "\n";
      S += "      and eax, 0xFFFFFF\n";
    }
    S += "      ret\n";
  }
  return S;
}

/// vdispatch: a tight loop over 16 "objects" whose type field indexes a
/// method table. 13 objects are the hot class, 2 a warm one, 1 a cold one
/// — the polymorphic-in-name, monomorphic-in-practice shape inline caches
/// were invented for. The type words are pre-scaled by 4.
std::string vdispatchSource(int Scale) {
  return R"(
    .entry main
    types: .word 0 0 0 0 0 0 0 4 0 0 0 8 0 0 4 0
    vtable: .word m0 m1 m2
    main:
      mov esi, 0
      mov ebp, )" + std::to_string(Scale) + R"(
    outer:
      mov ebx, 0
    inner:
      mov ecx, [types+ebx]
      jmp [vtable+ecx]
    m0:
      add esi, 1
      jmp mret
    m1:
      add esi, 17
      jmp mret
    m2:
      add esi, 257
      jmp mret
    mret:
      add ebx, 4
      cmp ebx, 64
      jnz inner
      and esi, 0xFFFFFF
      dec ebp
      jnz outer
)" + ChecksumExit;
}

/// rettree: a three-level binary tree of calls, seven returns per
/// iteration through three ret sites — the root's ret is monomorphic, the
/// inner node's and the leaf's rets each alternate between two return
/// points.
std::string rettreeSource(int Scale) {
  return R"(
    .entry main
    main:
      mov esi, 0
      mov edi, )" + std::to_string(Scale) + R"(
    loop:
      call a
      and esi, 0xFFFFFF
      dec edi
      jnz loop
)" + ChecksumExit + R"(
    a:
      call b
      call b
      add esi, 5
      ret
    b:
      call leaf
      call leaf
      add esi, 7
      ret
    leaf:
      add esi, 3
      ret
  )";
}

/// interp: a 64-slot bytecode program fetched through one indirect jump.
/// 38 x op0, 12 x op1, 6 x op2, 6 x op3, 1 x op4, 1 x op5, and a final
/// oploop that rewinds the bytecode pc — the usual interpreter profile,
/// where four hot opcodes cover 60 of 64 slots.
std::string interpSource(int Scale) {
  // Interleave deterministically so hot and cold opcodes alternate the way
  // a real instruction stream does rather than running in sorted blocks.
  std::string Code = "code: .word";
  int Remaining[] = {38, 12, 6, 6, 1, 1};
  for (int Slot = 0; Slot != 63; ++Slot) {
    int Pick = (Slot * 5 + 3) % 6;
    for (int Try = 0; Try != 6; ++Try, Pick = (Pick + 1) % 6)
      if (Remaining[Pick] > 0)
        break;
    --Remaining[Pick];
    Code += " " + std::to_string(Pick * 4);
  }
  Code += " 24\n"; // last slot: oploop
  return R"(
    .entry main
  )" + Code + R"(
    optable: .word op0 op1 op2 op3 op4 op5 oploop
    main:
      mov esi, 0
      mov edi, )" + std::to_string(Scale) + R"(
      mov ebx, 0
    fetch:
      mov ecx, [code+ebx]
      add ebx, 4
      jmp [optable+ecx]
    op0:
      add esi, 1
      jmp fetch
    op1:
      add esi, 17
      jmp fetch
    op2:
      add esi, 257
      jmp fetch
    op3:
      add esi, 4097
      jmp fetch
    op4:
      add esi, 65537
      jmp fetch
    op5:
      and esi, 0xFFFFFF
      jmp fetch
    oploop:
      mov ebx, 0
      dec edi
      jnz fetch
      and esi, 0xFFFFFF
)" + ChecksumExit;
}

/// redload: five loads per iteration from two sites, three of them
/// removable by forwarding, the remaining two foldable to immediates once
/// the speculative tier pins [a] and [b].
std::string redloadSource(int Scale) {
  return R"(
    .entry main
    a: .word 7
    b: .word 11
    main:
      mov esi, 0
      mov ebp, )" + std::to_string(Scale) + R"(
    loop:
      mov eax, [a]
      add esi, eax
      mov ecx, [a]
      add esi, ecx
      mov edx, [a]
      add esi, edx
      mov eax, [b]
      add esi, eax
      mov ecx, [b]
      add esi, ecx
      and esi, 0xFFFFFF
      dec ebp
      jnz loop
)" + ChecksumExit;
}

/// incdec: six convertible incs and one convertible dec per iteration; the
/// backedge's own dec stays (a CTI follows it immediately, so the stale
/// carry could escape). Each conversion saves IncDecExtra cycles under the
/// default Pentium 4 cost model.
std::string incdecSource(int Scale) {
  return R"(
    .entry main
    main:
      mov esi, 0
      mov eax, 0
      mov ebp, )" + std::to_string(Scale) + R"(
    loop:
      inc eax
      inc eax
      inc eax
      inc eax
      inc eax
      inc eax
      dec esi
      add esi, eax
      and esi, 0xFFFFFF
      dec ebp
      jnz loop
)" + ChecksumExit;
}

/// deadstore: two of three same-slot stores per iteration are dead, and
/// the two [c] loads collapse to one (to an immediate once speculation
/// pins the site).
std::string deadstoreSource(int Scale) {
  return R"(
    .entry main
    t: .word 0
    c: .word 5
    main:
      mov esi, 0
      mov ebp, )" + std::to_string(Scale) + R"(
    loop:
      mov [t], ebp
      mov [t], esi
      mov edx, [c]
      add esi, edx
      mov edx, [c]
      add esi, edx
      mov [t], esi
      and esi, 0xFFFFFF
      dec ebp
      jnz loop
)" + ChecksumExit;
}

/// combo: one instance of every pattern the trace optimizer targets — a
/// store-immediate/reload pair (constant propagation), a repeated
/// same-site load (load forwarding), an overwritten store (dead-store
/// elimination), and an inc chain ahead of a full flag writer (strength
/// reduction).
std::string comboSource(int Scale) {
  return R"(
    .entry main
    a: .word 9
    s: .word 0
    t: .word 0
    main:
      mov esi, 0
      mov edx, 0
      mov ebp, )" + std::to_string(Scale) + R"(
    loop:
      mov [s], 123
      mov eax, [s]
      add esi, eax
      mov ebx, [a]
      add esi, ebx
      mov ecx, [a]
      add esi, ecx
      mov [t], ebp
      mov [t], esi
      inc edx
      inc edx
      add esi, edx
      and esi, 0xFFFFFF
      dec ebp
      jnz loop
)" + ChecksumExit;
}

/// dataloop: a 16-way jump-table loop whose iteration count is the data
/// word `count`, so the code bytes are identical at every scale and a
/// persisted code cache saved at one scale warm-starts every other.
std::string dataloopSource(int Scale) {
  return R"(
    .entry main
    count: .word )" + std::to_string(Scale) + R"(
    table: .word h0 h0 h0 h0 h0 h0 h0 h0 h0 h0 h0 h0 h1 h2 h3 h4
    main:
      mov esi, 0
      mov ebx, 0
      mov edi, [count]
    loop:
      mov ecx, ebx
      and ecx, 15
      shl ecx, 2
      add ebx, 1
      jmp [table+ecx]
    h0:
      add esi, 1
      jmp next
    h1:
      add esi, 17
      jmp next
    h2:
      add esi, 257
      jmp next
    h3:
      add esi, 4097
      jmp next
    h4:
      add esi, 65537
      jmp next
    next:
      and esi, 0xFFFFFF
      dec edi
      jnz loop
)" + ChecksumExit;
}

/// sharedwork: Scale worker threads all run the same routine, each finding
/// its result slot through gettid, so the whole worker path is shareable
/// code; main joins them and sums their results. Scale is at most 7: the
/// default MaxThreads of 8 counts main.
std::string sharedworkSource(int Scale) {
  std::string S = R"(
    results: .space 32
    flags:   .space 32
    stacks:  .space 8192
    main:
  )";
  for (int W = 0; W != Scale; ++W) {
    S += "  mov ebx, worker\n";
    S += "  mov ecx, stacks+" + std::to_string((W + 1) * 1024) + "\n";
    S += "  mov eax, 5\n  int 0x80\n"; // thread_create
  }
  S += "join:\n";
  for (int W = 0; W != Scale; ++W) {
    S += "  mov eax, [flags+" + std::to_string(W * 4) + "]\n";
    S += "  test eax, eax\n  jz join\n";
  }
  S += "  mov esi, 0\n";
  for (int W = 0; W != Scale; ++W)
    S += "  add esi, [results+" + std::to_string(W * 4) + "]\n";
  S += "  and esi, 0xFFFFFF\n";
  S += ChecksumExit;
  S += R"(
    worker:
      mov eax, 7
      int 0x80          ; gettid -> 1..N
      dec eax
      shl eax, 2
      mov edi, eax      ; result/flag byte offset
      mov esi, 0
      mov ecx, 40000
    wloop:
      mov eax, ecx
      call shared_fn
      add esi, eax
      and esi, 0xFFFFFF
      dec ecx
      jnz wloop
      mov [results+edi], esi
      mov eax, 1
      mov [flags+edi], eax
      mov eax, 6
      int 0x80          ; thread_exit
    shared_fn:
      imul eax, eax, 17
      and eax, 1023
      add eax, 3
      ret
  )";
  return S;
}

} // namespace rio::workloads

const std::vector<rio::Workload> &rio::microWorkloads() {
  using namespace rio::workloads;
  static const std::vector<Workload> Table = {
      {"smc", false, 300, 40, "self-modifying code", smcSource},
      {"cachepressure", false, 400, 40, "bounded-cache fragment churn",
       cachePressureSource},
      {"vdispatch", false, 600, 20, "skewed virtual dispatch",
       vdispatchSource},
      {"rettree", false, 1300, 40, "ret-heavy call tree", rettreeSource},
      {"interp", false, 80, 4, "switch-dispatch bytecode interpreter",
       interpSource},
      {"redload", false, 4000, 100, "redundant same-site loads",
       redloadSource},
      {"incdec", false, 4000, 100, "inc/dec chains", incdecSource},
      {"deadstore", false, 4000, 100, "dead stores + invariant load",
       deadstoreSource},
      {"combo", false, 4000, 100, "every trace-optimizer pattern",
       comboSource},
      {"dataloop", false, 4096, 256, "scale-independent code bytes",
       dataloopSource},
      {"sharedwork", false, 4, 2, "threads sharing one routine",
       sharedworkSource, 7},
  };
  return Table;
}
