//===- tests/fork_test.cpp - Copy-on-write machine forking -------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for copy-on-write forking, bottom to top:
///
///   - MemoryImage page semantics: scalar and block accesses straddling
///     page boundaries, zero-length writes at the image end, out-of-bounds
///     parity (every accessor rejects, nothing is partially written);
///   - CoW mechanics: a fork shares every page until written, a write
///     privatizes exactly one page (counted in cowPageCopies), destroying
///     a fork returns sole ownership so later writes reclaim in place;
///   - Machine forks: a tenant's writes never leak into the template;
///   - Runtime::forkFrom: a forked tenant re-runs the program with cycle
///     counts bit-identical to a cold runtime's second (steady-state) run,
///     explicit cache mutation unshares exactly once, self-modifying code
///     is caught before the tenant unshares, the template keeps working
///     after its tenants are destroyed, and the guard rails (unfrozen
///     template, attached client) refuse to fork;
///   - the TenantFleet helper and the dr_fork_machine API veneer.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "api/dr_api.h"
#include "clients/Clients.h"
#include "core/Runtime.h"
#include "core/ThreadedRunner.h"
#include "vm/Memory.h"
#include "workloads/Workloads.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace rio;
using namespace rio::test;

namespace {

//===----------------------------------------------------------------------===//
// MemoryImage page-boundary semantics
//===----------------------------------------------------------------------===//

// Deliberately not page-aligned: the last page is partial, so "end of
// image" and "end of page" are different edges.
constexpr uint32_t ImageBytes = 3 * CowBlockBytes + 100;
constexpr uint32_t PageEdge = CowBlockBytes; // first boundary

TEST(PageBoundary, ScalarAccessesStraddlePages) {
  MemoryImage Mem(ImageBytes);

  // A 32-bit write two bytes before the page edge lands bytes on both
  // sides; each byte must read back from the right page.
  ASSERT_TRUE(Mem.write32(PageEdge - 2, 0xA1B2C3D4u));
  uint32_t V32 = 0;
  ASSERT_TRUE(Mem.read32(PageEdge - 2, V32));
  EXPECT_EQ(V32, 0xA1B2C3D4u);
  uint8_t B = 0;
  ASSERT_TRUE(Mem.read8(PageEdge - 2, B));
  EXPECT_EQ(B, 0xD4); // little-endian low byte, last-but-one of page 0
  ASSERT_TRUE(Mem.read8(PageEdge + 1, B));
  EXPECT_EQ(B, 0xA1); // high byte, second byte of page 1

  // Same for a 64-bit access placed to split 3/5 across the edge.
  ASSERT_TRUE(Mem.write64(2 * PageEdge - 3, 0x1122334455667788ull));
  uint64_t V64 = 0;
  ASSERT_TRUE(Mem.read64(2 * PageEdge - 3, V64));
  EXPECT_EQ(V64, 0x1122334455667788ull);

  // The straddling write dirtied both pages; a non-straddling read in
  // either page sees its half.
  ASSERT_TRUE(Mem.read8(2 * PageEdge, B));
  EXPECT_EQ(B, 0x55);
}

TEST(PageBoundary, BlockAccessesSpanSeveralPages) {
  MemoryImage Mem(ImageBytes);
  // A block covering parts of page 0, all of page 1, and part of page 2.
  std::vector<uint8_t> Src(2 * CowBlockBytes + 123);
  for (size_t I = 0; I != Src.size(); ++I)
    Src[I] = uint8_t(I * 7 + 3);
  const uint32_t Addr = PageEdge - 57;
  ASSERT_TRUE(Mem.writeBlock(Addr, Src.data(), uint32_t(Src.size())));

  std::vector<uint8_t> Back(Src.size());
  ASSERT_TRUE(Mem.readBlock(Addr, Back.data(), uint32_t(Back.size())));
  EXPECT_EQ(Src, Back);

  // readWindow straddling the edge must stitch through the scratch buffer
  // and agree with readBlock.
  uint8_t Scratch[64];
  const uint8_t *Win = Mem.readWindow(PageEdge - 8, 16, Scratch);
  ASSERT_NE(Win, nullptr);
  EXPECT_EQ(Win, Scratch); // straddle: must be the copy, not a page pointer
  uint8_t Direct[16];
  ASSERT_TRUE(Mem.readBlock(PageEdge - 8, Direct, 16));
  EXPECT_EQ(0, std::memcmp(Win, Direct, 16));

  // Within one page, the window is a direct pointer (no copy).
  const uint8_t *InPage = Mem.readWindow(PageEdge + 8, 16, Scratch);
  ASSERT_NE(InPage, nullptr);
  EXPECT_NE(InPage, Scratch);
}

TEST(PageBoundary, ZeroLengthWriteIsABoundsProbe) {
  MemoryImage Mem(ImageBytes);
  // Zero-length at the very end: succeeds, touches nothing.
  EXPECT_TRUE(Mem.writeBlock(Mem.size(), nullptr, 0));
  EXPECT_TRUE(Mem.readBlock(Mem.size(), nullptr, 0));
  EXPECT_EQ(Mem.privatePages(), 0u);
  // One past the end: out of bounds even for zero bytes.
  EXPECT_FALSE(Mem.writeBlock(Mem.size() + 1, nullptr, 0));
  EXPECT_FALSE(Mem.readBlock(Mem.size() + 1, nullptr, 0));
}

TEST(PageBoundary, OutOfBoundsRejectsWithoutPartialWrites) {
  MemoryImage Mem(ImageBytes);
  const uint32_t End = Mem.size();
  uint8_t B;
  uint32_t V32;
  uint64_t V64;

  // Scalars overlapping the end: all rejected.
  EXPECT_FALSE(Mem.read8(End, B));
  EXPECT_FALSE(Mem.read32(End - 3, V32));
  EXPECT_FALSE(Mem.read64(End - 7, V64));
  EXPECT_FALSE(Mem.write8(End, 1));
  EXPECT_FALSE(Mem.write32(End - 3, 0xFFFFFFFFu));
  EXPECT_FALSE(Mem.write64(End - 7, ~0ull));

  // Far past the end, including address-arithmetic-overflow territory.
  EXPECT_FALSE(Mem.read32(0xFFFFFFFCu, V32));
  EXPECT_FALSE(Mem.write32(0xFFFFFFFCu, 1));
  uint8_t Buf[8] = {};
  EXPECT_FALSE(Mem.writeBlock(End - 4, Buf, 8));
  EXPECT_FALSE(Mem.readBlock(End - 4, Buf, 8));
  EXPECT_EQ(Mem.readWindow(End - 4, 8, Buf), nullptr);

  // A rejected write must write nothing at all: the last bytes are
  // untouched (still zero), and no page was privatized along the way.
  for (uint32_t A = End - 8; A != End; ++A) {
    ASSERT_TRUE(Mem.read8(A, B));
    EXPECT_EQ(B, 0);
  }
  EXPECT_EQ(Mem.privatePages(), 0u);
  EXPECT_EQ(Mem.cowPageCopies(), 0u);
}

//===----------------------------------------------------------------------===//
// CoW mechanics
//===----------------------------------------------------------------------===//

TEST(Cow, FirstWriteToAnUntouchedPageIsNotACopy) {
  MemoryImage Mem(ImageBytes);
  EXPECT_EQ(Mem.privatePages(), 0u); // everything aliases the zero block
  ASSERT_TRUE(Mem.write8(5, 42));
  EXPECT_EQ(Mem.privatePages(), 1u);
  EXPECT_EQ(Mem.cowPageCopies(), 0u); // materialized, not copied
}

TEST(Cow, ForkSharesEveryPageUntilWritten) {
  MemoryImage A(ImageBytes);
  ASSERT_TRUE(A.write32(100, 0xDEADBEEFu));
  ASSERT_TRUE(A.write32(PageEdge + 100, 0xCAFEF00Du));
  EXPECT_EQ(A.privatePages(), 2u);

  MemoryImage B(A);
  // The fork owns nothing privately; both views read the same data.
  EXPECT_EQ(B.privatePages(), 0u);
  EXPECT_EQ(A.privatePages(), 0u); // the source lost exclusivity too
  uint32_t V = 0;
  ASSERT_TRUE(B.read32(100, V));
  EXPECT_EQ(V, 0xDEADBEEFu);

  // A write in the fork copies exactly that one page...
  ASSERT_TRUE(B.write32(100, 0x11111111u));
  EXPECT_EQ(B.cowPageCopies(), 1u);
  // ...with the template's byte unchanged...
  ASSERT_TRUE(A.read32(100, V));
  EXPECT_EQ(V, 0xDEADBEEFu);
  // ...and the other shared page still untouched on both sides.
  ASSERT_TRUE(B.read32(PageEdge + 100, V));
  EXPECT_EQ(V, 0xCAFEF00Du);

  // B's copy made A the sole owner of the original page again: A's next
  // write there reclaims in place, no second copy anywhere.
  ASSERT_TRUE(A.write32(104, 7));
  EXPECT_EQ(A.cowPageCopies(), 0u);
  ASSERT_TRUE(B.read32(104, V));
  EXPECT_EQ(V, 0u); // B's copy predates A's write
}

TEST(Cow, DestroyedForkReturnsSoleOwnership) {
  MemoryImage A(ImageBytes);
  ASSERT_TRUE(A.write32(8, 0x12345678u));
  {
    MemoryImage B(A);
    uint32_t V = 0;
    ASSERT_TRUE(B.read32(8, V));
    EXPECT_EQ(V, 0x12345678u);
  } // B dies without writing: its references drop
  // A is sole owner again: writing costs no copy.
  ASSERT_TRUE(A.write32(12, 9));
  EXPECT_EQ(A.cowPageCopies(), 0u);
  uint32_t V = 0;
  ASSERT_TRUE(A.read32(8, V));
  EXPECT_EQ(V, 0x12345678u);
}

TEST(Cow, CopyCountsAreExactPerPage) {
  MemoryImage A(ImageBytes);
  ASSERT_TRUE(A.write8(0, 1));                 // page 0
  ASSERT_TRUE(A.write8(PageEdge, 2));          // page 1
  ASSERT_TRUE(A.write8(2 * PageEdge, 3));      // page 2
  MemoryImage B(A);
  // Two writes into page 0 fault once; one into page 2 faults once; page 1
  // is never written. Exactly two copies.
  ASSERT_TRUE(B.write8(1, 10));
  ASSERT_TRUE(B.write8(2, 11));
  ASSERT_TRUE(B.write8(2 * PageEdge + 1, 12));
  EXPECT_EQ(B.cowPageCopies(), 2u);
  // Writing a page nobody dirtied (still the zero block) in the fork is a
  // materialization, not a copy.
  ASSERT_TRUE(B.write8(3 * PageEdge + 1, 13));
  EXPECT_EQ(B.cowPageCopies(), 2u);
}

//===----------------------------------------------------------------------===//
// Machine forks
//===----------------------------------------------------------------------===//

/// Same shape as persist_test's dispatch workload: a hot loop through a
/// skewed jump table (traces + IBL), with the checksum printed so any
/// execution divergence shows in the output. No data writes, so a reset
/// machine re-runs it identically.
Program dispatchProgram(int Iters) {
  return assembleOrDie(R"(
    .entry main
    table: .word h0 h0 h0 h0 h0 h0 h0 h0 h0 h0 h0 h0 h1 h2 h3 h4
    main:
      mov esi, 0
      mov eax, 12345
      mov edi, )" + std::to_string(Iters) + R"(
    loop:
      imul eax, eax, 1103515245
      add eax, 12345
      mov ecx, eax
      shr ecx, 16
      and ecx, 15
      shl ecx, 2
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
      mov ebx, esi
      mov eax, 2
      int 0x80
      mov ebx, 0
      mov eax, 1
      int 0x80
  )");
}

TEST(MachineFork, TenantWritesNeverReachTheTemplate) {
  Program Prog = dispatchProgram(200);
  Machine M;
  ASSERT_TRUE(loadProgram(M, Prog));

  Machine Fork(M);
  // The fork runs the whole program; the template's memory and state stay
  // exactly as loaded.
  while (Fork.status() == RunStatus::Running)
    Fork.step();
  EXPECT_EQ(Fork.status(), RunStatus::Exited);
  EXPECT_FALSE(Fork.output().empty());

  EXPECT_EQ(M.status(), RunStatus::Running);
  EXPECT_TRUE(M.output().empty());
  EXPECT_EQ(M.cycles(), 0u);
  // And the template still runs to the same answer afterwards.
  while (M.status() == RunStatus::Running)
    M.step();
  EXPECT_EQ(M.output(), Fork.output());
}

//===----------------------------------------------------------------------===//
// Runtime::forkFrom
//===----------------------------------------------------------------------===//

struct SteadyState {
  uint64_t Run1Cycles = 0;
  uint64_t Run2Cycles = 0; ///< the steady-state delta every tenant must hit
  std::string Output;
};

/// Cold reference: run once (warming the caches), rewind, run again, and
/// report the second run's cycle delta.
SteadyState coldTwoRuns(const Program &Prog, const RuntimeConfig &Config) {
  SteadyState S;
  Machine M;
  EXPECT_TRUE(loadProgram(M, Prog));
  Runtime RT(M, Config);
  uint64_t C0 = M.cycles();
  EXPECT_EQ(RT.run().Status, RunStatus::Exited);
  S.Run1Cycles = M.cycles() - C0;
  M.resetForRun();
  RT.resetThreadForRun();
  uint64_t C1 = M.cycles();
  EXPECT_EQ(RT.run().Status, RunStatus::Exited);
  S.Run2Cycles = M.cycles() - C1;
  S.Output = M.output();
  return S;
}

TEST(RuntimeFork, TenantRunsBitIdenticalToColdSecondRun) {
  Program Prog = dispatchProgram(600);
  for (bool Ib : {false, true}) {
    RuntimeConfig Config = RuntimeConfig::full();
    Config.IbInline = Ib;
    SteadyState Cold = coldTwoRuns(Prog, Config);

    // Template: warm up once, rewind, freeze.
    Machine M;
    ASSERT_TRUE(loadProgram(M, Prog));
    Runtime Template(M, Config);
    ASSERT_EQ(Template.run().Status, RunStatus::Exited);
    M.resetForRun();
    Template.resetThreadForRun();
    std::string Err;
    ASSERT_TRUE(Template.freezeTemplate(&Err)) << Err;

    // Several tenants, all alive at once, each bit-identical to the cold
    // steady-state run.
    std::vector<std::unique_ptr<Machine>> Machines;
    std::vector<std::unique_ptr<Runtime>> Tenants;
    for (int T = 0; T != 3; ++T) {
      Machines.push_back(std::make_unique<Machine>(M));
      auto Tenant = Runtime::forkFrom(Template, *Machines.back(), &Err);
      ASSERT_NE(Tenant, nullptr) << Err;
      EXPECT_TRUE(Tenant->isForked());
      uint64_t C0 = Machines.back()->cycles();
      RunResult R = Tenant->run();
      EXPECT_EQ(R.Status, RunStatus::Exited);
      EXPECT_EQ(Machines.back()->cycles() - C0, Cold.Run2Cycles)
          << "tenant " << T << " diverged (IbInline=" << Ib << ")";
      EXPECT_EQ(Machines.back()->output(), Cold.Output);
      Tenants.push_back(std::move(Tenant));
    }
    // And the template itself still replays its steady state afterwards.
    Tenants.clear();
    Machines.clear();
    M.resetForRun();
    Template.resetThreadForRun();
    uint64_t C0 = M.cycles();
    EXPECT_EQ(Template.run().Status, RunStatus::Exited);
    EXPECT_EQ(M.cycles() - C0, Cold.Run2Cycles);
  }
}

TEST(RuntimeFork, ExplicitMutationUnsharesExactlyOnce) {
  Program Prog = dispatchProgram(400);
  RuntimeConfig Config = RuntimeConfig::full();

  Machine M;
  ASSERT_TRUE(loadProgram(M, Prog));
  Runtime Template(M, Config);
  ASSERT_EQ(Template.run().Status, RunStatus::Exited);
  M.resetForRun();
  Template.resetThreadForRun();
  ASSERT_TRUE(Template.freezeTemplate());
  const size_t TemplateFrags = Template.numFragments();

  Machine TenantM(M);
  auto Tenant = Runtime::forkFrom(Template, TenantM);
  ASSERT_NE(Tenant, nullptr);
  EXPECT_TRUE(Tenant->isForked());
  EXPECT_EQ(Tenant->stats().get("fork_cache_unshares"), 0u);
  // The tenant sees the template's fragments through the shared view...
  EXPECT_NE(Tenant->lookupFragment(Prog.symbol("loop")), nullptr);
  EXPECT_EQ(Tenant->numFragments(), 0u); // ...but owns none itself.

  // Force a cache mutation: flushing empties the caches, which a shared
  // tenant must not do to its template.
  Tenant->flushCaches();
  EXPECT_FALSE(Tenant->isForked());
  EXPECT_EQ(Tenant->stats().get("fork_cache_unshares"), 1u);
  // The unshare cloned the fragments before the flush deleted them; the
  // template's stayed put.
  EXPECT_EQ(Template.numFragments(), TemplateFrags);
  EXPECT_NE(Template.lookupFragment(Prog.symbol("loop")), nullptr);

  // A second mutation does not unshare again.
  Tenant->flushCaches();
  EXPECT_EQ(Tenant->stats().get("fork_cache_unshares"), 1u);

  // The tenant still runs to the right answer on its rebuilt caches.
  uint64_t CacheCopies = TenantM.mem().cowPageCopies();
  EXPECT_GT(CacheCopies, 0u); // the clone had to privatize cache pages
  RunResult R = Tenant->run();
  EXPECT_EQ(R.Status, RunStatus::Exited);
  std::string Cold = coldTwoRuns(Prog, Config).Output;
  EXPECT_EQ(TenantM.output(), Cold);
}

TEST(RuntimeFork, GuardRailsRefuseBadForks) {
  Program Prog = dispatchProgram(100);
  RuntimeConfig Config = RuntimeConfig::full();
  Machine M;
  ASSERT_TRUE(loadProgram(M, Prog));
  Runtime Template(M, Config);
  ASSERT_EQ(Template.run().Status, RunStatus::Exited);

  std::string Err;
  Machine TenantM(M);
  // Not frozen yet.
  EXPECT_EQ(Runtime::forkFrom(Template, TenantM, &Err), nullptr);
  EXPECT_FALSE(Err.empty());
  // Forking onto the template's own machine.
  M.resetForRun();
  Template.resetThreadForRun();
  ASSERT_TRUE(Template.freezeTemplate(&Err)) << Err;
  EXPECT_EQ(Runtime::forkFrom(Template, M, &Err), nullptr);

  // A runtime with a non-persist-safe client cannot freeze: the client's
  // effect is not captured by the serialized bytes, so tenants running
  // without it would diverge. A persist-safe client (pure code transform)
  // is freezable — the trace optimizer's non-speculative tier relies on
  // that to warm fork templates.
  class StatefulClient : public Client {}; // persistSafe() defaults false
  Machine M2;
  ASSERT_TRUE(loadProgram(M2, Prog));
  StatefulClient Client;
  Runtime WithClient(M2, Config, &Client);
  ASSERT_EQ(WithClient.run().Status, RunStatus::Exited);
  EXPECT_FALSE(WithClient.freezeTemplate(&Err));

  Machine M3;
  ASSERT_TRUE(loadProgram(M3, Prog));
  NullClient Pure;
  Runtime WithPure(M3, Config, &Pure);
  ASSERT_EQ(WithPure.run().Status, RunStatus::Exited);
  M3.resetForRun();
  WithPure.resetThreadForRun();
  EXPECT_TRUE(WithPure.freezeTemplate(&Err)) << Err;
}

TEST(RuntimeFork, TenantFleetSpawnsIdenticalTenants) {
  Program Prog = dispatchProgram(300);
  RuntimeConfig Config = RuntimeConfig::full();
  SteadyState Cold = coldTwoRuns(Prog, Config);

  Machine M;
  ASSERT_TRUE(loadProgram(M, Prog));
  Runtime Template(M, Config);
  ASSERT_EQ(Template.run().Status, RunStatus::Exited);
  M.resetForRun();
  Template.resetThreadForRun();
  std::string Err;
  ASSERT_TRUE(Template.freezeTemplate(&Err)) << Err;

  TenantFleet Fleet;
  ASSERT_TRUE(Fleet.spawn(Template, M, 4, &Err)) << Err;
  ASSERT_EQ(Fleet.size(), 4u);
  for (auto &T : Fleet) {
    uint64_t C0 = T.M->cycles();
    EXPECT_EQ(T.RT->run().Status, RunStatus::Exited);
    EXPECT_EQ(T.M->cycles() - C0, Cold.Run2Cycles);
    EXPECT_EQ(T.M->output(), Cold.Output);
  }
  Fleet.clear();
  // Template intact after the fleet is gone.
  M.resetForRun();
  Template.resetThreadForRun();
  EXPECT_EQ(Template.run().Status, RunStatus::Exited);
}

/// A template frozen after two warm-up runs, whose first tenant run still
/// lazily links exits and so unshares the cache mid-run. The link must land
/// on the exit it was resolved for, not on whatever exit record shares its
/// id in the cloned cache.
TEST(RuntimeFork, TenantOfTwiceWarmedTemplateUnsharesMidRun) {
  for (const char *Name : {"vpr", "mcf"})
    for (int Scale : {28, 32, 40})
      for (bool Ib : {false, true}) {
        SCOPED_TRACE(std::string(Name) + " scale " + std::to_string(Scale) +
                     (Ib ? " IbInline" : ""));
        Program Prog = buildWorkload(*findWorkload(Name), Scale);
        RuntimeConfig Config = RuntimeConfig::full();
        Config.IbInline = Ib;
        Machine Ref;
        ASSERT_TRUE(loadProgram(Ref, Prog));
        Runtime RefRT(Ref, Config);
        uint64_t C0 = 0;
        for (int Run = 1; Run <= 3; ++Run) {
          if (Run > 1) {
            Ref.resetForRun();
            RefRT.resetThreadForRun();
          }
          C0 = Ref.cycles();
          ASSERT_EQ(RefRT.run().Status, RunStatus::Exited);
        }
        const uint64_t ThirdRun = Ref.cycles() - C0;

        Machine M;
        ASSERT_TRUE(loadProgram(M, Prog));
        Runtime Template(M, Config);
        for (int Run = 1; Run <= 2; ++Run) {
          ASSERT_EQ(Template.run().Status, RunStatus::Exited);
          M.resetForRun();
          Template.resetThreadForRun();
        }
        std::string Err;
        ASSERT_TRUE(Template.freezeTemplate(&Err)) << Err;
        Machine TenantM(M);
        auto Tenant = Runtime::forkFrom(Template, TenantM, &Err);
        ASSERT_NE(Tenant, nullptr) << Err;
        uint64_t T0 = TenantM.cycles();
        RunResult R = Tenant->run();
        ASSERT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
        EXPECT_EQ(TenantM.cycles() - T0, ThirdRun);
        EXPECT_EQ(TenantM.output(), Ref.output());
      }
}

/// Self-modifying code in a tenant that still shares its template's cache:
/// the first patch of app code behind a shared fragment must be seen (the
/// fork inherits its template's write-watch counts, not its decode cache),
/// unshare the cache once, and retranslate. A fork of a never-stepped fork
/// holds its watches without tables; it must pass them on all the same.
TEST(RuntimeFork, TenantSeesSelfModifyingCodeBeforeUnsharing) {
  Program Prog = buildWorkload(*findWorkload("smc"), 40);
  NativeRun Native = runNative(Prog);
  ASSERT_EQ(Native.Status, RunStatus::Exited) << Native.FaultReason;

  Machine M;
  ASSERT_TRUE(loadProgram(M, Prog));
  Runtime Template(M, RuntimeConfig::full());
  for (int Run = 1; Run <= 2; ++Run) {
    ASSERT_EQ(Template.run().Status, RunStatus::Exited);
    M.resetForRun();
    Template.resetThreadForRun();
  }
  std::string Err;
  ASSERT_TRUE(Template.freezeTemplate(&Err)) << Err;
  const size_t WarmOutput = M.output().size(); // a fork carries it along

  for (bool ForkOfFork : {false, true}) {
    SCOPED_TRACE(ForkOfFork ? "fork of a never-stepped fork" : "fork");
    Machine Mid(M);
    Machine TenantM(ForkOfFork ? Mid : M);
    auto Tenant = Runtime::forkFrom(Template, TenantM, &Err);
    ASSERT_NE(Tenant, nullptr) << Err;
    RunResult R = Tenant->run();
    ASSERT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
    EXPECT_EQ(TenantM.output().substr(WarmOutput), Native.Output);
    EXPECT_EQ(TenantM.exitCode(), Native.ExitCode);
    EXPECT_EQ(Tenant->stats().get("fork_cache_unshares"), 1u);
  }
}

//===----------------------------------------------------------------------===//
// dr_ API veneer
//===----------------------------------------------------------------------===//

TEST(DrFork, ApiRoundTrip) {
  Program Prog = dispatchProgram(300);
  RuntimeConfig Config = RuntimeConfig::full();
  SteadyState Cold = coldTwoRuns(Prog, Config);

  Machine M;
  ASSERT_TRUE(loadProgram(M, Prog));
  Runtime Template(M, Config);
  ASSERT_EQ(Template.run().Status, RunStatus::Exited);
  M.resetForRun();
  Template.resetThreadForRun();

  // dr_fork_machine freezes on demand.
  EXPECT_FALSE(Template.isFrozenTemplate());
  void *Tenant = dr_fork_machine(&Template);
  ASSERT_NE(Tenant, nullptr);
  EXPECT_TRUE(Template.isFrozenTemplate());
  EXPECT_TRUE(dr_is_forked(Tenant));
  EXPECT_FALSE(dr_is_forked(&Template));

  Machine *TenantM = dr_fork_machine_of(Tenant);
  ASSERT_NE(TenantM, nullptr);
  EXPECT_EQ(dr_fork_machine_of(&Template), nullptr);

  uint64_t C0 = TenantM->cycles();
  RunResult R = static_cast<Runtime *>(Tenant)->run();
  EXPECT_EQ(R.Status, RunStatus::Exited);
  EXPECT_EQ(TenantM->cycles() - C0, Cold.Run2Cycles);
  EXPECT_EQ(TenantM->output(), Cold.Output);

  dr_fork_delete(Tenant);
  dr_fork_delete(Tenant); // idempotent on unknown contexts

  // Template still serves after its tenant is gone.
  M.resetForRun();
  Template.resetThreadForRun();
  EXPECT_EQ(Template.run().Status, RunStatus::Exited);
}

} // namespace
