//===- tests/sideline_test.cpp - Sideline optimization tests -------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "api/dr_api.h"
#include "clients/Clients.h"
#include "core/Sideline.h"
#include "persist/CacheImage.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

using namespace rio;
using namespace rio::test;

namespace {

/// A runtime whose trace hook runs behind the sideline: a host worker
/// thread when the inner client is sideline-safe, publication pumped at
/// every dispatch boundary and between quanta.
struct Sidelined {
  SidelineOptimizer Sideline;
  Runtime RT;
  Sidelined(Machine &M, Client &Inner, uint64_t Seed = 0x5eed51deull)
      : Sideline(Inner, SidelineMode::Async, Seed),
        RT(M, pumped(Sideline), &Sideline) {}
  static RuntimeConfig pumped(SidelineOptimizer &S) {
    RuntimeConfig Config = RuntimeConfig::full();
    Config.SidelinePump = &S;
    return Config;
  }
  RunResult run(uint64_t Quantum = 3000) {
    return runWithSideline(RT, Sideline, Quantum);
  }
};

TEST(Sideline, OptimizesTracesOffTheCriticalPath) {
  const Workload *W = findWorkload("mgrid");
  Program P = buildWorkload(*W, W->TestScale);
  NativeRun Native = runNative(P);

  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  RlrClient Inner;
  Sidelined S(M, Inner);
  RunResult R = S.run();
  ASSERT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
  EXPECT_EQ(M.output(), Native.Output);
  EXPECT_GE(S.Sideline.tracesOptimized(), 1u);
  S.Sideline.quiesce(); // the worker writes Inner's counters
  EXPECT_GE(Inner.loadsForwarded() + Inner.loadsRemoved(), 1u);
  EXPECT_EQ(S.RT.stats().get("sideline_versions_published"),
            S.Sideline.tracesOptimized());
}

TEST(Sideline, StillDeliversTheSpeedup) {
  // On mgrid the deferred redundant-load removal must still beat the
  // unoptimized runtime once the sideline has published the hot trace.
  const Workload *W = findWorkload("mgrid");
  Program P = buildWorkload(*W, 0);

  auto Run = [&](bool WithSideline) {
    Machine M;
    loadProgram(M, P);
    RlrClient Inner;
    if (!WithSideline) {
      Runtime RT(M, RuntimeConfig::full(), nullptr);
      return RT.run().Cycles;
    }
    Sidelined S(M, Inner);
    return S.run().Cycles;
  };
  uint64_t Base = Run(false);
  uint64_t Sideline = Run(true);
  EXPECT_LT(Sideline, Base);
}

/// A deliberately heavyweight optimizer: models an aggressive analysis
/// (e.g. value-range or scheduling passes) costing many cycles per trace.
/// Exactly the kind of client whose cost the paper's sideline proposal
/// moves off the application's critical path.
class ExpensiveOptimizer : public Client {
public:
  unsigned CyclesPerTrace = 25000;
  void onTrace(Runtime &RT, AppPc Tag, InstrList &Trace) override {
    Inner.onTrace(RT, Tag, Trace);
    RT.machine().chargeCycles(CyclesPerTrace); // the heavy analysis
  }
  RlrClient Inner;
};

TEST(Sideline, PaysOffForExpensiveOptimizations) {
  // The sideline's raison d'etre (paper Section 3.4): expensive
  // optimization time comes off the application's critical path — the
  // synchronous client eats the full analysis cost, the sideline only the
  // publication's link-graph swap.
  for (const char *Name : {"gcc", "perlbmk", "mgrid"}) {
    const Workload *W = findWorkload(Name);
    Program P = buildWorkload(*W, 0);

    uint64_t Sync;
    {
      Machine M;
      loadProgram(M, P);
      ExpensiveOptimizer Opt;
      Runtime RT(M, RuntimeConfig::full(), &Opt);
      Sync = RT.run().Cycles;
    }
    uint64_t Side;
    {
      Machine M;
      loadProgram(M, P);
      ExpensiveOptimizer Opt;
      Sidelined S(M, Opt);
      Side = S.run().Cycles;
    }
    EXPECT_LT(Side, Sync) << Name;
  }
}

TEST(Sideline, CheapClientsCostAboutTheSame) {
  // For lightweight transformations the publication cost and the latency
  // before the optimized version takes over roughly cancel the deferral
  // benefit: the sideline must at least stay within a few percent (its
  // value is for heavyweight optimizers, above).
  const Workload *W = findWorkload("perlbmk");
  Program P = buildWorkload(*W, 0);
  uint64_t Sync;
  {
    Machine M;
    loadProgram(M, P);
    StrengthReduceClient C;
    Runtime RT(M, RuntimeConfig::full(), &C);
    Sync = RT.run().Cycles;
  }
  uint64_t Side;
  {
    Machine M;
    loadProgram(M, P);
    StrengthReduceClient C;
    Sidelined S(M, C);
    Side = S.run().Cycles;
  }
  EXPECT_LT(double(Side), double(Sync) * 1.05);
}

//===----------------------------------------------------------------------===//
// Versioned publication on the seeded schedule
//===----------------------------------------------------------------------===//

struct AsyncRun {
  uint64_t Cycles = 0;
  std::string Output;
  uint64_t Published = 0;
  uint64_t StaleDrops = 0;
  uint64_t Epoch = 0;
  uint64_t Enqueued = 0;
};

/// One full sideline run of \p P with RLR as the inner optimizer.
AsyncRun runAsyncOnce(const Program &P, uint64_t Seed) {
  Machine M;
  EXPECT_TRUE(loadProgram(M, P));
  RlrClient Inner;
  Sidelined S(M, Inner, Seed);
  RunResult R = S.run();
  EXPECT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
  return {R.Cycles,
          M.output(),
          S.Sideline.versionsPublished(),
          S.Sideline.staleDrops(),
          S.RT.publicationEpoch(),
          S.RT.stats().get("sideline_jobs_enqueued")};
}

TEST(Sideline, AsyncPublishesVersionsTransparently) {
  const Workload *W = findWorkload("mgrid");
  Program P = buildWorkload(*W, W->TestScale);
  NativeRun Native = runNative(P);
  AsyncRun R = runAsyncOnce(P, /*Seed=*/0x5eed51deull);
  EXPECT_EQ(R.Output, Native.Output);
  EXPECT_GE(R.Enqueued, 1u);
  EXPECT_GE(R.Published, 1u);
  // Every publication minted exactly one epoch.
  EXPECT_EQ(R.Epoch, R.Published);
}

TEST(Sideline, AsyncIsDeterministicForAFixedSeed) {
  // The host worker races wall-clock time, but publication happens on the
  // seeded virtual-completion schedule: two runs with the same seed must
  // be cycle-identical, not merely output-identical.
  const Workload *W = findWorkload("mgrid");
  Program P = buildWorkload(*W, W->TestScale);
  AsyncRun A = runAsyncOnce(P, /*Seed=*/7);
  AsyncRun B = runAsyncOnce(P, /*Seed=*/7);
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(A.Output, B.Output);
  EXPECT_EQ(A.Published, B.Published);
  EXPECT_EQ(A.StaleDrops, B.StaleDrops);
  // A different seed shifts completion times but never correctness.
  AsyncRun C = runAsyncOnce(P, /*Seed=*/1234);
  EXPECT_EQ(A.Output, C.Output);
}

TEST(Sideline, AsyncDeleteWhileQueuedIsPurged) {
  // Regression: a cache flush lands while decoded jobs are in flight. The
  // deletion hook must cancel the jobs captured against the now-dead
  // versions; they surface as stale drops, never as publications into a
  // dead fragment.
  Program P = buildWorkload(*findWorkload("crafty"), 30);
  NativeRun Native = runNative(P);
  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  StrengthReduceClient Inner;
  Sidelined S(M, Inner, 42);
  RunResult R;
  bool Flushed = false;
  for (;;) {
    R = S.RT.runFor(400);
    if (!R.QuantumExpired)
      break;
    if (!Flushed && S.Sideline.pendingCount() > 0) {
      S.RT.flushCaches(); // every queued job's target version dies here
      Flushed = true;
    }
  }
  ASSERT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
  ASSERT_TRUE(Flushed);
  EXPECT_EQ(M.output(), Native.Output);
  EXPECT_GE(S.Sideline.staleDrops(), 1u);
  EXPECT_GE(S.RT.stats().get("sideline_stale_drops"), 1u);
}

TEST(Sideline, VersionQueryApi) {
  const Workload *W = findWorkload("mgrid");
  Program P = buildWorkload(*W, W->TestScale);
  AppPc Missing = 1; // no fragment will ever carry tag 1
  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  RlrClient Inner;
  Sidelined S(M, Inner, 7);
  Runtime &RT = S.RT;
  ASSERT_EQ(S.run().Status, RunStatus::Exited);
  ASSERT_GE(S.Sideline.versionsPublished(), 1u);
  EXPECT_EQ(dr_fragment_version(&RT, Missing), -1);
  EXPECT_EQ(dr_publication_epoch(&RT), RT.publicationEpoch());
  // Single-threaded: nobody is suspended in the cache, so the whole
  // history is safe.
  EXPECT_EQ(dr_min_safe_epoch(&RT), dr_publication_epoch(&RT));
  // Some republished trace must report a bumped version number.
  int MaxVersion = 0;
  RT.forEachFragment([&](const Fragment &F) {
    EXPECT_EQ(dr_fragment_version(&RT, F.Tag), int(F.Version));
    MaxVersion = std::max(MaxVersion, int(F.Version));
  });
  EXPECT_GE(MaxVersion, 1);
}

TEST(Sideline, PersistRoundTripUnderSideline) {
  // The cache-image gate is persistSafe(), not "no client attached": a
  // sideline-wrapped pure optimizer serializes (only published versions
  // live in the table) and warm-starts.
  const Workload *W = findWorkload("mgrid");
  Program P = buildWorkload(*W, W->TestScale);
  NativeRun Native = runNative(P);

  std::vector<uint8_t> Image;
  {
    Machine M;
    ASSERT_TRUE(loadProgram(M, P));
    RlrClient Inner;
    Sidelined S(M, Inner);
    ASSERT_EQ(S.run().Status, RunStatus::Exited);
    ASSERT_GE(S.Sideline.tracesOptimized(), 1u);
    ASSERT_TRUE(persist::CacheCodec::save(S.RT, Image));
  }
  {
    Machine M;
    ASSERT_TRUE(loadProgram(M, P));
    RlrClient Inner;
    Sidelined S(M, Inner);
    Runtime &RT = S.RT;
    ASSERT_EQ(persist::CacheCodec::load(RT, Image.data(), Image.size()),
              persist::LoadStatus::Ok);
    EXPECT_GE(RT.numFragments(), 1u);
    // The image carries each trace's OSR descriptors and NET block list.
    unsigned TracesWithBlocks = 0, TracesWithOsr = 0;
    RT.forEachFragment([&](const Fragment &F) {
      if (!F.isTrace())
        return;
      TracesWithBlocks += !F.TraceBlocks.empty();
      TracesWithOsr += !F.OsrPoints.empty();
    });
    EXPECT_GE(TracesWithBlocks, 1u);
    EXPECT_GE(TracesWithOsr, 1u);
    RunResult R = S.run();
    ASSERT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
    EXPECT_EQ(M.output(), Native.Output);
  }
}

TEST(Sideline, QueueDrainsAndSurvivesFlushes) {
  Program P = buildWorkload(*findWorkload("crafty"), 30);
  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  StrengthReduceClient Inner;
  Sidelined S(M, Inner);
  RunResult R = S.run(/*Quantum=*/500);
  ASSERT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
  // Nothing stale blew up, flush/replace notifications kept the queue
  // consistent, and every queued trace was published or dropped.
  S.RT.flushCaches();
  EXPECT_EQ(S.Sideline.pendingCount(), 0u);
}

/// A sideline-safe client whose transform takes host time, so the worker
/// is still busy with handed-off traces when the application exits.
class SlowCountingClient : public Client {
public:
  bool sidelineSafe() const override { return true; }
  void onTrace(Runtime &, AppPc, InstrList &) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ++Transformed;
  }
  uint64_t Transformed = 0; ///< worker-written: read after quiesce
};

TEST(Sideline, QuiesceWaitsForTheWorkerAndPublishesNothing) {
  // At scale 1, crafty exits with traces still in flight.
  Program P = buildWorkload(*findWorkload("crafty"), 1);
  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  SlowCountingClient Inner;
  auto S = std::make_unique<Sidelined>(M, Inner);
  RunResult R = S->run();
  ASSERT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
  size_t Pending = S->Sideline.pendingCount();
  uint64_t Published = S->Sideline.tracesOptimized();
  ASSERT_GE(Pending, 1u); // work the worker may still be holding
  S->Sideline.quiesce();
  uint64_t Quiesced = Inner.Transformed;
  EXPECT_EQ(S->Sideline.pendingCount(), Pending);
  EXPECT_EQ(S->Sideline.tracesOptimized(), Published);
  EXPECT_GT(Quiesced, Published);
  // Joining the worker runs no further transform: quiesce already waited
  // for every job it had been handed.
  S.reset();
  EXPECT_EQ(Inner.Transformed, Quiesced);
}

} // namespace
