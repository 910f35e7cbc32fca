//===- tests/workloads_test.cpp - Workload suite tests ------------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/Runtime.h"
#include "core/ThreadedRunner.h"
#include "workloads/Workloads.h"

using namespace rio;
using namespace rio::test;

namespace {

/// Every workload assembles, runs natively to a clean exit, and produces a
/// non-empty deterministic checksum.
class WorkloadNative : public ::testing::TestWithParam<const char *> {};

TEST_P(WorkloadNative, RunsCleanly) {
  const Workload *W = findWorkload(GetParam());
  ASSERT_NE(W, nullptr);
  Program P = buildWorkload(*W, W->TestScale);
  NativeRun A = runNative(P);
  ASSERT_EQ(A.Status, RunStatus::Exited) << A.FaultReason;
  EXPECT_EQ(A.ExitCode, 0);
  EXPECT_FALSE(A.Output.empty());
  // Deterministic.
  NativeRun B = runNative(P);
  EXPECT_EQ(A.Output, B.Output);
  EXPECT_EQ(A.Cycles, B.Cycles);
}

/// Every workload is transparent under the full runtime: identical output
/// and exit code.
TEST_P(WorkloadNative, TransparentUnderRuntime) {
  const Workload *W = findWorkload(GetParam());
  ASSERT_NE(W, nullptr);
  Program P = buildWorkload(*W, W->TestScale);
  NativeRun Native = runNative(P);
  ASSERT_EQ(Native.Status, RunStatus::Exited) << Native.FaultReason;

  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  Runtime RT(M, RuntimeConfig::full());
  RunResult R = RT.run();
  EXPECT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
  EXPECT_EQ(R.ExitCode, Native.ExitCode);
  EXPECT_EQ(M.output(), Native.Output);
}

INSTANTIATE_TEST_SUITE_P(
    All, WorkloadNative,
    ::testing::Values("gzip", "vpr", "gcc", "mcf", "crafty", "parser",
                      "perlbmk", "gap", "eon", "vortex", "bzip2", "twolf",
                      "swim", "mgrid", "applu", "equake", "wupwise", "mesa",
                      "art", "ammp", "sixtrack", "apsi", "smc",
                      "cachepressure", "vdispatch", "rettree", "interp",
                      "redload", "incdec", "deadstore", "combo",
                      "dataloop"));

/// sharedwork needs the thread scheduler, so it is checked natively and
/// under the full runtime through the threaded runners.
TEST(WorkloadThreaded, SharedworkIsTransparent) {
  const Workload *W = findWorkload("sharedwork");
  ASSERT_NE(W, nullptr);
  Program P = buildWorkload(*W, W->TestScale);
  Machine Native;
  ASSERT_TRUE(loadProgram(Native, P));
  ASSERT_EQ(runThreadedNative(Native).Status, RunStatus::Exited);
  EXPECT_FALSE(Native.output().empty());

  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  ThreadedRunner Runner(M, RuntimeConfig::full());
  RunResult R = Runner.run();
  EXPECT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
  EXPECT_EQ(M.output(), Native.output());
}

TEST(WorkloadRegistry, NamesAndGroups) {
  // The paper's suite: SPEC2000 minus the Fortran-90 programs.
  EXPECT_EQ(allWorkloads().size(), 22u);
  unsigned Fp = 0;
  for (const Workload &W : allWorkloads())
    Fp += W.IsFp;
  EXPECT_EQ(Fp, 10u);
  EXPECT_NE(findWorkload("mgrid"), nullptr);
  EXPECT_TRUE(findWorkload("mgrid")->IsFp);
  EXPECT_EQ(findWorkload("nosuch"), nullptr);
}

TEST(WorkloadProperties, MgridHasRedundantLoads) {
  // mgrid's inner loop must present reloadable movsd loads (the RLR fuel).
  const Workload *W = findWorkload("mgrid");
  Program P = buildWorkload(*W, 1);
  // Count movsd loads from identical operands in the source: at least 2
  // redundant reloads are coded in the kernel.
  std::string Src = W->Source(1);
  size_t Count = 0, Pos = 0;
  while ((Pos = Src.find("redundant reload", Pos)) != std::string::npos) {
    ++Count;
    Pos += 1;
  }
  EXPECT_GE(Count, 2u);
}

TEST(WorkloadProperties, ScaleControlsWork) {
  const Workload *W = findWorkload("vpr");
  uint64_t Small = runNative(buildWorkload(*W, 4)).Instructions;
  uint64_t Large = runNative(buildWorkload(*W, 8)).Instructions;
  EXPECT_GT(Large, Small + Small / 2);
}

} // namespace

namespace {

/// Golden checksums at TestScale: catches accidental semantic drift of the
/// workload generators themselves across refactors (transparency tests
/// alone only compare native vs runtime, not against history).
TEST(WorkloadGolden, ChecksumsMatchRecordedValues) {
  struct Golden {
    const char *Name;
    const char *Checksum;
  };
  static const Golden Table[] = {
      {"gzip", "172400"},
      {"vpr", "12323"},
      {"gcc", "7733079"},
      {"mcf", "1140000"},
      {"crafty", "79296"},
      {"parser", "16777077"},
      {"perlbmk", "4022616"},
      {"gap", "93138"},
      {"eon", "3308880"},
      {"vortex", "28207"},
      {"bzip2", "1579422"},
      {"twolf", "8278"},
      {"swim", "49"},
      {"mgrid", "1643"},
      {"applu", "24772"},
      {"equake", "50"},
      {"wupwise", "16777205"},
      {"mesa", "46"},
      {"art", "26210"},
      {"ammp", "168"},
      {"sixtrack", "24889"},
      {"apsi", "106555"},
  };
  ASSERT_EQ(std::size(Table), allWorkloads().size());
  for (const Golden &G : Table) {
    const Workload *W = findWorkload(G.Name);
    ASSERT_NE(W, nullptr) << G.Name;
    Program P = buildWorkload(*W, W->TestScale);
    NativeRun R = runNative(P);
    ASSERT_EQ(R.Status, RunStatus::Exited) << G.Name;
    EXPECT_EQ(R.Output, std::string(G.Checksum) + "\n") << G.Name;
  }
}

/// Fault transparency: a program that faults natively faults identically
/// (same status) under the runtime, in cold and hot code alike.
TEST(WorkloadFaults, FaultStatusIsTransparent) {
  // Faults after a hot warmup (so the faulting code runs from a trace).
  Program P = assembleOrDie(R"(
    main:
      mov ecx, 20000
    warm:
      add eax, ecx
      dec ecx
      jnz warm
      mov eax, 5
      cdq
      mov ecx, 0
      idiv ecx            ; divide fault
      hlt
  )");
  NativeRun Native = runNative(P);
  EXPECT_EQ(Native.Status, RunStatus::Faulted);

  for (const RuntimeConfig &Config :
       {RuntimeConfig::emulate(), RuntimeConfig::linkDirect(),
        RuntimeConfig::full()}) {
    Machine M;
    ASSERT_TRUE(loadProgram(M, P));
    Runtime RT(M, Config);
    RunResult R = RT.run();
    EXPECT_EQ(R.Status, RunStatus::Faulted);
    EXPECT_NE(R.FaultReason.find("divide"), std::string::npos);
  }
}

} // namespace
