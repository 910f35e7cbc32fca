//===- bench/bench_sideline.cpp - Sideline re-optimization vs off ---------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures sideline re-optimization (paper Section 3.4) against the plain
/// runtime. Three indirect-branch-heavy workloads run two ways:
///
///   * off   — no client, no sideline: the raw runtime floor;
///   * async — a host worker thread optimizes decoded traces while the
///             app runs; publication swaps the link graph at a safe point
///             for SidelinePublishCost and moves suspended threads onto
///             the new version by on-stack replacement.
///
/// The bench hard-asserts the subsystem's contract on the simulated
/// clock: both modes are output-transparent, the sideline schedule is
/// deterministic for the fixed seed (two runs, bit-identical cycles), and
/// the sideline publishes at least one version on every workload. This is
/// also the second sweep of ablation D (EXPERIMENTS.md).
///
/// Simulated cycles and publication counts are exact and diffable across
/// commits; bench_compare.py gates them hard. Host wall clock of each
/// run is reported informationally only.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "core/Sideline.h"

using namespace rio;
using namespace rio::bench;

namespace {

/// One run of \p Prog, with or without the sideline: simulated cycles,
/// publication and stale-drop counts, traces built, and host wall clock.
/// Dies on any transparency or execution failure.
Row runOnce(const std::string &Name, const Program &Prog, bool Sidelined,
            const std::string &Expected) {
  Row Out(Name + (Sidelined ? "_async" : "_off"));
  Machine M;
  if (!loadProgram(M, Prog))
    die(Name + ": program too large");
  uint64_t T0 = nowNs();
  RunResult R;
  uint64_t Published = 0, StaleDrops = 0, Traces = 0;
  if (!Sidelined) {
    Runtime RT(M, RuntimeConfig::full());
    R = RT.run();
    Traces = RT.stats().get("traces_built");
  } else {
    RlrClient Inner;
    SidelineOptimizer Sideline(Inner);
    RuntimeConfig Config = RuntimeConfig::full();
    Config.SidelinePump = &Sideline;
    Runtime RT(M, Config, &Sideline);
    R = runWithSideline(RT, Sideline);
    Published = Sideline.versionsPublished();
    StaleDrops = Sideline.staleDrops();
    Traces = RT.stats().get("traces_built");
  }
  uint64_t HostNs = nowNs() - T0;
  if (R.Status != RunStatus::Exited)
    die(Out.config() + ": run did not exit: " + R.FaultReason);
  if (M.output() != Expected)
    die(Out.config() + ": transparency violated");
  return Out.add("cycles", R.Cycles)
      .add("published", Published)
      .add("stale_drops", StaleDrops)
      .add("traces", Traces)
      .add("host_ns", HostNs);
}

} // namespace

int main(int Argc, char **Argv) {
  const char *OutPath = Argc > 1 ? Argv[1] : "BENCH_sideline.json";
  OutStream &OS = outs();
  OS.printf("Sideline re-optimization (simulated cycles; "
            "client = redundant load removal)\n\n");
  OS.printf("%-10s %12s %12s %6s %6s\n", "workload", "off", "async", "pub",
            "drop");

  std::vector<Row> Rows;
  for (const char *Name : {"vdispatch", "rettree", "interp"}) {
    Program Prog = workloadProgram(Name);
    Outcome Native = runNativeProgram(Prog);
    if (Native.Status != RunStatus::Exited)
      die(std::string(Name) + ": native run failed");

    Row Off = runOnce(Name, Prog, false, Native.Output);
    Row Async = runOnce(Name, Prog, true, Native.Output);

    // The virtual-completion schedule is seeded: a second run must land
    // on the identical simulated cycle count.
    Row Again = runOnce(Name, Prog, true, Native.Output);
    if (Again.get("cycles") != Async.get("cycles") ||
        Again.get("published") != Async.get("published"))
      die(std::string(Name) + ": sideline schedule is not deterministic");

    if (Async.get("published") == 0)
      die(std::string(Name) + ": sideline published nothing");

    OS.printf("%-10s %12llu %12llu %6llu %6llu\n", Name,
              (unsigned long long)Off.get("cycles"),
              (unsigned long long)Async.get("cycles"),
              (unsigned long long)Async.get("published"),
              (unsigned long long)Async.get("stale_drops"));
    Rows.push_back(std::move(Off));
    Rows.push_back(std::move(Async));
  }
  writeRows(OutPath, Rows);
  return 0;
}
