//===- bench/bench_sideline.cpp - Asynchronous sideline publication wins -----===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures what asynchronous sideline re-optimization buys over the
/// synchronous sideline (paper Section 3.4). Three indirect-branch-heavy
/// workloads run three ways:
///
///   * off   — no client, no sideline: the raw runtime floor;
///   * sync  — sideline queue drained on the app thread at quantum
///             boundaries; every replacement charges FragmentReplaceCost;
///   * async — a host worker thread optimizes decoded traces while the
///             app runs; publication swaps the link graph at a safe point
///             for SidelinePublishCost and moves suspended threads onto
///             the new version by on-stack replacement.
///
/// The bench hard-asserts the subsystem's contract on the simulated
/// clock: all three modes are output-transparent, the async schedule is
/// deterministic for the fixed seed (two runs, bit-identical cycles),
/// async never costs more than sync on any workload, and async beats sync
/// outright on at least two of the three (publication is 300 cycles
/// cheaper per trace; the virtual completion latency can return a sliver
/// of that on a workload with very few traces). This is also the second
/// sweep of ablation D (EXPERIMENTS.md).
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

enum class Mode { Off, Sync, Async };

/// One run of \p Prog in mode \p Which: simulated cycles, publication and
/// stale-drop counts, traces built, and host wall clock. Dies on any
/// transparency or execution failure.
Row runOnce(const std::string &Name, const Program &Prog, Mode Which,
            const std::string &Expected) {
  Row Out(Name + (Which == Mode::Off    ? "_off"
                  : Which == Mode::Sync ? "_sync"
                                        : "_async"));
  Machine M;
  if (!loadProgram(M, Prog))
    die(Name + ": program too large");
  RlrClient Inner;
  uint64_t T0 = nowNs();
  RunResult R;
  uint64_t Published = 0, StaleDrops = 0, Traces = 0;
  if (Which == Mode::Off) {
    Runtime RT(M, RuntimeConfig::full());
    R = RT.run();
    Traces = RT.stats().get("traces_built");
  } else {
    SidelineOptimizer Sideline(Inner,
                               Which == Mode::Async ? SidelineMode::Async
                                                    : SidelineMode::Sync);
    RuntimeConfig Config = RuntimeConfig::full();
    if (Which == Mode::Async)
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
  OS.printf("Asynchronous sideline re-optimization (simulated cycles; "
            "client = redundant load removal)\n\n");
  OS.printf("%-10s %12s %12s %12s %6s %6s\n", "workload", "off", "sync",
            "async", "pub", "drop");

  std::vector<Row> Rows;
  int AsyncWins = 0;
  for (const char *Name : {"vdispatch", "rettree", "interp"}) {
    Program Prog = workloadProgram(Name);
    Outcome Native = runNativeProgram(Prog);
    if (Native.Status != RunStatus::Exited)
      die(std::string(Name) + ": native run failed");

    Row Off = runOnce(Name, Prog, Mode::Off, Native.Output);
    Row Sync = runOnce(Name, Prog, Mode::Sync, Native.Output);
    Row Async = runOnce(Name, Prog, Mode::Async, Native.Output);

    // The virtual-completion schedule is seeded: a second async run must
    // land on the identical simulated cycle count.
    Row Again = runOnce(Name, Prog, Mode::Async, Native.Output);
    if (Again.get("cycles") != Async.get("cycles") ||
        Again.get("published") != Async.get("published"))
      die(std::string(Name) + ": async schedule is not deterministic");

    if (Sync.get("published") != 0)
      die(std::string(Name) + ": sync sideline published versions");
    if (Async.get("published") == 0)
      die(std::string(Name) + ": async sideline published nothing");
    // Publication charges SidelinePublishCost instead of
    // FragmentReplaceCost, so async may never cost more than sync.
    if (Async.get("cycles") > Sync.get("cycles"))
      die(std::string(Name) + ": async cycles exceed sync");
    AsyncWins += Async.get("cycles") < Sync.get("cycles");

    OS.printf("%-10s %12llu %12llu %12llu %6llu %6llu\n", Name,
              (unsigned long long)Off.get("cycles"),
              (unsigned long long)Sync.get("cycles"),
              (unsigned long long)Async.get("cycles"),
              (unsigned long long)Async.get("published"),
              (unsigned long long)Async.get("stale_drops"));
    Rows.push_back(std::move(Off));
    Rows.push_back(std::move(Sync));
    Rows.push_back(std::move(Async));
  }

  OS.printf("\nasync beat sync outright on %d of 3 workloads\n", AsyncWins);
  if (AsyncWins < 2)
    die("async steady-state cycles must beat sync on at least 2 workloads");
  writeRows(OutPath, Rows);
  return 0;
}
