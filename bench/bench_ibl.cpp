//===- bench/bench_ibl.cpp - Adaptive IB inline-cache benchmark ---------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the adaptive indirect-branch inline caches (core/IbInline.cpp)
/// on three indirect-heavy shapes: virtual dispatch over a skewed class
/// mix, a ret-heavy call tree, and a switch-dispatch bytecode interpreter.
/// Each workload runs with the feature off and on under the cache+links
/// configuration (no traces, so every indirect branch goes through the
/// global IBL when the chains are off) and reports simulated cycles plus
/// the ib_inline_* counters.
///
/// Writes BENCH_ibl.json and exits non-zero if the aggregate on-vs-off
/// cycle reduction falls under 15% — the chains must pay for themselves,
/// not just break even.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace rio;
using namespace rio::bench;

namespace {

/// Runs workload \p Name with the IB inline caches off and on, appends both
/// rows, and adds their cycles to the totals; dies on any transparency or
/// execution failure.
void runPair(const char *Name, std::vector<Row> &Rows, uint64_t &OffTotal,
             uint64_t &OnTotal) {
  Program Prog = workloadProgram(Name);
  Outcome Native = runNativeProgram(Prog);
  if (Native.Status != RunStatus::Exited)
    die(std::string(Name) + ": native run failed");

  RuntimeConfig Off = RuntimeConfig::linkIndirect();
  RuntimeConfig On = Off;
  On.IbInline = true;

  Outcome OffRun = runUnderRuntime(Prog, Off, ClientKind::None);
  Outcome OnRun = runUnderRuntime(Prog, On, ClientKind::None);
  if (OffRun.Status != RunStatus::Exited || OffRun.Output != Native.Output ||
      OnRun.Status != RunStatus::Exited || OnRun.Output != Native.Output)
    die(std::string(Name) + ": transparency violated");

  for (const Outcome *O : {&OffRun, &OnRun}) {
    Row R(std::string(Name) + (O == &OnRun ? "_on" : "_off"));
    R.add("cycles", O->Cycles);
    for (const char *Stat : {"ib_inline_hits", "ib_inline_misses",
                             "ib_inline_rewrites", "ib_inline_chain_evictions"})
      R.add(Stat, O->Stats.get(Stat));
    Rows.push_back(std::move(R));
  }
  OffTotal += OffRun.Cycles;
  OnTotal += OnRun.Cycles;

  double Reduction =
      100.0 * (double(OffRun.Cycles) - double(OnRun.Cycles)) /
      double(OffRun.Cycles);
  outs().printf("%-10s %12llu %12llu %+9.1f%% %8llu %8llu %4llu\n", Name,
                (unsigned long long)OffRun.Cycles,
                (unsigned long long)OnRun.Cycles, -Reduction,
                (unsigned long long)OnRun.Stats.get("ib_inline_hits"),
                (unsigned long long)OnRun.Stats.get("ib_inline_misses"),
                (unsigned long long)OnRun.Stats.get("ib_inline_rewrites"));
}

} // namespace

int main(int Argc, char **Argv) {
  const char *OutPath = Argc > 1 ? Argv[1] : "BENCH_ibl.json";
  OutStream &OS = outs();

  OS.printf("Adaptive indirect-branch inline caches (cache+links, "
            "simulated cycles)\n\n");
  OS.printf("%-10s %12s %12s %10s %8s %8s %4s\n", "workload", "off", "on",
            "delta", "hits", "misses", "rw");

  // The workloads' default scales are chosen so each contributes a
  // comparable share of off-mode cycles; the aggregate is then a
  // cycle-weighted average over the three shapes rather than an artifact
  // of iteration counts.
  std::vector<Row> Rows;
  uint64_t OffTotal = 0, OnTotal = 0;
  for (const char *Name : {"vdispatch", "rettree", "interp"})
    runPair(Name, Rows, OffTotal, OnTotal);

  double Reduction =
      100.0 * (double(OffTotal) - double(OnTotal)) / double(OffTotal);
  OS.printf("\naggregate: off=%llu on=%llu (%.1f%% cycle reduction)\n",
            (unsigned long long)OffTotal, (unsigned long long)OnTotal,
            Reduction);
  writeRows(OutPath, Rows);
  if (Reduction < 15.0)
    die("aggregate reduction under the 15% floor");
  return 0;
}
