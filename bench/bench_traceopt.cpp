//===- bench/bench_traceopt.cpp - Speculative trace optimizer wins -----------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures what the trace optimizer (core/TraceOpt.h) buys on top of the
/// asynchronous sideline. Three loop-heavy workloads, each leaning on one
/// pass of the pipeline, run three ways:
///
///   * base     — async sideline with a no-op client: traces are decoded,
///                "re-optimized" unchanged, and republished. This prices
///                the publication machinery identically to the optimized
///                runs, so the delta is the optimizer's, not the sideline's;
///   * traceopt — async sideline with the non-speculative tier: redundant
///                load removal/forwarding, constant propagation, dead-store
///                elimination, inc/dec strength reduction;
///   * spec     — traceopt plus the speculative tier: the sampling profiler
///                feeds TraceOptClient::observe, stable load sites get
///                entry guards and their loads fold to immediates.
///
/// The bench hard-asserts the subsystem's contract on the simulated clock:
/// all modes are output-transparent, the spec schedule is deterministic for
/// the fixed seed (two runs, bit-identical cycles and guard counts), no
/// guard ever fails on these stable workloads, and the non-speculative tier
/// alone cuts aggregate simulated cycles by at least 10% against base.
///
/// A pass ablation follows (rows combo_<passes>): the combo workload, whose
/// loop carries one instance of every pattern the pipeline targets, runs
/// under the traceopt mode with no pass, each single pass, and all passes.
/// Each pass alone must beat the empty pipeline outright, and the full
/// pipeline must be at least as good as every single pass.
///
/// Simulated cycles, publication, guard, and deopt counts are exact and
/// diffable across commits; bench_compare.py gates them hard. Host wall
/// clock is reported informationally only.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "core/Sideline.h"
#include "core/TraceOpt.h"
#include "support/Profile.h"

#include <algorithm>

using namespace rio;
using namespace rio::bench;

namespace {

enum class Mode { Base, TraceOpt, Spec };

/// One async-sideline run of \p Prog as row \p Config: base runs a no-op
/// client, traceopt the pipeline configured by \p Opts, spec the pipeline
/// plus the profile-driven speculative tier. Dies on any transparency or
/// execution failure.
Row runOnce(const std::string &Config, const Program &Prog, Mode Which,
            const TraceOptOptions &Opts, const std::string &Expected) {
  Machine M;
  if (!loadProgram(M, Prog))
    die(Config + ": program too large");

  NullClient Null;
  TraceOptOptions RunOpts = Opts;
  RunOpts.Speculate = Which == Mode::Spec;
  TraceOptClient TraceOpt(RunOpts);
  Client &Inner =
      Which == Mode::Base ? static_cast<Client &>(Null) : TraceOpt;

  SidelineOptimizer Sideline(Inner, SidelineMode::Async);
  RuntimeConfig RTConfig = RuntimeConfig::full();
  RTConfig.SidelinePump = &Sideline;
  SampleProfile Profiler(200);
  if (Which == Mode::Spec)
    RTConfig.Profiler = &Profiler;
  Runtime RT(M, RTConfig, &Sideline);
  if (Which == Mode::Spec)
    Profiler.setTraceSampleHook(
        [&RT, &Sideline, &TraceOpt](uint32_t Tag, uint64_t Samples) {
          if (TraceOpt.observe(RT, Tag, Samples))
            Sideline.requestReopt(RT, Tag);
        });

  uint64_t T0 = nowNs();
  RunResult R = runWithSideline(RT, Sideline);
  uint64_t HostNs = nowNs() - T0;
  if (R.Status != RunStatus::Exited)
    die(Config + ": run did not exit: " + R.FaultReason);
  if (M.output() != Expected)
    die(Config + ": transparency violated");
  return Row(Config)
      .add("cycles", R.Cycles)
      .add("guards", TraceOpt.guardsEmitted())
      .add("published", Sideline.versionsPublished())
      .add("deopts", RT.stats().get("deoptimizations"))
      .add("traces", RT.stats().get("traces_built"))
      .add("host_ns", HostNs);
}

std::string nativeOutput(const char *Name, const Program &Prog) {
  Outcome Native = runNativeProgram(Prog);
  if (Native.Status != RunStatus::Exited)
    die(std::string(Name) + ": native run failed");
  return Native.Output;
}

} // namespace

int main(int Argc, char **Argv) {
  const char *OutPath = Argc > 1 ? Argv[1] : "BENCH_traceopt.json";
  OutStream &OS = outs();
  OS.printf("Speculative trace optimizer (simulated cycles; sideline = "
            "async in all modes)\n\n");
  OS.printf("%-10s %12s %12s %12s %7s %7s\n", "workload", "base", "traceopt",
            "spec", "guards", "deopts");

  const TraceOptOptions AllPasses;
  std::vector<Row> Rows;
  uint64_t BaseTotal = 0, OptTotal = 0, SpecGuards = 0;
  for (const char *Name : {"redload", "incdec", "deadstore"}) {
    Program Prog = workloadProgram(Name);
    std::string Expected = nativeOutput(Name, Prog);
    std::string N = Name;
    Row Base = runOnce(N + "_base", Prog, Mode::Base, AllPasses, Expected);
    Row Opt =
        runOnce(N + "_traceopt", Prog, Mode::TraceOpt, AllPasses, Expected);
    Row Sp = runOnce(N + "_spec", Prog, Mode::Spec, AllPasses, Expected);

    // The profile-driven speculation schedule is seeded: a second spec run
    // must land on identical cycles, guards, and publications.
    Row Again = runOnce(N + "_spec", Prog, Mode::Spec, AllPasses, Expected);
    for (const char *Key : {"cycles", "guards", "published"})
      if (Again.get(Key) != Sp.get(Key))
        die(N + ": spec schedule is not deterministic");

    if (Base.get("published") == 0)
      die(N + ": base sideline published nothing");
    if (Opt.get("guards") != 0)
      die(N + ": non-speculative run emitted guards");
    if (Sp.get("deopts") != 0 || Opt.get("deopts") != 0 ||
        Base.get("deopts") != 0)
      die(N + ": stable workload deoptimized");
    if (Opt.get("cycles") >= Base.get("cycles"))
      die(N + ": traceopt did not beat base");

    BaseTotal += Base.get("cycles");
    OptTotal += Opt.get("cycles");
    SpecGuards += Sp.get("guards");
    OS.printf("%-10s %12llu %12llu %12llu %7llu %7llu\n", Name,
              (unsigned long long)Base.get("cycles"),
              (unsigned long long)Opt.get("cycles"),
              (unsigned long long)Sp.get("cycles"),
              (unsigned long long)Sp.get("guards"),
              (unsigned long long)Sp.get("deopts"));
    Rows.push_back(std::move(Base));
    Rows.push_back(std::move(Opt));
    Rows.push_back(std::move(Sp));
  }

  double Reduction = 100.0 * double(BaseTotal - OptTotal) / double(BaseTotal);
  OS.printf("\naggregate: base %llu -> traceopt %llu cycles (-%.1f%%)\n",
            (unsigned long long)BaseTotal, (unsigned long long)OptTotal,
            Reduction);
  if (Reduction < 10.0)
    die("non-speculative tier must cut aggregate cycles by at least 10%");
  // At least one workload's spec run must actually speculate: guards are
  // the whole point of the tier, and every site here is stable.
  if (SpecGuards == 0)
    die("speculative runs emitted no guards at all");

  // Pass ablation on combo, one pass at a time: each pass alone must beat
  // the empty pipeline, and the full pipeline must be at least as good as
  // every single pass — the passes compose, not cannibalize.
  struct Passes {
    const char *Name;
    bool Loads, Consts, Dse, Strength;
  };
  const Passes Sweep[] = {
      {"none", false, false, false, false},
      {"loads", true, false, false, false},
      {"consts", false, true, false, false},
      {"dse", false, false, true, false},
      {"strength", false, false, false, true},
      {"all", true, true, true, true},
  };
  Program Combo = workloadProgram("combo");
  std::string ComboExpected = nativeOutput("combo", Combo);
  OS.printf("\npass ablation on combo\n%-10s %12s %9s\n", "passes",
            "cycles", "vs none");
  uint64_t None = 0, All = 0, BestSingle = ~0ull;
  for (const Passes &P : Sweep) {
    TraceOptOptions Opts;
    Opts.RemoveLoads = P.Loads;
    Opts.FoldConsts = P.Consts;
    Opts.EliminateDeadStores = P.Dse;
    Opts.StrengthReduce = P.Strength;
    Rows.push_back(runOnce(std::string("combo_") + P.Name, Combo,
                           Mode::TraceOpt, Opts, ComboExpected));
    uint64_t Cycles = Rows.back().get("cycles");
    std::string Name = P.Name;
    if (Name == "none")
      None = Cycles;
    else if (Name == "all")
      All = Cycles;
    else if (Cycles >= None)
      die(Name + ": pass did not beat the empty pipeline");
    else
      BestSingle = std::min(BestSingle, Cycles);
    OS.printf("%-10s %12llu %+8.1f%%\n", P.Name, (unsigned long long)Cycles,
              100.0 * (double(Cycles) - double(None)) / double(None));
  }
  if (All > BestSingle)
    die("full pipeline is worse than the best single pass");

  writeRows(OutPath, Rows);
  return 0;
}
