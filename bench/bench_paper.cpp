//===- bench/bench_paper.cpp - The paper's tables, figures and ablations -----===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates every simulated-cycle result of the reproduction (Table 1,
/// Figures 1 and 5, ablations A-D, cache management) as normalized time:
/// our cycles / native cycles, smaller is better.
///
/// A sweep is a workload list and a list of named variants. Each result
/// row is one run, named <workload>/<variant>; a run that several sweeps
/// name (Figure 5's base is also Table 1's "+ Traces" rung, Ablation A's
/// threshold 50, Ablation B's bundle0 and Ablation C's traces-only-inline)
/// happens once, and so does each native run.
///
/// Every run must reproduce its native program's output and exit code,
/// and the shapes EXPERIMENTS.md reports must hold; the bench dies
/// otherwise. The result file is gated exactly against
/// bench/BENCH_paper.baseline.json.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "core/Sideline.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>

using namespace rio;
using namespace rio::bench;

namespace {

/// One way to run a workload: a runtime config plus a client kind, or,
/// for the variants that need their own client object, a callable.
struct Variant {
  std::string Label; ///< its line or column heading in a table
  std::string Name;  ///< result row name suffix: <workload>/<Name>
  RuntimeConfig Config = RuntimeConfig::full();
  ClientKind Kind = ClientKind::None;
  std::function<Outcome(const Program &)> Run = nullptr;
};

/// Every run the bench makes, each made once, rows in first-use order.
class Runs {
public:
  /// <W>/<V.Name>, run on first use; dies unless it exits with the native
  /// program's output and exit code.
  const Outcome &get(const std::string &W, const Variant &V) {
    const Outcome &Native = native(W);
    const std::string Config = W + "/" + V.Name;
    if (const Outcome *O = find(Config))
      return *O;
    const Program &Prog = Programs.at(W);
    Outcome O = V.Run ? V.Run(Prog) : runUnderRuntime(Prog, V.Config, V.Kind);
    if (O.Status != RunStatus::Exited || O.Output != Native.Output ||
        O.ExitCode != Native.ExitCode)
      die(Config + ": output or exit code differs from native");
    return add(Config, std::move(O));
  }

  /// <W>/<V.Name>'s cycles over \p W's native cycles.
  double normalized(const std::string &W, const Variant &V) {
    return double(get(W, V).Cycles) / double(native(W).Cycles);
  }

  /// The result row of the run \p Config made, to add fields to.
  Row &row(const std::string &Config) { return ByConfig.at(Config).R; }

  std::vector<Row> rows() const {
    std::vector<Row> Out;
    for (const std::string &Config : Order)
      Out.push_back(ByConfig.at(Config).R);
    return Out;
  }

private:
  struct Made {
    Outcome O;
    Row R;
  };

  /// \p W's native run.
  const Outcome &native(const std::string &W) {
    const std::string Config = W + "/native";
    if (const Outcome *O = find(Config))
      return *O;
    const Program &Prog =
        Programs.emplace(W, workloadProgram(W.c_str())).first->second;
    Outcome O = runNativeProgram(Prog);
    if (O.Status != RunStatus::Exited)
      die(Config + ": did not exit");
    return add(Config, std::move(O));
  }

  const Outcome *find(const std::string &Config) const {
    auto It = ByConfig.find(Config);
    return It == ByConfig.end() ? nullptr : &It->second.O;
  }

  const Outcome &add(const std::string &Config, Outcome O) {
    Row R(Config);
    R.add("cycles", O.Cycles).add("instructions", O.Instructions);
    Order.push_back(Config);
    return ByConfig.emplace(Config, Made{std::move(O), std::move(R)})
        .first->second.O;
  }

  std::map<std::string, Program> Programs;
  std::map<std::string, Made> ByConfig;
  std::vector<std::string> Order;
};

/// A printed table: a line per label, a column per heading.
struct Table {
  std::string Title;
  std::string Corner; ///< heading of the label column
  std::vector<std::string> Cols;
  std::vector<std::pair<std::string, std::vector<double>>> Lines;
  int Precision = 3;

  void print() const {
    int LabelW = int(Corner.size()), CellW = 10;
    for (const auto &Line : Lines)
      LabelW = std::max(LabelW, int(Line.first.size()));
    for (const std::string &C : Cols)
      CellW = std::max(CellW, int(C.size()));
    OutStream &OS = outs();
    OS.printf("\n%s\n\n%-*s", Title.c_str(), LabelW, Corner.c_str());
    for (const std::string &C : Cols)
      OS.printf(" %*s", CellW, C.c_str());
    OS.printf("\n");
    for (const auto &[Label, Cells] : Lines) {
      OS.printf("%-*s", LabelW, Label.c_str());
      for (double V : Cells)
        OS.printf(" %*.*f", CellW, Precision, V);
      OS.printf("\n");
    }
  }
};

/// Every variant on every workload, as normalized time. A line per
/// variant, or per workload when ByWorkload is set.
struct Sweep {
  std::string Title;
  std::string Corner;
  std::vector<std::string> Workloads;
  std::vector<Variant> Variants;
  bool ByWorkload = false;
  int Precision = 3;

  Table run(Runs &R) const {
    Table T{Title, Corner, {}, {}, Precision};
    if (ByWorkload) {
      for (const Variant &V : Variants)
        T.Cols.push_back(V.Label);
      for (const std::string &W : Workloads) {
        std::vector<double> Cells;
        for (const Variant &V : Variants)
          Cells.push_back(R.normalized(W, V));
        T.Lines.emplace_back(W, std::move(Cells));
      }
    } else {
      T.Cols = Workloads;
      for (const Variant &V : Variants) {
        std::vector<double> Cells;
        for (const std::string &W : Workloads)
          Cells.push_back(R.normalized(W, V));
        T.Lines.emplace_back(V.Label, std::move(Cells));
      }
    }
    return T;
  }
};

Variant kind(ClientKind K) {
  return {clientKindName(K), clientKindName(K), RuntimeConfig::full(), K};
}

/// \p V under another heading.
Variant relabel(Variant V, std::string Label) {
  V.Label = std::move(Label);
  return V;
}

/// RLR plus a configurable amount of additional analysis cost per trace.
class CostedOptimizer : public Client {
public:
  unsigned ExtraCyclesPerTrace = 0;
  RlrClient Inner;
  void onTrace(Runtime &RT, AppPc Tag, InstrList &Trace) override {
    Inner.onTrace(RT, Tag, Trace);
    if (ExtraCyclesPerTrace)
      RT.machine().chargeCycles(ExtraCyclesPerTrace);
  }
};

/// Ablation D's run: the costed optimizer on the application's critical
/// path, or deferred to the sideline.
Outcome runCosted(const Program &Prog, unsigned ExtraCost, bool Sideline) {
  CostedOptimizer Opt;
  Opt.ExtraCyclesPerTrace = ExtraCost;
  if (!Sideline)
    return runUnderRuntime(Prog, RuntimeConfig::full(), &Opt);
  Machine M;
  if (!loadProgram(M, Prog))
    die("program too large");
  SidelineOptimizer Side(Opt);
  RuntimeConfig Config = RuntimeConfig::full();
  Config.SidelinePump = &Side;
  Runtime RT(M, Config, &Side);
  RunResult R = runWithSideline(RT, Side);
  return {R.Status, R.ExitCode, M.output(), R.Cycles, R.Instructions,
          RT.stats()};
}

double geomean(const std::vector<double> &Values) {
  double LogSum = 0;
  for (double V : Values)
    LogSum += std::log(V);
  return std::exp(LogSum / double(Values.size()));
}

} // namespace

int main(int Argc, char **Argv) {
  const char *OutPath = Argc > 1 ? Argv[1] : "BENCH_paper.json";
  OutStream &OS = outs();
  Runs R;
  const Variant Base = kind(ClientKind::None);
  auto config = [](std::string Label, std::string Name, RuntimeConfig C) {
    return Variant{std::move(Label), std::move(Name), C};
  };

  //===------------------------------------------------------------------===//
  // Table 1: each rung must be strictly slower than the next.
  //===------------------------------------------------------------------===//
  const Sweep Table1{
      "Table 1: normalized execution time as interpreter features are added",
      "System Type",
      {"crafty", "vpr"},
      {config("Emulation", "emulate", RuntimeConfig::emulate()),
       config("+ Basic block cache", "bbcache", RuntimeConfig::bbCacheOnly()),
       config("+ Link direct branches", "linkdirect",
              RuntimeConfig::linkDirect()),
       config("+ Link indirect branches", "linkindirect",
              RuntimeConfig::linkIndirect()),
       relabel(Base, "+ Traces")},
      false,
      1};
  Table1.run(R).print();
  for (const std::string &W : Table1.Workloads)
    for (size_t I = 0; I + 1 != Table1.Variants.size(); ++I)
      if (R.get(W, Table1.Variants[I]).Cycles <=
          R.get(W, Table1.Variants[I + 1]).Cycles)
        die("Table 1: " + W + "'s " + Table1.Variants[I].Name +
            " rung is not slower than the next");

  //===------------------------------------------------------------------===//
  // Figure 1: where control flows under the full configuration.
  //===------------------------------------------------------------------===//
  OS.printf("\nFigure 1 flow-edge counters (full configuration)\n");
  for (const std::string W : {"vpr", "crafty", "gap"}) {
    const Outcome &O = R.get(W, Base);
    Row &Fields = R.row(W + "/base");
    OS.printf("\n=== %s (%llu instructions executed)\n", W.c_str(),
              (unsigned long long)O.Instructions);
    for (const char *Key :
         {"basic_blocks_built", "traces_built", "dispatches",
          "context_switches", "links_made", "head_counter_bumps",
          "ibl_lookups", "ibl_hits", "ibl_misses",
          "indirect_branches_inlined"}) {
      uint64_t V = O.Stats.get(Key);
      Fields.add(Key, V);
      OS.printf("  %-28s %12llu\n", Key, (unsigned long long)V);
    }
    OS.printf("  context switches per 1000 executed instructions: %.3f\n",
              1000.0 * double(O.Stats.get("context_switches")) /
                  double(O.Instructions));
  }

  //===------------------------------------------------------------------===//
  // Figure 5: all four combined must beat base overall, and native on fp.
  //===------------------------------------------------------------------===//
  Sweep Figure5{"Figure 5: normalized execution time (RIO-DYN time / native "
                "time; smaller is better)\n"
                "Pentium 4 cost model, trace threshold 50, unlimited cache.",
                "bench",
                {},
                {Base, kind(ClientKind::Rlr), kind(ClientKind::StrengthReduce),
                 kind(ClientKind::IBDispatch), kind(ClientKind::CustomTraces),
                 kind(ClientKind::AllFour)},
                true};
  for (const Workload &W : allWorkloads())
    Figure5.Workloads.push_back(W.Name);
  Table T5 = Figure5.run(R);
  std::vector<double> IntMean, FpMean, Mean;
  for (size_t V = 0; V != Figure5.Variants.size(); ++V) {
    std::vector<double> Int, Fp, All;
    for (size_t W = 0; W != allWorkloads().size(); ++W) {
      double Cell = T5.Lines[W].second[V];
      (allWorkloads()[W].IsFp ? Fp : Int).push_back(Cell);
      All.push_back(Cell);
    }
    IntMean.push_back(geomean(Int));
    FpMean.push_back(geomean(Fp));
    Mean.push_back(geomean(All));
  }
  T5.Lines.emplace_back("int-mean", IntMean);
  T5.Lines.emplace_back("fp-mean", FpMean);
  T5.Lines.emplace_back("mean", Mean);
  T5.print();
  OS.printf("\ncombined vs base improvement: %.1f%%\n",
            (1.0 - Mean.back() / Mean.front()) * 100.0);
  if (Mean.back() >= Mean.front())
    die("Figure 5: all4's geomean is not below base's");
  if (FpMean.back() >= 1.0)
    die("Figure 5: all4's fp geomean is not below native");

  //===------------------------------------------------------------------===//
  // Ablation A: trace-head threshold.
  //===------------------------------------------------------------------===//
  Sweep AblationA{"Ablation A: trace-head threshold sweep "
                  "(normalized time; default 50)",
                  "bench",
                  {"crafty", "vpr", "gcc", "perlbmk"},
                  {},
                  true};
  for (unsigned T : {10u, 50u, 250u, 1000u}) {
    RuntimeConfig C = RuntimeConfig::full();
    C.TraceThreshold = T;
    AblationA.Variants.push_back(
        T == RuntimeConfig::full().TraceThreshold
            ? relabel(Base, std::to_string(T))
            : config(std::to_string(T), "thresh_" + std::to_string(T), C));
  }
  AblationA.run(R).print();

  //===------------------------------------------------------------------===//
  // Ablation B: forced basic-block representation level.
  //===------------------------------------------------------------------===//
  Sweep AblationB{"Ablation B: forced basic-block representation level "
                  "(normalized time)",
                  "bb level",
                  {"vpr", "gcc", "perlbmk"},
                  {relabel(Base, "bundle0(default)")}};
  for (auto [Name, Level] : {std::pair{"raw1", LiftLevel::Raw1},
                             {"opcode2", LiftLevel::Opcode2},
                             {"decoded3", LiftLevel::Decoded3},
                             {"synth4", LiftLevel::Synth4}}) {
    RuntimeConfig C = RuntimeConfig::full();
    C.BbLift = Level;
    AblationB.Variants.push_back(config(Name, std::string("lift_") + Name, C));
  }
  AblationB.run(R).print();

  //===------------------------------------------------------------------===//
  // Ablation C: the dispatch client's knobs, then where dispatch happens.
  //===------------------------------------------------------------------===//
  Sweep AblationC{"Ablation C: indirect-branch dispatch knobs "
                  "(normalized time; defaults: 32 samples, 4 targets)",
                  "samples x targets",
                  {"gap", "perlbmk", "parser"},
                  {}};
  const IBDispatchClient::Options Defaults;
  for (unsigned S : {8u, 32u, 128u}) {
    for (unsigned T : {1u, 2u, 4u}) {
      std::string Label = std::to_string(S) + " x " + std::to_string(T);
      if (S == Defaults.SampleThreshold && T == Defaults.MaxInlinedTargets) {
        AblationC.Variants.push_back(
            relabel(kind(ClientKind::IBDispatch), Label));
        continue;
      }
      IBDispatchClient::Options Opts;
      Opts.SampleThreshold = S;
      Opts.MaxInlinedTargets = T;
      AblationC.Variants.push_back(
          {Label,
           "ibd_s" + std::to_string(S) + "_t" + std::to_string(T),
           RuntimeConfig::full(), ClientKind::None,
           [Opts](const Program &Prog) {
             IBDispatchClient Client(Opts);
             return runUnderRuntime(Prog, RuntimeConfig::full(), &Client);
           }});
    }
  }
  AblationC.run(R).print();

  // The global IBL alone, the trace builder's single-target inline check,
  // or the runtime's adaptive inline caches rewriting hot block fragments
  // (no traces, no client: the chains are the only optimization on).
  RuntimeConfig Adaptive = RuntimeConfig::linkIndirect();
  Adaptive.IbInline = true;
  const Sweep Modes{"Ablation C: dispatch-mode axis (normalized time)",
                    "mode",
                    AblationC.Workloads,
                    {config("global-ibl-only", "linkindirect",
                            RuntimeConfig::linkIndirect()),
                     relabel(Base, "traces-only-inline"),
                     config("adaptive-inline", "ibinline", Adaptive)}};
  Modes.run(R).print();

  //===------------------------------------------------------------------===//
  // Ablation D: the sideline refunds the optimizer's cost, so its rows stay
  // flat as that cost grows.
  //===------------------------------------------------------------------===//
  Sweep AblationD{"Ablation D: synchronous vs sideline optimization "
                  "(normalized time; optimizer = load removal + N extra "
                  "cycles/trace)",
                  "extra cycles/trace",
                  {"gcc", "perlbmk", "mgrid"},
                  {}};
  for (unsigned Cost : {0u, 5000u, 25000u, 100000u})
    for (bool Side : {false, true})
      AblationD.Variants.push_back(
          {std::to_string(Cost) + (Side ? " (sideline)" : " (sync)"),
           (Side ? "sideline_x" : "sync_x") + std::to_string(Cost),
           RuntimeConfig::full(), ClientKind::None,
           [Cost, Side](const Program &Prog) {
             return runCosted(Prog, Cost, Side);
           }});
  AblationD.run(R).print();
  const Variant &FreeSideline = AblationD.Variants[1];
  for (const std::string &W : AblationD.Workloads)
    for (const Variant &V : AblationD.Variants)
      if (V.Name.starts_with("sideline_") &&
          R.get(W, V).Cycles != R.get(W, FreeSideline).Cycles)
        die("Ablation D: " + W + "/" + V.Name +
            " differs from the zero-cost sideline run");

  //===------------------------------------------------------------------===//
  // Cache management: FIFO eviction must beat a full flush at every bound,
  // and SMC invalidation must be precise.
  //===------------------------------------------------------------------===//
  OS.printf("\nCache capacity policy: incremental FIFO eviction vs full "
            "flush\n");
  OS.printf("cachepressure workload, bounded basic-block cache "
            "(speedup = flush cycles / fifo cycles)\n\n");
  OS.printf("%7s %8s  %12s %8s  %12s %8s  %8s\n", "scale", "bbcache",
            "fifo-cycles", "evicts", "flush-cycles", "flushes", "speedup");
  for (uint32_t Bound : {4096u, 6144u, 8192u}) {
    RuntimeConfig Fifo = RuntimeConfig::full(), Flush = Fifo;
    Fifo.BbCacheSize = Flush.BbCacheSize = Bound;
    Fifo.Eviction = EvictionPolicy::Fifo;
    Flush.Eviction = EvictionPolicy::FlushAll;
    const std::string Suffix = std::to_string(Bound);
    const Outcome &FifoRun =
        R.get("cachepressure", config("", "fifo_" + Suffix, Fifo));
    const Outcome &FlushRun =
        R.get("cachepressure", config("", "flush_" + Suffix, Flush));
    uint64_t Evictions = FifoRun.Stats.get("cache_evictions");
    uint64_t Flushes = FlushRun.Stats.get("cache_flushes_bb");
    R.row("cachepressure/fifo_" + Suffix).add("cache_evictions", Evictions);
    R.row("cachepressure/flush_" + Suffix).add("cache_flushes_bb", Flushes);
    OS.printf("%7d %8u  %12llu %8llu  %12llu %8llu  %7.2fx\n",
              findWorkload("cachepressure")->DefaultScale, Bound,
              (unsigned long long)FifoRun.Cycles,
              (unsigned long long)Evictions,
              (unsigned long long)FlushRun.Cycles,
              (unsigned long long)Flushes,
              double(FlushRun.Cycles) / double(FifoRun.Cycles));
    if (FifoRun.Cycles >= FlushRun.Cycles)
      die("cache: FIFO does not beat full flush at " + Suffix + " bytes");
  }

  const Outcome &Smc = R.get("smc", Base);
  uint64_t Writes = Smc.Stats.get("smc_code_writes");
  uint64_t Invalidations = Smc.Stats.get("smc_invalidations");
  uint64_t Built =
      Smc.Stats.get("basic_blocks_built") + Smc.Stats.get("traces_built");
  R.row("smc/base")
      .add("smc_code_writes", Writes)
      .add("smc_invalidations", Invalidations)
      .add("fragments_built", Built);
  OS.printf("\nCache consistency: self-modifying code\n");
  OS.printf("  code writes detected:  %llu\n", (unsigned long long)Writes);
  OS.printf("  fragments invalidated: %llu (of %llu built)\n",
            (unsigned long long)Invalidations, (unsigned long long)Built);
  // Precise invalidation: only fragments overlapping the written region
  // die, so invalidations stay below the total fragment population.
  if (Invalidations == 0 || Invalidations >= Built)
    die("smc: invalidation is not precise (flushed too much or nothing)");

  OS.printf("\n");
  writeRows(OutPath, R.rows());
  return 0;
}
