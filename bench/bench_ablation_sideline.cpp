//===- bench/bench_ablation_sideline.cpp - Sideline vs synchronous -----------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation D (DESIGN.md): the paper's Section 3.4 sideline-optimization
/// proposal quantified. A synchronous client pays its transformation on
/// the application's critical path; the sideline defers it to a concurrent
/// optimizer, paying only the replacement's relink cost. The crossover is
/// the optimizer's expense: for a cheap transformation (redundant load
/// removal) sideline ~ synchronous; as the per-trace analysis cost grows,
/// the sideline's advantage grows with it — most on workloads whose traces
/// die young (gcc, perlbmk).
///
/// The second sweep (off / sync / async sideline on the indirect-branch
/// trio) is bench_sideline.
///
//===----------------------------------------------------------------------===//

#include "core/Sideline.h"
#include "harness/Experiment.h"
#include "support/OutStream.h"

using namespace rio;

namespace {

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

double runOnce(const Program &Prog, unsigned ExtraCost, bool Sideline,
               uint64_t NativeCycles) {
  Machine M;
  if (!loadProgram(M, Prog))
    return -1;
  CostedOptimizer Opt;
  Opt.ExtraCyclesPerTrace = ExtraCost;
  if (!Sideline) {
    Runtime RT(M, RuntimeConfig::full(), &Opt);
    RunResult R = RT.run();
    return R.Status == RunStatus::Exited
               ? double(R.Cycles) / double(NativeCycles)
               : -1;
  }
  SidelineOptimizer Side(Opt);
  Runtime RT(M, RuntimeConfig::full(), &Side);
  RunResult R = runWithSideline(RT, Side);
  return R.Status == RunStatus::Exited
             ? double(R.Cycles) / double(NativeCycles)
             : -1;
}

} // namespace

int main() {
  const unsigned Costs[] = {0, 5000, 25000, 100000};
  const char *Benches[] = {"gcc", "perlbmk", "mgrid"};

  OutStream &OS = outs();
  OS.printf("Ablation D: synchronous vs sideline optimization "
            "(normalized time; optimizer = load removal + N extra "
            "cycles/trace)\n\n");
  OS.printf("%-24s", "extra cycles/trace");
  for (const char *Name : Benches)
    OS.printf(" %10s", Name);
  OS.printf("\n");

  for (unsigned Cost : Costs) {
    for (int Side = 0; Side != 2; ++Side) {
      OS.printf("%9u %-13s", Cost, Side ? "(sideline)" : "(sync)");
      for (const char *Name : Benches) {
        const Workload *W = findWorkload(Name);
        Program Prog = buildWorkload(*W, 0);
        Outcome Native = runNativeProgram(Prog);
        OS.printf(" %10.3f",
                  runOnce(Prog, Cost, Side != 0, Native.Cycles));
      }
      OS.printf("\n");
    }
  }

  return 0;
}
