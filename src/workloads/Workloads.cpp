//===- workloads/Workloads.cpp - Workload registry -----------------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "workloads/Workloads.h"

#include "support/Compiler.h"

using namespace rio;

namespace rio::workloads {
std::string vprSource(int Scale);
std::string gzipSource(int Scale);
std::string craftySource(int Scale);
std::string mcfSource(int Scale);
std::string parserSource(int Scale);
std::string gapSource(int Scale);
std::string perlbmkSource(int Scale);
std::string gccSource(int Scale);
std::string mgridSource(int Scale);
std::string swimSource(int Scale);
std::string appluSource(int Scale);
std::string equakeSource(int Scale);
std::string eonSource(int Scale);
std::string vortexSource(int Scale);
std::string bzip2Source(int Scale);
std::string twolfSource(int Scale);
std::string wupwiseSource(int Scale);
std::string mesaSource(int Scale);
std::string artSource(int Scale);
std::string ammpSource(int Scale);
std::string sixtrackSource(int Scale);
std::string apsiSource(int Scale);
} // namespace rio::workloads

const std::vector<Workload> &rio::allWorkloads() {
  using namespace rio::workloads;
  static const std::vector<Workload> Table = {
      // INT group.
      {"gzip", false, 60, 4, "byte-stream hashing loops", gzipSource},
      {"vpr", false, 250, 8, "tight predictable loops", vprSource},
      {"gcc", false, 100, 3, "one-shot code, little reuse", gccSource},
      {"mcf", false, 220000, 5000, "pointer chasing", mcfSource},
      {"crafty", false, 160, 6, "deep recursive call trees", craftySource},
      {"parser", false, 2600, 60, "recursion + jump tables", parserSource},
      {"perlbmk", false, 1500, 120, "interpreter dispatch + one-shot",
       perlbmkSource},
      {"gap", false, 120000, 4000, "megamorphic indirect calls", gapSource},
      {"eon", false, 700, 20, "virtual-dispatch call graph", eonSource},
      {"vortex", false, 90000, 3000, "hashing + pointer structures",
       vortexSource},
      {"bzip2", false, 45, 3, "byte histograms and reordering", bzip2Source},
      {"twolf", false, 180000, 5000, "annealing with unpredictable accepts",
       twolfSource},
      // FP group.
      {"swim", true, 55, 3, "streaming stencil", swimSource},
      {"mgrid", true, 28, 2, "redundant-load stencil", mgridSource},
      {"applu", true, 50, 3, "divisions + spilled pivot reloads",
       appluSource},
      {"equake", true, 110, 4, "indirect indexing + helper calls",
       equakeSource},
      {"wupwise", true, 180, 5, "complex multiply-accumulate", wupwiseSource},
      {"mesa", true, 170, 5, "matrix-vector transforms with reloads",
       mesaSource},
      {"art", true, 70, 3, "dot products + winner-take-all branch",
       artSource},
      {"ammp", true, 500, 12, "pairwise distances and reciprocals",
       ammpSource},
      {"sixtrack", true, 400, 10, "per-particle polynomial maps",
       sixtrackSource},
      {"apsi", true, 140, 4, "coupled multi-field grid updates", apsiSource},
  };
  return Table;
}

const Workload *rio::findWorkload(const std::string &Name) {
  for (const Workload &W : allWorkloads())
    if (Name == W.Name)
      return &W;
  for (const Workload &W : microWorkloads())
    if (Name == W.Name)
      return &W;
  return nullptr;
}

Program rio::buildWorkload(const Workload &W, int Scale) {
  if (Scale <= 0)
    Scale = W.DefaultScale;
  Program Prog;
  std::string Error;
  if (!assemble(W.Source(Scale), Prog, Error)) {
    std::fprintf(stderr, "workload %s failed to assemble: %s\n", W.Name,
                 Error.c_str());
    RIO_UNREACHABLE("workload source is invalid");
  }
  return Prog;
}
