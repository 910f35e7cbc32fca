//===- workloads/Workloads.h - SPEC2000-like benchmark programs -------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The synthetic workload suite standing in for SPEC2000 (paper Section 5;
/// DESIGN.md §1 documents the substitution). Each program is written in
/// RIO-32 assembly and engineered to exhibit the code property that drives
/// the corresponding paper result:
///
///   int: gzip (byte/hash loops)     vpr (tight predictable loops)
///        gcc (little code reuse)    mcf (pointer chasing)
///        crafty (deep call trees)   parser (recursion + jump tables)
///        perlbmk (interpreter dispatch + one-shot code)
///        gap (megamorphic indirect calls)
///   fp:  swim (stencil streams)     mgrid (redundant-load stencil)
///        applu (divisions + reloads) equake (indirect indexing)
///
/// Every program prints a checksum (so transparency can be asserted
/// bit-for-bit) and exits 0.
///
//===----------------------------------------------------------------------===//

#ifndef RIO_WORKLOADS_WORKLOADS_H
#define RIO_WORKLOADS_WORKLOADS_H

#include "asm/Assembler.h"

#include <string>
#include <vector>

namespace rio {

/// One benchmark program generator.
struct Workload {
  const char *Name;        ///< SPEC-style name, e.g. "mgrid"
  bool IsFp;               ///< floating-point group member
  int DefaultScale;        ///< iteration scaling for benchmarks
  int TestScale;           ///< smaller scaling for unit tests
  const char *Property;    ///< the code property it exercises
  std::string (*Source)(int Scale); ///< assembly source generator
  /// Nonzero for a program that spawns Scale worker threads: it needs a
  /// threaded runner, and Scale may be at most this.
  int MaxWorkers = 0;
};

/// All registered workloads, INT group first.
const std::vector<Workload> &allWorkloads();

/// Subsystem micro-workloads (cache management, indirect branches, trace
/// optimizer, persistence, threads). Kept out of the SPEC-like table
/// above: they measure the runtime itself, not an application code
/// property.
const std::vector<Workload> &microWorkloads();

/// Finds a workload by name in either registry; returns null if unknown.
const Workload *findWorkload(const std::string &Name);

/// Assembles \p W at \p Scale (DefaultScale if Scale <= 0).
/// Fails via assert on generator bugs (workload sources are internal).
Program buildWorkload(const Workload &W, int Scale = 0);

} // namespace rio

#endif // RIO_WORKLOADS_WORKLOADS_H
