//===- harness/Experiment.h - Benchmark experiment runner --------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared machinery behind the bench binaries: run a program natively
/// or under a (runtime configuration, client) combination on a fresh
/// machine, and report its outcome.
///
//===----------------------------------------------------------------------===//

#ifndef RIO_HARNESS_EXPERIMENT_H
#define RIO_HARNESS_EXPERIMENT_H

#include "clients/Clients.h"
#include "core/Runtime.h"
#include "workloads/Workloads.h"

#include <memory>
#include <string>
#include <vector>

namespace rio {

/// The client configurations of Figure 5, plus instrumentation extras.
enum class ClientKind {
  None,          ///< base DynamoRIO (no client)
  Null,          ///< hook plumbing, no transformation
  Inscount,      ///< instruction counting instrumentation
  Rlr,           ///< redundant load removal (S4.1)
  StrengthReduce,///< inc/dec -> add/sub 1 (S4.2)
  IBDispatch,    ///< adaptive indirect branch dispatch (S4.3)
  CustomTraces,  ///< call-inlining traces (S4.4)
  AllFour,       ///< the combined configuration (Figure 5's last bar)
};

const char *clientKindName(ClientKind Kind);

/// Owns the client objects for one run (AllFour composes four of them).
class ClientBundle {
public:
  explicit ClientBundle(ClientKind Kind);
  ~ClientBundle();

  /// The client to hand the runtime; null for ClientKind::None.
  Client *client() { return Top; }

private:
  std::vector<std::unique_ptr<Client>> Owned;
  Client *Top = nullptr;
};

/// Result of one measured run.
struct Outcome {
  RunStatus Status = RunStatus::Running;
  int ExitCode = 0;
  std::string Output;
  uint64_t Cycles = 0;
  uint64_t Instructions = 0;
  StatisticSet Stats;
};

/// Runs \p Prog natively (no runtime) under \p Cost.
Outcome runNativeProgram(const Program &Prog,
                         const CostModel &Cost = CostModel());

/// Runs \p Prog under the runtime with \p Config and client \p C (none if
/// null).
Outcome runUnderRuntime(const Program &Prog, const RuntimeConfig &Config,
                        Client *C, const CostModel &Cost = CostModel());

/// Runs \p Prog under the runtime with \p Config and \p Kind.
Outcome runUnderRuntime(const Program &Prog, const RuntimeConfig &Config,
                        ClientKind Kind, const CostModel &Cost = CostModel());

} // namespace rio

#endif // RIO_HARNESS_EXPERIMENT_H
