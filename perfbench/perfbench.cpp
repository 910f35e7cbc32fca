//===- perfbench/perfbench.cpp - End-to-end benchmark driver --------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One driver for the three end-to-end workloads (hot, cold, fleet; see
/// perfbench/README.md for why each exists and which layer each stresses).
///
///   perfbench --workload <hot|cold|fleet> --seed <n> --seconds <s>
///             --trace <0|1> [--spans <file>]
///
/// The request list is a pure function of the workload and the seed. Every
/// request is checked against the program's native run (output, exit code)
/// and its simulated cycles against a fixed reference; a mismatch, a fault
/// or a process abort counts the request as failed.
///
/// Host times are best-of-R: every request runs once per round, rounds are
/// spread over the whole measurement (each in its own shuffled order), and a
/// request's time is its fastest repetition. Rounds run in a forked child
/// process so that an abort inside the runtime costs only the repetition it
/// hit; the parent restarts a child at the next repetition.
///
/// The last stdout line is one JSON object: end-to-end metrics with
/// --trace 0, per-layer metrics (from a separate traced round, spans taken
/// around each call into a layer from this file only) with --trace 1.
///
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "core/Sideline.h"
#include "core/TraceOpt.h"
#include "harness/Experiment.h"
#include "ir/Build.h"
#include "ir/Emit.h"
#include "isa/Decode.h"
#include "isa/Encode.h"
#include "persist/CacheImage.h"
#include "support/Arena.h"
#include "support/EventTrace.h"
#include "support/Metrics.h"
#include "support/Profile.h"
#include "support/Rng.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace rio;
using rio::persist::CacheCodec;
using rio::persist::LoadStatus;

namespace {

//===----------------------------------------------------------------------===//
// Constants of the benchmark design
//===----------------------------------------------------------------------===//

/// Set-ups per run, spread between the rounds. A set-up (0.3-1 s) is shorter
/// than a phase of the host's speed, so whole set-up times are bimodal and
/// their median flips between the two speeds. setup_s is therefore the sum
/// over set-up steps of each step's best time, like a request's best-of-R.
constexpr unsigned NumSetups = 7;
/// Starts per repetition, about a millisecond of them: a fork takes ~20 us,
/// an image load (with its fresh runtime) ~100 us and a fresh runtime
/// ~15-35 us. Each start is timed alone (the clock reads in tens of ns) and
/// torn down untimed before the next, so no start pays for the memory or
/// the threads of the ones before it; the repetition keeps the fastest.
constexpr unsigned ForkBatch = 64, LoadBatch = 16, FreshBatch = 32;
/// A repetition slower than this multiple of its request's best counts as
/// contended in the diagnostic line.
constexpr double ContendedFactor = 1.3;

uint64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void fatal(const std::string &Msg) {
  std::fprintf(stderr, "perfbench: %s\n", Msg.c_str());
  std::exit(2);
}

//===----------------------------------------------------------------------===//
// Spans (traced round only)
//===----------------------------------------------------------------------===//

enum SpanName : uint16_t {
  SpanRequest,
  SpanAssemble,
  SpanNative,
  SpanRun,
  SpanWarmup,
  SpanHook,
  SpanDecode,
  SpanEncode,
  SpanLift,
  SpanEmit,
  SpanFork,
  SpanLoad,
  SpanSave,
  SpanFreeze,
  SpanObserve,
  NumSpanNames
};

/// Span names are "<layer>.<operation>"; the layer is the repo module whose
/// public function the span wraps ("bench" for the request itself).
const char *const SpanNames[NumSpanNames] = {
    "bench.request", "asm.assemble",  "vm.native",      "core.run",
    "core.warmup",   "clients.hook",  "isa.decode",     "isa.encode",
    "ir.lift",       "ir.emit",       "persist.fork",   "persist.load",
    "persist.save",  "persist.freeze", "support.observe"};

struct Span {
  uint32_t Op;    ///< request id (or ~0u for set-up work)
  int32_t Parent; ///< index of the enclosing span, -1 for a root
  uint32_t Name;  ///< SpanName
  uint64_t Start, End;
};

/// In-memory span recorder. Single-threaded: every wrapped call happens on
/// the thread that drives the runtime (client hooks are wrapped outside the
/// sideline optimizer, so its worker thread never reaches them).
struct Tracer {
  bool On = false;
  uint32_t Op = ~0u;
  std::vector<Span> Spans;
  std::vector<int32_t> Stack;

  int32_t begin(SpanName N) {
    if (!On)
      return -1;
    int32_t Idx = int32_t(Spans.size());
    Spans.push_back({Op, Stack.empty() ? -1 : Stack.back(), N, nowNs(), 0});
    Stack.push_back(Idx);
    return Idx;
  }
  void end(int32_t Idx) {
    if (Idx < 0)
      return;
    Spans[Idx].End = nowNs();
    Stack.pop_back();
  }
};
Tracer TR;

struct Scope {
  int32_t Idx;
  explicit Scope(SpanName N) : Idx(TR.begin(N)) {}
  ~Scope() { TR.end(Idx); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;
};

/// Times every Client hook it forwards (clients.hook_calls / hook_ms) and
/// records a span per call. Installed only in the traced round.
class TimedClient final : public Client {
public:
  explicit TimedClient(Client &Inner) : Inner(Inner) {}

  uint64_t Calls = 0, Ns = 0;

  void onInit(Runtime &RT) override {
    Timed T(*this);
    Inner.onInit(RT);
  }
  void onExit(Runtime &RT) override {
    Timed T(*this);
    Inner.onExit(RT);
  }
  void onThreadInit(Runtime &RT) override {
    Timed T(*this);
    Inner.onThreadInit(RT);
  }
  void onThreadExit(Runtime &RT) override {
    Timed T(*this);
    Inner.onThreadExit(RT);
  }
  void onBasicBlock(Runtime &RT, AppPc Tag, InstrList &Block) override {
    Timed T(*this);
    Inner.onBasicBlock(RT, Tag, Block);
  }
  void onTrace(Runtime &RT, AppPc Tag, InstrList &Trace) override {
    Timed T(*this);
    Inner.onTrace(RT, Tag, Trace);
  }
  void onFragmentDeleted(Runtime &RT, AppPc Tag) override {
    Timed T(*this);
    Inner.onFragmentDeleted(RT, Tag);
  }
  bool onIndirectResolved(Runtime &RT, int BranchOp, AppPc Target) override {
    Timed T(*this);
    return Inner.onIndirectResolved(RT, BranchOp, Target);
  }
  EndTrace onEndTrace(Runtime &RT, AppPc TraceTag, AppPc NextTag) override {
    Timed T(*this);
    return Inner.onEndTrace(RT, TraceTag, NextTag);
  }
  void onSidelinePublish(Runtime &RT, AppPc Tag, InstrList &IL) override {
    Timed T(*this);
    Inner.onSidelinePublish(RT, Tag, IL);
  }
  bool sidelineSafe() const override { return Inner.sidelineSafe(); }
  bool persistSafe() const override { return Inner.persistSafe(); }

private:
  struct Timed {
    TimedClient &C;
    int32_t Idx;
    uint64_t T0;
    explicit Timed(TimedClient &C)
        : C(C), Idx(TR.begin(SpanHook)), T0(nowNs()) {}
    ~Timed() {
      C.Ns += nowNs() - T0;
      ++C.Calls;
      TR.end(Idx);
    }
  };
  Client &Inner;
};

//===----------------------------------------------------------------------===//
// Requests
//===----------------------------------------------------------------------===//

enum class Kind { Hot, Cold, Fleet };

enum class HotVariant : uint8_t { IbInline, TraceOpt, TraceOptSpec };

/// One assembled guest program and its native reference.
struct GuestProgram {
  const Workload *W = nullptr;
  Program P;
  Outcome Native;
  uint64_t NativeBestNs = ~0ull; ///< fastest native run over all set-ups
  /// Native run time in set-up 0 alone: one sample taken just before the
  /// first round, to set against a traced run's single untraced round.
  uint64_t NativeFirstNs = 0;
};

/// A fleet template: warmed, saved as a .riocache image, then frozen.
struct Template {
  unsigned Prog = 0;
  unsigned Depth = 1; ///< warm-up runs before freezing
  std::unique_ptr<Machine> M;
  std::unique_ptr<Runtime> RT;
  std::vector<uint8_t> Image;
  uint64_t RefCycles = 0; ///< cold runtime's run number Depth+1
  /// Native run number Depth+1 in one machine (memory persists across
  /// runs, so a later run of some programs prints something else).
  Outcome Native;
  std::string Error;      ///< non-empty if set-up could not build it
};

struct Request {
  unsigned Prog = 0;
  HotVariant Hot = HotVariant::IbInline;
  uint32_t BbKb = 0, TraceKb = 0;
  EvictionPolicy Policy = EvictionPolicy::Fifo;
  unsigned Tpl = 0;
  bool FromImage = false;
};

/// What the seed decides before any set-up: programs and requests.
struct Plan {
  Kind K = Kind::Hot;
  struct ProgSpec {
    const Workload *W;
    int Scale;
  };
  std::vector<ProgSpec> Progs;
  std::vector<std::pair<unsigned, unsigned>> Templates; ///< (prog, depth)
  std::vector<Request> Requests;
};

const Workload &workloadNamed(const char *Name) {
  const Workload *W = findWorkload(Name);
  if (!W)
    fatal(std::string("unknown guest program ") + Name);
  return *W;
}

/// splitmix64 finalizer: neighbouring seeds give unrelated generator states.
uint64_t mixSeed(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

/// Uniform draw from stratum \p I of \p N equal strata of [Lo, Hi].
int64_t drawStratum(Rng &R, int64_t Lo, int64_t Hi, unsigned I, unsigned N) {
  const int64_t Span = Hi - Lo + 1;
  const int64_t SLo = Lo + Span * I / N;
  const int64_t SHi = std::max(SLo, Lo + Span * (I + 1) / N - 1);
  return R.nextInRange(SLo, SHi);
}

/// Draws the request list. Draws are stratified: every listed program gets
/// the same number of instances and requests, an instance's size comes
/// from its own stratum of the size range, and a program's requests rotate
/// through the configuration values from a drawn offset. Different seeds
/// thus give different inputs with the same make-up, which keeps
/// percentiles comparable across seeds. Nothing here depends on the host
/// or on which draws are known to fail.
Plan makePlan(Kind K, uint64_t Seed) {
  Plan PL;
  PL.K = K;
  Rng R(mixSeed(Seed * 3 + uint64_t(K)));
  if (K == Kind::Hot) {
    // Loop-heavy programs: nearly all host time is the interpreter running
    // cached code. Sizes are 5-12% of the default scale so a request
    // takes a few ms and gets many repetitions.
    constexpr unsigned Instances = 8, PerInstance = 2;
    for (const char *N :
         {"vpr", "gap", "mcf", "crafty", "mgrid", "equake", "twolf", "art"}) {
      const Workload &W = workloadNamed(N);
      uint64_t Rot = R.nextBelow(3);
      for (unsigned I = 0; I != Instances; ++I) {
        int Permille = int(drawStratum(R, 50, 120, I, Instances));
        unsigned P = unsigned(PL.Progs.size());
        PL.Progs.push_back({&W, std::max(1, W.DefaultScale * Permille / 1000)});
        for (unsigned J = 0; J != PerInstance; ++J) {
          Request Q;
          Q.Prog = P;
          Q.Hot = HotVariant(Rot++ % 3);
          PL.Requests.push_back(Q);
        }
      }
    }
  } else if (K == Kind::Cold) {
    // Little-reuse programs under all four clients with small bounded
    // caches: time goes to decode, lift/emit, client hooks and eviction.
    // Size ranges (percent of the default scale) are set so that every
    // program's requests take about 2-15 ms here: the request times then
    // form one band without gaps, and a percentile does not jump between
    // clusters of programs.
    constexpr unsigned Instances = 10, PerInstance = 2;
    constexpr unsigned PerProgram = Instances * PerInstance;
    const struct {
      const char *Name;
      int LoPct, HiPct;
    } Programs[] = {{"gcc", 50, 300},   {"perlbmk", 30, 100},
                    {"parser", 25, 80}, {"eon", 10, 40},
                    {"smc", 50, 300},   {"cachepressure", 50, 300}};
    for (const auto &Spec : Programs) {
      const Workload &W = workloadNamed(Spec.Name);
      uint64_t Rot = R.nextBelow(PerProgram);
      uint64_t TraceRot = R.nextBelow(PerProgram);
      for (unsigned I = 0; I != Instances; ++I) {
        int Pct = int(drawStratum(R, Spec.LoPct, Spec.HiPct, I, Instances));
        unsigned P = unsigned(PL.Progs.size());
        PL.Progs.push_back({&W, std::max(1, W.DefaultScale * Pct / 100)});
        for (unsigned J = 0; J != PerInstance; ++J, ++Rot) {
          Request Q;
          Q.Prog = P;
          Q.BbKb = uint32_t(
              drawStratum(R, 2, 16, unsigned(Rot % PerProgram), PerProgram));
          Q.TraceKb = uint32_t(drawStratum(
              R, 2, 16, unsigned(TraceRot++ % PerProgram), PerProgram));
          Q.Policy = Rot % 2 ? EvictionPolicy::Fifo : EvictionPolicy::FlushAll;
          PL.Requests.push_back(Q);
        }
      }
    }
  } else {
    // Short requests served from frozen templates (or a saved image): the
    // code cache is read shared and copy-on-write, so start-up is a
    // visible share of every request. Each program gets four templates,
    // sized in half steps of its TestScale (1-4x, more for the programs
    // whose requests are shortest, so request times overlap), two of them
    // frozen after one warm-up run and two after two; a quarter of each
    // template's requests start from its image.
    constexpr unsigned Templates = 4, PerTemplate = 4, FromImage = 1;
    const struct {
      const char *Name;
      int LoHalves, HiHalves;
    } Programs[] = {{"vpr", 2, 8},     {"gap", 2, 8},   {"mcf", 2, 8},
                    {"crafty", 2, 12}, {"gcc", 4, 16},  {"parser", 4, 16},
                    {"eon", 2, 12},    {"equake", 2, 8}};
    for (const auto &Spec : Programs) {
      const Workload &W = workloadNamed(Spec.Name);
      uint64_t DepthRot = R.nextBelow(2);
      for (unsigned I = 0; I != Templates; ++I) {
        int Halves =
            int(drawStratum(R, Spec.LoHalves, Spec.HiHalves, I, Templates));
        unsigned Depth = unsigned(1 + (DepthRot + I / 2 + I) % 2);
        PL.Templates.push_back({unsigned(PL.Progs.size()), Depth});
        PL.Progs.push_back({&W, W.TestScale * Halves / 2});
      }
    }
    for (unsigned T = 0; T != PL.Templates.size(); ++T) {
      uint64_t Rot = R.nextBelow(PerTemplate);
      for (unsigned J = 0; J != PerTemplate; ++J) {
        Request Q;
        Q.Prog = PL.Templates[T].first;
        Q.Tpl = T;
        Q.FromImage = (Rot + J) % PerTemplate < FromImage;
        PL.Requests.push_back(Q);
      }
    }
  }
  return PL;
}

//===----------------------------------------------------------------------===//
// Set-up
//===----------------------------------------------------------------------===//

struct SetupState {
  std::vector<GuestProgram> Progs;
  std::vector<Template> Templates;
  uint64_t AssembleNs = 0;
  uint64_t SaveNs = 0, Saves = 0, ImageBytes = 0;
  /// Host time of each set-up step: one per program (assembly and native
  /// reference), then one per template (references, warm-up, save, freeze).
  std::vector<uint64_t> StepNs;
};

/// Runs \p P natively \p Runs times in one machine, resetting between
/// runs the way a warmed template's machine is reset; returns the last run
/// (its output only, cycles and instructions as deltas).
Outcome nativeRuns(const Program &P, unsigned Runs) {
  Scope Sp(SpanNative);
  Machine M;
  loadProgram(M, P);
  Outcome O;
  for (unsigned Run = 0; Run != Runs; ++Run) {
    if (Run)
      M.resetForRun();
    const size_t Printed = M.output().size();
    const uint64_t C0 = M.cycles(), I0 = M.instructionsExecuted();
    while (M.status() == RunStatus::Running)
      M.step();
    O.Status = M.status();
    O.ExitCode = M.exitCode();
    O.Output = M.output().substr(Printed);
    O.Cycles = M.cycles() - C0;
    O.Instructions = M.instructionsExecuted() - I0;
  }
  return O;
}

/// Assembly, native references, template warm-up, save and freeze: every
/// piece of work done before the first timed request.
void runSetup(const Plan &PL, SetupState &S) {
  S.Progs.resize(PL.Progs.size());
  for (unsigned I = 0; I != PL.Progs.size(); ++I) {
    const uint64_t Step0 = nowNs();
    GuestProgram &G = S.Progs[I];
    G.W = PL.Progs[I].W;
    {
      Scope Sp(SpanAssemble);
      uint64_t T0 = nowNs();
      G.P = buildWorkload(*G.W, PL.Progs[I].Scale);
      S.AssembleNs += nowNs() - T0;
    }
    Scope Sp(SpanNative);
    uint64_t T0 = nowNs();
    G.Native = runNativeProgram(G.P);
    G.NativeFirstNs = nowNs() - T0;
    G.NativeBestNs = std::min(G.NativeBestNs, G.NativeFirstNs);
    if (G.Native.Status != RunStatus::Exited)
      fatal(std::string(G.W->Name) + ": native reference did not exit");
    S.StepNs.push_back(nowNs() - Step0);
  }

  S.Templates.resize(PL.Templates.size());
  const RuntimeConfig Config = RuntimeConfig::full();
  for (unsigned I = 0; I != PL.Templates.size(); ++I) {
    const uint64_t Step0 = nowNs();
    Template &T = S.Templates[I];
    T.Prog = PL.Templates[I].first;
    T.Depth = PL.Templates[I].second;
    const Program &P = S.Progs[T.Prog].P;
    T.Native = nativeRuns(P, T.Depth + 1);
    if (T.Native.Status != RunStatus::Exited)
      fatal(std::string(S.Progs[T.Prog].W->Name) +
            ": repeated native reference did not exit");

    // Cold reference: the cycles of run Depth+1 in one runtime. A tenant
    // forked after Depth warm-up runs must reproduce them exactly.
    {
      Scope Sp(SpanWarmup);
      Machine RM;
      loadProgram(RM, P);
      Runtime RR(RM, Config);
      for (unsigned Run = 0; Run <= T.Depth; ++Run) {
        if (Run) {
          RM.resetForRun();
          RR.resetThreadForRun();
        }
        uint64_t C0 = RM.cycles();
        if (RR.run().Status != RunStatus::Exited) {
          T.Error = "cold reference run did not exit";
          break;
        }
        T.RefCycles = RM.cycles() - C0;
      }
    }

    T.M = std::make_unique<Machine>();
    loadProgram(*T.M, P);
    T.RT = std::make_unique<Runtime>(*T.M, Config);
    {
      Scope Sp(SpanWarmup);
      for (unsigned Run = 0; Run != T.Depth && T.Error.empty(); ++Run) {
        if (T.RT->run().Status != RunStatus::Exited)
          T.Error = "template warm-up did not exit";
        T.M->resetForRun();
        T.RT->resetThreadForRun();
      }
    }
    if (!T.Error.empty()) {
      S.StepNs.push_back(nowNs() - Step0);
      continue;
    }
    {
      Scope Sp(SpanSave);
      uint64_t T0 = nowNs();
      if (!CacheCodec::save(*T.RT, T.Image))
        T.Error = "save refused";
      S.SaveNs += nowNs() - T0;
      ++S.Saves;
      S.ImageBytes += T.Image.size();
    }
    Scope Sp(SpanFreeze);
    std::string Err;
    if (T.Error.empty() && !T.RT->freezeTemplate(&Err))
      T.Error = "freeze refused: " + Err;
    S.StepNs.push_back(nowNs() - Step0);
  }
}

//===----------------------------------------------------------------------===//
// One repetition of one request
//===----------------------------------------------------------------------===//

/// Per-layer counts of one traced request, summed in the parent.
enum Counter : unsigned {
  CBbs,
  CTraces,
  CDispatches,
  CContextSwitches,
  CIblLookups,
  CIblHits,
  CIbInlineHits,
  CIbInlineMisses,
  CEvictions,
  CFlushes,
  CSmc,
  CRuntimeCycles,
  CCycles,
  CPublished,
  COptimized,
  CHookCalls,
  CHookNs,
  CCowPages,
  CUnshares,
  CLoadRejects,
  CDecodeNs,
  CDecodeN,
  CEncodeNs,
  CEncodeN,
  CLiftNs,
  CLiftN,
  CEmitNs,
  CEmitN,
  CForkNs,
  CForkN,
  CLoadNs,
  CLoadN,
  CObservedNs,
  CPlainNs,
  NumCounters
};

struct RepResult {
  bool Ok = true;
  bool Wrong = false; ///< ran to exit but disagreed with a reference
  std::string Err;
  uint64_t HostNs = 0;  ///< start + run + output check
  uint64_t StartNs = 0; ///< fastest of a batch of starts
  uint64_t Cycles = 0;
  uint64_t CacheBytes = 0;
  uint64_t C[NumCounters] = {};

  void fail(const std::string &Why) {
    if (Ok)
      Err = Why;
    Ok = false;
  }
  void wrong(const std::string &Why) {
    fail(Why);
    Wrong = true;
  }
};

/// A runnable runtime for one request plus everything it borrows.
struct Instance {
  std::unique_ptr<Machine> M;
  std::unique_ptr<TraceOptClient> TraceOpt;
  std::unique_ptr<SidelineOptimizer> Sideline;
  std::unique_ptr<SampleProfile> Profiler;
  std::unique_ptr<ClientBundle> Clients;
  std::unique_ptr<TimedClient> Timed;
  std::unique_ptr<Runtime> RT;
  Runtime *Tpl = nullptr;
  LoadStatus Load = LoadStatus::Ok;
};

struct Observers {
  EventTrace Events{1u << 12};
  SampleProfile Profiler{1000};
  MetricsRegistry Registry;
};

/// Host time inside Runtime::forkFrom and CacheCodec::load, accumulated
/// while tracing (persist.fork_us, persist.load_ms).
struct {
  uint64_t ForkNs = 0, Forks = 0, LoadNs = 0, Loads = 0;
  void add(uint64_t &Ns, uint64_t &Count, uint64_t T0) {
    if (!TR.On)
      return;
    Ns += nowNs() - T0;
    ++Count;
  }
} PersistCalls;

/// Request to runnable runtime. \p Timed wraps the client hooks; \p Obs
/// attaches EventTrace + SampleProfile + Metrics. \p Fresh starts a fleet
/// request on a new client-less runtime instead of its template or image
/// (tenants inherit the template's configuration, so observers cannot be
/// attached to one).
void startInstance(const Plan &PL, const SetupState &S, const Request &Q,
                   Instance &I, bool Timed, Observers *Obs, bool Fresh) {
  const GuestProgram &G = S.Progs[Q.Prog];
  RuntimeConfig Config = RuntimeConfig::full();
  Client *Cl = nullptr;
  if (PL.K == Kind::Fleet && !Fresh) {
    const Template &T = S.Templates[Q.Tpl];
    if (!Q.FromImage) {
      I.M = std::make_unique<Machine>(*T.M);
      Scope Sp(SpanFork);
      uint64_t T0 = nowNs();
      I.RT = Runtime::forkFrom(*T.RT, *I.M);
      PersistCalls.add(PersistCalls.ForkNs, PersistCalls.Forks, T0);
      I.Tpl = T.RT.get();
      return;
    }
    I.M = std::make_unique<Machine>();
    loadProgram(*I.M, G.P);
    I.RT = std::make_unique<Runtime>(*I.M, Config);
    Scope Sp(SpanLoad);
    uint64_t T0 = nowNs();
    I.Load = CacheCodec::load(*I.RT, T.Image.data(), T.Image.size());
    PersistCalls.add(PersistCalls.LoadNs, PersistCalls.Loads, T0);
    return;
  }
  I.M = std::make_unique<Machine>();
  loadProgram(*I.M, G.P);
  if (PL.K == Kind::Hot) {
    if (Q.Hot == HotVariant::IbInline) {
      Config.IbInline = true;
    } else {
      TraceOptOptions Opts;
      Opts.Speculate = Q.Hot == HotVariant::TraceOptSpec;
      I.TraceOpt = std::make_unique<TraceOptClient>(Opts);
      I.Sideline =
          std::make_unique<SidelineOptimizer>(*I.TraceOpt, SidelineMode::Async);
      Config.SidelinePump = I.Sideline.get();
      if (Opts.Speculate) {
        I.Profiler = std::make_unique<SampleProfile>(200);
        Config.Profiler = I.Profiler.get();
      }
      Cl = I.Sideline.get();
    }
  } else if (PL.K == Kind::Cold) {
    Config.BbCacheSize = Q.BbKb * 1024;
    Config.TraceCacheSize = Q.TraceKb * 1024;
    Config.Eviction = Q.Policy;
    I.Clients = std::make_unique<ClientBundle>(ClientKind::AllFour);
    Cl = I.Clients->client();
  }
  if (Obs) {
    Config.Trace = &Obs->Events;
    if (!Config.Profiler)
      Config.Profiler = &Obs->Profiler;
  }
  if (Cl && Timed) {
    I.Timed = std::make_unique<TimedClient>(*Cl);
    Cl = I.Timed.get();
  }
  I.RT = std::make_unique<Runtime>(*I.M, Config, Cl);
  if (I.Profiler) {
    Runtime *RT = I.RT.get();
    TraceOptClient *TO = I.TraceOpt.get();
    SidelineOptimizer *SL = I.Sideline.get();
    I.Profiler->setTraceSampleHook([RT, TO, SL](uint32_t Tag,
                                                uint64_t Samples) {
      if (TO->observe(*RT, Tag, Samples))
        SL->requestReopt(*RT, Tag);
    });
  }
  if (Obs)
    I.RT->registerMetrics(Obs->Registry, "request");
}

/// Runs a started instance to exit and checks it against the native run.
RunResult runInstance(Instance &I, RepResult &Out, const Outcome &Native) {
  RunResult R;
  // A forked machine carries its template's earlier output; compare only
  // what this run printed.
  const size_t Printed = I.M->output().size();
  {
    Scope Sp(SpanRun);
    uint64_t C0 = I.M->cycles();
    R = I.Sideline ? runWithSideline(*I.RT, *I.Sideline) : I.RT->run();
    Out.Cycles = I.M->cycles() - C0;
  }
  if (I.Load != LoadStatus::Ok)
    Out.fail(std::string("image rejected: ") +
             persist::loadStatusName(I.Load));
  if (R.Status != RunStatus::Exited)
    Out.fail(R.FaultReason.empty() ? "did not exit" : R.FaultReason);
  else if (R.ExitCode != Native.ExitCode)
    Out.wrong("exit code differs from native");
  else if (I.M->output().compare(Printed, std::string::npos,
                                  Native.Output) != 0)
    Out.wrong("output differs from native");
  return R;
}

uint64_t liveCacheBytes(const Instance &I) {
  Runtime &Owner = I.RT->isForked() ? *I.Tpl : *I.RT;
  return Owner.cacheManager().totalUsedBytes();
}

/// Replays isa decode/encode over the program's code and ir lift/emit over
/// the fragments the request built (per-layer host cost per unit of work).
void replayLayers(const GuestProgram &G, Instance &I, RepResult &Out) {
  const Program &P = G.P;
  // Instruction boundaries come from an untimed linear sweep that steps
  // over the data words interleaved with code; the timed pass decodes
  // exactly those instructions.
  std::vector<uint32_t> Offsets;
  for (size_t Off = 0; Off < P.Bytes.size();) {
    int Len = decodeLength(P.Bytes.data() + Off, P.Bytes.size() - Off);
    if (Len <= 0) {
      ++Off;
      continue;
    }
    Offsets.push_back(uint32_t(Off));
    Off += size_t(Len);
  }
  std::vector<DecodedInstr> Decoded;
  Decoded.reserve(Offsets.size());
  {
    Scope Sp(SpanDecode);
    uint64_t T0 = nowNs();
    for (uint32_t Off : Offsets) {
      DecodedInstr DI;
      if (decodeInstr(P.Bytes.data() + Off, P.Bytes.size() - Off,
                      P.LoadAddr + Off, DI))
        Decoded.push_back(DI);
    }
    Out.C[CDecodeNs] += nowNs() - T0;
    Out.C[CDecodeN] += Offsets.size();
  }
  {
    Scope Sp(SpanEncode);
    uint8_t Buf[32];
    uint64_t T0 = nowNs();
    for (const DecodedInstr &DI : Decoded)
      (void)encodeInstr(DI, 0x1000, Buf);
    Out.C[CEncodeNs] += nowNs() - T0;
    Out.C[CEncodeN] += Decoded.size();
  }

  std::vector<AppPc> Tags;
  I.RT->forEachFragment([&Tags](const Fragment &F) { Tags.push_back(F.Tag); });
  Arena A;
  std::vector<uint8_t> Buf(1u << 16);
  for (AppPc Tag : Tags) {
    if (Tag < P.LoadAddr || Tag >= P.endAddr())
      continue;
    {
      Scope Sp(SpanLift);
      InstrList IL(A);
      uint64_t T0 = nowNs();
      bool Lifted = liftBlock(IL, P.Bytes.data(), P.Bytes.size(), P.LoadAddr,
                              Tag, 256, LiftLevel::Decoded3);
      Out.C[CLiftNs] += nowNs() - T0;
      Out.C[CLiftN] += Lifted;
    }
    InstrList *IL = I.RT->decodeFragment(A, Tag);
    if (!IL)
      continue;
    Scope Sp(SpanEmit);
    EmitResult ER;
    uint64_t T0 = nowNs();
    bool Emitted = emitInstrList(*IL, I.M->runtimeBase(), Buf.data(),
                                 Buf.size(), true, ER);
    Out.C[CEmitNs] += nowNs() - T0;
    Out.C[CEmitN] += Emitted;
  }
}

void collectCounters(Instance &I, RepResult &Out) {
  StatisticSet &St = I.RT->stats();
  Out.C[CBbs] += St.get("basic_blocks_built");
  Out.C[CTraces] += St.get("traces_built");
  Out.C[CDispatches] += St.get("dispatches");
  Out.C[CContextSwitches] += St.get("context_switches");
  Out.C[CIblLookups] += St.get("ibl_lookups");
  Out.C[CIblHits] += St.get("ibl_hits");
  Out.C[CIbInlineHits] += St.get("ib_inline_hits");
  Out.C[CIbInlineMisses] += St.get("ib_inline_misses");
  Out.C[CEvictions] += St.get("cache_evictions");
  Out.C[CFlushes] += St.get("cache_flushes");
  Out.C[CSmc] += St.get("smc_invalidations");
  Out.C[CUnshares] += St.get("fork_cache_unshares");
  Out.C[CLoadRejects] += St.get("cache_warm_rejects");
  Out.C[CRuntimeCycles] += I.RT->cyclesInRuntime();
  Out.C[CCycles] += Out.Cycles;
  Out.C[CCowPages] += I.M->mem().cowPageCopies();
  if (I.Sideline) {
    Out.C[CPublished] += I.Sideline->versionsPublished();
    Out.C[COptimized] += I.Sideline->tracesOptimized();
  }
  if (I.Timed) {
    Out.C[CHookCalls] += I.Timed->Calls;
    Out.C[CHookNs] += I.Timed->Ns;
  }
}

/// The native run a request must reproduce: a tenant continues its
/// template's machine, every other request starts on a fresh one.
const Outcome &nativeRef(const Plan &PL, const SetupState &S,
                         const Request &Q) {
  if (PL.K == Kind::Fleet && !Q.FromImage)
    return S.Templates[Q.Tpl].Native;
  return S.Progs[Q.Prog].Native;
}

/// One repetition. \p Traced adds the timing client wrapper, the per-layer
/// counters, the layer replays and the observability comparison.
RepResult runRep(const Plan &PL, const SetupState &S, unsigned ReqIdx,
                 bool Traced) {
  const Request &Q = PL.Requests[ReqIdx];
  const GuestProgram &G = S.Progs[Q.Prog];
  RepResult Out;
  if (PL.K == Kind::Fleet && !S.Templates[Q.Tpl].Error.empty()) {
    Out.fail(S.Templates[Q.Tpl].Error);
    return Out;
  }
  TR.Op = ReqIdx;
  PersistCalls = {};

  // Start-up cost: the fastest of a batch of runnable runtimes, each
  // started alone and torn down untimed.
  {
    const unsigned Batch = PL.K != Kind::Fleet ? FreshBatch
                           : Q.FromImage       ? LoadBatch
                                               : ForkBatch;
    Out.StartNs = ~0ull;
    for (unsigned K = 0; K != Batch; ++K) {
      Instance Started;
      uint64_t T0 = nowNs();
      startInstance(PL, S, Q, Started, false, nullptr, false);
      Out.StartNs = std::min(Out.StartNs, nowNs() - T0);
    }
  }

  // The request itself: start, run to exit, check.
  Instance I;
  {
    Scope Sp(SpanRequest);
    uint64_t T0 = nowNs();
    startInstance(PL, S, Q, I, Traced, nullptr, false);
    if (!I.RT)
      Out.fail("fork refused");
    else
      runInstance(I, Out, nativeRef(PL, S, Q));
    Out.HostNs = nowNs() - T0;
  }
  if (!I.RT)
    return Out;
  if (PL.K == Kind::Fleet && !Q.FromImage &&
      Out.Cycles != S.Templates[Q.Tpl].RefCycles)
    Out.wrong("tenant cycles differ from a cold runtime at the same depth");
  Out.CacheBytes = liveCacheBytes(I);
  if (!Traced)
    return Out;

  Out.C[CForkNs] += PersistCalls.ForkNs;
  Out.C[CForkN] += PersistCalls.Forks;
  Out.C[CLoadNs] += PersistCalls.LoadNs;
  Out.C[CLoadN] += PersistCalls.Loads;

  collectCounters(I, Out);
  replayLayers(G, I, Out);

  // support: the same request on a fresh runtime without and with the
  // observability sinks; cycles must agree (observation is host-side).
  Scope Sp(SpanObserve);
  RepResult Plain, Observed;
  Instance PI;
  uint64_t T0 = nowNs();
  startInstance(PL, S, Q, PI, false, nullptr, true);
  runInstance(PI, Plain, G.Native);
  Out.C[CPlainNs] += nowNs() - T0;
  Observers Obs;
  Instance OI;
  T0 = nowNs();
  startInstance(PL, S, Q, OI, false, &Obs, true);
  runInstance(OI, Observed, G.Native);
  (void)Obs.Registry.snapshot();
  Out.C[CObservedNs] += nowNs() - T0;
  if (!Plain.Ok || !Observed.Ok)
    Out.fail("observability replay: " + (Plain.Ok ? Observed.Err : Plain.Err));
  else if (Plain.Cycles != Observed.Cycles)
    Out.wrong("observability changed simulated cycles");
  return Out;
}

//===----------------------------------------------------------------------===//
// Child-process rounds
//===----------------------------------------------------------------------===//

enum FrameType : uint32_t { FrameRep = 1, FrameSpans, FrameRound, FrameRss };

struct RepFrame {
  uint32_t Round, Pos, Req, Ok, Wrong, Traced, Skipped;
  uint64_t HostNs, StartNs, Cycles, CacheBytes;
  uint64_t C[NumCounters];
  char Err[112];
};

struct RoundFrame {
  uint32_t Round;
  uint64_t CalibrationNs;
};

void writeAll(int Fd, const void *Data, size_t Size) {
  const char *P = static_cast<const char *>(Data);
  while (Size) {
    ssize_t N = ::write(Fd, P, Size);
    if (N <= 0)
      _exit(3);
    P += N;
    Size -= size_t(N);
  }
}

void sendFrame(int Fd, FrameType Type, const void *Data, uint32_t Size) {
  uint32_t Hdr[2] = {Type, Size};
  writeAll(Fd, Hdr, sizeof(Hdr));
  writeAll(Fd, Data, Size);
}

uint64_t peakRssKb() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0;
  char Line[256];
  uint64_t Kb = 0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::strncmp(Line, "VmHWM:", 6) == 0)
      Kb = std::strtoull(Line + 6, nullptr, 10);
  std::fclose(F);
  return Kb;
}

volatile uint64_t CalibrationSink;

/// A fixed pointer chase over 4 MB that touches nothing of the runtime. Its
/// time per round shows whether the host was slow during that round; the
/// interpreter is sensitive to cache contention, so the loop is too.
uint64_t calibrationNs() {
  static std::vector<uint32_t> Next = [] {
    std::vector<uint32_t> V(1u << 20);
    std::iota(V.begin(), V.end(), 0u);
    Rng R(12345);
    for (size_t I = V.size() - 1; I > 0; --I) // Sattolo: one single cycle
      std::swap(V[I], V[R.nextBelow(I)]);
    return V;
  }();
  uint64_t T0 = nowNs();
  uint32_t P = 0;
  for (unsigned I = 0; I != 500'000; ++I)
    P = Next[P];
  CalibrationSink = P;
  return nowNs() - T0;
}

/// Order of the requests in round \p Round: a seeded shuffle, so a request
/// meets a different part of each round.
std::vector<unsigned> roundOrder(size_t N, uint64_t Seed, unsigned Round) {
  std::vector<unsigned> Order(N);
  std::iota(Order.begin(), Order.end(), 0u);
  Rng R(mixSeed(Seed * 1000003 + Round));
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[R.nextBelow(I)]);
  return Order;
}

struct RoundSpec {
  unsigned Round;
  bool Traced;
};

/// Child body: runs rounds [from position (Round0, Pos0)] and streams one
/// frame per repetition.
[[noreturn]] void childMain(int Fd, const Plan &PL, const SetupState &S,
                            const std::vector<RoundSpec> &Rounds,
                            size_t Round0, size_t Pos0, uint64_t Seed,
                            const std::vector<bool> &Aborted) {
  for (size_t RI = Round0; RI != Rounds.size(); ++RI) {
    const RoundSpec &RS = Rounds[RI];
    std::vector<unsigned> Order =
        roundOrder(PL.Requests.size(), Seed, RS.Round);
    if (RI != Round0 || Pos0 == 0) {
      RoundFrame RF{RS.Round, calibrationNs()};
      sendFrame(Fd, FrameRound, &RF, sizeof(RF));
    }
    for (size_t Pos = RI == Round0 ? Pos0 : 0; Pos != Order.size(); ++Pos) {
      // A request that already aborted a process has failed; running it
      // again would only cost another process start.
      if (Aborted[Order[Pos]]) {
        RepFrame F;
        std::memset(&F, 0, sizeof(F));
        F.Round = uint32_t(RI);
        F.Pos = uint32_t(Pos);
        F.Req = Order[Pos];
        F.Traced = RS.Traced;
        F.Skipped = 1;
        sendFrame(Fd, FrameRep, &F, sizeof(F));
        continue;
      }
      // A traced round runs each request untraced and then traced, back
      // to back, so the pair measures the tracing overhead.
      for (bool Traced : {false, true}) {
        if (Traced && !RS.Traced)
          break;
        TR.On = Traced;
        RepResult R = runRep(PL, S, Order[Pos], Traced);
        TR.On = false;
        if (!TR.Spans.empty()) {
          sendFrame(Fd, FrameSpans, TR.Spans.data(),
                    uint32_t(TR.Spans.size() * sizeof(Span)));
          TR.Spans.clear();
        }
        RepFrame F;
        std::memset(&F, 0, sizeof(F));
        F.Round = uint32_t(RI);
        F.Pos = uint32_t(Pos);
        F.Req = Order[Pos];
        F.Ok = R.Ok;
        F.Wrong = R.Wrong;
        F.Traced = Traced;
        F.HostNs = R.HostNs;
        F.StartNs = R.StartNs;
        F.Cycles = R.Cycles;
        F.CacheBytes = R.CacheBytes;
        std::memcpy(F.C, R.C, sizeof(F.C));
        std::snprintf(F.Err, sizeof(F.Err), "%s", R.Err.c_str());
        sendFrame(Fd, FrameRep, &F, sizeof(F));
      }
    }
    uint64_t Rss = peakRssKb();
    sendFrame(Fd, FrameRss, &Rss, sizeof(Rss));
  }
  std::fflush(nullptr);
  _exit(0);
}

//===----------------------------------------------------------------------===//
// Parent: results
//===----------------------------------------------------------------------===//

struct RequestStats {
  std::vector<uint64_t> HostNs, StartNs; ///< successful repetitions
  uint64_t Cycles = 0, CacheBytes = 0;
  bool Failed = false;
  bool Wrong = false; ///< a completed run disagreed with its reference
  std::string Err;
  bool HaveTraced = false;
  uint64_t TracedCycles = 0;
  uint64_t C[NumCounters] = {};
  uint64_t TracedHostNs = 0, UntracedHostNs = 0;
};

struct RunData {
  std::vector<RequestStats> Reqs;
  std::vector<Span> Spans;
  std::vector<uint64_t> CalibrationNs;
  uint64_t ChildRssKb = 0;
  unsigned Aborts = 0;
  std::vector<bool> Aborted; ///< per request: a repetition killed its process
};

void recordRep(RunData &D, const RepFrame &F) {
  RequestStats &RQ = D.Reqs[F.Req];
  if (F.Skipped)
    return;
  if (!F.Ok) {
    if (!RQ.Failed)
      RQ.Err = F.Err;
    RQ.Failed = true;
    RQ.Wrong |= F.Wrong != 0;
    return;
  }
  if (F.Traced) {
    RQ.HaveTraced = true;
    RQ.TracedCycles = F.Cycles;
    RQ.TracedHostNs = F.HostNs;
    std::memcpy(RQ.C, F.C, sizeof(RQ.C));
    return;
  }
  // Simulated results are deterministic: every repetition must agree.
  if (!RQ.HostNs.empty() && (F.Cycles != RQ.Cycles ||
                             F.CacheBytes != RQ.CacheBytes)) {
    RQ.Failed = RQ.Wrong = true;
    RQ.Err = "repetitions disagree on simulated cycles or cache bytes";
  }
  RQ.Cycles = F.Cycles;
  RQ.CacheBytes = F.CacheBytes;
  RQ.HostNs.push_back(F.HostNs);
  RQ.StartNs.push_back(F.StartNs);
  RQ.UntracedHostNs = F.HostNs;
}

bool readAll(int Fd, void *Data, size_t Size) {
  char *P = static_cast<char *>(Data);
  while (Size) {
    ssize_t N = ::read(Fd, P, Size);
    if (N <= 0)
      return false;
    P += N;
    Size -= size_t(N);
  }
  return true;
}

/// The last line a dead child wrote to stderr (captured in \p Fd), e.g. a
/// failed assertion's message.
std::string lastLine(int Fd) {
  std::string Text;
  char Buf[4096];
  ssize_t N;
  for (off_t Off = 0; (N = ::pread(Fd, Buf, sizeof(Buf), Off)) > 0; Off += N)
    Text.append(Buf, size_t(N));
  while (!Text.empty() && Text.back() == '\n')
    Text.pop_back();
  std::string Line = Text.substr(Text.rfind('\n') + 1);
  size_t Assertion = Line.find("Assertion");
  if (Assertion != std::string::npos)
    Line = Line.substr(Assertion);
  return Line.substr(0, 100);
}

/// Runs \p Rounds in child processes, restarting after any child that dies
/// mid-round; the repetition it died in counts as failed.
void runRounds(const Plan &PL, const SetupState &S,
               const std::vector<RoundSpec> &Rounds, uint64_t Seed,
               RunData &D) {
  size_t Round = 0, Pos = 0;
  const size_t N = PL.Requests.size();
  while (Round != Rounds.size()) {
    int Fds[2];
    if (::pipe(Fds) != 0)
      fatal("pipe failed");
    // The child's stderr goes to memory, so that an abort message can
    // name the failure instead of cluttering the output.
    int ErrFd = ::memfd_create("perfbench-child-stderr", 0);
    std::fflush(nullptr);
    pid_t Pid = ::fork();
    if (Pid < 0)
      fatal("fork failed");
    if (Pid == 0) {
      ::close(Fds[0]);
      if (ErrFd >= 0)
        ::dup2(ErrFd, 2);
      childMain(Fds[1], PL, S, Rounds, Round, Pos, Seed, D.Aborted);
    }
    ::close(Fds[1]);
    uint32_t Hdr[2];
    std::vector<char> Buf;
    while (readAll(Fds[0], Hdr, sizeof(Hdr))) {
      Buf.resize(Hdr[1]);
      if (!readAll(Fds[0], Buf.data(), Buf.size()))
        break;
      if (Hdr[0] == FrameRep && Buf.size() == sizeof(RepFrame)) {
        RepFrame F;
        std::memcpy(&F, Buf.data(), sizeof(F));
        recordRep(D, F);
        if (Rounds[F.Round].Traced && !F.Traced)
          continue; // its traced twin is still to come
        Round = F.Round;
        Pos = F.Pos + 1;
        if (Pos == N) {
          ++Round;
          Pos = 0;
        }
      } else if (Hdr[0] == FrameSpans) {
        size_t Base = D.Spans.size(), Count = Buf.size() / sizeof(Span);
        D.Spans.resize(Base + Count);
        std::memcpy(&D.Spans[Base], Buf.data(), Count * sizeof(Span));
        for (size_t I = Base; I != Base + Count; ++I)
          if (D.Spans[I].Parent >= 0)
            D.Spans[I].Parent += int32_t(Base);
      } else if (Hdr[0] == FrameRound && Buf.size() == sizeof(RoundFrame)) {
        RoundFrame RF;
        std::memcpy(&RF, Buf.data(), sizeof(RF));
        D.CalibrationNs.push_back(RF.CalibrationNs);
      } else if (Hdr[0] == FrameRss && Buf.size() == sizeof(uint64_t)) {
        uint64_t Kb;
        std::memcpy(&Kb, Buf.data(), sizeof(Kb));
        D.ChildRssKb = std::max(D.ChildRssKb, Kb);
      }
    }
    ::close(Fds[0]);
    int Status = 0;
    ::waitpid(Pid, &Status, 0);
    std::string Why = ErrFd >= 0 ? lastLine(ErrFd) : std::string();
    if (ErrFd >= 0)
      ::close(ErrFd);
    if (WIFEXITED(Status) && WEXITSTATUS(Status) == 0)
      continue;
    if (Round == Rounds.size())
      break;
    // The child died inside repetition (Round, Pos): that request failed.
    ++D.Aborts;
    std::vector<unsigned> Order = roundOrder(N, Seed, Rounds[Round].Round);
    RequestStats &RQ = D.Reqs[Order[Pos]];
    D.Aborted[Order[Pos]] = true;
    if (!RQ.Failed)
      RQ.Err = (WIFSIGNALED(Status)
                    ? "process aborted (signal " +
                          std::to_string(WTERMSIG(Status)) + ")"
                    : "process exited " +
                          std::to_string(WEXITSTATUS(Status))) +
               (Why.empty() ? "" : ": " + Why);
    RQ.Failed = true;
    if (++Pos == N) {
      ++Round;
      Pos = 0;
    }
  }
}

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double X = P * double(V.size() - 1);
  size_t Lo = size_t(X);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (X - double(Lo));
}

uint64_t minOf(const std::vector<uint64_t> &V) {
  return *std::min_element(V.begin(), V.end());
}

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

void printResult(bool Correct, size_t Attempted, size_t Failed,
                 const std::vector<Metric> &Ms) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              Correct ? "true" : "false", Attempted, Failed);
  for (size_t I = 0; I != Ms.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Ms[I].Name.c_str(), Ms[I].Value, Ms[I].Unit);
  std::printf("}}\n");
}

/// Writes the spans as CSV: one line per span, times in ns relative to the
/// earliest span, parent = line index of the enclosing span (-1 = root),
/// op = request index (-1 = set-up work).
void writeSpans(const std::string &Path, const std::vector<Span> &Spans) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
    return;
  }
  uint64_t T0 = ~0ull;
  for (const Span &S : Spans)
    T0 = std::min(T0, S.Start);
  std::fprintf(F, "id,name,op,parent,start_ns,end_ns\n");
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F, "%zu,%s,%d,%d,%llu,%llu\n", I, SpanNames[S.Name],
                 S.Op == ~0u ? -1 : int(S.Op), S.Parent,
                 (unsigned long long)(S.Start - T0),
                 (unsigned long long)(S.End - T0));
  }
  std::fclose(F);
}

/// Self time per layer: each span's duration minus its direct children's.
std::map<std::string, double> layerSelfMs(const std::vector<Span> &Spans) {
  std::vector<uint64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNs[S.Parent] += S.End - S.Start;
  std::map<std::string, double> Self;
  for (size_t I = 0; I != Spans.size(); ++I) {
    std::string Name = SpanNames[Spans[I].Name];
    std::string Layer = Name.substr(0, Name.find('.'));
    uint64_t Dur = Spans[I].End - Spans[I].Start;
    Self[Layer] += double(Dur - std::min(Dur, ChildNs[I])) / 1e6;
  }
  return Self;
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

struct Options {
  Kind K = Kind::Hot;
  std::string Workload;
  uint64_t Seed = 1;
  unsigned Seconds = 20;
  bool Trace = false;
  std::string SpansPath;
};

Options parseArgs(int Argc, char **Argv) {
  Options O;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      fatal("missing value for " + A);
    std::string V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      O.Workload = V;
      HaveWorkload = true;
      if (V == "hot")
        O.K = Kind::Hot;
      else if (V == "cold")
        O.K = Kind::Cold;
      else if (V == "fleet")
        O.K = Kind::Fleet;
      else
        fatal("unknown workload " + V);
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V.c_str(), &End, 10);
    } else if (A == "--seconds") {
      O.Seconds = unsigned(std::strtoul(V.c_str(), &End, 10));
      if (O.Seconds < 1 || O.Seconds > 600)
        fatal("--seconds out of range");
    } else if (A == "--trace") {
      O.Trace = V == "1";
      End = V == "0" || V == "1" ? nullptr : &V[0];
    } else if (A == "--spans") {
      O.SpansPath = V;
    } else {
      fatal("unknown option " + A);
    }
    if (End && *End)
      fatal("bad value for " + A + ": " + V);
  }
  if (!HaveWorkload)
    fatal("--workload is required");
  return O;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parseArgs(Argc, Argv);
  Plan PL = makePlan(O.K, O.Seed);
  const size_t N = PL.Requests.size();

  // Rounds of roughly a second each; the count depends only on --seconds,
  // never on how fast this host happens to run.
  const unsigned NumRounds = O.Trace ? 1 : std::max(3u, O.Seconds);
  std::vector<RoundSpec> Rounds;
  for (unsigned R = 0; R != NumRounds; ++R)
    Rounds.push_back({R, false});
  if (O.Trace)
    Rounds.push_back({NumRounds, true});

  // Set-ups interleave with the rounds: set-up K runs before segment K.
  SetupState S;
  std::vector<double> SetupS;
  RunData D;
  D.Reqs.resize(N);
  D.Aborted.assign(N, false);
  const unsigned Segments = std::min<unsigned>(NumSetups, NumRounds);
  for (unsigned Seg = 0; Seg != NumSetups; ++Seg) {
    SetupState Fresh;
    const bool TraceSetup = O.Trace && Seg == NumSetups - 1;
    TR.On = TraceSetup;
    TR.Op = ~0u;
    uint64_t T0 = nowNs();
    runSetup(PL, Fresh);
    SetupS.push_back(double(nowNs() - T0) / 1e9);
    TR.On = false;
    const int32_t Base = int32_t(D.Spans.size());
    for (Span Sp : TR.Spans) {
      if (Sp.Parent >= 0)
        Sp.Parent += Base;
      D.Spans.push_back(Sp);
    }
    TR.Spans.clear();
    if (Seg == 0) {
      S = std::move(Fresh);
    } else {
      // Later set-ups are timed for setup_s only; they refine the native
      // best times and report their layer costs when traced.
      for (size_t I = 0; I != S.Progs.size(); ++I)
        S.Progs[I].NativeBestNs =
            std::min(S.Progs[I].NativeBestNs, Fresh.Progs[I].NativeBestNs);
      for (size_t I = 0; I != S.StepNs.size(); ++I)
        S.StepNs[I] = std::min(S.StepNs[I], Fresh.StepNs[I]);
      if (TraceSetup) {
        S.AssembleNs = Fresh.AssembleNs;
        S.SaveNs = Fresh.SaveNs;
        S.Saves = Fresh.Saves;
        S.ImageBytes = Fresh.ImageBytes;
      }
    }
    if (Seg < Segments) {
      std::vector<RoundSpec> Part;
      for (size_t R = Seg * Rounds.size() / Segments;
           R != (Seg + 1) * Rounds.size() / Segments; ++R)
        Part.push_back(Rounds[R]);
      runRounds(PL, S, Part, O.Seed, D);
    }
  }

  // Per-request results.
  size_t Failed = 0;
  bool Correct = true;
  std::vector<double> RunMs, StartUs, LogSlowdown;
  double SumBestNs = 0, SumInstrs = 0, SumCacheKb = 0, SumNativeFirstNs = 0;
  uint64_t Reps = 0, Contended = 0;
  std::map<std::string, unsigned> Failures;
  for (size_t I = 0; I != N; ++I) {
    RequestStats &RQ = D.Reqs[I];
    const GuestProgram &G = S.Progs[PL.Requests[I].Prog];
    const Outcome &Native = nativeRef(PL, S, PL.Requests[I]);
    if (!RQ.Failed && RQ.HostNs.empty()) {
      RQ.Failed = true;
      RQ.Err = "no repetition completed";
    }
    if (!RQ.Failed && O.Trace &&
        (!RQ.HaveTraced || RQ.TracedCycles != RQ.Cycles)) {
      RQ.Failed = RQ.Wrong = true;
      RQ.Err = "traced run's simulated cycles differ from the untraced run";
    }
    if (RQ.Failed) {
      ++Failed;
      Correct &= !RQ.Wrong;
      ++Failures[std::string(G.W->Name) + ": " + RQ.Err];
      continue;
    }
    uint64_t Best = minOf(RQ.HostNs);
    for (uint64_t Ns : RQ.HostNs) {
      ++Reps;
      Contended += double(Ns) > ContendedFactor * double(Best);
    }
    RunMs.push_back(double(Best) / 1e6);
    StartUs.push_back(double(minOf(RQ.StartNs)) / 1e3);
    SumBestNs += double(Best);
    SumNativeFirstNs += double(G.NativeFirstNs);
    SumInstrs += double(Native.Instructions);
    SumCacheKb += double(RQ.CacheBytes) / 1024.0;
    LogSlowdown.push_back(std::log(double(RQ.Cycles) /
                                   double(Native.Cycles)));
  }
  const size_t Ok = N - Failed;

  // Diagnostics (never used to scale a metric).
  std::printf("perfbench %s seed=%llu: %zu requests, best of %u round(s), "
              "%zu failed, %u child aborts\n",
              O.Workload.c_str(), (unsigned long long)O.Seed, N, NumRounds,
              Failed, D.Aborts);
  for (const auto &[Why, Count] : Failures)
    std::printf("  failed x%u: %s\n", Count, Why.c_str());
  std::printf("contention: %.1f%% of %llu repetitions slower than %.1fx their "
              "request's best\n",
              Reps ? 100.0 * double(Contended) / double(Reps) : 0.0,
              (unsigned long long)Reps, ContendedFactor);
  std::printf("calibration loop per round (ms):");
  for (uint64_t Ns : D.CalibrationNs)
    std::printf(" %.2f", double(Ns) / 1e6);
  std::printf("\nwall time per set-up (s):");
  for (double V : SetupS)
    std::printf(" %.3f", V);
  std::printf("\n");

  std::vector<Metric> Ms;
  if (!O.Trace) {
    const double PeakRssMb =
        double(std::max(peakRssKb(), D.ChildRssKb)) / 1024.0;
    Ms = {{"run_ms_p50", percentile(RunMs, 0.5), "ms"},
          {"run_ms_p90", percentile(RunMs, 0.9), "ms"},
          {"host_mips", SumBestNs > 0 ? SumInstrs * 1e3 / SumBestNs : 0,
           "MIPS"},
          {"start_us_p50", percentile(StartUs, 0.5), "us"},
          {"start_us_p90", percentile(StartUs, 0.9), "us"},
          {"sim_slowdown",
           LogSlowdown.empty()
               ? 0
               : std::exp(std::accumulate(LogSlowdown.begin(),
                                          LogSlowdown.end(), 0.0) /
                          double(LogSlowdown.size())),
           "ratio"},
          {"cache_kb", Ok ? SumCacheKb / double(Ok) : 0, "KB"},
          {"setup_s",
           double(std::accumulate(S.StepNs.begin(), S.StepNs.end(),
                                  uint64_t(0))) /
               1e9,
           "s"},
          {"peak_rss_mb", PeakRssMb, "MB"}};
  } else {
    uint64_t C[NumCounters] = {};
    uint64_t TracedNs = 0, UntracedNs = 0;
    for (const RequestStats &RQ : D.Reqs) {
      if (RQ.Failed)
        continue;
      for (unsigned K = 0; K != NumCounters; ++K)
        C[K] += RQ.C[K];
      TracedNs += RQ.TracedHostNs;
      UntracedNs += RQ.UntracedHostNs;
    }
    auto Ratio = [](double Num, double Den) { return Den > 0 ? Num / Den : 0; };
    double NativeNs = 0, NativeInstrs = 0;
    for (const GuestProgram &G : S.Progs) {
      NativeNs += double(G.NativeBestNs);
      NativeInstrs += double(G.Native.Instructions);
    }
    const double OkD = Ok ? double(Ok) : 1.0;
    Ms = {
        {"asm.assemble_ms", double(S.AssembleNs) / 1e6, "ms"},
        {"isa.decode_ns_per_instr", Ratio(C[CDecodeNs], C[CDecodeN]), "ns"},
        {"isa.encode_ns_per_instr", Ratio(C[CEncodeNs], C[CEncodeN]), "ns"},
        {"ir.lift_ns_per_block", Ratio(C[CLiftNs], C[CLiftN]), "ns"},
        {"ir.emit_ns_per_block", Ratio(C[CEmitNs], C[CEmitN]), "ns"},
        {"vm.native_mips", Ratio(NativeInstrs * 1e3, NativeNs), "MIPS"},
        {"vm.cow_page_copies", double(C[CCowPages]) / OkD, "count"},
        {"core.bbs_built", double(C[CBbs]), "count"},
        {"core.traces_built", double(C[CTraces]), "count"},
        {"core.dispatches", double(C[CDispatches]), "count"},
        {"core.context_switches", double(C[CContextSwitches]), "count"},
        {"core.ibl_lookups", double(C[CIblLookups]), "count"},
        {"core.ibl_hit_ratio", Ratio(C[CIblHits], C[CIblLookups]), "ratio"},
        {"core.ib_inline_hit_ratio",
         Ratio(C[CIbInlineHits], C[CIbInlineHits] + C[CIbInlineMisses]),
         "ratio"},
        {"core.cache_evictions", double(C[CEvictions]), "count"},
        {"core.cache_flushes", double(C[CFlushes]), "count"},
        {"core.smc_invalidations", double(C[CSmc]), "count"},
        {"core.runtime_cycle_share", Ratio(C[CRuntimeCycles], C[CCycles]),
         "ratio"},
        // One untraced round against set-up 0's single native run: both
        // sides are best-of-1, taken back to back.
        {"core.host_overhead_ratio", Ratio(SumBestNs, SumNativeFirstNs),
         "ratio"},
        {"core.sideline_published", double(C[CPublished]), "count"},
        {"core.sideline_publish_ratio", Ratio(C[CPublished], C[COptimized]),
         "ratio"},
        {"clients.hook_calls", double(C[CHookCalls]), "count"},
        {"clients.hook_ms", double(C[CHookNs]) / 1e6, "ms"},
        {"persist.save_ms", Ratio(double(S.SaveNs) / 1e6, S.Saves), "ms"},
        {"persist.load_ms", Ratio(double(C[CLoadNs]) / 1e6, C[CLoadN]), "ms"},
        {"persist.image_kb", Ratio(double(S.ImageBytes) / 1024.0, S.Saves),
         "KB"},
        {"persist.fork_us", Ratio(double(C[CForkNs]) / 1e3, C[CForkN]), "us"},
        {"persist.unshares", double(C[CUnshares]), "count"},
        {"persist.load_rejects", double(C[CLoadRejects]), "count"},
        {"support.observe_overhead_ratio",
         Ratio(C[CObservedNs], C[CPlainNs]), "ratio"},
    };
    std::printf("tracing overhead: traced requests took %.3fx the untraced "
                "run (%.1f ms vs %.1f ms)\n",
                Ratio(TracedNs, UntracedNs), double(TracedNs) / 1e6,
                double(UntracedNs) / 1e6);
    std::printf("self time per layer (ms, traced round + traced set-up):");
    for (const auto &[Layer, Ms] : layerSelfMs(D.Spans))
      std::printf(" %s=%.2f", Layer.c_str(), Ms);
    std::printf("\n");
    if (!O.SpansPath.empty()) {
      writeSpans(O.SpansPath, D.Spans);
      std::printf("spans: %zu written to %s\n", D.Spans.size(),
                  O.SpansPath.c_str());
    }
  }
  printResult(Correct, N, Failed, Ms);
  return 0;
}
