//===- bench/bench_table2.cpp - Paper Table 2 reproduction -------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates the paper's Table 2: average time and memory used to decode
/// and then encode the basic blocks of the benchmark suite at each of the
/// five levels of instruction representation.
///
/// This is the one experiment measured for real (wall clock + counted
/// arena bytes): it exercises *our* decoder/encoder, the machinery the
/// paper's Section 3.1 is about. Expected shape:
///
///   - time rises with level; the big jump is Level 3 -> 4 (full encode
///     replaces a raw-byte copy);
///   - memory jumps at Level 1 (per-instruction Instrs) and again at
///     Level 3 (dynamically allocated operand arrays).
///
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "ir/Build.h"
#include "ir/Emit.h"
#include "support/OutStream.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <vector>

using namespace rio;

namespace {

/// One basic block harvested from a workload run.
struct BlockRef {
  const Machine *M;
  AppPc Tag;
  unsigned MaxInstrs;
};

/// The harvested corpus (all basic blocks of all workloads) plus the
/// machines owning the application images.
struct Corpus {
  std::vector<std::unique_ptr<Machine>> Machines;
  std::vector<BlockRef> Blocks;
};

Corpus &corpus() {
  static Corpus C = [] {
    Corpus Built;
    for (const Workload &W : allWorkloads()) {
      Program Prog = buildWorkload(W, W.TestScale);
      auto M = std::make_unique<Machine>();
      if (!loadProgram(*M, Prog))
        continue;
      Runtime RT(*M, RuntimeConfig::linkDirect());
      RunResult R = RT.run();
      if (R.Status != RunStatus::Exited)
        continue;
      RT.forEachFragment([&](const Fragment &Frag) {
        if (Frag.FragKind == Fragment::Kind::BasicBlock)
          Built.Blocks.push_back({M.get(), Frag.Tag, MaxBlockInstrs});
      });
      Built.Machines.push_back(std::move(M));
    }
    return Built;
  }();
  return C;
}

struct LevelResult {
  double NsPerBlock = 0;
  double BytesPerBlock = 0;
  bool Valid = false;
};
LevelResult Results[5];

/// Decode-then-encode every harvested block at \p Level once.
/// Returns total arena bytes used.
size_t decodeEncodeAll(LiftLevel Level, Arena &A) {
  size_t Bytes = 0;
  uint8_t Out[4096];
  for (const BlockRef &B : corpus().Blocks) {
    A.reset();
    InstrList IL(A);
    bool Ok = liftBlock(IL, B.M->mem(), B.M->runtimeBase(), B.Tag,
                        B.MaxInstrs, Level);
    if (!Ok)
      continue;
    EmitResult Placement;
    emitInstrList(IL, B.Tag, Out, sizeof(Out), /*AllowShortBranches=*/false,
                  Placement);
    benchmark::DoNotOptimize(Out[0]);
    Bytes += A.bytesUsed() + sizeof(InstrList);
  }
  return Bytes;
}

void BM_DecodeEncode(benchmark::State &State) {
  auto Level = LiftLevel(State.range(0));
  Arena A(1u << 16);
  size_t Bytes = 0;
  for (auto _ : State)
    Bytes = decodeEncodeAll(Level, A);
  size_t NumBlocks = corpus().Blocks.size();
  State.SetItemsProcessed(int64_t(State.iterations()) * int64_t(NumBlocks));
  LevelResult &R = Results[int(Level)];
  R.BytesPerBlock = double(Bytes) / double(NumBlocks);
  R.Valid = true;
}

} // namespace

BENCHMARK(BM_DecodeEncode)
    ->Arg(int(LiftLevel::Bundle0))
    ->Arg(int(LiftLevel::Raw1))
    ->Arg(int(LiftLevel::Opcode2))
    ->Arg(int(LiftLevel::Decoded3))
    ->Arg(int(LiftLevel::Synth4))
    ->Unit(benchmark::kMicrosecond);

int main(int argc, char **argv) {
  ::benchmark::Initialize(&argc, argv);

  // Timed pass (google-benchmark measures the loop; we derive per-block
  // time from a separate calibrated run for the summary table).
  ::benchmark::RunSpecifiedBenchmarks();

  // Per-block timing for the summary table.
  OutStream &OS = outs();
  size_t NumBlocks = corpus().Blocks.size();
  OS.printf("\nTable 2: decode-then-encode of %zu basic blocks "
            "(%zu workloads)\n\n",
            NumBlocks, allWorkloads().size());
  OS.printf("%5s %14s %16s\n", "Level", "Time (us)", "Memory (bytes)");
  Arena A(1u << 16);
  for (int Level = 0; Level <= 4; ++Level) {
    // Calibrated timing: repeat until ~20ms elapsed.
    auto Start = std::chrono::steady_clock::now();
    unsigned Reps = 0;
    do {
      decodeEncodeAll(LiftLevel(Level), A);
      ++Reps;
    } while (std::chrono::steady_clock::now() - Start <
             std::chrono::milliseconds(20));
    auto End = std::chrono::steady_clock::now();
    double Ns =
        double(std::chrono::duration_cast<std::chrono::nanoseconds>(End -
                                                                     Start)
                   .count()) /
        double(Reps) / double(NumBlocks);
    double Bytes = Results[Level].Valid ? Results[Level].BytesPerBlock : 0;
    if (!Results[Level].Valid) {
      size_t Total = decodeEncodeAll(LiftLevel(Level), A);
      Bytes = double(Total) / double(NumBlocks);
    }
    OS.printf("%5d %14.3f %16.2f\n", Level, Ns / 1000.0, Bytes);
  }
  OS.printf("\nShape checks: time(4) >> time(3) (full encode vs raw copy); "
            "memory jumps at levels 1 and 3.\n");
  return 0;
}
