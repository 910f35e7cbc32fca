//===- bench/bench_persist.cpp - Persistent code cache warm-start wins -------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures what a persistent code cache buys: each workload runs cold
/// (build everything, then serialize the warmed runtime) and warm (restore
/// the image into a fresh runtime, then run). The bench hard-asserts the
/// subsystem's contract on the simulated clock:
///
///   * a warm start builds nothing (basic_blocks_built == traces_built == 0)
///     and reaches the same output in strictly fewer simulated cycles;
///   * past warm-up, warm execution is bit-identical to cold execution —
///     shown on a data-scaled loop whose code bytes don't change with the
///     iteration count (the bound lives in a data word), so one image
///     serves every scale and the marginal cost of k extra iterations is
///     EXACTLY equal cold vs warm.
///
/// Simulated cycle counts (cold and warm), image sizes and restored
/// fragment counts are exact; bench_compare.py gates them hard. Host
/// wall-clock for save and load is reported informationally only.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "persist/CacheImage.h"

using namespace rio;
using namespace rio::bench;
using namespace rio::persist;

namespace {

/// Cold run + save, warm run from the image, with the contract asserted.
/// \p Image may carry a previously saved image (loaded instead of the one
/// this cold run produces — used by the data-scaled loop); if empty it is
/// filled from this workload's own cold run. The row holds the image size,
/// warm and cold simulated cycles, fragments restored, and host save/load
/// wall clock.
Row measure(const std::string &Name, const Program &Prog,
            std::vector<uint8_t> &Image) {
  Machine Cold;
  if (!loadProgram(Cold, Prog))
    die(Name + ": program too large");
  RuntimeConfig Config = RuntimeConfig::full();
  Runtime ColdRT(Cold, Config);
  RunResult ColdRes = ColdRT.run();
  if (ColdRes.Status != RunStatus::Exited)
    die(Name + ": cold run did not exit");

  std::vector<uint8_t> Saved;
  uint64_t T0 = nowNs();
  if (!CacheCodec::save(ColdRT, Saved))
    die(Name + ": save refused on a finished runtime");
  uint64_t SaveNs = nowNs() - T0;
  if (Image.empty())
    Image = Saved;

  Machine Warm;
  if (!loadProgram(Warm, Prog))
    die(Name + ": program too large");
  Runtime WarmRT(Warm, Config);
  T0 = nowNs();
  LoadStatus St = CacheCodec::load(WarmRT, Image.data(), Image.size());
  uint64_t LoadNs = nowNs() - T0;
  if (St != LoadStatus::Ok)
    die(Name + ": warm image rejected: " + loadStatusName(St));
  uint64_t Fragments = WarmRT.numFragments();

  RunResult WarmRes = WarmRT.run();
  if (WarmRes.Status != RunStatus::Exited)
    die(Name + ": warm run did not exit");
  if (Warm.output() != Cold.output())
    die(Name + ": warm output diverged from cold");
  if (WarmRT.stats().get("basic_blocks_built") != 0 ||
      WarmRT.stats().get("traces_built") != 0)
    die(Name + ": warm start built fragments");
  if (WarmRes.Cycles >= ColdRes.Cycles)
    die(Name + ": warm start was not strictly cheaper");

  Row Out = Row(Name)
                .add("image_bytes", Image.size())
                .add("cycles", WarmRes.Cycles)
                .add("cycles_cold", ColdRes.Cycles)
                .add("fragments", Fragments)
                .add("save_ns", SaveNs)
                .add("load_ns", LoadNs);
  outs().printf("%-14s %12llu %12llu %9llu %11llu %9llu %9llu\n",
                Name.c_str(), (unsigned long long)ColdRes.Cycles,
                (unsigned long long)WarmRes.Cycles,
                (unsigned long long)Fragments,
                (unsigned long long)Image.size(), (unsigned long long)SaveNs,
                (unsigned long long)LoadNs);
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  const char *OutPath = Argc > 1 ? Argv[1] : "BENCH_persist.json";
  OutStream &OS = outs();
  OS.printf("Persistent code caches: cold build-everything vs warm restore\n");
  OS.printf("simulated cycles are exact; warm must be strictly cheaper\n\n");
  OS.printf("%-14s %12s %12s %9s %11s %9s %9s\n", "config", "cycles_cold",
            "cycles_warm", "saved", "img_bytes", "save_ns", "load_ns");

  std::vector<Row> Rows;
  for (const char *Name : {"crafty", "vpr", "gap"}) {
    std::vector<uint8_t> Image;
    Rows.push_back(measure(Name, workloadProgram(Name), Image));
  }

  // Steady-state equivalence: one image (saved at the small scale) serves
  // both scales; the marginal cost of the extra 4096 iterations must be
  // EXACTLY the same cold and warm — the restored caches, head counters
  // and predictor tables place the warm run on the cold run's limit cycle.
  const int K = 4096;
  std::vector<uint8_t> LoopImage;
  Row Small = measure("dataloop_" + std::to_string(K),
                      workloadProgram("dataloop", K), LoopImage);
  Row Big = measure("dataloop_" + std::to_string(2 * K),
                    workloadProgram("dataloop", 2 * K), LoopImage);
  uint64_t ColdMarginal = Big.get("cycles_cold") - Small.get("cycles_cold");
  uint64_t WarmMarginal = Big.get("cycles") - Small.get("cycles");
  OS.printf("\nmarginal cost of %d extra iterations: cold %llu, warm %llu\n",
            K, (unsigned long long)ColdMarginal,
            (unsigned long long)WarmMarginal);
  if (ColdMarginal != WarmMarginal)
    die("steady-state divergence: warm execution is not bit-identical");
  Rows.push_back(std::move(Small));
  Rows.push_back(std::move(Big));

  writeRows(OutPath, Rows);
  return 0;
}
