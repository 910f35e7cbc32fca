//===- bench/BenchCommon.h - Shared bench harness pieces ----------*- C++ -*-===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the bench binaries share: the host clock, a fatal-error exit, the
/// named-workload lookup, and the one result-row writer.
///
/// A result file is a JSON array with one object per line and one object
/// per configuration: {"config": name, field: value, ...}, fields in the
/// order they were added. scripts/bench_compare.py checks it against the
/// checked-in bench/BENCH_<x>.baseline.json (see "Compare rule" in
/// README.md).
///
//===----------------------------------------------------------------------===//

#ifndef RIO_BENCH_BENCHCOMMON_H
#define RIO_BENCH_BENCHCOMMON_H

#include "harness/Experiment.h"
#include "support/OutStream.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace rio::bench {

/// Host monotonic clock in nanoseconds.
inline uint64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Reports \p Msg and aborts.
[[noreturn]] inline void die(const std::string &Msg) {
  errs().printf("bench: %s\n", Msg.c_str());
  std::abort();
}

/// The registry workload \p Name assembled at \p Scale (its default scale
/// if <= 0); dies if no workload has that name.
inline Program workloadProgram(const char *Name, int Scale = 0) {
  const Workload *W = findWorkload(Name);
  if (!W)
    die(std::string("unknown workload ") + Name);
  return buildWorkload(*W, Scale);
}

/// One result row: a config name plus ordered integer or string fields.
class Row {
public:
  using Value = std::variant<uint64_t, std::string>;

  explicit Row(std::string Config) : Config(std::move(Config)) {}

  Row &add(const char *Key, uint64_t V) {
    Fields.emplace_back(Key, V);
    return *this;
  }
  Row &add(const char *Key, std::string V) {
    Fields.emplace_back(Key, std::move(V));
    return *this;
  }

  const std::string &config() const { return Config; }

  /// The integer field \p Key; dies if the row has none.
  uint64_t get(const char *Key) const {
    for (const auto &[K, V] : Fields)
      if (K == Key && std::holds_alternative<uint64_t>(V))
        return std::get<uint64_t>(V);
    die(Config + ": no integer field " + Key);
  }

  /// Appends this row as one JSON object (no trailing comma or newline).
  void print(std::FILE *F) const {
    std::fprintf(F, "  {\"config\": \"%s\"", Config.c_str());
    for (const auto &[K, V] : Fields) {
      if (const auto *N = std::get_if<uint64_t>(&V))
        std::fprintf(F, ", \"%s\": %llu", K.c_str(), (unsigned long long)*N);
      else
        std::fprintf(F, ", \"%s\": \"%s\"", K.c_str(),
                     std::get<std::string>(V).c_str());
    }
    std::fprintf(F, "}");
  }

private:
  std::string Config;
  std::vector<std::pair<std::string, Value>> Fields;
};

/// Writes \p Rows to \p Path as a JSON array, one row per line, and says
/// so on stdout; dies if the file cannot be written.
inline void writeRows(const char *Path, const std::vector<Row> &Rows) {
  std::FILE *F = std::fopen(Path, "w");
  if (!F)
    die(std::string("cannot write ") + Path);
  std::fprintf(F, "[\n");
  for (size_t Idx = 0; Idx != Rows.size(); ++Idx) {
    Rows[Idx].print(F);
    std::fprintf(F, Idx + 1 == Rows.size() ? "\n" : ",\n");
  }
  std::fprintf(F, "]\n");
  std::fclose(F);
  outs().printf("wrote %s\n", Path);
}

} // namespace rio::bench

#endif // RIO_BENCH_BENCHCOMMON_H
