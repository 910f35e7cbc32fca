//===- support/Metrics.h - Typed metrics registry and exporters ------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Production telemetry over the interned statistics layer: a typed
/// registry (counters, gauges, log2 histograms) that can take cheap
/// point-in-time snapshots of a running fleet — one warmed template plus N
/// forked tenants, or a single runtime — and export them as Prometheus
/// text exposition, JSON, or a self-contained flight-record post-mortem.
///
/// The registry is strictly *pull-based*: nothing here is on any hot path.
/// Sources register once (a StatisticSet pointer, a gauge callback); a
/// snapshot reads them on demand. Like the event ring and the sampling
/// profiler, the whole layer is host-side only — it never charges
/// simulated cycles, so a metered run is bit-identical to an unmetered
/// one (asserted by tests/metrics_test.cpp and bench_observability).
///
/// Determinism rules (what makes exports byte-comparable across runs):
///   - metric names within a section are emitted in sorted order;
///   - sections (tenants) are emitted in registration order;
///   - histograms are emitted in name order;
///   - values are simulated-clock or counter state, never host time.
///
/// The fleet rollup is *computed*, not sampled: the fleet value of every
/// counter is the exact integer sum of the per-source values in the same
/// snapshot, so "tenant sections sum to the fleet section" is an identity
/// the exporters preserve and CI re-checks.
///
//===----------------------------------------------------------------------===//

#ifndef RIO_SUPPORT_METRICS_H
#define RIO_SUPPORT_METRICS_H

#include "support/Histogram.h"

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace rio {

class EventTrace;
class OutStream;
class SampleProfile;
class StatisticSet;

/// Prometheus-style metric type. Counters are monotonically nondecreasing
/// between snapshots of one run; gauges can move both ways.
enum class MetricKind : uint8_t { Counter, Gauge };

const char *metricKindName(MetricKind Kind); ///< "counter" / "gauge"

/// One named value inside a snapshot section.
struct MetricValue {
  std::string Name;
  MetricKind Kind = MetricKind::Counter;
  uint64_t Value = 0;
  /// Change since the previous snapshot taken from the same registry
  /// (equals Value on the first snapshot). Fleet-level only; per-tenant
  /// sections carry raw values.
  uint64_t Delta = 0;
};

/// One attribution section: everything a single source (tenant, template,
/// or standalone runtime) contributed.
struct MetricSection {
  std::string Label; ///< e.g. "tenant0", "template", "main"
  std::vector<MetricValue> Values; ///< sorted by name
};

/// A captured log2 histogram (support/Histogram.h) by value, so the
/// snapshot stays valid after its source moves on.
struct MetricHistogram {
  std::string Name;
  uint64_t Count = 0;
  uint64_t Sum = 0;
  uint64_t Max = 0;
  /// Non-empty buckets only: {inclusive lo, inclusive hi, count}.
  struct Bucket {
    uint64_t Lo, Hi, N;
  };
  std::vector<Bucket> Buckets;
};

/// A point-in-time capture of every registered metric. Plain data: copying
/// or keeping it costs nothing to the runtimes it was taken from.
struct MetricSnapshot {
  uint64_t Sequence = 0; ///< 1-based snapshot number within the registry
  uint64_t Cycles = 0;   ///< max simulated "cycles" metric across sources
  std::vector<MetricValue> Fleet;        ///< rollup, sorted by name
  std::vector<MetricSection> Sections;   ///< per-source, registration order
  std::vector<MetricHistogram> Histograms; ///< sorted by name

  /// Fleet-level value by name (null if absent).
  const MetricValue *fleet(const std::string &Name) const;
  /// Section by label (null if absent).
  const MetricSection *section(const std::string &Label) const;
  /// Value inside one section (null if absent).
  static const MetricValue *find(const MetricSection &S,
                                 const std::string &Name);
};

/// See file comment. Lifetime: the registry holds raw pointers/callbacks
/// into its sources, so every registered StatisticSet, Histogram, and
/// gauge closure must outlive the registry (or at least its last
/// snapshot() call).
class MetricsRegistry {
public:
  using SourceId = uint32_t;

  /// Registers an attribution section. Labels should be unique; sections
  /// appear in snapshots in registration order.
  SourceId addSource(const std::string &Label);

  /// Attaches every counter of \p Set to \p Src (kind Counter). The set is
  /// walked at snapshot time, so counters interned after this call are
  /// still picked up. Multiple sets on one source sum per name.
  void addCounters(SourceId Src, const StatisticSet *Set);

  /// Function-backed monotonic counter (e.g. the machine's cycle clock).
  void addCounter(SourceId Src, const std::string &Name,
                  std::function<uint64_t()> Read);

  /// Function-backed gauge (e.g. live private pages, pending jobs).
  void addGauge(SourceId Src, const std::string &Name,
                std::function<uint64_t()> Read);

  /// Attaches a distribution histogram (fleet-level; snapshots copy it).
  /// Idempotent per name: re-registering an already-known name is a no-op,
  /// so every runtime of a fleet may register the shared profiler's
  /// histograms without duplicating series.
  void addHistogram(const std::string &Name, const Histogram *H);

  /// Takes a snapshot: reads every source, computes the fleet rollup and
  /// the delta against the previous snapshot, and advances the sequence
  /// number. Purely host-side.
  MetricSnapshot snapshot();

  uint64_t snapshotsTaken() const { return Seq; }

private:
  struct FnMetric {
    std::string Name;
    MetricKind Kind;
    std::function<uint64_t()> Read;
  };
  struct Source {
    std::string Label;
    std::vector<const StatisticSet *> Sets;
    std::vector<FnMetric> Fns;
  };
  std::vector<Source> Sources;
  std::vector<std::pair<std::string, const Histogram *>> Histograms;
  /// Name -> kind, fixed at first registration (StatisticSet counters are
  /// Counter). Keeps one name from flip-flopping between types.
  std::map<std::string, MetricKind> Kinds;
  /// Previous fleet values, for Delta.
  std::map<std::string, uint64_t> PrevFleet;
  uint64_t Seq = 0;
};

//===----------------------------------------------------------------------===//
// Exporters (all byte-deterministic for a deterministic snapshot)
//===----------------------------------------------------------------------===//

/// Prometheus text exposition format, version 0.0.4: one `# TYPE` line per
/// metric family, the fleet value unlabeled, one `{tenant="label"}` sample
/// per section, histograms as cumulative `_bucket{le=...}` series plus
/// `_sum` / `_count`. \p Prefix namespaces every family name.
void writePrometheus(OutStream &OS, const MetricSnapshot &S,
                     const char *Prefix = "riodyn_");

/// JSON export of one snapshot: sequence/cycles, the fleet section with
/// kind/value/delta per metric, per-tenant sections, and histograms.
void writeMetricsJson(OutStream &OS, const MetricSnapshot &S);

/// The flight recorder: one self-contained JSON post-mortem holding the
/// trigger reason, a full metric snapshot, the last \p LastN retained
/// trace events (with dropped-event accounting), and the top-\p TopK
/// profile entries. \p Trace and \p Prof may be null; their sections are
/// emitted empty. Written atomically by callers in the sense that the
/// whole document is produced in one pass over consistent state.
void writeFlightRecord(OutStream &OS, const char *Reason,
                       const MetricSnapshot &S, const EventTrace *Trace,
                       const SampleProfile *Prof, size_t LastN = 256,
                       size_t TopK = 10);

/// Appends \p In to \p Out as a JSON string literal (quotes included),
/// escaping quotes, backslashes and control characters.
void appendJsonString(std::string &Out, const std::string &In);

} // namespace rio

#endif // RIO_SUPPORT_METRICS_H
