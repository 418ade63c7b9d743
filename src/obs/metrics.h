// Metrics registry: named counters, gauges, and fixed-bucket histograms
// with lock-free atomic updates, snapshots for exact test assertions, and
// Prometheus text-format exposition.
//
// Update discipline: every mutation first checks the process-wide enable
// flag — one relaxed atomic load — and is a no-op while metrics are
// disabled, so fully-instrumented hot paths cost nothing measurable by
// default (the <1% bench_kernels budget of docs/observability.md).
// Instrument sites bind their metric once through a function-local static
// reference:
//
//   static obs::Counter& solves =
//       obs::MetricsRegistry::global().counter("skewopt_lp_solves_total");
//   solves.add();
//
// so after the first call there is no registry lookup and no lock on the
// path — just the enable check and a relaxed fetch_add.
//
// Snapshots are taken under the registry lock, ordered by metric name
// (std::map), and value-comparable: with a fake clock injected
// (obs/clock.h) the duration-valued histograms are deterministic too, and
// a serial and a parallel run of the same deterministic algorithm produce
// equal snapshots (asserted by obs_test).
//
// The metric catalog — every stable name the library emits — lives in
// docs/observability.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "support/thread_annotations.h"

namespace skewopt::obs {

namespace detail {
extern std::atomic<bool> g_metrics_enabled;

/// Shortest decimal that round-trips `v` (Go-style; "+Inf"/"-Inf"/"NaN").
/// Shared by the Prometheus and trace-JSON writers.
std::string formatDouble(double v);
}  // namespace detail

/// One relaxed load; the guard on every metric mutation.
inline bool metricsOn() {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}

/// Enables/disables all metric updates process-wide. Reads (value(),
/// snapshot()) always work.
void setMetricsEnabled(bool on);

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (metricsOn()) v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Point-in-time level (queue depths, entry counts).
class Gauge {
 public:
  void set(double v) {
    if (metricsOn()) v_.store(v, std::memory_order_relaxed);
  }
  void add(double d);  ///< CAS loop (atomic<double>::fetch_add is C++20-iffy)
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram. Bucket bounds are inclusive upper bounds in
/// ascending order; an implicit +Inf bucket catches the rest. Buckets are
/// stored non-cumulative internally and accumulated at snapshot time.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Non-cumulative count of bucket `i` (i == bounds().size() is +Inf).
  std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  void reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Default bucket bounds for millisecond-valued latency histograms:
/// 10 us to 60 s, so multi-second stage, LP-solve and job samples land in a
/// finite bucket rather than +Inf.
std::vector<double> defaultMsBuckets();

enum class MetricKind { kCounter, kGauge, kHistogram };
const char* metricKindName(MetricKind k);

/// One label set of a labeled metric family, in emission order. Label
/// names must match [a-zA-Z_][a-zA-Z0-9_]*; values may be any UTF-8 (they
/// are escaped on exposition). Per-shard serve metrics
/// (skewopt_cluster_*{shard="N"}) are the first user — see
/// docs/observability.md.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

/// Deterministic `k="v",k2="v2"` rendering (Prometheus label syntax,
/// values escaped). Throws std::logic_error on an invalid label name.
std::string renderLabels(const LabelSet& labels);

/// One metric's state at snapshot time. Comparable for exact assertions.
struct MetricSample {
  std::string name;
  /// Rendered label set (`shard="0"`), empty for unlabeled metrics.
  std::string labels;
  MetricKind kind = MetricKind::kCounter;
  std::string help;
  std::uint64_t count = 0;  ///< counter value / histogram observation count
  double value = 0.0;       ///< gauge value / histogram sum
  /// Histogram only: (upper bound, cumulative count), +Inf last.
  std::vector<std::pair<double, std::uint64_t>> buckets;

  friend bool operator==(const MetricSample&, const MetricSample&) = default;
};

using Snapshot = std::vector<MetricSample>;

class MetricsRegistry {
 public:
  /// The process-wide registry every instrument site uses.
  static MetricsRegistry& global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates a metric. Returned references stay valid for the
  /// registry's lifetime. Throws std::logic_error when the name is invalid
  /// ([a-zA-Z_:][a-zA-Z0-9_:]*) or already registered with another kind
  /// (or, for histograms, other bounds).
  Counter& counter(const std::string& name, const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& help = "");
  Histogram& histogram(const std::string& name, std::vector<double> bounds,
                       const std::string& help = "");

  /// Labeled variants: one family name, one child per label set. Kind
  /// consistency is enforced across the whole family (labeled and
  /// unlabeled children alike); help text is taken from the first
  /// registration. Children are distinct metrics — the registry never
  /// aggregates across label sets.
  Counter& counter(const std::string& name, const LabelSet& labels,
                   const std::string& help = "");
  Gauge& gauge(const std::string& name, const LabelSet& labels,
               const std::string& help = "");
  Histogram& histogram(const std::string& name, const LabelSet& labels,
                       std::vector<double> bounds,
                       const std::string& help = "");

  /// All metrics, ordered by (name, labels) so a labeled family's
  /// children stay contiguous. Deterministic given deterministic updates
  /// (inject a fake clock to pin duration-valued metrics).
  Snapshot snapshot() const;

  /// Zeroes every registered metric (registration survives). Test hook.
  void reset();

 private:
  struct Entry {
    std::string name;    ///< family name (no labels)
    std::string labels;  ///< rendered label set, empty when unlabeled
    MetricKind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& findOrCreate(const std::string& name, const LabelSet& labels,
                      MetricKind kind, const std::string& help)
      SKEWOPT_REQUIRES(mu_);

  mutable support::Mutex mu_;
  /// Keyed by name + rendered labels (unique per child).
  std::map<std::string, Entry> metrics_ SKEWOPT_GUARDED_BY(mu_);
  /// Family name -> kind, so labeled and unlabeled children of one family
  /// cannot disagree on the TYPE line.
  std::map<std::string, MetricKind> family_kind_ SKEWOPT_GUARDED_BY(mu_);
};

/// Prometheus text exposition format (version 0.0.4): HELP/TYPE comments
/// (once per family), `_bucket{le="..."}`/`_sum`/`_count` series per
/// histogram, label sets rendered in `{...}`. Deterministic for a given
/// snapshot; ends with a newline.
std::string prometheusText(const Snapshot& snap);

}  // namespace skewopt::obs
