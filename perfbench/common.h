// Shared plumbing of the skewopt end-to-end benchmark: arguments, span
// totals, the result report, registry deltas and the environment stamp.
// See perfbench/NOTES.md for the workloads.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace skewbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string out_dir = ".";     ///< trace JSON and count files go here
  std::string commit = "unknown";
};

/// splitmix64 of (seed, stream): seeds the serve_eco stream generator, so
/// one --seed fixes a run's request order and due times.
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream);

double median(std::vector<double> v);
/// Nearest-rank percentile (p in [0,1]) of an unsorted sample.
double percentile(std::vector<double> v, double p);

class Report;

/// The spans a traced run records: benchmark-side obs::Span scopes (named
/// "bench.*") around calls into the library's public functions, plus the
/// library's own spans, all in obs::Tracer::global(). The untraced run
/// never starts the tracer, so its spans cost one relaxed load.
class TraceSession {
 public:
  TraceSession();  ///< marks the start of the collection window

  /// Sum of the durations of every span called `name`, ms.
  double totalMs(const char* name) const;
  std::size_t size() const { return events_.size(); }
  /// Reads the spans recorded since construction; fails one operation in
  /// `report` when the trace rings dropped any.
  void collect(Report& report);
  /// Writes the window as Chrome trace JSON (obs::Tracer::writeJsonFile).
  void write(const std::string& path, Report& report) const;

 private:
  std::uint64_t since_ns_;
  std::uint64_t dropped_before_;
  std::vector<skewopt::obs::TraceEvent> events_;
};

/// Turns the global tracer on for a scope (refcounted start/stop).
class TracingOn {
 public:
  explicit TracingOn(bool on);
  ~TracingOn();
  TracingOn(const TracingOn&) = delete;
  TracingOn& operator=(const TracingOn&) = delete;

 private:
  bool on_;
};

/// The run's outcome: metrics in print order, operation accounting and
/// the failures behind any `failed` count.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void info(const std::string& line);  ///< human-readable line, not a metric
  void attempt(std::size_t n = 1) { attempted_ += n; }
  void fail(const std::string& why);   ///< one failed operation
  bool ok() const { return failed_ == 0; }
  /// Prints the info lines, one "name = value unit" line per metric and,
  /// last, the one-line JSON result.
  void print() const;

 private:
  struct Metric {
    std::string name, unit;
    double value;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> info_;
  std::vector<std::string> failures_;
  std::size_t attempted_ = 0, failed_ = 0;
};

/// Registry values between two snapshots.
class RegistryDelta {
 public:
  RegistryDelta(const skewopt::obs::Snapshot& before,
                const skewopt::obs::Snapshot& after);
  /// Counter delta (or histogram observation-count delta), summed over
  /// every label set of the family.
  double count(const std::string& name) const;
  /// Histogram sum delta, summed over label sets.
  double sum(const std::string& name) const;

 private:
  std::map<std::string, std::pair<double, double>> d_;  ///< name -> (count, sum)
};

/// Peak resident set size of this process, MiB.
double peakRssMb();

/// nproc, pool size, compiler, build type and commit, one JSON object.
std::string environmentJson(const Args& args, std::size_t shards,
                            std::size_t workers);

/// Non-empty when this binary is not an optimized, uninstrumented build —
/// the benchmark then refuses to report.
std::string buildRefusal();

/// Records `counts` (name -> value) for this workload, seed and commit
/// under out_dir, or, when an earlier traced run recorded them, flags as
/// info lines every count that differs.
void checkCountsRepeat(
    const Args& args, const std::vector<std::pair<std::string, double>>& counts,
    Report& report);

}  // namespace skewbench
