#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/clock.h"
#include "serve/json.h"
#include "support/thread_pool.h"

namespace skewbench {

namespace json = skewopt::serve::json;
using skewopt::obs::Tracer;

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

// ---------------------------------------------------------------------------

TraceSession::TraceSession()
    : since_ns_(skewopt::obs::nowNs()),
      dropped_before_(Tracer::global().droppedSpans()) {}

void TraceSession::collect(Report& report) {
  events_ = Tracer::global().collect(since_ns_);
  const std::uint64_t dropped =
      Tracer::global().droppedSpans() - dropped_before_;
  if (dropped > 0)
    report.fail("trace rings dropped " + std::to_string(dropped) +
                " spans; raise SKEWOPT_TRACE_CAPACITY");
}

double TraceSession::totalMs(const char* name) const {
  std::uint64_t ns = 0;
  for (const skewopt::obs::TraceEvent& e : events_)
    if (std::strcmp(e.name, name) == 0) ns += e.dur_ns;
  return static_cast<double>(ns) / 1e6;
}

void TraceSession::write(const std::string& path, Report& report) const {
  std::string error;
  if (Tracer::global().writeJsonFile(path, since_ns_, &error))
    report.info("spans: " + std::to_string(events_.size()) + " written to " +
                path);
  else
    report.info("trace not written: " + error);
}

TracingOn::TracingOn(bool on) : on_(on) {
  if (on_) Tracer::global().start();
}

TracingOn::~TracingOn() {
  if (on_) Tracer::global().stop();
}

// ---------------------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, unit, std::isfinite(value) ? value : 0.0});
}

void Report::info(const std::string& line) { info_.push_back(line); }

void Report::fail(const std::string& why) {
  ++failed_;
  failures_.push_back(why);
}

void Report::print() const {
  for (const std::string& line : info_) std::printf("%s\n", line.c_str());
  for (const std::string& f : failures_)
    std::printf("FAILED: %s\n", f.c_str());
  json::Value metrics = json::Value::object();
  for (const Metric& m : metrics_) {
    json::Value entry = json::Value::object();
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    std::printf("  %-36s = %s %s\n", m.name.c_str(),
                json::dump(m.value).c_str(), m.unit.c_str());
    metrics.set(m.name, std::move(entry));
  }
  json::Value result = json::Value::object();
  result.set("correct", ok());
  result.set("attempted", std::max<std::size_t>(attempted_, 1));
  result.set("failed", failed_);
  result.set("metrics", std::move(metrics));
  std::printf("%s\n", json::dump(result).c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------

RegistryDelta::RegistryDelta(const skewopt::obs::Snapshot& before,
                             const skewopt::obs::Snapshot& after) {
  using skewopt::obs::MetricKind;
  const auto fold = [&](const skewopt::obs::Snapshot& snap, double sign) {
    for (const skewopt::obs::MetricSample& s : snap) {
      if (s.kind == MetricKind::kGauge) continue;
      auto& [c, v] = d_[s.name];
      c += sign * static_cast<double>(s.count);
      if (s.kind == MetricKind::kHistogram) v += sign * s.value;
    }
  };
  fold(after, 1.0);
  fold(before, -1.0);
}

double RegistryDelta::count(const std::string& name) const {
  const auto it = d_.find(name);
  return it != d_.end() ? it->second.first : 0.0;
}

double RegistryDelta::sum(const std::string& name) const {
  const auto it = d_.find(name);
  return it != d_.end() ? it->second.second : 0.0;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string environmentJson(const Args& args, std::size_t shards,
                            std::size_t workers) {
  json::Value env = json::Value::object();
  env.set("workload", args.workload);
  env.set("seed", args.seed);
  env.set("trace", args.trace);
  env.set("nproc",
          static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  env.set("pool_threads", skewopt::support::ThreadPool::shared().size());
  env.set("shards", shards);
  env.set("workers_per_shard", workers);
  env.set("compiler", SKEWBENCH_COMPILER);
  env.set("build_type", SKEWBENCH_BUILD_TYPE);
  env.set("cxx_flags", SKEWBENCH_CXX_FLAGS);
  env.set("commit", args.commit);
  return json::dump(env);
}

std::string buildRefusal() {
  const std::string type = SKEWBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo")
    return "build type '" + type +
           "' is not optimized; configure with CMAKE_BUILD_TYPE=RelWithDebInfo";
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    SKEWBENCH_SANITIZED
  return "sanitizer build; timings would not describe the program";
#else
  return "";
#endif
}

void checkCountsRepeat(
    const Args& args, const std::vector<std::pair<std::string, double>>& counts,
    Report& report) {
  const std::string path = args.out_dir + "/counts_" + args.workload + "_" +
                           std::to_string(args.seed) + "_" + args.commit +
                           ".json";
  json::Value earlier = json::Value::object();
  {
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    if (in && !text.str().empty()) earlier = json::parse(text.str());
  }
  std::size_t differing = 0;
  json::Value now = json::Value::object();
  for (const auto& [name, value] : counts) {
    now.set(name, value);
    const json::Value* was = earlier.find(name);
    if (was != nullptr && was->asDouble() != value) {
      ++differing;
      report.info("count-repeat FLAG " + name + ": " + json::dump(value) +
                  " now, " + json::dump(*was) + " in an earlier run");
    }
  }
  if (earlier.members().empty()) {
    std::ofstream(path) << json::dump(now) << '\n';
    report.info("count-repeat: recorded " + std::to_string(counts.size()) +
                " counts to " + path);
  } else if (differing == 0) {
    report.info("count-repeat OK: " + std::to_string(counts.size()) +
                " counts equal an earlier run (" + path + ")");
  }
}

}  // namespace skewbench
