// skewbench: the end-to-end benchmark of the skew-variation optimizer.
//
//   skewbench --workload table5|local_2k|serve_eco --seed N --seconds S
//             --trace 0|1 [--out-dir DIR] [--commit SHA]
//
// Prints human-readable lines, then as its last line one JSON object
// {"correct","attempted","failed","metrics"}. perfbench/run.py builds this
// binary and forwards the driver's arguments; NOTES.md describes the
// workloads and the layer -> end-to-end prediction table.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <stdexcept>
#include <string>

#include "workloads.h"

namespace skewbench {

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"solve_s", "s"},
    {"variation_reduction_pct", "%"},
    {"slo_rate_per_s", "1/s"},
};

const std::vector<MetricDef> kPerLayer = {
    {"lp.solve_ms", "ms"},
    {"lp.iterations", "count"},
    {"lp.us_per_iteration", "us"},
    {"lp.cold_iterations", "count"},
    {"lp.warm_iterations", "count"},
    {"lp.warm_to_cold_iter_ratio", "ratio"},
    {"global.run_ms", "ms"},
    {"global.non_lp_ms", "ms"},
    {"local.run_ms", "ms"},
    {"local.rounds", "count"},
    {"local.golden_trials", "count"},
    {"local.accepted_moves", "count"},
    {"local.accept_ratio", "ratio"},
    {"moves.enumerate_ms", "ms"},
    {"predictor.candidates", "count"},
    {"predictor.score_ms", "ms"},
    {"predictor.score_us_per_candidate", "us"},
    {"predictor.candidates_scored", "count"},
    {"predictor.score_share_est", "ratio"},
    {"predictor.hit_ratio", "ratio"},
    {"ml.train_s", "s"},
    {"sta.full_analysis_ms", "ms"},
    {"sta.full_analyses", "count"},
    {"sta.incremental_updates", "count"},
    {"sta.scoped_retimes", "count"},
    {"check.gate_ms", "ms"},
    {"objective.eval_ms", "ms"},
    {"testgen.make_ms", "ms"},
    {"pool.task_wait_ms", "ms"},
    {"cluster.submit_us.p50", "us"},
    {"cluster.submit_us.p95", "us"},
    {"serve.queue_ms.p50", "ms"},
    {"serve.queue_ms.p95", "ms"},
    {"serve.run_ms.p50", "ms"},
    {"serve.run_ms.p95", "ms"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.warm_hit_ratio", "ratio"},
    {"serve.delta_lp_iterations", "count"},
    {"serve.job_p50_ms.light", "ms"},
    {"serve.job_p95_ms.light", "ms"},
    {"serve.job_p50_ms.heavy", "ms"},
    {"serve.job_p95_ms.heavy", "ms"},
    {"gen.late_p95_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.attributed_pct", "%"},
};

void emitMetrics(const std::vector<MetricDef>& defs, const Values& values,
                 Report& report) {
  std::set<std::string> known;
  for (const MetricDef& d : defs) known.insert(d.name);
  for (const auto& [name, value] : values)
    if (known.count(name) == 0)
      throw std::logic_error("metric '" + name + "' is not in the set");
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    report.metric(d.name, it != values.end() ? it->second : 0.0, d.unit);
  }
}

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: skewbench --workload table5|local_2k|serve_eco "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR] "
               "[--commit SHA]\n");
}

bool parseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a->seconds > 0)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else if (k == "--out-dir") {
      a->out_dir = v;
    } else if (k == "--commit") {
      a->commit = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && (a->workload == "table5" ||
                           a->workload == "local_2k" ||
                           a->workload == "serve_eco");
}

}  // namespace
}  // namespace skewbench

int main(int argc, char** argv) {
  using namespace skewbench;
  Args args;
  if (!parseArgs(argc, argv, &args)) {
    usage();
    return 2;
  }
  const std::string refusal = buildRefusal();
  if (!refusal.empty()) {
    std::fprintf(stderr, "skewbench: refusing to report: %s\n",
                 refusal.c_str());
    return 3;
  }
  Report report;
  try {
    const Values values = args.workload == "serve_eco"
                              ? runServeWorkload(args, report)
                              : runFlowWorkload(args, report);
    emitMetrics(args.trace ? kPerLayer : kEndToEnd, values, report);
    const bool serve = args.workload == "serve_eco";
    report.info("env " + environmentJson(args, serve ? kShards : 0,
                                         serve ? kWorkersPerShard : 0));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "skewbench: %s\n", e.what());
    return 1;
  }
  report.print();
  return 0;
}
