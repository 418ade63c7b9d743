// The benchmark's workloads. Each fills a Values map with the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run); every
// workload reports every metric of the set, zero where its layer does no
// work.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace skewbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The metric sets, in print order; BENCHMARK.json lists the same names.
extern const std::vector<MetricDef> kEndToEnd;
extern const std::vector<MetricDef> kPerLayer;

using Values = std::map<std::string, double>;

/// serve_eco's cluster shape, shards x workers within the 4 cores the
/// benchmark is sized for. One shard: with two shards of two workers, hash
/// routing put bursts of cold jobs on one shard's two workers.
inline constexpr std::size_t kShards = 1;
inline constexpr std::size_t kWorkersPerShard = 4;

/// Reports every metric of `defs` (absent ones as 0). Throws
/// std::logic_error when `values` holds a name outside `defs`.
void emitMetrics(const std::vector<MetricDef>& defs, const Values& values,
                 Report& report);

/// `table5` and `local_2k`.
Values runFlowWorkload(const Args& args, Report& report);

/// `serve_eco`.
Values runServeWorkload(const Args& args, Report& report);

}  // namespace skewbench
