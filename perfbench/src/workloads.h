#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/group.h"
#include "core/service.h"
#include "report.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;                // Self-test size: small corpora and rates.
  bool plant_wrong_answer = false;  // Self-test: corrupt one expected answer.
  int nproc = 1;
  std::string work_dir;  // Scratch space of this run; removed at exit.
};

/// In-RAM serving through SupervisedService, no writes.
void RunServe(const Options& options, Report& report);
/// Out-of-core serving through StoredCorpus on a small buffer pool.
void RunPaged(const Options& options, Report& report);
/// Census write stream with async refresh, persistence and a light reader.
void RunIngest(const Options& options, Report& report);

// --- Phases every workload ends with (phases.cc). ---

/// Runs the batch LinkageEngine over `dataset` at `options.nproc` threads,
/// once per-pair (batch_s) and once with the edge join
/// (batch_edge_join_s), and checks both link sets against
/// `expected_links`, the serving link set in slot numbering (dataset
/// group i is slot `slot_of_group[i]`). Sets the core.engine.* and
/// core.edge_join.* layer metrics from each run's RunReport.
void MeasureBatch(const grouplink::Dataset& dataset,
                  const std::vector<int32_t>& slot_of_group,
                  const std::vector<std::pair<int32_t, int32_t>>& expected_links,
                  const Options& options, Report& report);

/// Warm restart from the store at `config.persist_path`, timed until the
/// restarted LinkageService answers `probe` (the restart_s note, median of
/// several),
/// checked against `expected`. The traced run also times the two halves,
/// SnapshotStore::Load and IncrementalLinker::FromSnapshot.
void MeasureRestart(const grouplink::ServiceConfig& config,
                    const grouplink::GroupArrival& probe,
                    const std::vector<int32_t>& expected, int64_t expected_epoch,
                    const Options& options, Report& report);

/// Tracing overhead: times `query` over `n` calls with span recording off
/// and on (off, on, on, off blocks), reports the relative difference of
/// the medians as bench.trace_overhead_pct.
void MeasureTraceOverhead(const std::function<void(int64_t i)>& query, int64_t n,
                          Report& report);

/// Runs fn(0) .. fn(n - 1) on `threads` threads (untimed preparation).
void ParallelFor(size_t n, int threads, const std::function<void(size_t)>& fn);

[[nodiscard]] uint64_t RegistryCounter(const char* name);
[[nodiscard]] double FileBytes(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
