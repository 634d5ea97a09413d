#include <algorithm>
#include <atomic>
#include <filesystem>
#include <optional>
#include <thread>

#include "common/metrics.h"
#include "core/incremental.h"
#include "core/linkage_engine.h"
#include "corpus.h"
#include "storage/snapshot_store.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Runs per batch job: the per-pair job takes about a second on the serve
// corpus, the edge join a tenth of that.
constexpr int kBatchRuns = 3;
constexpr int kEdgeJoinRuns = 5;

}  // namespace

void ParallelFor(size_t n, int threads, const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < std::max(1, threads); ++t) {
    pool.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& thread : pool) thread.join();
}

uint64_t RegistryCounter(const char* name) {
  return grouplink::MetricsRegistry::Default().CounterRef(name).Value();
}

double FileBytes(const std::string& path) {
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(bytes);
}

void MeasureBatch(const grouplink::Dataset& dataset,
                  const std::vector<int32_t>& slot_of_group,
                  const std::vector<std::pair<int32_t, int32_t>>& expected_links,
                  const Options& options, Report& report) {
  grouplink::LinkageConfig config = EngineConfig();
  config.num_threads = options.nproc;
  for (const bool edge_join : {false, true}) {
    config.use_edge_join = edge_join;
    // Each job runs several times; the median wall time is reported and
    // the last run's report feeds the layer metrics.
    std::vector<double> wall_s;
    std::optional<grouplink::LinkageResult> last;
    for (int i = 0; i < (edge_join ? kEdgeJoinRuns : kBatchRuns); ++i) {
      const Clock::time_point start = Clock::now();
      auto engine = grouplink::LinkageEngine::Create(&dataset, config);
      if (!engine.ok()) {
        report.Check(false, "LinkageEngine::Create: " + engine.status().ToString());
        return;
      }
      last.emplace(engine->Run());
      wall_s.push_back(SecondsSince(start));
    }
    const grouplink::LinkageResult& result = *last;
    const double seconds = Median(wall_s);

    std::vector<std::pair<int32_t, int32_t>> links;
    for (const auto& [a, b] : result.linked_pairs) {
      const int32_t x = slot_of_group[static_cast<size_t>(a)];
      const int32_t y = slot_of_group[static_cast<size_t>(b)];
      links.emplace_back(std::min(x, y), std::max(x, y));
    }
    std::sort(links.begin(), links.end());
    const grouplink::RunReport& run = result.report();
    report.Check(links == expected_links,
                 std::string(edge_join ? "edge-join" : "per-pair") +
                     " batch link set differs from the served link set (" +
                     std::to_string(links.size()) + " vs " +
                     std::to_string(expected_links.size()) + " links)");
    if (!edge_join) {
      report.Set("batch_s", seconds);
      report.Set("core.engine.prepare_s", run.StageSeconds("prepare"));
      report.Set("core.engine.candidates_s", run.StageSeconds("candidates"));
      report.Set("core.engine.score_s", run.StageSeconds("score"));
      report.Set("core.engine.record_pairs",
                 static_cast<double>(run.StageCounter("candidates", "record_pairs")));
      report.Set("core.engine.group_pairs",
                 static_cast<double>(run.StageCounter("candidates", "group_pairs")));
      report.Set("core.engine.empty_graphs",
                 static_cast<double>(run.StageCounter("score", "empty_graphs")));
      report.Meta("simd_kernel", run.kernel);
      report.Meta("engine_threads", static_cast<double>(run.threads));
      report.Note("batch_links", static_cast<double>(links.size()), "count");
    } else {
      report.Set("batch_edge_join_s", seconds);
      const grouplink::StageStats* join = run.FindStage("join");
      report.Set("core.edge_join.join_s", run.StageSeconds("join"));
      report.Set("core.edge_join.verify_cpu_s", join != nullptr ? join->Timing("verify") : 0.0);
      report.Set("core.edge_join.record_candidates",
                 static_cast<double>(run.StageCounter("join", "record_candidates")));
      report.Set("core.edge_join.edges",
                 static_cast<double>(run.StageCounter("join", "edges")));
    }
  }
}

void MeasureRestart(const grouplink::ServiceConfig& config,
                    const grouplink::GroupArrival& probe,
                    const std::vector<int32_t>& expected, int64_t expected_epoch,
                    const Options& options, Report& report) {
  const int repeats = 15;
  std::vector<double> restart_s;
  for (int i = 0; i < repeats; ++i) {
    std::optional<grouplink::LinkageService> restored;
    const Clock::time_point start = Clock::now();
    auto result = grouplink::LinkageService::Restore(config);
    if (!result.ok()) {
      report.Check(false, "LinkageService::Restore: " + result.status().ToString());
      return;
    }
    restored.emplace(std::move(*result));
    const grouplink::CorpusSnapshot::QueryResult answer = restored->LinkQuery(probe);
    restart_s.push_back(SecondsSince(start));
    report.Check(answer.linked_to == expected && !answer.degraded &&
                     answer.epoch == expected_epoch,
                 "restarted service answered a probe differently");
  }
  report.Note("restart_s", Median(restart_s), "s");

  if (!options.trace) return;
  std::vector<double> load_ms, from_snapshot_ms;
  for (int i = 0; i < 3; ++i) {
    Clock::time_point start = Clock::now();
    auto loaded = grouplink::storage::SnapshotStore::Load(config.persist_path);
    if (!loaded.ok()) {
      report.Check(false, "SnapshotStore::Load: " + loaded.status().ToString());
      return;
    }
    load_ms.push_back(MsBetween(start, Clock::now()));
    start = Clock::now();
    auto linker = grouplink::IncrementalLinker::FromSnapshot(**loaded);
    from_snapshot_ms.push_back(MsBetween(start, Clock::now()));
    report.Check(linker.ok(), "IncrementalLinker::FromSnapshot failed");
  }
  report.Set("storage.load_ms", Median(load_ms));
  report.Set("core.from_snapshot_ms", Median(from_snapshot_ms));
}

void MeasureTraceOverhead(const std::function<void(int64_t i)>& query, int64_t n,
                          Report& report) {
  SpanLog& log = SpanLog::Get();
  const bool was_enabled = log.enabled();
  std::vector<double> off_ms, on_ms;
  for (const bool on : {false, true, true, false}) {
    log.set_enabled(on);
    for (int64_t i = 0; i < n; ++i) {
      const Clock::time_point start = Clock::now();
      query(i);
      (on ? on_ms : off_ms).push_back(MsBetween(start, Clock::now()));
    }
  }
  log.set_enabled(was_enabled);
  const double off = Median(off_ms);
  report.Set("bench.trace_overhead_pct", off > 0.0 ? 100.0 * (Median(on_ms) - off) / off : 0.0);
}

}  // namespace perfbench
