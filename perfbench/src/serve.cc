// The serve and paged workloads: one corpus, one probe set and one rate
// ladder, answered in RAM through SupervisedService (serve) or out of
// core through StoredCorpus (paged), so comparing the two isolates what
// storage costs on the query path.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>

#include "common/random.h"
#include "core/service.h"
#include "core/snapshot.h"
#include "corpus.h"
#include "load.h"
#include "replay.h"
#include "service/resilience/supervised_service.h"
#include "storage/snapshot_store.h"
#include "storage/stored_corpus.h"
#include "workloads.h"

namespace perfbench {
namespace {

using grouplink::CorpusSnapshot;
using grouplink::GroupArrival;
using grouplink::storage::StoredCorpus;

// p99 limit behind query_max_qps, and the ladder: offered rates as
// multiples of the reference rate, at which query_p50_ms and query_p99_ms
// are taken. The reference rate is about half of what paged sustains, so
// both workloads are measured well short of saturation. The reference
// step runs for 60% of --seconds, the others share the rest; the ladder
// stops after the first step above the reference that misses the limit.
constexpr double kLimitMs = 50.0;
constexpr double kLadder[] = {0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0};
constexpr size_t kReferenceStep = 1;
constexpr double kReferenceShare = 0.6;
constexpr int kWorkers = 3;
constexpr int kSetups = 3;
// Traced run: probes replayed layer by layer, and queries per block of
// the tracing-overhead calibration.
constexpr size_t kReplays = 96;
constexpr int64_t kCalibrationQueries = 32;

void RunServing(const Options& options, Report& report, bool paged) {
  const int32_t records = options.tiny ? 600 : 8000;
  const double reference_qps = options.tiny ? 20.0 : 25.0;
  const ServeCorpus corpus = MakeServeCorpus(records, /*known_share=*/0.7, options.seed);
  report.Meta("corpus", "bibliographic-hard");
  report.Meta("corpus_groups", static_cast<double>(corpus.seed.num_groups()));
  report.Meta("corpus_records", static_cast<double>(corpus.seed.num_records()));
  report.Meta("probes_known", static_cast<double>(corpus.known_probes));
  report.Meta("probes_unseen", static_cast<double>(corpus.unseen_probes));
  report.Meta("workers", static_cast<double>(kWorkers));
  report.Meta("reference_qps", reference_qps);
  report.Meta("p99_limit_ms", kLimitMs);

  // Nothing else runs during set-up, so the writer may use every core;
  // the query path never touches the writer's pool.
  grouplink::ServiceConfig service_config;
  service_config.engine = EngineConfig();
  service_config.engine.num_threads = options.nproc;
  grouplink::resilience::SupervisedConfig supervised;
  supervised.service = service_config;
  const std::string store_path = options.work_dir + "/corpus.store";
  grouplink::storage::StorageOptions storage;

  // --- Set-up, several times; the last one serves. ---
  std::optional<grouplink::resilience::SupervisedService> service;
  std::unique_ptr<StoredCorpus> stored;
  std::shared_ptr<const CorpusSnapshot> snapshot;
  std::vector<double> setup_s, persist_ms, open_ms;
  for (int i = 0; i < kSetups; ++i) {
    service.reset();
    stored.reset();
    snapshot.reset();
    std::optional<grouplink::LinkageService> writer;
    const Clock::time_point start = Clock::now();
    if (!paged) {
      auto created = grouplink::resilience::SupervisedService::Create(corpus.seed, supervised);
      if (!created.ok()) {
        report.Check(false, "SupervisedService::Create: " + created.status().ToString());
        return;
      }
      service.emplace(std::move(*created));
      snapshot = service->inner().snapshot();
    } else {
      auto created = grouplink::LinkageService::Create(corpus.seed, service_config);
      if (!created.ok()) {
        report.Check(false, "LinkageService::Create: " + created.status().ToString());
        return;
      }
      writer.emplace(std::move(*created));
      snapshot = writer->snapshot();
      Clock::time_point t = Clock::now();
      const grouplink::Status persisted =
          grouplink::storage::SnapshotStore::Persist(*snapshot, store_path, storage);
      persist_ms.push_back(MsBetween(t, Clock::now()));
      if (!persisted.ok()) {
        report.Check(false, "SnapshotStore::Persist: " + persisted.ToString());
        return;
      }
      // A pool of about an eighth of the store's pages.
      storage.buffer_pool_pages = std::max<size_t>(
          4, static_cast<size_t>(FileBytes(store_path) / storage.page_bytes / 8));
      t = Clock::now();
      auto opened = StoredCorpus::Open(store_path, storage);
      open_ms.push_back(MsBetween(t, Clock::now()));
      if (!opened.ok()) {
        report.Check(false, "StoredCorpus::Open: " + opened.status().ToString());
        return;
      }
      stored = std::move(*opened);
    }
    setup_s.push_back(SecondsSince(start));
  }
  report.Set("setup_s", Median(setup_s));
  if (paged) {
    report.Set("storage.persist_ms", Median(persist_ms));
    report.Set("storage.open_ms", Median(open_ms));
    report.Meta("store_pages", FileBytes(store_path) / storage.page_bytes);
    report.Meta("pool_pages", static_cast<double>(stored->pool_pages()));
  }

  // Expected answers from the single epoch, before any timing.
  const std::vector<GroupArrival>& probes = corpus.probes;
  std::vector<std::vector<int32_t>> expected(probes.size());
  ParallelFor(probes.size(), options.nproc,
              [&](size_t p) { expected[p] = snapshot->LinkQuery(probes[p]).linked_to; });
  if (options.plant_wrong_answer) expected[0].push_back(-1);
  const int64_t epoch = snapshot->epoch();

  // One query of the workload through its front door, checked.
  const auto serve_query = [&](size_t p, int64_t id) {
    if (!paged) {
      const Span span("service.link_query", id);
      auto r = service->LinkQuery(probes[p]);
      return r.ok() && !r->degraded && r->epoch == epoch &&
             r->linked_to == expected[p];
    }
    const Span span("storage.link_query", id);
    auto r = stored->LinkQuery(probes[p]);
    return r.ok() && !r->degraded && r->epoch == epoch &&
           r->linked_to == expected[p];
  };

  std::vector<size_t> order(probes.size());
  std::iota(order.begin(), order.end(), 0);
  grouplink::Rng rng(options.seed ^ 0x0de5ULL);
  rng.Shuffle(order);

  // --- The rate ladder. ---
  SpanLog::Get().set_enabled(options.trace);
  const uint64_t shed_before = RegistryCounter("service.shed_queries");
  const uint64_t degraded_before = RegistryCounter("service.query_degraded");
  const size_t steps = std::size(kLadder);
  const double other_seconds =
      options.seconds * (1.0 - kReferenceShare) / static_cast<double>(steps - 1);
  double max_qps = 0.0;
  bool failed_step = false;
  std::vector<double> late_ms;
  int64_t next_probe = 0;
  for (size_t k = 0; k < steps && !(failed_step && k > kReferenceStep); ++k) {
    const double rate = reference_qps * kLadder[k];
    const double seconds =
        k == kReferenceStep ? options.seconds * kReferenceShare : other_seconds;
    const int64_t base = next_probe;
    Stream stream;
    stream.rate = rate;
    stream.workers = kWorkers;
    stream.op = [&, base](int64_t seq, Clock::time_point due) {
      const int64_t id = base + seq;
      SpanLog::Get().Add("service.queue", id, due, Clock::now());
      const Span span("request", id);
      return serve_query(order[static_cast<size_t>(id) % order.size()], id);
    };
    const grouplink::storage::BufferStats before =
        paged ? stored->buffer_stats() : grouplink::storage::BufferStats{};
    const StreamResult result = RunOpenLoop({stream}, seconds).front();
    next_probe += result.attempted;
    report.Count(result.attempted, result.failed);
    late_ms.insert(late_ms.end(), result.late_ms.begin(), result.late_ms.end());

    const Tail latency = Summarize(result.latency_ms);
    const bool pass =
        result.failed == 0 && latency.tail <= kLimitMs && result.drain_ms <= kLimitMs;
    char key[64];
    std::snprintf(key, sizeof(key), "ladder.%05.1fqps", rate);
    report.Note(std::string(key) + ".p50", latency.p50, "ms");
    report.Note(std::string(key) + ".tail", latency.tail, "ms");
    report.Note(std::string(key) + ".tail_pct", latency.tail_pct, "%");
    report.Note(std::string(key) + ".achieved", result.achieved_rate, "q/s");
    report.Note(std::string(key) + ".pass", pass ? 1.0 : 0.0, "bool");
    if (!pass) failed_step = true;
    if (pass && !failed_step) max_qps = result.achieved_rate;

    if (k == kReferenceStep) {
      report.Set("query_p50_ms", latency.p50);
      report.Note("query_p99_ms", latency.tail, "ms");
      report.Note("query_tail_pct", latency.tail_pct, "%");
      report.Note("query_samples", static_cast<double>(latency.count), "count");
      report.Set("service.queue_wait_p99_ms", Summarize(result.wait_ms).tail);
      if (paged) {
        const grouplink::storage::BufferStats after = stored->buffer_stats();
        const double q = static_cast<double>(std::max<int64_t>(1, result.attempted));
        const double hits = static_cast<double>(after.hits - before.hits);
        const double misses = static_cast<double>(after.misses - before.misses);
        report.Set("storage.pages_read_per_query", misses / q);
        report.Set("storage.hit_rate", hits + misses > 0 ? hits / (hits + misses) : 0.0);
        report.Set("storage.evictions_per_query",
                   static_cast<double>(after.evictions - before.evictions) / q);
      }
    }
  }
  SpanLog::Get().set_enabled(false);
  report.Note("query_max_qps", max_qps, "q/s");
  report.Set("service.shed_queries",
             static_cast<double>(RegistryCounter("service.shed_queries") - shed_before));
  report.Set("service.query_degraded",
             static_cast<double>(RegistryCounter("service.query_degraded") - degraded_before));
  const double late_p99 = Summarize(late_ms).tail;
  report.Set("bench.generator_late_p99_ms", late_p99);
  if (late_p99 > 5.0) report.Flag("open-loop generator ran late (p99 > 5 ms)");

  // --- Traced run: replay every probe layer by layer on the snapshot. ---
  if (options.trace) {
    SpanLog::Get().set_enabled(true);
    ReplayTotals totals;
    totals.live_groups = snapshot->num_alive_groups();
    std::vector<double> front_ms;
    const size_t replays = std::min<size_t>(kReplays, probes.size());
    for (size_t i = 0; i < replays; ++i) {
      const size_t p = order[i];
      const int64_t id = 1000000 + static_cast<int64_t>(p);
      double snapshot_ms = 0.0, door_ms = 0.0;
      CorpusSnapshot::QueryResult direct;
      const auto time_snapshot = [&] {
        const Span span("replay.snapshot_query", id);
        const Clock::time_point t = Clock::now();
        direct = snapshot->LinkQuery(probes[p]);
        snapshot_ms = MsBetween(t, Clock::now());
      };
      const auto time_door = [&] {
        const Span span("replay.front_door", id);
        const Clock::time_point t = Clock::now();
        const bool ok = serve_query(p, id);
        door_ms = MsBetween(t, Clock::now());
        report.Check(ok, "replayed front-door query answered wrongly");
      };
      // Alternate which call runs first, so neither always finds warm caches.
      if (i % 2 == 0) {
        time_snapshot();
        time_door();
      } else {
        time_door();
        time_snapshot();
      }
      front_ms.push_back(door_ms - snapshot_ms);
      const ReplayCounts counts = ReplayQuery(*snapshot, probes[p], id);
      report.Check(counts.candidates == direct.candidates && counts.linked_to == direct.linked_to,
                   "layer replay disagrees with CorpusSnapshot::LinkQuery");
      totals.Add(counts);
    }
    SetReplayMetrics(totals, report);
    report.Set(paged ? "storage.overhead_ms" : "service.front_door_ms", Median(front_ms));
    MeasureTraceOverhead(
        [&](int64_t i) {
          const int64_t id = 2000000 + i;
          const Span span("request", id);
          report.Check(serve_query(order[static_cast<size_t>(i) % order.size()], id),
                       "calibration query answered wrongly");
        },
        std::min<int64_t>(kCalibrationQueries, static_cast<int64_t>(probes.size())), report);
    SpanLog::Get().set_enabled(false);
    report.Set("bench.spans", static_cast<double>(SpanLog::Get().size()));
  }

  // --- Batch engine over the served corpus, then a warm restart. ---
  std::vector<int32_t> identity(static_cast<size_t>(corpus.seed.num_groups()));
  std::iota(identity.begin(), identity.end(), 0);
  MeasureBatch(corpus.seed, identity, snapshot->linked_pairs(), options, report);

  if (!paged) {
    // The restart fixture: serve does no storage while it serves, so the
    // epoch is persisted only now.
    const Clock::time_point t = Clock::now();
    const grouplink::Status persisted =
        grouplink::storage::SnapshotStore::Persist(*snapshot, store_path, storage);
    report.Set("storage.persist_ms", MsBetween(t, Clock::now()));
    report.Check(persisted.ok(), "SnapshotStore::Persist: " + persisted.ToString());
  }
  report.Set("storage.bytes_per_user_byte",
             FileBytes(store_path) / static_cast<double>(corpus.text_bytes));
  grouplink::ServiceConfig restart_config = service_config;
  restart_config.persist_path = store_path;
  const size_t restart_probe = MedianSizedProbe(probes);
  MeasureRestart(restart_config, probes[restart_probe], expected[restart_probe],
                 epoch, options, report);
  report.Set("peak_rss_mb", PeakRssMb());
}

}  // namespace

void RunServe(const Options& options, Report& report) { RunServing(options, report, false); }

void RunPaged(const Options& options, Report& report) { RunServing(options, report, true); }

}  // namespace perfbench
