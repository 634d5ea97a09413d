// The ingest workload: a census write stream (adds of the next survey
// wave mixed with removals and merges) against SupervisedService with the
// refresh_every_n_groups policy, async refresh and persist_on_refresh,
// while one light reader queries. Measures arrival latency, how long an
// acknowledged add takes to become visible, and what refresh costs the
// reader; then checks the final link set against the batch engine.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <numeric>
#include <optional>

#include "common/random.h"
#include "core/incremental.h"
#include "core/service.h"
#include "core/snapshot.h"
#include "corpus.h"
#include "load.h"
#include "replay.h"
#include "service/resilience/supervised_service.h"
#include "storage/snapshot_store.h"
#include "workloads.h"

namespace perfbench {
namespace {

using grouplink::CorpusSnapshot;
using grouplink::GroupArrival;
using grouplink::resilience::SupervisedService;

// Set-ups per run: a single-threaded Create of this corpus takes about a
// second, so five fit and steady the median.
constexpr int kSetups = 5;

// A published epoch as the generator thread first saw it.
struct Publication {
  Clock::time_point seen;
  int32_t num_groups = 0;
};

// Applies one stream op through `target` (the service, or a linker
// replaying the same ops); false when the outcome was not the planned one.
template <typename Target>
bool ApplyOp(Target& target, const IngestCorpus& corpus, const IngestOp& op,
             size_t* candidates) {
  switch (op.kind) {
    case IngestOp::Kind::kAdd: {
      const GroupArrival& a = corpus.arrivals[static_cast<size_t>(op.arrival)];
      const auto r = target.AddGroup(a.label, a.record_texts);
      if (candidates != nullptr) *candidates += r.candidates;
      return r.group_index == op.slot && !r.degraded;
    }
    case IngestOp::Kind::kRemove:
      target.RemoveGroup(op.slot);
      return true;
    case IngestOp::Kind::kMerge: {
      const auto r = target.MergeGroups(op.slot, op.from);
      return r.group_index == op.slot && !r.degraded;
    }
  }
  return false;
}

// The live corpus of `snapshot` as a batch dataset (live groups in slot
// order, live records in record-id order), with each dataset group's slot.
grouplink::Dataset LiveDataset(const CorpusSnapshot& snapshot,
                               const std::vector<std::string>& texts,
                               std::vector<int32_t>* slot_of_group) {
  std::vector<int32_t> records;
  for (int32_t g = 0; g < snapshot.num_groups(); ++g) {
    if (!snapshot.IsAlive(g)) continue;
    slot_of_group->push_back(g);
    const auto& members = snapshot.group_records()[static_cast<size_t>(g)];
    records.insert(records.end(), members.begin(), members.end());
  }
  std::sort(records.begin(), records.end());
  std::vector<int32_t> new_id(texts.size(), -1);
  grouplink::Dataset dataset;
  for (const int32_t r : records) {
    new_id[static_cast<size_t>(r)] = static_cast<int32_t>(dataset.records.size());
    grouplink::Record record;
    record.id = "r" + std::to_string(r);
    record.text = texts[static_cast<size_t>(r)];
    dataset.records.push_back(std::move(record));
  }
  for (const int32_t g : *slot_of_group) {
    grouplink::Group group;
    group.id = "g" + std::to_string(g);
    group.label = snapshot.label(g);
    for (const int32_t r : snapshot.group_records()[static_cast<size_t>(g)]) {
      group.record_ids.push_back(new_id[static_cast<size_t>(r)]);
    }
    dataset.groups.push_back(std::move(group));
  }
  return dataset;
}

}  // namespace

void RunIngest(const Options& options, Report& report) {
  const int32_t households = options.tiny ? 120 : 800;
  const double arrival_rate = options.tiny ? 20.0 : 40.0;
  const double reader_rate = options.tiny ? 10.0 : 100.0;
  const int32_t refresh_every = options.tiny ? 12 : 100;
  const int32_t pending = options.tiny ? 4 : 20;  // < refresh_every: no policy refresh.
  const int64_t stream_ops = static_cast<int64_t>(arrival_rate * options.seconds);
  const IngestCorpus corpus =
      MakeIngestCorpus(households, static_cast<int32_t>(stream_ops + pending),
                       /*remove_share=*/0.10, /*merge_share=*/0.05, options.seed);
  if (static_cast<int64_t>(corpus.ops.size()) != stream_ops + pending) {
    report.Check(false, "the second survey wave is too small for the stream");
    return;
  }
  report.Meta("corpus", "households");
  report.Meta("corpus_groups", static_cast<double>(corpus.seed.num_groups()));
  report.Meta("corpus_records", static_cast<double>(corpus.seed.num_records()));
  report.Meta("stream_ops", static_cast<double>(stream_ops));
  report.Meta("arrival_qps", arrival_rate);
  report.Meta("reader_qps", reader_rate);
  report.Meta("refresh_every_n_groups", static_cast<double>(refresh_every));

  grouplink::resilience::SupervisedConfig config;
  config.service.engine = EngineConfig();
  config.service.streaming.refresh_every_n_groups = refresh_every;
  config.service.async_refresh = true;
  config.service.persist_path = options.work_dir + "/ingest.store";
  config.service.persist_on_refresh = true;
  // Refreshes of this corpus take about a second by design; only a
  // genuinely wedged one should count as a stall.
  config.stall_timeout_ms = 30000.0;

  std::optional<SupervisedService> service;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    service.reset();
    std::filesystem::remove(config.service.persist_path);
    const Clock::time_point start = Clock::now();
    auto created = SupervisedService::Create(corpus.seed, config);
    if (!created.ok()) {
      report.Check(false, "SupervisedService::Create: " + created.status().ToString());
      return;
    }
    service.emplace(std::move(*created));
    setup_s.push_back(SecondsSince(start));
  }
  report.Set("setup_s", Median(setup_s));

  // --- The stream: adds/removes/merges plus one reader, open loop. ---
  const std::vector<GroupArrival>& reader_probes = corpus.arrivals;
  std::vector<size_t> reader_order(reader_probes.size());
  std::iota(reader_order.begin(), reader_order.end(), 0);
  grouplink::Rng rng(options.seed ^ 0x4ead3ULL);
  rng.Shuffle(reader_order);

  std::vector<Publication> publications;
  int64_t seen_epoch = -1;
  const auto poll = [&] {
    const std::shared_ptr<const CorpusSnapshot> s = service->inner().snapshot();
    if (s->epoch() != seen_epoch) {
      seen_epoch = s->epoch();
      publications.push_back({Clock::now(), s->num_groups()});
    }
  };
  poll();

  std::vector<Clock::time_point> acked(static_cast<size_t>(stream_ops));
  size_t arrival_candidates = 0;
  const int64_t reader_total = static_cast<int64_t>(reader_rate * options.seconds);
  std::vector<char> in_refresh(static_cast<size_t>(reader_total), 0);
  int64_t reader_epoch = -1;
  SpanLog::Get().set_enabled(options.trace);
  Stream writes;
  writes.rate = arrival_rate;
  writes.workers = 1;
  writes.op = [&](int64_t seq, Clock::time_point due) {
    SpanLog::Get().Add("service.queue", seq, due, Clock::now());
    const Span span("service.mutation", seq);
    const bool ok =
        ApplyOp(*service, corpus, corpus.ops[static_cast<size_t>(seq)], &arrival_candidates);
    acked[static_cast<size_t>(seq)] = Clock::now();
    return ok;
  };
  Stream reads;
  reads.rate = reader_rate;
  reads.workers = 1;
  reads.op = [&](int64_t seq, Clock::time_point due) {
    const int64_t id = 1000000 + seq;
    SpanLog::Get().Add("service.queue", id, due, Clock::now());
    const Span span("service.link_query", id);
    // refresh_in_flight() takes the writer lock, so only the traced run
    // asks (its cost is part of the tracing overhead).
    if (options.trace) {
      in_refresh[static_cast<size_t>(seq)] = service->inner().refresh_in_flight() ? 1 : 0;
    }
    const auto r = service->LinkQuery(
        reader_probes[reader_order[static_cast<size_t>(seq) % reader_order.size()]]);
    // One reader issues its queries in order, so the epochs it sees must
    // never go backwards.
    const bool ok = r.ok() && !r->degraded && r->epoch >= reader_epoch;
    if (r.ok()) reader_epoch = r->epoch;
    return ok;
  };
  const uint64_t epochs_before = RegistryCounter("service.epochs_published");
  const uint64_t replayed_before = RegistryCounter("service.replayed_ops");
  const uint64_t shed_before = RegistryCounter("service.shed_queries");
  const uint64_t degraded_before = RegistryCounter("service.query_degraded");
  const std::vector<StreamResult> results =
      RunOpenLoop({writes, reads}, options.seconds, poll);
  SpanLog::Get().set_enabled(false);
  const StreamResult& arrivals = results[0];
  const StreamResult& reader = results[1];
  report.Count(arrivals.attempted, arrivals.failed);
  report.Count(reader.attempted, reader.failed);

  // End of stream: drain the in-flight refresh, then the final refresh.
  service->WaitForRefresh();
  poll();
  service->Refresh();
  poll();
  const uint64_t epochs = RegistryCounter("service.epochs_published") - epochs_before;
  report.Set("service.epochs_published", static_cast<double>(epochs));
  report.Set("service.replayed_ops_per_refresh",
             static_cast<double>(RegistryCounter("service.replayed_ops") - replayed_before) /
                 static_cast<double>(std::max<uint64_t>(1, epochs)));
  report.Set("service.shed_queries",
             static_cast<double>(RegistryCounter("service.shed_queries") - shed_before));
  report.Set("service.query_degraded",
             static_cast<double>(RegistryCounter("service.query_degraded") - degraded_before));

  // Latency and freshness of the stream.
  const Tail arrival = Summarize(arrivals.latency_ms);
  report.Note("arrival_p50_ms", arrival.p50, "ms");
  report.Note("arrival_p99_ms", arrival.tail, "ms");
  report.Note("arrival_tail_pct", arrival.tail_pct, "%");
  report.Note("arrival_samples", static_cast<double>(arrival.count), "count");
  std::vector<double> lag_ms;
  int64_t adds = 0;
  for (int64_t seq = 0; seq < stream_ops; ++seq) {
    const IngestOp& op = corpus.ops[static_cast<size_t>(seq)];
    if (op.kind != IngestOp::Kind::kAdd) continue;
    ++adds;
    const auto covering = std::find_if(
        publications.begin(), publications.end(),
        [&](const Publication& p) { return p.num_groups > op.slot; });
    if (covering == publications.end()) {
      report.Check(false, "an acknowledged add never became visible");
      continue;
    }
    lag_ms.push_back(std::max(0.0, MsBetween(acked[static_cast<size_t>(seq)], covering->seen)));
  }
  const Tail lag = Summarize(lag_ms);
  report.Note("visible_lag_p50_ms", lag.p50, "ms");
  report.Note("visible_lag_p99_ms", lag.tail, "ms");
  report.Note("visible_lag_tail_pct", lag.tail_pct, "%");
  report.Set("index.candidates_per_arrival",
             static_cast<double>(arrival_candidates) / static_cast<double>(std::max<int64_t>(1, adds)));

  const Tail reads_tail = Summarize(reader.latency_ms);
  report.Set("query_p50_ms", reads_tail.p50);
  report.Note("query_p99_ms", reads_tail.tail, "ms");
  report.Note("query_tail_pct", reads_tail.tail_pct, "%");
  report.Note("query_samples", static_cast<double>(reads_tail.count), "count");
  std::vector<double> busy_ms, idle_ms;
  for (int64_t seq = 0; seq < reader.attempted; ++seq) {
    (in_refresh[static_cast<size_t>(seq)] ? busy_ms : idle_ms)
        .push_back(reader.latency_ms[static_cast<size_t>(seq)]);
  }
  report.Set("service.reader_p99_in_refresh_ms", Summarize(busy_ms).tail);
  report.Set("service.reader_p99_idle_ms", Summarize(idle_ms).tail);
  report.Note("reader_samples_in_refresh", static_cast<double>(busy_ms.size()), "count");
  std::vector<double> late_ms = arrivals.late_ms;
  late_ms.insert(late_ms.end(), reader.late_ms.begin(), reader.late_ms.end());
  report.Set("service.queue_wait_p99_ms", Summarize(reader.wait_ms).tail);
  const double late_p99 = Summarize(late_ms).tail;
  report.Set("bench.generator_late_p99_ms", late_p99);
  if (late_p99 > 5.0) report.Flag("open-loop generator ran late (p99 > 5 ms)");

  // --- Pending ops: applied after a clean cut, then the final epoch. ---
  const std::shared_ptr<const CorpusSnapshot> cut = service->inner().snapshot();
  for (int64_t i = stream_ops; i < stream_ops + pending; ++i) {
    report.Check(ApplyOp(*service, corpus, corpus.ops[static_cast<size_t>(i)], nullptr),
                 "a pending op did not land as planned");
  }
  service->Refresh();
  const std::shared_ptr<const CorpusSnapshot> final_epoch = service->inner().snapshot();
  report.Check(final_epoch->CheckConsistency(), "final epoch failed CheckConsistency");

  if (options.trace) {
    // Rebuild the writer from the cut, apply the pending ops, and time
    // the refresh steps; the result must be the epoch the service published.
    auto rebuilt = grouplink::IncrementalLinker::FromSnapshot(*cut);
    if (!rebuilt.ok()) {
      report.Check(false, "IncrementalLinker::FromSnapshot failed");
    } else {
      grouplink::IncrementalLinker& linker = **rebuilt;
      for (int64_t i = stream_ops; i < stream_ops + pending; ++i) {
        report.Check(ApplyOp(linker, corpus, corpus.ops[static_cast<size_t>(i)], nullptr),
                     "a replayed pending op did not land as planned");
      }
      const uint64_t cand_before = RegistryCounter("filter_refine.candidates");
      const uint64_t empty_before = RegistryCounter("filter_refine.empty_graphs");
      const uint64_t refined_before = RegistryCounter("filter_refine.refined");
      Clock::time_point t = Clock::now();
      std::unique_ptr<grouplink::IncrementalLinker> clone = linker.Clone();
      const double clone_ms = MsBetween(t, Clock::now());
      t = Clock::now();
      clone->Refresh();
      const double rescore_ms = MsBetween(t, Clock::now());
      t = Clock::now();
      const std::shared_ptr<const CorpusSnapshot> captured = CorpusSnapshot::Capture(*clone);
      const double capture_ms = MsBetween(t, Clock::now());
      const double candidates =
          static_cast<double>(RegistryCounter("filter_refine.candidates") - cand_before);
      report.Set("core.refresh_ms", clone_ms + rescore_ms + capture_ms);
      report.Set("core.refresh.clone_ms", clone_ms);
      report.Set("core.refresh.rescore_ms", rescore_ms);
      report.Set("core.refresh.capture_ms", capture_ms);
      report.Set("core.refresh.candidates", candidates);
      report.Set("core.refresh.empty_graph_frac",
                 candidates > 0 ? static_cast<double>(RegistryCounter("filter_refine.empty_graphs") -
                                                      empty_before) /
                                      candidates
                                : 0.0);
      report.Set("core.refresh.refined",
                 static_cast<double>(RegistryCounter("filter_refine.refined") - refined_before));
      report.Check(captured->linked_pairs() == final_epoch->linked_pairs(),
                   "refresh replay link set differs from the published epoch");
      const std::string replay_store = options.work_dir + "/refresh_replay.store";
      t = Clock::now();
      const grouplink::Status persisted =
          grouplink::storage::SnapshotStore::Persist(*captured, replay_store);
      report.Set("storage.persist_ms", MsBetween(t, Clock::now()));
      report.Check(persisted.ok(), "SnapshotStore::Persist: " + persisted.ToString());
    }

    // Query-path layers on the final epoch, replayed reader probes.
    SpanLog::Get().set_enabled(true);
    ReplayTotals totals;
    totals.live_groups = final_epoch->num_alive_groups();
    std::vector<double> front_ms;
    const size_t n = std::min<size_t>(96, reader_probes.size());
    for (size_t i = 0; i < n; ++i) {
      const GroupArrival& probe = reader_probes[reader_order[i]];
      const int64_t id = 2000000 + static_cast<int64_t>(i);
      Clock::time_point t = Clock::now();
      const CorpusSnapshot::QueryResult direct = final_epoch->LinkQuery(probe);
      const double direct_ms = MsBetween(t, Clock::now());
      t = Clock::now();
      const auto door = service->LinkQuery(probe);
      front_ms.push_back(MsBetween(t, Clock::now()) - direct_ms);
      report.Check(door.ok() && door->linked_to == direct.linked_to,
                   "front door and snapshot disagree on the final epoch");
      const ReplayCounts counts = ReplayQuery(*final_epoch, probe, id);
      report.Check(counts.candidates == direct.candidates && counts.linked_to == direct.linked_to,
                   "layer replay disagrees with CorpusSnapshot::LinkQuery");
      totals.Add(counts);
    }
    SetReplayMetrics(totals, report);
    report.Set("service.front_door_ms", Median(front_ms));
    MeasureTraceOverhead(
        [&](int64_t i) {
          const int64_t id = 3000000 + i;
          const Span span("service.link_query", id);
          const auto r = service->LinkQuery(
              reader_probes[reader_order[static_cast<size_t>(i) % reader_order.size()]]);
          report.Check(r.ok() && !r->degraded, "calibration query failed");
        },
        std::min<int64_t>(32, static_cast<int64_t>(reader_probes.size())), report);
    SpanLog::Get().set_enabled(false);
    report.Set("bench.spans", static_cast<double>(SpanLog::Get().size()));
  }

  // --- The batch engine over the accumulated corpus. ---
  std::vector<int32_t> slot_of_group;
  const grouplink::Dataset live = LiveDataset(*final_epoch, corpus.texts, &slot_of_group);
  report.Meta("final_groups", static_cast<double>(live.num_groups()));
  report.Meta("final_records", static_cast<double>(live.num_records()));
  std::vector<std::pair<int32_t, int32_t>> served = final_epoch->linked_pairs();
  if (options.plant_wrong_answer) served.emplace_back(-1, -1);
  MeasureBatch(live, slot_of_group, served, options, report);

  // --- Warm restart from the epoch persist_on_refresh wrote. ---
  report.Check(service->inner().last_persist_status().ok(), "persist_on_refresh failed");
  int64_t user_bytes = 0;
  for (const grouplink::Record& r : live.records) user_bytes += static_cast<int64_t>(r.text.size());
  report.Set("storage.bytes_per_user_byte",
             FileBytes(config.service.persist_path) / static_cast<double>(std::max<int64_t>(1, user_bytes)));
  const GroupArrival& probe = reader_probes[MedianSizedProbe(reader_probes)];
  grouplink::ServiceConfig restart_config = config.service;
  restart_config.persist_on_refresh = false;
  MeasureRestart(restart_config, probe, final_epoch->LinkQuery(probe).linked_to,
                 final_epoch->epoch(), options, report);
  report.Set("peak_rss_mb", PeakRssMb());
}

}  // namespace perfbench
