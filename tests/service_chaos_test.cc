// Chaos storm over a live SupervisedService (run under TSan in CI): the
// background watchdog supervises while seeded fault storms rotate
// through the storage tier (fsync failures tripping the breaker),
// generic refresh failures (watchdog re-arms), a poison arrival batch
// (quarantined after the configured streak), and a stalled refresh —
// all with concurrent reader threads hammering queries, snapshots, and
// the health surface. The harness asserts full recovery (health returns
// to kHealthy, every epoch persisted), batch-equivalence of every epoch
// any reader observed (including post-quarantine epochs, where the
// served link set must equal a batch run over the corpus *minus* the
// poison batch), a legal and chained breaker transition log, and
// quarantine exactness (the poison label and nothing else).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/thread_pool.h"
#include "core/linkage_engine.h"
#include "data/bibliographic_generator.h"
#include "service/resilience/supervised_service.h"
#include "storage/page_file.h"

namespace grouplink {
namespace resilience {
namespace {

Dataset MakeCorpus(int32_t entities, uint64_t seed) {
  BibliographicConfig config;
  config.num_entities = entities;
  config.noise = 0.25;
  config.num_topics = 5;
  config.offtopic_word_prob = 0.5;
  config.seed = seed;
  return GenerateBibliographic(config);
}

std::vector<std::string> GroupTexts(const Dataset& dataset, int32_t group) {
  std::vector<std::string> texts;
  for (const int32_t r : dataset.groups[static_cast<size_t>(group)].record_ids) {
    texts.push_back(dataset.records[static_cast<size_t>(r)].text);
  }
  return texts;
}

void Split(const Dataset& full, int32_t seed_groups, Dataset* seed,
           std::vector<GroupArrival>* arrivals) {
  for (int32_t g = 0; g < full.num_groups(); ++g) {
    if (g < seed_groups) {
      Group rebased;
      rebased.id = full.groups[static_cast<size_t>(g)].id;
      rebased.label = full.groups[static_cast<size_t>(g)].label;
      for (const int32_t r : full.groups[static_cast<size_t>(g)].record_ids) {
        rebased.record_ids.push_back(static_cast<int32_t>(seed->records.size()));
        seed->records.push_back(full.records[static_cast<size_t>(r)]);
      }
      seed->groups.push_back(std::move(rebased));
    } else {
      arrivals->push_back(
          {full.groups[static_cast<size_t>(g)].label, GroupTexts(full, g)});
    }
  }
  ASSERT_TRUE(seed->Validate().ok());
}

// The corpus a batch engine would see at an adds-only epoch covering the
// first `prefix` arrivals.
Dataset EpochCorpus(const Dataset& seed,
                    const std::vector<GroupArrival>& arrivals, size_t prefix) {
  Dataset corpus = seed;
  for (size_t i = 0; i < prefix; ++i) {
    Group group;
    group.id = "a" + std::to_string(i);
    group.label = arrivals[i].label;
    for (const std::string& text : arrivals[i].record_texts) {
      Record record;
      record.id = group.id + "r" + std::to_string(group.record_ids.size());
      record.text = text;
      group.record_ids.push_back(static_cast<int32_t>(corpus.records.size()));
      corpus.records.push_back(std::move(record));
    }
    corpus.groups.push_back(std::move(group));
  }
  return corpus;
}

// Spins (1ms naps) until `done` holds or the deadline passes; returns the
// final verdict so the caller's ASSERT names the phase that wedged.
bool PollUntil(const std::function<bool()>& done, int timeout_ms = 30000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

struct ReaderLog {
  size_t queries = 0;
  size_t served = 0;
  size_t shed = 0;
  bool consistency_ok = true;
  bool monotone_ok = true;
  bool status_ok = true;
  // Every distinct epoch this reader observed, retained for the post-hoc
  // batch-equivalence proof.
  std::map<int64_t, std::shared_ptr<const CorpusSnapshot>> epochs;
};

TEST(ServiceChaosTest, StormOfEveryFaultClassRecoversAndServesProvableEpochs) {
  ScopedFaultClear clear;
  const Dataset full = MakeCorpus(30, 20260809);
  Dataset seed;
  std::vector<GroupArrival> arrivals;
  Split(full, full.num_groups() / 3, &seed, &arrivals);
  ASSERT_GE(arrivals.size(), 8u);

  SupervisedConfig config;
  config.service.engine.theta = 0.35;
  config.service.engine.group_threshold = 0.2;
  config.service.streaming.refresh_every_n_groups = 4;
  config.service.async_refresh = true;
  config.service.persist_path = ::testing::TempDir() + "/chaos.glsnap";
  config.persist_retry.max_attempts = 2;
  config.persist_retry.initial_backoff_ms = 0.1;
  config.persist_retry.jitter = 0.1;
  config.persist_retry.jitter_seed = 1;
  config.storage_breaker.failure_threshold = 2;
  config.storage_breaker.open_cooldown_ms = 20.0;
  config.watchdog_interval_ms = 2.0;
  config.stall_timeout_ms = 15.0;
  config.quarantine_after_failures = 2;
  config.give_up_after_failures = 20;  // The storm heals long before this.
  config.refresh_rearm.initial_backoff_ms = 0.5;
  config.refresh_rearm.jitter = 0.0;
  auto service_or = SupervisedService::Create(seed, config);
  ASSERT_TRUE(service_or.ok()) << service_or.status().message();
  SupervisedService& service = *service_or;
  auto& injector = FaultInjector::Default();

  // Readers run for the whole storm: admission-gated queries plus raw
  // snapshot retention (consistency + monotone epochs) plus concurrent
  // health polls.
  std::vector<GroupArrival> probes(arrivals.begin(), arrivals.begin() + 3);
  probes.push_back({"replay", GroupTexts(seed, 0)});
  constexpr size_t kReaders = 3;
  std::vector<ReaderLog> logs(kReaders);
  std::atomic<bool> stop{false};
  ThreadPool readers(kReaders);
  // Stops the readers on every exit path. A failed ASSERT returns early,
  // and the pool's destructor would then join readers that never leave
  // their loop. Declared after `readers`, so it runs before that join.
  struct StopReaders {
    std::atomic<bool>& flag;
    ~StopReaders() { flag.store(true, std::memory_order_release); }
  } stop_readers{stop};
  for (size_t reader = 0; reader < kReaders; ++reader) {
    ReaderLog* log = &logs[reader];
    const SupervisedService* svc = &service;
    const std::vector<GroupArrival>* probe_set = &probes;
    readers.Submit([log, svc, probe_set, &stop] {
      int64_t last_epoch = -1;
      while (!stop.load(std::memory_order_acquire)) {
        for (const GroupArrival& probe : *probe_set) {
          const auto snapshot = svc->inner().snapshot();
          log->consistency_ok &= snapshot->CheckConsistency();
          log->monotone_ok &= snapshot->epoch() >= last_epoch;
          last_epoch = snapshot->epoch();
          log->epochs.emplace(snapshot->epoch(), snapshot);

          const auto answer = svc->LinkQuery(probe);
          if (answer.ok()) {
            ++log->served;
          } else if (answer.status().code() == StatusCode::kUnavailable) {
            ++log->shed;  // The only legal refusal: admission shedding.
          } else {
            log->status_ok = false;
          }
          (void)svc->Health();  // Health must be safe mid-storm.
          ++log->queries;
        }
      }
    });
  }

  // --- Phase A: healthy streaming (policy refreshes swap under load). ---
  const size_t half = arrivals.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    (void)service.AddGroup(arrivals[i].label, arrivals[i].record_texts);
  }
  service.WaitForRefresh();

  // --- Phase B: storage storm. Six fsync failures in a row: enough to
  // defeat the 2-attempt retry twice (breaker trips open) and to fail
  // probes until the budget runs dry, after which a probe closes it. ---
  injector.Arm(faults::kFailFsync, FaultSpec::FailNTimes(6));
  (void)service.AddGroup(arrivals[half].label, arrivals[half].record_texts);
  service.Refresh();  // A fresh epoch the watchdog must now fight to persist.
  ASSERT_TRUE(PollUntil([&] {
    return service.breaker_state() == BreakerState::kClosed &&
           service.last_persisted_epoch() == service.inner().published_epoch();
  })) << "storage tier never recovered from the fsync storm";
  size_t trips = 0;
  for (const auto& [from, to] : service.breaker_transitions()) {
    if (from == BreakerState::kClosed && to == BreakerState::kOpen) ++trips;
  }
  EXPECT_GE(trips, 1u) << "the fsync storm should have tripped the breaker";

  // --- Phase C: two generic refresh-build failures; the watchdog must
  // re-arm through them without quarantining anyone (no culprit). ---
  injector.Arm(faults::kRefreshFailure, FaultSpec::FailNTimes(2));
  for (size_t i = half + 1; i < arrivals.size(); ++i) {
    (void)service.AddGroup(arrivals[i].label, arrivals[i].record_texts);
  }
  (void)service.RefreshAsync();
  ASSERT_TRUE(PollUntil([&] {
    return service.inner().consecutive_refresh_failures() == 0 &&
           !service.inner().refresh_in_flight() &&
           service.inner().groups_since_refresh() == 0;
  })) << "watchdog never re-armed past the generic refresh failures";
  EXPECT_TRUE(service.quarantined_labels().empty());

  // --- Phase D: poison batch. Armed *before* the arrival so no epoch can
  // ever publish with the poison group alive. ---
  injector.Arm(faults::kPoisonBatch, FaultSpec{});
  const std::string poison_label =
      std::string(faults::kPoisonLabelMarker) + "storm";
  const auto poison =
      service.AddGroup(poison_label, {"poison payload of the storm"});
  (void)service.RefreshAsync();
  ASSERT_TRUE(PollUntil([&] {
    return service.quarantined_labels().size() == 1 &&
           service.inner().consecutive_refresh_failures() == 0 &&
           !service.inner().refresh_in_flight() &&
           service.inner().groups_since_refresh() == 0;
  })) << "poison batch was never quarantined away";
  injector.Disarm(faults::kPoisonBatch);

  // --- Phase E: one stalled refresh; the watchdog must notice. ---
  FaultSpec stall;
  stall.delay_ms = 40.0;
  stall.max_fires = 1;
  injector.Arm(faults::kStallRefresh, stall);
  (void)service.RefreshAsync();
  ASSERT_TRUE(PollUntil([&] {
    return service.Health().refresh_stalls >= 1 &&
           !service.inner().refresh_in_flight();
  })) << "stalled refresh was never detected";

  // --- Calm after the storm: everything must converge back to healthy. ---
  injector.DisarmAll();
  service.Refresh();
  ASSERT_TRUE(PollUntil([&] {
    const ServiceHealth health = service.Health();
    return health.state == HealthState::kHealthy &&
           health.persist_lag_epochs == 0;
  })) << "service never returned to kHealthy after the storm";
  stop.store(true, std::memory_order_release);
  readers.Wait();

  const ServiceHealth health = service.Health();
  EXPECT_EQ(health.consecutive_refresh_failures, 0);
  EXPECT_TRUE(health.last_refresh_status.ok());
  EXPECT_TRUE(health.last_persist_status.ok());
  EXPECT_GE(health.persist_retries, 1);
  EXPECT_EQ(health.quarantined_batches, 1);
  EXPECT_EQ(health.inflight_queries, 0);

  // Quarantine exactness: the poison label, nothing else.
  EXPECT_EQ(service.quarantined_labels(),
            std::vector<std::string>{poison_label});

  // Breaker log: every transition legal, and the log chains (each step
  // starts where the previous one ended, beginning from closed).
  const auto transitions = service.breaker_transitions();
  ASSERT_FALSE(transitions.empty());
  BreakerState at = BreakerState::kClosed;
  for (const auto& [from, to] : transitions) {
    EXPECT_EQ(from, at) << "transition log does not chain";
    EXPECT_TRUE(CircuitBreaker::IsLegalTransition(from, to))
        << BreakerStateName(from) << " -> " << BreakerStateName(to);
    at = to;
  }
  EXPECT_EQ(at, BreakerState::kClosed) << "breaker did not end closed";

  // Reader-side invariants across the whole storm.
  std::map<int64_t, std::shared_ptr<const CorpusSnapshot>> epochs;
  for (size_t reader = 0; reader < kReaders; ++reader) {
    EXPECT_TRUE(logs[reader].consistency_ok) << "reader " << reader;
    EXPECT_TRUE(logs[reader].monotone_ok) << "reader " << reader;
    EXPECT_TRUE(logs[reader].status_ok) << "reader " << reader;
    EXPECT_GT(logs[reader].served, 0u) << "reader " << reader;
    epochs.insert(logs[reader].epochs.begin(), logs[reader].epochs.end());
  }
  EXPECT_GE(epochs.size(), 2u);

  // Batch-equivalence of every served epoch. The workload is adds in
  // arrival order plus the single quarantine removal, and the poison
  // group holds the highest index, so:
  //   * an epoch without the poison group is an adds-only prefix — the
  //     group count identifies the corpus exactly;
  //   * an epoch containing it must show it dead (no epoch may publish
  //     while the poison is live) and serve exactly the link set of a
  //     batch run over the corpus minus the poison batch (the identity
  //     index mapping, since nothing arrived after it).
  const auto final_snapshot = service.inner().snapshot();
  epochs.emplace(final_snapshot->epoch(), final_snapshot);
  const int32_t base = seed.num_groups();
  for (const auto& [epoch, snapshot] : epochs) {
    const size_t prefix = static_cast<size_t>(snapshot->num_groups() - base);
    ASSERT_LE(prefix, arrivals.size() + 1);
    if (prefix > arrivals.size()) {
      ASSERT_FALSE(snapshot->IsAlive(poison.group_index))
          << "epoch " << epoch << " published with the poison group live";
    }
    const Dataset corpus =
        EpochCorpus(seed, arrivals, std::min(prefix, arrivals.size()));
    const auto batch = RunGroupLinkage(corpus, snapshot->engine_config());
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(snapshot->linked_pairs(), batch->linked_pairs)
        << "epoch " << epoch << " (prefix " << prefix << ")";
  }
  // The final epoch covers the entire stream (minus the quarantined
  // batch) and made it to disk.
  EXPECT_EQ(final_snapshot->num_groups(), full.num_groups() + 1);
  EXPECT_EQ(final_snapshot->num_alive_groups(), full.num_groups());
  EXPECT_EQ(service.last_persisted_epoch(), final_snapshot->epoch());
  ASSERT_TRUE(storage::RemoveFile(config.service.persist_path).ok());
}

}  // namespace
}  // namespace resilience
}  // namespace grouplink
