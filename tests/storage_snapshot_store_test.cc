// SnapshotStore round-trip suite: Persist followed by Load reproduces a
// sealed snapshot bit-identically (link set, cluster labels, every query
// surface), across page sizes, after remove/merge mutations, and through
// the warm-restart writer rebuild (IncrementalLinker::FromSnapshot).
#include "storage/snapshot_store.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/incremental.h"
#include "core/snapshot.h"
#include "data/bibliographic_generator.h"
#include "storage/page_file.h"

namespace grouplink {
namespace storage {
namespace {

LinkageConfig TestConfig() {
  LinkageConfig config;
  config.theta = 0.35;
  config.group_threshold = 0.2;
  return config;
}

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

std::string StorePath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Every public answer of the two snapshots must agree exactly.
void ExpectSnapshotsEquivalent(const CorpusSnapshot& a, const CorpusSnapshot& b,
                               const Dataset& probes) {
  EXPECT_EQ(a.epoch(), b.epoch());
  EXPECT_EQ(a.num_groups(), b.num_groups());
  EXPECT_EQ(a.num_alive_groups(), b.num_alive_groups());
  EXPECT_EQ(a.num_records(), b.num_records());
  EXPECT_EQ(a.linked_pairs(), b.linked_pairs());
  EXPECT_EQ(a.cluster_labels(), b.cluster_labels());
  // The token-major vector segment must transpose back bit for bit.
  ASSERT_EQ(a.record_vectors().size(), b.record_vectors().size());
  for (size_t r = 0; r < a.record_vectors().size(); ++r) {
    EXPECT_EQ(a.record_vectors()[r].ids, b.record_vectors()[r].ids) << r;
    EXPECT_EQ(a.record_vectors()[r].weights, b.record_vectors()[r].weights) << r;
  }
  for (int32_t g = 0; g < a.num_groups(); ++g) {
    EXPECT_EQ(a.IsAlive(g), b.IsAlive(g)) << g;
    if (a.IsAlive(g)) {
      EXPECT_EQ(a.label(g), b.label(g)) << g;
    }
  }
  for (int32_t g = 0; g < probes.num_groups(); ++g) {
    const GroupArrival probe{"probe", GroupTexts(probes, g)};
    const auto qa = a.LinkQuery(probe);
    const auto qb = b.LinkQuery(probe);
    EXPECT_EQ(qa.linked_to, qb.linked_to) << "probe " << g;
    EXPECT_EQ(qa.candidates, qb.candidates) << "probe " << g;
    EXPECT_EQ(qa.oov_tokens, qb.oov_tokens) << "probe " << g;
  }
}

TEST(SnapshotStoreTest, PersistLoadRoundTripsAFreshEpoch) {
  const Dataset dataset = MakeCorpus(30, 7);
  auto linker = IncrementalLinker::Create(dataset, TestConfig());
  ASSERT_TRUE(linker.ok());
  const auto snapshot = CorpusSnapshot::Capture(*linker);

  const std::string path = StorePath("round_trip.glsnap");
  ASSERT_TRUE(SnapshotStore::Persist(*snapshot, path).ok());
  const auto loaded = SnapshotStore::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_TRUE((*loaded)->CheckConsistency());
  ExpectSnapshotsEquivalent(*snapshot, **loaded, dataset);
  ASSERT_TRUE(RemoveFile(path).ok());
}

TEST(SnapshotStoreTest, RoundTripSurvivesRemovalsMergesAndArrivals) {
  // A mid-stream epoch with tombstones everywhere: removed groups,
  // merged groups, un-refreshed arrivals (OOV vectors), uncompacted
  // postings. The store must reproduce all of it.
  const Dataset dataset = MakeCorpus(25, 21);
  auto linker = IncrementalLinker::Create(dataset, TestConfig());
  ASSERT_TRUE(linker.ok());
  (void)linker->AddGroup("late arrival", {"totally new tokens here",
                                          "more unseen words arrive"});
  linker->RemoveGroup(1);
  (void)linker->MergeGroups(2, 3);
  const auto snapshot = CorpusSnapshot::Capture(*linker);

  const std::string path = StorePath("mutated.glsnap");
  ASSERT_TRUE(SnapshotStore::Persist(*snapshot, path).ok());
  const auto loaded = SnapshotStore::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ExpectSnapshotsEquivalent(*snapshot, **loaded, dataset);
  ASSERT_TRUE(RemoveFile(path).ok());
}

TEST(SnapshotStoreTest, EveryPageSizeYieldsTheSameSnapshot) {
  const Dataset dataset = MakeCorpus(20, 3);
  auto linker = IncrementalLinker::Create(dataset, TestConfig());
  ASSERT_TRUE(linker.ok());
  const auto snapshot = CorpusSnapshot::Capture(*linker);

  for (const uint32_t page_bytes : {kMinPageBytes, 1024u, 4096u, 65536u}) {
    const std::string path = StorePath("page_size.glsnap");
    StorageOptions options;
    options.page_bytes = page_bytes;
    ASSERT_TRUE(SnapshotStore::Persist(*snapshot, path, options).ok());
    const auto loaded = SnapshotStore::Load(path);
    ASSERT_TRUE(loaded.ok()) << "page_bytes " << page_bytes << ": "
                             << loaded.status().message();
    ExpectSnapshotsEquivalent(*snapshot, **loaded, dataset);
    ASSERT_TRUE(RemoveFile(path).ok());
  }
}

TEST(SnapshotStoreTest, PersistReplacesThePreviousStoreAtomically) {
  const Dataset dataset = MakeCorpus(15, 11);
  auto linker = IncrementalLinker::Create(dataset, TestConfig());
  ASSERT_TRUE(linker.ok());
  const std::string path = StorePath("replace.glsnap");

  const auto first = CorpusSnapshot::Capture(*linker);
  ASSERT_TRUE(SnapshotStore::Persist(*first, path).ok());
  (void)linker->AddGroup("next epoch", {"brand new record text"});
  linker->Refresh();
  const auto second = CorpusSnapshot::Capture(*linker);
  ASSERT_TRUE(SnapshotStore::Persist(*second, path).ok());

  const auto loaded = SnapshotStore::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)->epoch(), second->epoch());
  EXPECT_EQ((*loaded)->num_groups(), second->num_groups());
  ASSERT_TRUE(RemoveFile(path).ok());
}

TEST(SnapshotStoreTest, MissingStoreIsNotFoundAndBadPageSizeIsInvalid) {
  EXPECT_EQ(SnapshotStore::Load(StorePath("does_not_exist.glsnap")).status().code(),
            StatusCode::kNotFound);

  const Dataset dataset = MakeCorpus(5, 1);
  auto linker = IncrementalLinker::Create(dataset, TestConfig());
  ASSERT_TRUE(linker.ok());
  const auto snapshot = CorpusSnapshot::Capture(*linker);
  StorageOptions tiny;
  tiny.page_bytes = 64;  // Below kMinPageBytes.
  EXPECT_EQ(SnapshotStore::Persist(*snapshot, StorePath("x.glsnap"), tiny).code(),
            StatusCode::kInvalidArgument);
  StorageOptions huge;
  huge.page_bytes = kMaxPageBytes * 2;
  EXPECT_EQ(SnapshotStore::Persist(*snapshot, StorePath("x.glsnap"), huge).code(),
            StatusCode::kInvalidArgument);
}

TEST(SnapshotStoreTest, WarmRestartLinkerContinuesBitIdentically) {
  // The decisive warm-restart property: a writer rebuilt from the store
  // must link a stream of future arrivals exactly like the writer that
  // never stopped — including through a refresh, which rebuilds the
  // epoch statistics from the recovered raw tokens.
  const Dataset dataset = MakeCorpus(25, 42);
  auto original = IncrementalLinker::Create(dataset, TestConfig());
  ASSERT_TRUE(original.ok());
  (void)original->AddGroup("pre-persist arrival", {"some new tokens appear"});

  const auto snapshot = CorpusSnapshot::Capture(*original);
  const std::string path = StorePath("warm_restart.glsnap");
  ASSERT_TRUE(SnapshotStore::Persist(*snapshot, path).ok());
  const auto loaded = SnapshotStore::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  auto restarted = IncrementalLinker::FromSnapshot(**loaded);
  ASSERT_TRUE(restarted.ok()) << restarted.status().message();

  EXPECT_EQ((*restarted)->epoch(), original->epoch());
  EXPECT_EQ((*restarted)->linked_pairs(), original->linked_pairs());
  EXPECT_EQ((*restarted)->ClusterLabels(), original->ClusterLabels());

  const Dataset future = MakeCorpus(8, 1234);
  for (int32_t g = 0; g < future.num_groups(); ++g) {
    const auto a = original->AddGroup("arrival", GroupTexts(future, g));
    const auto b = (*restarted)->AddGroup("arrival", GroupTexts(future, g));
    EXPECT_EQ(a.group_index, b.group_index) << g;
    EXPECT_EQ(a.linked_to, b.linked_to) << g;
    EXPECT_EQ(a.candidates, b.candidates) << g;
    EXPECT_EQ(a.oov_tokens, b.oov_tokens) << g;
  }
  original->Refresh();
  (*restarted)->Refresh();
  EXPECT_EQ((*restarted)->linked_pairs(), original->linked_pairs());
  EXPECT_EQ((*restarted)->epoch(), original->epoch());
  ASSERT_TRUE(RemoveFile(path).ok());
}

}  // namespace
}  // namespace storage
}  // namespace grouplink
