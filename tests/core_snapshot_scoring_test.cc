// Differential suite for the LinkQuery scoring path of both serving
// paths: CorpusSnapshot (in RAM) and storage::StoredCorpus (paged, every
// epoch persisted and opened at pools of 1 and 4096 frames). Both find
// θ-edges by term-at-a-time accumulation over weighted postings; the
// reference below builds every candidate's graph pair by pair with
// PrenormalizedCosineSimilarity, the way the queries used to. Seeded
// random corpora (with removes, merges, re-adds and refreshes), awkward
// probes (OOV tokens, token-less records, repeated tokens) and
// θ ∈ {0.05, default, 1.0} must give the same linked_to, candidates,
// oov_tokens and degraded. Admission control (candidate cap,
// cancellation, deadline) must keep its subset contract. Registered a
// second time with GROUPLINK_FORCE_SCALAR=1 and in the TSan job: readers
// on several threads share the thread-local scratch across epochs of
// different sizes.
#include "core/snapshot.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/filter_refine.h"
#include "core/incremental.h"
#include "data/bibliographic_generator.h"
#include "index/weighted_postings.h"
#include "matching/bipartite_graph.h"
#include "storage/page_file.h"
#include "storage/snapshot_store.h"
#include "storage/stored_corpus.h"
#include "text/tfidf.h"
#include "text/tokenizer.h"

namespace grouplink {
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

std::vector<std::string> GroupTexts(const Dataset& dataset, size_t group) {
  std::vector<std::string> texts;
  for (const int32_t r : dataset.groups[group].record_ids) {
    texts.push_back(dataset.records[static_cast<size_t>(r)].text);
  }
  return texts;
}

struct ReferenceAnswer {
  std::vector<int32_t> candidates;  // Ascending.
  std::vector<int32_t> linked_to;
  size_t oov_tokens = 0;
};

// The per-pair query over the snapshot's public parts: token-blocking
// candidates, then for each candidate a BipartiteGraph built cell by cell
// over (corpus slot, probe record) with PrenormalizedCosineSimilarity,
// decided by the shared ladder. Unconstrained (no admission control).
ReferenceAnswer PerPairQuery(const CorpusSnapshot& snapshot,
                             const GroupArrival& group) {
  const LinkageConfig& config = snapshot.engine_config();
  ReferenceAnswer answer;
  const size_t probe_size = group.record_texts.size();
  std::vector<SparseVector> probe_vectors(probe_size);
  const TfIdfVectorizer vectorizer(&snapshot.epoch_vocab());
  for (size_t i = 0; i < probe_size; ++i) {
    const std::vector<std::string> raw = Tokenize(group.record_texts[i]);
    std::vector<int32_t> ids;
    for (const std::string& token : ToTokenSet(raw)) {
      const int32_t id = snapshot.index_vocab().GetId(token);
      if (id != Vocabulary::kUnknownToken) ids.push_back(id);
      if (snapshot.epoch_vocab().GetId(token) == Vocabulary::kUnknownToken) {
        ++answer.oov_tokens;
      }
    }
    std::sort(ids.begin(), ids.end());
    for (const int32_t doc : snapshot.token_index().DocumentsSharingToken(ids)) {
      const int32_t g = snapshot.record_group()[static_cast<size_t>(doc)];
      if (snapshot.IsAlive(g)) answer.candidates.push_back(g);
    }
    probe_vectors[i] = vectorizer.Vectorize(raw);
  }
  std::sort(answer.candidates.begin(), answer.candidates.end());
  answer.candidates.erase(
      std::unique(answer.candidates.begin(), answer.candidates.end()),
      answer.candidates.end());

  FilterRefineConfig fr_config;
  fr_config.theta = config.theta;
  fr_config.group_threshold = config.group_threshold;
  fr_config.use_upper_bound_filter =
      config.use_filter_refine && config.use_upper_bound_filter;
  fr_config.use_lower_bound_accept =
      config.use_filter_refine && config.use_lower_bound_accept;
  const int32_t size_right = static_cast<int32_t>(probe_size);
  for (const int32_t g : answer.candidates) {
    const std::vector<int32_t>& left =
        snapshot.group_records()[static_cast<size_t>(g)];
    const int32_t size_left = static_cast<int32_t>(left.size());
    BipartiteGraph graph(size_left, size_right);
    for (size_t i = 0; i < left.size(); ++i) {
      const SparseVector& corpus_vector =
          snapshot.record_vectors()[static_cast<size_t>(left[i])];
      for (size_t j = 0; j < probe_size; ++j) {
        const double s =
            PrenormalizedCosineSimilarity(corpus_vector, probe_vectors[j]);
        if (s >= config.theta) {
          graph.AddEdge(static_cast<int32_t>(i), static_cast<int32_t>(j), s);
        }
      }
    }
    if (IsLink(DecideGraph(graph, size_left, size_right, fr_config))) {
      answer.linked_to.push_back(g);
    }
  }
  return answer;
}

using QueryFn = std::function<Result<CorpusSnapshot::QueryResult>(
    const GroupArrival&, const CorpusSnapshot::QueryOptions&)>;

// One epoch persisted with small pages (real paging) and opened as a
// StoredCorpus at a one-frame pool and at a pool holding the whole store.
class PagedEpoch {
 public:
  explicit PagedEpoch(const CorpusSnapshot& snapshot) {
    // The binary is registered twice and ctest may run both processes
    // concurrently: the path must not collide.
    static int next_store = 0;
    path_ = ::testing::TempDir() + "/" + std::to_string(::getpid()) +
            "_scoring_" + std::to_string(next_store++) + ".glsnap";
    storage::StorageOptions options;
    options.page_bytes = 512;
    GL_CHECK(storage::SnapshotStore::Persist(snapshot, path_, options).ok());
    for (const size_t pool : {size_t{1}, size_t{4096}}) {
      options.buffer_pool_pages = pool;
      auto opened = storage::StoredCorpus::Open(path_, options);
      GL_CHECK(opened.ok()) << opened.status().ToString();
      corpora_.push_back(std::move(*opened));
    }
  }
  ~PagedEpoch() { GL_CHECK(storage::RemoveFile(path_).ok()); }
  PagedEpoch(const PagedEpoch&) = delete;
  PagedEpoch& operator=(const PagedEpoch&) = delete;

  const std::vector<std::unique_ptr<storage::StoredCorpus>>& corpora() const {
    return corpora_;
  }

 private:
  std::string path_;
  std::vector<std::unique_ptr<storage::StoredCorpus>> corpora_;
};

// Every LinkQuery path over one epoch: the snapshot itself, then the
// paged store at each pool size.
std::vector<std::pair<std::string, QueryFn>> QueryPaths(
    const CorpusSnapshot& snapshot, const PagedEpoch& paged) {
  std::vector<std::pair<std::string, QueryFn>> paths;
  paths.emplace_back("in-RAM", [&snapshot](const GroupArrival& probe,
                                           const CorpusSnapshot::QueryOptions& o) {
    return Result<CorpusSnapshot::QueryResult>(snapshot.LinkQuery(probe, o));
  });
  for (const auto& stored : paged.corpora()) {
    const storage::StoredCorpus* corpus = stored.get();
    paths.emplace_back("paged pool " + std::to_string(corpus->pool_pages()),
                       [corpus](const GroupArrival& probe,
                                const CorpusSnapshot::QueryOptions& o) {
                         return corpus->LinkQuery(probe, o);
                       });
  }
  return paths;
}

void ExpectMatchesReference(const CorpusSnapshot& snapshot,
                            const PagedEpoch& paged, const GroupArrival& probe,
                            const std::string& what) {
  const ReferenceAnswer expected = PerPairQuery(snapshot, probe);
  for (const auto& [path, query] : QueryPaths(snapshot, paged)) {
    const auto got = query(probe, {});
    ASSERT_TRUE(got.ok()) << what << " " << path << ": " << got.status().ToString();
    EXPECT_EQ(got->linked_to, expected.linked_to) << what << " " << path;
    EXPECT_EQ(got->candidates, expected.candidates.size()) << what << " " << path;
    EXPECT_EQ(got->oov_tokens, expected.oov_tokens) << what << " " << path;
    EXPECT_FALSE(got->degraded) << what << " " << path;
  }
}

bool IsSubset(const std::vector<int32_t>& sub, const std::vector<int32_t>& of) {
  return std::includes(of.begin(), of.end(), sub.begin(), sub.end());
}

// One seeded random history: a seed corpus, then adds, removes, merges,
// re-adds of removed groups and the odd refresh, with snapshots captured
// along the way and the not-yet-added groups kept as held-out probes.
struct History {
  std::vector<std::shared_ptr<const CorpusSnapshot>> snapshots;
  // Texts of the live groups at the last capture (corpus-side probes).
  std::vector<std::vector<std::string>> live_texts;
  std::vector<GroupArrival> held_out;
};

History RandomHistory(uint64_t seed, const LinkageConfig& config) {
  Rng rng(seed);
  const Dataset full =
      MakeCorpus(18 + static_cast<int32_t>(rng.Uniform(10)), seed);
  std::vector<size_t> order(full.groups.size());
  for (size_t g = 0; g < order.size(); ++g) order[g] = g;
  rng.Shuffle(order);
  const size_t seed_groups = order.size() / 2;

  Dataset seed_dataset;
  std::vector<GroupArrival> arrivals;
  for (size_t k = 0; k < order.size(); ++k) {
    const Group& source = full.groups[order[k]];
    if (k < seed_groups) {
      Group rebased;
      rebased.id = source.id;
      rebased.label = source.label;
      for (const int32_t r : source.record_ids) {
        rebased.record_ids.push_back(
            static_cast<int32_t>(seed_dataset.records.size()));
        seed_dataset.records.push_back(full.records[static_cast<size_t>(r)]);
      }
      seed_dataset.groups.push_back(std::move(rebased));
    } else {
      arrivals.push_back({source.label, GroupTexts(full, order[k])});
    }
  }
  GL_CHECK(seed_dataset.Validate().ok());

  auto linker = IncrementalLinker::Create(seed_dataset, config);
  GL_CHECK(linker.ok()) << linker.status().message();
  // Texts per group slot (empty once the group is dead).
  std::vector<std::vector<std::string>> texts;
  for (size_t g = 0; g < seed_dataset.groups.size(); ++g) {
    texts.push_back(GroupTexts(seed_dataset, g));
  }
  std::vector<std::vector<std::string>> removed;

  History history;
  history.snapshots.push_back(CorpusSnapshot::Capture(*linker));
  size_t next_arrival = 0;
  const size_t to_add = arrivals.size() / 2;
  for (int step = 0; step < 16; ++step) {
    std::vector<int32_t> live;
    for (int32_t g = 0; g < linker->num_groups(); ++g) {
      if (linker->IsAlive(g)) live.push_back(g);
    }
    const uint64_t op = rng.Uniform(10);
    if (op < 4 && next_arrival < to_add) {
      const GroupArrival& arrival = arrivals[next_arrival++];
      const auto added = linker->AddGroup(arrival.label, arrival.record_texts);
      texts.resize(static_cast<size_t>(linker->num_groups()));
      texts[static_cast<size_t>(added.group_index)] = arrival.record_texts;
    } else if (op < 6 && live.size() > 4) {
      const int32_t g = rng.Choice(live);
      removed.push_back(std::move(texts[static_cast<size_t>(g)]));
      texts[static_cast<size_t>(g)].clear();
      linker->RemoveGroup(g);
    } else if (op < 8 && live.size() > 4) {
      const int32_t into = rng.Choice(live);
      const int32_t from = rng.Choice(live);
      if (from == into) continue;
      linker->MergeGroups(into, from);
      std::vector<std::string>& target = texts[static_cast<size_t>(into)];
      std::vector<std::string>& source = texts[static_cast<size_t>(from)];
      target.insert(target.end(), source.begin(), source.end());
      source.clear();
    } else if (op < 9 && !removed.empty()) {
      // Re-add a removed group under a fresh slot.
      std::vector<std::string> again = std::move(removed.back());
      removed.pop_back();
      const auto added = linker->AddGroup("readded", again);
      texts.resize(static_cast<size_t>(linker->num_groups()));
      texts[static_cast<size_t>(added.group_index)] = std::move(again);
    } else {
      linker->Refresh();
    }
    if (step % 5 == 4) history.snapshots.push_back(CorpusSnapshot::Capture(*linker));
  }
  history.snapshots.push_back(CorpusSnapshot::Capture(*linker));
  for (const std::vector<std::string>& t : texts) {
    if (!t.empty()) history.live_texts.push_back(t);
  }
  history.held_out.assign(arrivals.begin() + static_cast<long>(to_add),
                          arrivals.end());
  return history;
}

// Probes built to stress the scoring path's edge cases around a real
// group's texts.
std::vector<GroupArrival> AwkwardProbes(const std::vector<std::string>& texts,
                                        uint64_t salt) {
  std::vector<GroupArrival> probes;
  // OOV tokens mixed into every record.
  GroupArrival oov{"oov", {}};
  for (size_t i = 0; i < texts.size(); ++i) {
    oov.record_texts.push_back(texts[i] + " qzxv" + std::to_string(salt) +
                               " wqjk" + std::to_string(i));
  }
  probes.push_back(std::move(oov));
  // Token-less records next to real ones, including a token-less-only
  // group.
  GroupArrival tokenless{"tokenless", texts};
  tokenless.record_texts.insert(tokenless.record_texts.begin(), "");
  tokenless.record_texts.push_back("-- ,, !!");
  probes.push_back(std::move(tokenless));
  probes.push_back({"only-tokenless", {"", "...", " "}});
  // Repeated tokens: every record doubled, plus one word repeated.
  GroupArrival repeated{"repeated", {}};
  for (const std::string& text : texts) {
    const std::string first = text.substr(0, text.find(' '));
    repeated.record_texts.push_back(text + " " + text + " " + first + " " +
                                    first);
  }
  probes.push_back(std::move(repeated));
  // Entirely unknown vocabulary.
  probes.push_back({"alien", {"zzgrxk qplwv", "vvbnmq wyzzkr zzgrxk"}});
  return probes;
}

TEST(WeightedPostingsTest, ScoresEqualPerPairCosineBitForBit) {
  // Every record of an epoch against every other, at a threshold low
  // enough to keep any pair sharing a weighted token: the hit set and
  // each score must be exactly PrenormalizedCosineSimilarity's.
  const History history = RandomHistory(99, LinkageConfig());
  const CorpusSnapshot& snapshot = *history.snapshots.back();
  const std::vector<SparseVector>& vectors = snapshot.record_vectors();
  std::vector<char> indexed(vectors.size(), 0);
  for (size_t r = 0; r < vectors.size(); r += 2) indexed[r] = 1;
  const WeightedPostings postings(
      static_cast<int32_t>(snapshot.epoch_vocab().size()), vectors, indexed);

  constexpr double kThreshold = 1e-12;
  size_t hits_seen = 0;
  std::vector<WeightedPostings::Hit> hits;
  std::vector<double> score(vectors.size());
  std::vector<char> hit(vectors.size());
  for (const SparseVector& probe : vectors) {
    hits.clear();
    postings.ScoresAtLeast(probe, kThreshold, &hits);
    std::fill(hit.begin(), hit.end(), 0);
    for (const WeightedPostings::Hit& h : hits) {
      ASSERT_EQ(hit[static_cast<size_t>(h.record)], 0) << "record reported twice";
      hit[static_cast<size_t>(h.record)] = 1;
      score[static_cast<size_t>(h.record)] = h.score;
    }
    for (size_t r = 0; r < vectors.size(); ++r) {
      const double expected = PrenormalizedCosineSimilarity(vectors[r], probe);
      if (indexed[r] != 0 && expected >= kThreshold) {
        ASSERT_EQ(hit[r], 1) << "record " << r;
        EXPECT_EQ(score[r], expected) << "record " << r;  // Bit-exact.
        ++hits_seen;
      } else {
        EXPECT_EQ(hit[r], 0) << "record " << r;
      }
    }
  }
  EXPECT_GT(hits_seen, vectors.size());
}

class SnapshotScoringTest : public ::testing::TestWithParam<double> {
 protected:
  LinkageConfig Config() const {
    LinkageConfig config;
    config.theta = GetParam();
    return config;
  }
};

TEST_P(SnapshotScoringTest, LinkQueryMatchesPerPairReference) {
  size_t queries = 0;
  size_t links = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const History history = RandomHistory(seed * 7919 + 17, Config());
    for (size_t s = 0; s < history.snapshots.size(); ++s) {
      const CorpusSnapshot& snapshot = *history.snapshots[s];
      ASSERT_TRUE(snapshot.CheckConsistency());
      const PagedEpoch paged(snapshot);
      const std::string where =
          "seed " + std::to_string(seed) + " snapshot " + std::to_string(s);
      std::vector<GroupArrival> probes = history.held_out;
      for (size_t k = 0; k < history.live_texts.size(); k += 4) {
        probes.push_back({"corpus", history.live_texts[k]});
        for (GroupArrival& awkward : AwkwardProbes(history.live_texts[k], k)) {
          probes.push_back(std::move(awkward));
        }
      }
      for (const GroupArrival& probe : probes) {
        ExpectMatchesReference(snapshot, paged, probe,
                               where + " probe " + probe.label);
        links += snapshot.LinkQuery(probe).linked_to.size();
        ++queries;
      }
    }
  }
  EXPECT_GT(queries, 100u);
  EXPECT_GT(links, 0u);  // The property must not hold vacuously.
}

TEST_P(SnapshotScoringTest, CandidateCapKeepsTheLowestGroupsAndASubset) {
  const History history = RandomHistory(4242, Config());
  const CorpusSnapshot& snapshot = *history.snapshots.back();
  const PagedEpoch paged(snapshot);
  size_t checked = 0;
  for (const std::vector<std::string>& texts : history.live_texts) {
    const GroupArrival probe{"probe", texts};
    const ReferenceAnswer full = PerPairQuery(snapshot, probe);
    if (full.candidates.size() < 3) continue;
    for (const size_t cap : {size_t{1}, full.candidates.size() / 2,
                             full.candidates.size() - 1}) {
      CorpusSnapshot::QueryOptions options;
      options.max_candidate_pairs = static_cast<int64_t>(cap);
      // Exactly the unconstrained links among the `cap` lowest candidates.
      std::vector<int32_t> expected;
      for (const int32_t g : full.linked_to) {
        if (g <= full.candidates[cap - 1]) expected.push_back(g);
      }
      for (const auto& [path, query] : QueryPaths(snapshot, paged)) {
        const auto capped = query(probe, options);
        ASSERT_TRUE(capped.ok()) << path << ": " << capped.status().ToString();
        EXPECT_EQ(capped->candidates, cap) << path;
        EXPECT_TRUE(capped->degraded) << path;
        EXPECT_EQ(capped->linked_to, expected) << path << " cap " << cap;
        EXPECT_TRUE(IsSubset(capped->linked_to, full.linked_to)) << path;
      }
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST_P(SnapshotScoringTest, CancelledAndExpiredQueriesReturnDegradedSubsets) {
  const History history = RandomHistory(777, Config());
  const CorpusSnapshot& snapshot = *history.snapshots.back();
  const PagedEpoch paged(snapshot);
  size_t checked = 0;
  for (const std::vector<std::string>& texts : history.live_texts) {
    const GroupArrival probe{"probe", texts};
    const ReferenceAnswer full = PerPairQuery(snapshot, probe);
    if (full.candidates.empty()) continue;

    CorpusSnapshot::QueryOptions cancelled;
    cancelled.cancellation.Cancel();
    CorpusSnapshot::QueryOptions expired;
    expired.deadline_ms = 1e-9;  // Past before the first candidate.
    for (const auto& [path, query] : QueryPaths(snapshot, paged)) {
      for (const CorpusSnapshot::QueryOptions& options : {cancelled, expired}) {
        const auto shed = query(probe, options);
        ASSERT_TRUE(shed.ok()) << path << ": " << shed.status().ToString();
        EXPECT_TRUE(shed->degraded) << path;
        EXPECT_EQ(shed->candidates, full.candidates.size()) << path;
        EXPECT_TRUE(IsSubset(shed->linked_to, full.linked_to)) << path;
      }
    }
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(Thetas, SnapshotScoringTest,
                         ::testing::Values(0.05, LinkageConfig().theta, 1.0));

TEST(SnapshotScoringConcurrencyTest, ReadersShareScratchAcrossEpochSizes) {
  // A small and a large epoch queried from several threads in
  // interleaved order: each thread's accumulator and group stamps are
  // reused across both sizes, and every answer must still be the
  // single-threaded one.
  const History small = RandomHistory(31, LinkageConfig());
  const History large = RandomHistory(32, LinkageConfig());
  struct Query {
    const CorpusSnapshot* snapshot;
    GroupArrival probe;
    std::vector<int32_t> linked_to;
    size_t candidates;
  };
  std::vector<Query> queries;
  for (const History* history : {&small, &large}) {
    const CorpusSnapshot* snapshot = history->snapshots.back().get();
    for (const std::vector<std::string>& texts : history->live_texts) {
      Query query{snapshot, {"probe", texts}, {}, 0};
      const ReferenceAnswer expected = PerPairQuery(*snapshot, query.probe);
      query.linked_to = expected.linked_to;
      query.candidates = expected.candidates.size();
      queries.push_back(std::move(query));
    }
  }
  ASSERT_GT(small.snapshots.back()->num_records(), 0);
  ASSERT_NE(small.snapshots.back()->num_records(),
            large.snapshots.back()->num_records());

  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        for (size_t k = 0; k < queries.size(); ++k) {
          // Alternate between the epochs in a per-thread order.
          const Query& query =
              queries[(k * 7 + static_cast<size_t>(t + round)) % queries.size()];
          const auto got = query.snapshot->LinkQuery(query.probe);
          if (got.linked_to != query.linked_to ||
              got.candidates != query.candidates) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace grouplink
