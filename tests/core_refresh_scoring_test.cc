// Differential suite for IncrementalLinker::Refresh. The refresh finds
// θ-edges by term-at-a-time accumulation over the epoch's weighted
// postings and decides only the group pairs that have one. The reference
// below is the token-sharing rescore it replaced: every group pair with a
// record pair sharing an index token, each graph built pair by pair with
// PrenormalizedCosineSimilarity and decided by FilterRefineLink. Seeded
// random histories (batched adds, removes, merges, re-adds, token-less and
// repeated-token records, duplicate one-token records whose cosine is
// exactly 1.0) at θ ∈ {0.05, 0.4, 1.0} and 1 or 4 threads must give the
// same linked_pairs after every refresh, with and without a candidate
// cap. Completeness: at a group threshold low enough that any θ-edge
// links, the refreshed link set is exactly the set of group pairs whose
// reference graph is non-empty. Registered a second time with
// GROUPLINK_FORCE_SCALAR=1 and in the TSan job.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/filter_refine.h"
#include "core/incremental.h"
#include "core/snapshot.h"
#include "data/bibliographic_generator.h"
#include "text/tfidf.h"

namespace grouplink {
namespace {

using Pairs = std::vector<std::pair<int32_t, int32_t>>;

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

// The refresh as it was before θ-edge generation, over a refreshed
// epoch's captured parts: token-sharing candidates (each live record
// against the earlier records sharing an index token, lifted to sorted
// unique group pairs), then FilterRefineLink with a per-pair cosine sim
// under the same candidate cap. `nonempty` receives the candidates whose
// θ-graph has at least one edge, `edges` the θ-edges over all of them.
Pairs ReferenceRefresh(const CorpusSnapshot& epoch, int64_t max_candidate_pairs,
                       ThreadPool* pool, Pairs* nonempty, size_t* edges) {
  const InvertedIndex& index = epoch.token_index();
  const std::vector<int32_t>& record_group = epoch.record_group();
  Pairs candidates;
  for (int32_t r = 0; r < epoch.num_records(); ++r) {
    if (index.IsRemoved(r)) continue;
    const int32_t g2 = record_group[static_cast<size_t>(r)];
    for (const int32_t doc : index.DocumentsSharingToken(index.DocumentTokens(r))) {
      if (doc >= r) break;
      const int32_t g1 = record_group[static_cast<size_t>(doc)];
      if (g1 != g2) candidates.emplace_back(std::min(g1, g2), std::max(g1, g2));
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  Dataset view;
  view.groups.resize(epoch.group_records().size());
  for (size_t g = 0; g < view.groups.size(); ++g) {
    view.groups[g].record_ids = epoch.group_records()[g];
  }
  const std::vector<SparseVector>& vectors = epoch.record_vectors();
  const RecordSimFn sim = [&vectors](int32_t a, int32_t b) {
    return PrenormalizedCosineSimilarity(vectors[static_cast<size_t>(a)],
                                         vectors[static_cast<size_t>(b)]);
  };
  const FilterRefineConfig config = epoch.engine_config().filter_refine();
  nonempty->clear();
  *edges = 0;
  for (const auto& [g1, g2] : candidates) {
    const size_t n = BuildSimilarityGraph(view, g1, g2, sim, config.theta).edges().size();
    if (n > 0) nonempty->emplace_back(g1, g2);
    *edges += n;
  }
  ExecutionContext ctx;
  ctx.SetMaxCandidatePairs(max_candidate_pairs);
  return FilterRefineLink(view, sim, candidates, config, nullptr, pool, &ctx);
}

// Arrivals built to stress the θ-edge pass around a real group's texts:
// token-less records, repeated tokens, and one-token records that repeat
// across groups (identical one-token vectors have cosine exactly 1.0).
std::vector<GroupArrival> AwkwardArrivals(const std::vector<std::string>& texts,
                                          Rng& rng) {
  static const char* const kWords[] = {"smith", "ullman", "widom", "garcia"};
  const std::string word = kWords[rng.Uniform(4)];
  std::vector<GroupArrival> arrivals;
  GroupArrival tokenless{"tokenless", texts};
  tokenless.record_texts.insert(tokenless.record_texts.begin(), "");
  tokenless.record_texts.push_back("-- ,, !!");
  arrivals.push_back(std::move(tokenless));
  arrivals.push_back({"only-tokenless", {"", "...", " "}});
  GroupArrival repeated{"repeated", {}};
  for (const std::string& text : texts) {
    const std::string first = text.substr(0, text.find(' '));
    repeated.record_texts.push_back(text + " " + text + " " + first + " " + first);
  }
  arrivals.push_back(std::move(repeated));
  arrivals.push_back({"one-token", {word}});
  arrivals.push_back({"one-token-again", {word, word + " " + word}});
  return arrivals;
}

struct Setting {
  double theta;
  int32_t threads;
  int64_t max_candidate_pairs;
  double group_threshold;
};

// Runs one seeded random history under `setting`, checking the refreshed
// link set against the reference after Create and after every refresh.
// Returns the number of reference links seen (so callers can require the
// property to hold non-vacuously).
size_t CheckHistory(uint64_t seed, const Setting& setting) {
  LinkageConfig config;
  config.theta = setting.theta;
  config.group_threshold = setting.group_threshold;
  config.num_threads = setting.threads;
  config.max_candidate_pairs = setting.max_candidate_pairs;
  std::unique_ptr<ThreadPool> pool;
  if (setting.threads > 1) {
    pool = std::make_unique<ThreadPool>(static_cast<size_t>(setting.threads));
  }
  Counter& rescored =
      MetricsRegistry::Default().CounterRef("incremental.refresh_rescored_pairs");
  Counter& theta_edges =
      MetricsRegistry::Default().CounterRef("incremental.refresh_theta_edges");

  Rng rng(seed);
  const Dataset full = MakeCorpus(14 + static_cast<int32_t>(rng.Uniform(8)), seed);
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
        rebased.record_ids.push_back(static_cast<int32_t>(seed_dataset.records.size()));
        seed_dataset.records.push_back(full.records[static_cast<size_t>(r)]);
      }
      seed_dataset.groups.push_back(std::move(rebased));
    } else {
      arrivals.push_back({source.label, GroupTexts(full, order[k])});
    }
  }
  GL_CHECK(seed_dataset.Validate().ok());

  const std::string where = "seed " + std::to_string(seed) + " theta " +
                            std::to_string(setting.theta) + " threads " +
                            std::to_string(setting.threads) + " cap " +
                            std::to_string(setting.max_candidate_pairs);
  size_t links_seen = 0;
  uint64_t rescored_before = rescored.Value();
  uint64_t edges_before = theta_edges.Value();
  auto check = [&](const IncrementalLinker& linker, const std::string& when) {
    const uint64_t rescored_pairs = rescored.Value() - rescored_before;
    const uint64_t edges_found = theta_edges.Value() - edges_before;
    const auto epoch = CorpusSnapshot::Capture(linker);
    Pairs nonempty;
    size_t edges = 0;
    const Pairs expected = ReferenceRefresh(*epoch, setting.max_candidate_pairs,
                                            pool.get(), &nonempty, &edges);
    EXPECT_EQ(linker.linked_pairs(), expected) << where << " " << when;
    // The refresh decides exactly the pairs with a θ-edge, and finds each
    // θ-edge once.
    EXPECT_EQ(rescored_pairs, nonempty.size()) << where << " " << when;
    EXPECT_EQ(edges_found, edges) << where << " " << when;
    if (setting.max_candidate_pairs == 0 && setting.group_threshold < 1e-3) {
      // Any θ-edge links at this Θ: the link set is the edge-run set.
      EXPECT_EQ(linker.linked_pairs(), nonempty) << where << " " << when;
    }
    links_seen += expected.size();
  };

  auto created = IncrementalLinker::Create(seed_dataset, config);
  GL_CHECK(created.ok()) << created.status().message();
  IncrementalLinker& linker = *created;
  check(linker, "create");

  std::vector<std::vector<std::string>> texts;
  for (size_t g = 0; g < seed_dataset.groups.size(); ++g) {
    texts.push_back(GroupTexts(seed_dataset, g));
  }
  std::vector<std::vector<std::string>> removed;
  auto record_added = [&](const std::vector<GroupArrival>& batch,
                          const std::vector<IncrementalLinker::AddResult>& results) {
    texts.resize(static_cast<size_t>(linker.num_groups()));
    for (size_t k = 0; k < batch.size(); ++k) {
      texts[static_cast<size_t>(results[k].group_index)] = batch[k].record_texts;
    }
  };
  size_t next_arrival = 0;
  for (int step = 0; step < 14; ++step) {
    std::vector<int32_t> live;
    for (int32_t g = 0; g < linker.num_groups(); ++g) {
      if (linker.IsAlive(g)) live.push_back(g);
    }
    const uint64_t op = rng.Uniform(12);
    if (op < 3 && next_arrival < arrivals.size()) {
      std::vector<GroupArrival> batch;
      for (uint64_t b = 1 + rng.Uniform(3); b > 0 && next_arrival < arrivals.size(); --b) {
        batch.push_back(arrivals[next_arrival++]);
      }
      record_added(batch, linker.AddGroups(batch));
    } else if (op < 4 && !live.empty()) {
      const std::vector<GroupArrival> batch =
          AwkwardArrivals(texts[static_cast<size_t>(rng.Choice(live))], rng);
      record_added(batch, linker.AddGroups(batch));
    } else if (op < 6 && live.size() > 4) {
      const int32_t g = rng.Choice(live);
      removed.push_back(std::move(texts[static_cast<size_t>(g)]));
      texts[static_cast<size_t>(g)].clear();
      linker.RemoveGroup(g);
    } else if (op < 8 && live.size() > 4) {
      const int32_t into = rng.Choice(live);
      const int32_t from = rng.Choice(live);
      if (from == into) continue;
      linker.MergeGroups(into, from);
      std::vector<std::string>& target = texts[static_cast<size_t>(into)];
      std::vector<std::string>& source = texts[static_cast<size_t>(from)];
      target.insert(target.end(), source.begin(), source.end());
      source.clear();
    } else if (op < 9 && !removed.empty()) {
      const std::vector<GroupArrival> batch{{"readded", std::move(removed.back())}};
      removed.pop_back();
      record_added(batch, linker.AddGroups(batch));
    } else {
      rescored_before = rescored.Value();
      edges_before = theta_edges.Value();
      linker.Refresh();
      check(linker, "step " + std::to_string(step));
    }
  }
  rescored_before = rescored.Value();
  edges_before = theta_edges.Value();
  linker.Refresh();
  check(linker, "final");
  return links_seen;
}

class RefreshScoringTest : public ::testing::TestWithParam<double> {};

TEST_P(RefreshScoringTest, RefreshMatchesTokenSharingRescore) {
  for (const int32_t threads : {1, 4}) {
    size_t links = 0;
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      links += CheckHistory(seed * 6151 + 7, {GetParam(), threads, 0, 0.25});
    }
    EXPECT_GT(links, 0u) << "threads " << threads;
  }
}

TEST_P(RefreshScoringTest, CappedRefreshKeepsTheSameLinks) {
  // Empty pairs rank last under the UB-ordered cap, so dropping them from
  // the candidate list leaves the kept non-empty pairs, and the links,
  // unchanged — whether the cap bites into the non-empty pairs or not.
  for (const int32_t threads : {1, 4}) {
    for (const int64_t cap : {int64_t{1}, int64_t{4}, int64_t{40}}) {
      CheckHistory(77 + static_cast<uint64_t>(cap), {GetParam(), threads, cap, 0.25});
    }
  }
}

TEST_P(RefreshScoringTest, EveryThetaEdgePairIsDecided) {
  for (const int32_t threads : {1, 4}) {
    size_t links = 0;
    for (uint64_t seed = 11; seed <= 12; ++seed) {
      links += CheckHistory(seed, {GetParam(), threads, 0, 1e-6});
    }
    EXPECT_GT(links, 0u) << "threads " << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Thetas, RefreshScoringTest,
                         ::testing::Values(0.05, 0.4, 1.0));

}  // namespace
}  // namespace grouplink
