#include "core/snapshot.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"
#include "core/filter_refine.h"
#include "matching/bipartite_graph.h"
#include "text/tokenizer.h"

namespace grouplink {
namespace {

struct SnapshotMetrics {
  Counter& captured;
  Counter& retired;
  Gauge& live;

  static SnapshotMetrics& Get() {
    auto& registry = MetricsRegistry::Default();
    static SnapshotMetrics metrics{registry.CounterRef("snapshot.captured"),
                                   registry.CounterRef("snapshot.retired"),
                                   registry.GaugeRef("snapshot.live")};
    return metrics;
  }
};

}  // namespace

std::shared_ptr<const CorpusSnapshot> CorpusSnapshot::Capture(
    const IncrementalLinker& linker) {
  GL_CHECK(linker.initialized_) << "Capture requires an initialized linker";
  auto& metrics = SnapshotMetrics::Get();
  // The deleter is how retired epochs report their reclamation: the
  // live gauge tracks epochs still referenced somewhere (current + any
  // held by in-flight readers), the retired counter the total reclaimed.
  std::shared_ptr<CorpusSnapshot> snapshot(
      new CorpusSnapshot(), [&metrics](CorpusSnapshot* s) {
        delete s;
        metrics.retired.Increment();
        metrics.live.Add(-1.0);
      });

  snapshot->config_ = linker.config_;
  snapshot->epoch_ = linker.epoch_;
  snapshot->index_vocab_ = linker.index_vocab_;
  snapshot->token_index_ = linker.token_index_;
  snapshot->epoch_vocab_ = linker.epoch_vocab_;
  snapshot->record_vectors_ = linker.record_vectors_;
  snapshot->record_group_ = linker.record_group_;
  // Raw occurrences re-encoded as index-vocab ids: every raw token of a
  // live record was absorbed into the index vocabulary at arrival, so the
  // lookup never misses; tombstoned records have empty raw tokens.
  snapshot->record_token_ids_.resize(linker.record_raw_tokens_.size());
  for (size_t r = 0; r < linker.record_raw_tokens_.size(); ++r) {
    std::vector<int32_t>& ids = snapshot->record_token_ids_[r];
    ids.reserve(linker.record_raw_tokens_[r].size());
    for (const std::string& token : linker.record_raw_tokens_[r]) {
      const int32_t id = linker.index_vocab_.GetId(token);
      GL_DCHECK_NE(id, Vocabulary::kUnknownToken);
      ids.push_back(id);
    }
  }
  snapshot->group_records_ = linker.group_records_;
  snapshot->group_labels_ = linker.group_labels_;
  snapshot->group_alive_ = linker.group_alive_;
  snapshot->num_alive_groups_ = linker.num_alive_groups_;
  snapshot->linked_pairs_ = linker.linked_pairs_;
  snapshot->cluster_labels_ = linker.ClusterLabels();
  snapshot->scoring_ =
      LiveScoringIndex(static_cast<int32_t>(snapshot->epoch_vocab_.size()),
                       snapshot->record_vectors_, snapshot->group_records_,
                       snapshot->group_alive_);
  // Last write: the seal. Anything observing an unsealed snapshot went
  // around the publication barrier.
  snapshot->seal_ = kSealed;

  metrics.captured.Increment();
  metrics.live.Add(1.0);
  return snapshot;
}

Result<std::shared_ptr<const CorpusSnapshot>> CorpusSnapshot::FromParts(
    Parts parts) {
  auto& metrics = SnapshotMetrics::Get();
  // Same deleter contract as Capture: a recovered epoch participates in
  // the snapshot.live / snapshot.retired reclamation accounting.
  std::shared_ptr<CorpusSnapshot> snapshot(
      new CorpusSnapshot(), [&metrics](CorpusSnapshot* s) {
        delete s;
        metrics.retired.Increment();
        metrics.live.Add(-1.0);
      });
  snapshot->config_ = std::move(parts.config);
  snapshot->epoch_ = parts.epoch;
  snapshot->index_vocab_ = std::move(parts.index_vocab);
  snapshot->token_index_ = std::move(parts.token_index);
  snapshot->epoch_vocab_ = std::move(parts.epoch_vocab);
  snapshot->record_vectors_ = std::move(parts.record_vectors);
  snapshot->record_group_ = std::move(parts.record_group);
  snapshot->record_token_ids_ = std::move(parts.record_token_ids);
  snapshot->group_records_ = std::move(parts.group_records);
  snapshot->group_labels_ = std::move(parts.group_labels);
  snapshot->group_alive_ = std::move(parts.group_alive);
  snapshot->num_alive_groups_ = parts.num_alive_groups;
  snapshot->linked_pairs_ = std::move(parts.linked_pairs);
  snapshot->cluster_labels_ = std::move(parts.cluster_labels);
  snapshot->seal_ = kSealed;
  if (!snapshot->CheckConsistency()) {
    return Status::DataLoss(
        "recovered snapshot failed the consistency check: the store decoded "
        "cleanly but does not describe a valid epoch");
  }
  snapshot->scoring_ =
      LiveScoringIndex(static_cast<int32_t>(snapshot->epoch_vocab_.size()),
                       snapshot->record_vectors_, snapshot->group_records_,
                       snapshot->group_alive_);
  metrics.captured.Increment();
  metrics.live.Add(1.0);
  return std::shared_ptr<const CorpusSnapshot>(std::move(snapshot));
}

LiveScoringIndex::LiveScoringIndex(
    int32_t num_tokens, const std::vector<SparseVector>& vectors,
    const std::vector<std::vector<int32_t>>& group_records,
    const std::vector<char>& group_alive) {
  std::vector<char> live(vectors.size(), 0);
  record_slot.assign(vectors.size(), -1);
  for (size_t g = 0; g < group_records.size(); ++g) {
    if (!group_alive[g]) continue;
    const std::vector<int32_t>& records = group_records[g];
    for (size_t i = 0; i < records.size(); ++i) {
      live[static_cast<size_t>(records[i])] = 1;
      record_slot[static_cast<size_t>(records[i])] = static_cast<int32_t>(i);
    }
  }
  postings = WeightedPostings(num_tokens, vectors, live);
}

CorpusSnapshot::QueryResult CorpusSnapshot::LinkQuery(
    const GroupArrival& group, const QueryOptions& options) const {
  GL_CHECK_EQ(seal_, kSealed) << "LinkQuery on an unsealed snapshot";
  const QueryPlan plan{
      epoch_, &config_, &index_vocab_, &epoch_vocab_, &token_index_.removed(),
      &record_group_, &scoring_.record_slot, &group_records_, &group_alive_,
      [this](int32_t token, std::vector<int32_t>*) {
        return Result<std::span<const int32_t>>(token_index_.Postings(token));
      },
      [this](const auto& probes, auto* hits) {
        for (size_t j = 0; j < probes.size(); ++j) {
          scoring_.postings.ScoresAtLeast(probes[j], config_.theta, &(*hits)[j]);
        }
        return Status::Ok();
      }};
  return RunLinkQuery(plan, group, options).value();
}

Result<CorpusSnapshot::QueryResult> CorpusSnapshot::RunLinkQuery(
    const QueryPlan& plan, const GroupArrival& group,
    const QueryOptions& options) {
  GL_CHECK(!group.record_texts.empty()) << "groups must have records";

  QueryResult result;
  result.epoch = plan.epoch;

  // Probe preparation mirrors the arrival path (AddGroups phases A-C) on
  // the frozen epoch: tokenize, map tokens into the index id space for
  // candidate generation, vectorize against the epoch vocabulary. Tokens
  // the index has never seen cannot match any posting (an arrival would
  // have absorbed them with empty postings), so dropping them here yields
  // the identical candidate set.
  const size_t probe_size = group.record_texts.size();
  std::vector<int32_t> probe_tokens;
  std::vector<SparseVector> probe_vectors(probe_size);
  const TfIdfVectorizer vectorizer(plan.epoch_vocab);
  for (size_t i = 0; i < probe_size; ++i) {
    const std::vector<std::string> raw = Tokenize(group.record_texts[i]);
    const std::vector<std::string> set = ToTokenSet(raw);
    for (const std::string& token : set) {
      const int32_t id = plan.index_vocab->GetId(token);
      if (id != Vocabulary::kUnknownToken) probe_tokens.push_back(id);
      if (plan.epoch_vocab->GetId(token) == Vocabulary::kUnknownToken) {
        ++result.oov_tokens;
      }
    }
    probe_vectors[i] = vectorizer.Vectorize(raw);
  }
  std::sort(probe_tokens.begin(), probe_tokens.end());
  probe_tokens.erase(std::unique(probe_tokens.begin(), probe_tokens.end()),
                     probe_tokens.end());

  ExecutionContext ctx;
  if (options.deadline_ms > 0.0) ctx.SetDeadline(options.deadline_ms);
  ctx.SetCancellation(options.cancellation);
  ctx.SetMaxCandidatePairs(options.max_candidate_pairs);
  ctx.SetMaxMatcherCost(options.max_matcher_cost);

  // Candidate groups: the live groups owning a non-tombstoned record that
  // shares any probe token. Each distinct token's postings are walked
  // once, and groups are deduplicated by stamp as they are found.
  thread_local StampSet seen;
  seen.Clear(plan.group_records->size());
  std::vector<int32_t> candidates;
  std::vector<int32_t> scratch;
  for (const int32_t token : probe_tokens) {
    GL_ASSIGN_OR_RETURN(const std::span<const int32_t> docs,
                        plan.postings(token, &scratch));
    for (const int32_t doc : docs) {
      if ((*plan.record_removed)[static_cast<size_t>(doc)] != 0) continue;
      const int32_t g = (*plan.record_group)[static_cast<size_t>(doc)];
      if ((*plan.group_alive)[static_cast<size_t>(g)] == 0) continue;
      if (seen.Insert(g)) candidates.push_back(g);
    }
  }
  std::sort(candidates.begin(), candidates.end());
  const size_t cap = ctx.EffectiveCandidateCap(candidates.size());
  if (cap < candidates.size()) {
    candidates.resize(cap);
    ctx.NoteDegraded();
  }
  result.candidates = candidates.size();

  // θ-edges of every probe record against the whole live corpus, by
  // term-at-a-time accumulation over the weighted postings; each score
  // equals the per-pair PrenormalizedCosineSimilarity bit for bit (see
  // the class comment). Sorted by (group, slot, probe record), each
  // group's edges form one run in the order a per-pair build over
  // (corpus slot, probe record) would have added them.
  struct Edge {
    int32_t group;
    int32_t slot;
    int32_t probe;
    double score;
  };
  std::vector<Edge> edges;
  if (!candidates.empty()) {
    std::vector<std::vector<WeightedPostings::Hit>> hits(probe_size);
    GL_RETURN_IF_ERROR(plan.score(probe_vectors, &hits));
    for (size_t j = 0; j < probe_size; ++j) {
      for (const WeightedPostings::Hit& hit : hits[j]) {
        const size_t r = static_cast<size_t>(hit.record);
        edges.push_back({(*plan.record_group)[r], (*plan.record_slot)[r],
                         static_cast<int32_t>(j), hit.score});
      }
    }
    std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
      if (a.group != b.group) return a.group < b.group;
      if (a.slot != b.slot) return a.slot < b.slot;
      return a.probe < b.probe;
    });
  }

  const FilterRefineConfig fr_config = plan.config->filter_refine();
  const int32_t size_right = static_cast<int32_t>(probe_size);
  size_t next = 0;
  for (const int32_t g : candidates) {
    if (ctx.StopRequested()) {
      ctx.NoteDegraded();
      break;
    }
    // Candidates ascend like the edge runs, so one cursor finds g's run;
    // runs of groups outside the (capped) candidate set are skipped.
    while (next < edges.size() && edges[next].group < g) ++next;
    const size_t first = next;
    while (next < edges.size() && edges[next].group == g) ++next;
    // No θ-edge: the ladder rejects an empty graph outright.
    if (first == next) continue;
    // The corpus group is the left side, the probe the right — the same
    // orientation as the arrival path's DecideLink(other, new_group).
    const int32_t size_left = static_cast<int32_t>(
        (*plan.group_records)[static_cast<size_t>(g)].size());
    BipartiteGraph graph(size_left, size_right);
    for (size_t k = first; k < next; ++k) {
      graph.AddEdge(edges[k].slot, edges[k].probe, edges[k].score);
    }
    if (IsLink(DecideGraph(graph, size_left, size_right, fr_config, &ctx))) {
      result.linked_to.push_back(g);
    }
  }
  result.degraded = ctx.degraded();
  return result;
}

bool CorpusSnapshot::CheckConsistency() const {
  if (seal_ != kSealed) return false;
  const size_t n_records = record_vectors_.size();
  const size_t n_groups = group_records_.size();
  if (record_group_.size() != n_records) return false;
  if (record_token_ids_.size() != n_records) return false;
  // The index is a per-record document index: ids align with record ids.
  if (static_cast<size_t>(token_index_.num_documents()) != n_records) return false;
  if (group_labels_.size() != n_groups) return false;
  if (group_alive_.size() != n_groups) return false;
  if (cluster_labels_.size() != n_groups) return false;
  int32_t alive = 0;
  for (const char a : group_alive_) alive += a != 0 ? 1 : 0;
  if (alive != num_alive_groups_) return false;
  for (const int32_t g : record_group_) {
    if (g < 0 || static_cast<size_t>(g) >= n_groups) return false;
  }
  // The scoring index addresses postings by vector id and records by
  // their slot in the group list; both must be well formed.
  const size_t n_tokens = epoch_vocab_.size();
  for (const SparseVector& v : record_vectors_) {
    if (v.ids.size() != v.weights.size()) return false;
    for (size_t k = 0; k < v.ids.size(); ++k) {
      const int32_t id = v.ids[k];
      if (id < 0 || static_cast<size_t>(id) >= n_tokens) return false;
      if (k > 0 && v.ids[k - 1] >= id) return false;  // Sorted, unique.
    }
  }
  std::vector<char> listed(n_records, 0);
  for (size_t g = 0; g < n_groups; ++g) {
    for (const int32_t r : group_records_[g]) {
      if (r < 0 || static_cast<size_t>(r) >= n_records) return false;
      if (static_cast<size_t>(record_group_[static_cast<size_t>(r)]) != g) {
        return false;
      }
      if (listed[static_cast<size_t>(r)] != 0) return false;
      listed[static_cast<size_t>(r)] = 1;
    }
  }
  std::pair<int32_t, int32_t> prev{-1, -1};
  for (const auto& pair : linked_pairs_) {
    if (pair.first >= pair.second) return false;
    if (pair <= prev) return false;  // Sorted, no duplicates.
    if (!IsAlive(pair.first) || !IsAlive(pair.second)) return false;
    prev = pair;
  }
  return true;
}

}  // namespace grouplink
