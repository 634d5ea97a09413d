#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/snapshot.h"
#include "report.h"

namespace perfbench {

/// Work counts of one replayed query.
struct ReplayCounts {
  size_t oov_tokens = 0;
  size_t docs = 0;  // Postings documents returned by the index.
  size_t candidates = 0;
  size_t sim_evals = 0;
  size_t empty_graphs = 0;
  size_t ub_pruned = 0;
  size_t lb_accepted = 0;
  size_t refined = 0;
  std::vector<int32_t> linked_to;
};

/// Work counts summed over replayed queries.
struct ReplayTotals {
  int64_t queries = 0;
  double oov = 0, docs = 0, candidates = 0, sim_evals = 0, empty = 0;
  double ub_pruned = 0, lb_accepted = 0, refined = 0, links = 0;
  double live_groups = 0;  // Base of index.candidates_per_query.

  void Add(const ReplayCounts& counts);
};

/// Sets the per-query layer metrics: self times of the replay spans and
/// the summed counts, each divided by the number of replayed queries.
void SetReplayMetrics(const ReplayTotals& totals, Report& report);

/// Answers `probe` on `snapshot` the way CorpusSnapshot::LinkQuery does,
/// but one layer at a time through each layer's public functions, with a
/// span around each: text.probe_prep (Tokenize, ToTokenSet,
/// Vocabulary::GetId, TfIdfVectorizer::Vectorize), index.candidates
/// (InvertedIndex::DocumentsSharingToken), core.graph
/// (PrenormalizedCosineSimilarity into a BipartiteGraph), and core.ladder
/// (UpperBoundMeasure, GreedyLowerBound, and matching.refine around
/// BmMeasure). The caller compares the result with LinkQuery's.
[[nodiscard]] ReplayCounts ReplayQuery(const grouplink::CorpusSnapshot& snapshot,
                                       const grouplink::GroupArrival& probe,
                                       int64_t id);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
