#include "replay.h"

#include <algorithm>
#include <map>
#include <string>

#include "core/group_measures.h"
#include "matching/bipartite_graph.h"
#include "report.h"
#include "text/tfidf.h"
#include "text/tokenizer.h"

namespace perfbench {

using grouplink::BipartiteGraph;
using grouplink::SparseVector;
using grouplink::Vocabulary;

void ReplayTotals::Add(const ReplayCounts& counts) {
  ++queries;
  oov += static_cast<double>(counts.oov_tokens);
  docs += static_cast<double>(counts.docs);
  candidates += static_cast<double>(counts.candidates);
  sim_evals += static_cast<double>(counts.sim_evals);
  empty += static_cast<double>(counts.empty_graphs);
  ub_pruned += static_cast<double>(counts.ub_pruned);
  lb_accepted += static_cast<double>(counts.lb_accepted);
  refined += static_cast<double>(counts.refined);
  links += static_cast<double>(counts.linked_to.size());
}

void SetReplayMetrics(const ReplayTotals& totals, Report& report) {
  const double q = static_cast<double>(std::max<int64_t>(1, totals.queries));
  const std::map<std::string, double> spans = SpanLog::Get().SelfMs();
  const auto self_ms = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second;
  };
  report.Set("text.probe_prep_ms", self_ms("text.probe_prep") / q);
  report.Set("text.oov_tokens_per_query", totals.oov / q);
  report.Set("index.candidates_ms", self_ms("index.candidates") / q);
  report.Set("index.docs_per_query", totals.docs / q);
  report.Set("index.candidates_per_query", totals.candidates / q);
  report.Set("index.live_groups", totals.live_groups);
  report.Set("core.graph_ms", self_ms("core.graph") / q);
  report.Set("core.sim_evals_per_query", totals.sim_evals / q);
  report.Set("core.empty_graph_frac",
             totals.candidates > 0 ? totals.empty / totals.candidates : 0.0);
  report.Set("core.ladder_ms", self_ms("core.ladder") / q);
  report.Set("core.ub_pruned_per_query", totals.ub_pruned / q);
  report.Set("core.lb_accepted_per_query", totals.lb_accepted / q);
  report.Set("core.refined_per_query", totals.refined / q);
  report.Set("core.links_per_query", totals.links / q);
  report.Set("core.link_yield", totals.candidates > 0 ? totals.links / totals.candidates : 0.0);
  report.Set("matching.refine_ms", self_ms("matching.refine") / q);
}

ReplayCounts ReplayQuery(const grouplink::CorpusSnapshot& snapshot,
                         const grouplink::GroupArrival& probe, int64_t id) {
  ReplayCounts counts;
  const Span query_span("replay.query", id);
  const size_t probe_size = probe.record_texts.size();
  std::vector<std::vector<int32_t>> probe_ids(probe_size);
  std::vector<SparseVector> probe_vectors(probe_size);
  {
    const Span span("text.probe_prep", id);
    const grouplink::TfIdfVectorizer vectorizer(&snapshot.epoch_vocab());
    for (size_t i = 0; i < probe_size; ++i) {
      const std::vector<std::string> raw = grouplink::Tokenize(probe.record_texts[i]);
      for (const std::string& token : grouplink::ToTokenSet(raw)) {
        const int32_t index_id = snapshot.index_vocab().GetId(token);
        if (index_id != Vocabulary::kUnknownToken) probe_ids[i].push_back(index_id);
        if (snapshot.epoch_vocab().GetId(token) == Vocabulary::kUnknownToken) {
          ++counts.oov_tokens;
        }
      }
      std::sort(probe_ids[i].begin(), probe_ids[i].end());
      probe_vectors[i] = vectorizer.Vectorize(raw);
    }
  }

  std::vector<int32_t> candidates;
  {
    const Span span("index.candidates", id);
    for (const std::vector<int32_t>& ids : probe_ids) {
      const std::vector<int32_t> docs = snapshot.token_index().DocumentsSharingToken(ids);
      counts.docs += docs.size();
      for (const int32_t doc : docs) {
        const int32_t g = snapshot.record_group()[static_cast<size_t>(doc)];
        if (snapshot.IsAlive(g)) candidates.push_back(g);
      }
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());
  }
  counts.candidates = candidates.size();

  const grouplink::LinkageConfig& config = snapshot.engine_config();
  const int32_t size_right = static_cast<int32_t>(probe_size);
  std::vector<BipartiteGraph> graphs;
  graphs.reserve(candidates.size());
  {
    // Corpus group on the left, probe on the right: LinkQuery's orientation.
    const Span span("core.graph", id);
    for (const int32_t g : candidates) {
      const std::vector<int32_t>& left = snapshot.group_records()[static_cast<size_t>(g)];
      BipartiteGraph& graph =
          graphs.emplace_back(static_cast<int32_t>(left.size()), size_right);
      for (size_t i = 0; i < left.size(); ++i) {
        const SparseVector& corpus_vector =
            snapshot.record_vectors()[static_cast<size_t>(left[i])];
        for (size_t j = 0; j < probe_size; ++j) {
          const double s =
              grouplink::PrenormalizedCosineSimilarity(corpus_vector, probe_vectors[j]);
          ++counts.sim_evals;
          if (s >= config.theta) {
            graph.AddEdge(static_cast<int32_t>(i), static_cast<int32_t>(j), s);
          }
        }
      }
    }
  }

  // The filter-and-refine ladder, rung by rung (DecideGraphLinked).
  const bool use_ub = config.use_filter_refine && config.use_upper_bound_filter;
  const bool use_lb = config.use_filter_refine && config.use_lower_bound_accept;
  const Span ladder_span("core.ladder", id);
  for (size_t c = 0; c < candidates.size(); ++c) {
    const BipartiteGraph& graph = graphs[c];
    const int32_t size_left =
        static_cast<int32_t>(snapshot.group_records()[static_cast<size_t>(candidates[c])].size());
    if (graph.edges().empty()) {
      ++counts.empty_graphs;
      continue;
    }
    if (use_ub &&
        grouplink::UpperBoundMeasure(graph, size_left, size_right) < config.group_threshold) {
      ++counts.ub_pruned;
      continue;
    }
    if (use_lb &&
        grouplink::GreedyLowerBound(graph, size_left, size_right) >= config.group_threshold) {
      ++counts.lb_accepted;
      counts.linked_to.push_back(candidates[c]);
      continue;
    }
    ++counts.refined;
    double bm = 0.0;
    {
      const Span span("matching.refine", id);
      bm = grouplink::BmMeasure(graph, size_left, size_right).value;
    }
    if (bm >= config.group_threshold) counts.linked_to.push_back(candidates[c]);
  }
  return counts;
}

}  // namespace perfbench
