#include "core/filter_refine.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "text/simd_kernels.h"

namespace grouplink {
namespace {

// Sorted-unique union of the vector-store token ids of one group's
// records, as unsigned ids for the set-intersection kernel (ids are dense
// and non-negative). Zero intersection between two groups' unions means no
// record pair shares a weighted token, so every default-sim record
// similarity is 0 and the θ-thresholded graph is provably empty.
std::vector<uint32_t> GroupTokenUnion(const Group& group, const VectorStore& store) {
  std::vector<uint32_t> tokens;
  for (const int32_t record : group.record_ids) {
    for (const int32_t id : store.TokenIds(record)) {
      tokens.push_back(static_cast<uint32_t>(id));
    }
  }
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  return tokens;
}

// Filter-and-refine is only sound if the upper bound really bounds the
// refined measure (a pair pruned by UB must never have linked). Epsilon
// absorbs the different summation orders of the two computations.
constexpr double kBoundSlack = 1e-9;

// Deterministic candidate cap: keeps the `cap` pairs with the highest
// upper-bound score (ties to the lower index), sheds the rest. Returns
// the kept flags. The UB pass itself is not stop-checked so the kept set
// depends only on the candidates, never on timing or thread count.
std::vector<char> CapCandidatesByUpperBound(
    const Dataset& dataset,
    const std::vector<std::pair<int32_t, int32_t>>& candidates,
    const CandidateGraphFn& graph_of, size_t cap, ThreadPool* pool) {
  std::vector<double> ub(candidates.size(), 0.0);
  ParallelFor(pool, candidates.size(), [&](size_t i) {
    const auto [g1, g2] = candidates[i];
    const BipartiteGraph graph = graph_of(i);
    if (!graph.edges().empty()) {
      ub[i] = UpperBoundMeasure(graph, dataset.GroupSize(g1), dataset.GroupSize(g2));
    }
  });
  std::vector<size_t> order(candidates.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::nth_element(order.begin(), order.begin() + static_cast<ptrdiff_t>(cap),
                   order.end(), [&](size_t a, size_t b) {
                     if (ub[a] != ub[b]) return ub[a] > ub[b];
                     return a < b;
                   });
  std::vector<char> keep(candidates.size(), 0);
  for (size_t k = 0; k < cap; ++k) keep[order[k]] = 1;
  return keep;
}

}  // namespace

bool IsLink(Decision decision) {
  return decision == Decision::kAcceptedByLowerBound ||
         decision == Decision::kRefinedLink || decision == Decision::kDegradedLink;
}

Decision DecideGraph(const BipartiteGraph& graph, int32_t size_left,
                     int32_t size_right, const FilterRefineConfig& config,
                     const ExecutionContext* ctx, FilterRefineStats* timing) {
  if (graph.edges().empty()) return Decision::kEmptyGraph;

  WallTimer timer;
  if (config.use_upper_bound_filter &&
      UpperBoundMeasure(graph, size_left, size_right) < config.group_threshold) {
    if (timing != nullptr) timing->seconds_bounds += timer.ElapsedSeconds();
    return Decision::kPrunedByUpperBound;
  }
  if (config.use_lower_bound_accept &&
      GreedyLowerBound(graph, size_left, size_right) >= config.group_threshold) {
    if (timing != nullptr) timing->seconds_bounds += timer.ElapsedSeconds();
    return Decision::kAcceptedByLowerBound;
  }
  if (timing != nullptr) timing->seconds_bounds += timer.ElapsedSeconds();

  timer.Reset();
  // Matcher budget: on oversized pairs decide from the sound greedy lower
  // bound instead of running Hungarian. LB <= BM, so a degraded accept is
  // always a true link and a degraded reject can only under-link —
  // subset-safe, and deterministic (the cost depends only on the pair).
  const int64_t matcher_cost =
      static_cast<int64_t>(size_left) * static_cast<int64_t>(size_right);
  if (ctx != nullptr && ctx->ExceedsMatcherBudget(matcher_cost)) {
    ctx->NoteDegraded();
    const bool link =
        GreedyLowerBound(graph, size_left, size_right) >= config.group_threshold;
    if (timing != nullptr) timing->seconds_refine += timer.ElapsedSeconds();
    return link ? Decision::kDegradedLink : Decision::kDegradedNoLink;
  }
  const double refined = BmMeasure(graph, size_left, size_right, ctx).value;
  // Even a stop-degraded partial matching weighs at most the optimum, so
  // the upper bound must dominate the refined value unconditionally.
  GL_DCHECK_LE(refined,
               UpperBoundMeasure(graph, size_left, size_right) + kBoundSlack)
      << "upper bound does not dominate refined BM";
  const bool link = refined >= config.group_threshold;
  if (timing != nullptr) timing->seconds_refine += timer.ElapsedSeconds();
  return link ? Decision::kRefinedLink : Decision::kRefinedNoLink;
}

std::vector<std::pair<int32_t, int32_t>> FilterRefineGraphs(
    const Dataset& dataset, const std::vector<std::pair<int32_t, int32_t>>& candidates,
    const CandidateGraphFn& graph_of, const FilterRefineConfig& config,
    FilterRefineStats* stats, ThreadPool* pool, ExecutionContext* ctx) {
  FilterRefineStats local_stats;
  FilterRefineStats& s = stats != nullptr ? *stats : local_stats;
  s = FilterRefineStats();
  s.candidates = candidates.size();

  const bool parallel = pool != nullptr && pool->num_threads() > 1;
  std::vector<Decision> decisions(candidates.size(), Decision::kSkipped);

  // Candidate budget (and the candidates.oversized fault): keep the best
  // pairs by UB score, shed the rest before any exact scoring.
  std::vector<char> keep;
  const size_t cap =
      ctx != nullptr ? ctx->EffectiveCandidateCap(candidates.size()) : candidates.size();
  if (cap < candidates.size()) {
    keep = CapCandidatesByUpperBound(dataset, candidates, graph_of, cap,
                                     parallel ? pool : nullptr);
    for (size_t i = 0; i < keep.size(); ++i) {
      if (!keep[i]) decisions[i] = Decision::kShedByCap;
    }
    ctx->NoteDegraded();
  }

  FilterRefineStats* timing = parallel ? nullptr : &s;  // Serial only.
  ParallelFor(
      parallel ? pool : nullptr, candidates.size(),
      [&](size_t i) {
        if (!keep.empty() && !keep[i]) return;  // Stays kShedByCap.
        WallTimer timer;
        const BipartiteGraph graph = graph_of(i);
        if (timing != nullptr) timing->seconds_graphs += timer.ElapsedSeconds();
        decisions[i] = DecideGraph(graph, dataset.GroupSize(candidates[i].first),
                                   dataset.GroupSize(candidates[i].second), config,
                                   ctx, timing);
      },
      ctx);

  std::vector<std::pair<int32_t, int32_t>> linked;
  for (size_t i = 0; i < candidates.size(); ++i) {
    switch (decisions[i]) {
      case Decision::kSkipped:
        ++s.skipped;
        break;
      case Decision::kShedByCap:
        ++s.shed_candidates;
        break;
      case Decision::kEmptyGraph:
        ++s.empty_graphs;
        break;
      case Decision::kPrunedByUpperBound:
        ++s.pruned_by_upper_bound;
        break;
      case Decision::kAcceptedByLowerBound:
        ++s.accepted_by_lower_bound;
        break;
      case Decision::kRefinedLink:
      case Decision::kRefinedNoLink:
        ++s.refined;
        break;
      case Decision::kDegradedLink:
      case Decision::kDegradedNoLink:
        ++s.degraded_refines;
        break;
    }
    if (IsLink(decisions[i])) {
      linked.push_back(candidates[i]);
      ++s.linked;
    }
  }
  if (ctx != nullptr && (s.skipped > 0 || s.degraded_refines > 0)) {
    ctx->NoteDegraded();
  }

  // Registry mirror of the per-run stats (aggregated once per call, so the
  // cost is independent of candidate count and thread count).
  auto& registry = MetricsRegistry::Default();
  static Counter& m_candidates = registry.CounterRef("filter_refine.candidates");
  static Counter& m_empty = registry.CounterRef("filter_refine.empty_graphs");
  static Counter& m_ub = registry.CounterRef("filter_refine.ub_pruned");
  static Counter& m_lb = registry.CounterRef("filter_refine.lb_accepted");
  static Counter& m_refined = registry.CounterRef("filter_refine.refined");
  static Counter& m_linked = registry.CounterRef("filter_refine.linked");
  static Counter& m_shed = registry.CounterRef("filter_refine.shed_candidates");
  static Counter& m_degraded = registry.CounterRef("filter_refine.degraded_refines");
  static Counter& m_skipped = registry.CounterRef("filter_refine.skipped");
  m_candidates.Increment(s.candidates);
  m_empty.Increment(s.empty_graphs);
  m_ub.Increment(s.pruned_by_upper_bound);
  m_lb.Increment(s.accepted_by_lower_bound);
  m_refined.Increment(s.refined);
  m_linked.Increment(s.linked);
  m_shed.Increment(s.shed_candidates);
  m_degraded.Increment(s.degraded_refines);
  m_skipped.Increment(s.skipped);
  return linked;
}

std::vector<std::pair<int32_t, int32_t>> FilterRefineLink(
    const Dataset& dataset, const RecordSimFn& sim,
    const std::vector<std::pair<int32_t, int32_t>>& candidates,
    const FilterRefineConfig& config, FilterRefineStats* stats, ThreadPool* pool,
    ExecutionContext* ctx, const VectorStore* store) {
  if (store == nullptr) {
    return FilterRefineGraphs(
        dataset, candidates,
        [&](size_t i) {
          return BuildSimilarityGraph(dataset, candidates[i].first,
                                      candidates[i].second, sim, config.theta);
        },
        config, stats, pool, ctx);
  }
  // Batched scoring: per-group token unions for the zero-overlap precheck
  // (independent per group, so the build parallelizes).
  std::vector<std::vector<uint32_t>> group_tokens(dataset.groups.size());
  ParallelFor(pool != nullptr && pool->num_threads() > 1 ? pool : nullptr,
              dataset.groups.size(), [&](size_t g) {
                group_tokens[g] = GroupTokenUnion(dataset.groups[g], *store);
              });
  return FilterRefineGraphs(
      dataset, candidates,
      [&](size_t i) {
        const auto [g1, g2] = candidates[i];
        // Groups sharing no weighted token cannot produce a single edge:
        // an edgeless graph, the exact outcome of the full build.
        const std::vector<uint32_t>& ta = group_tokens[static_cast<size_t>(g1)];
        const std::vector<uint32_t>& tb = group_tokens[static_cast<size_t>(g2)];
        if (SortedIntersectCount(ta.data(), ta.size(), tb.data(), tb.size()) == 0) {
          return BipartiteGraph(0, 0);
        }
        // One scratch per worker thread, reused across pairs (self-cleaning).
        thread_local VectorStore::Scratch scratch;
        return BuildSimilarityGraphBatched(dataset, g1, g2, *store, scratch,
                                           config.theta);
      },
      config, stats, pool, ctx);
}

std::vector<std::pair<int32_t, int32_t>> BruteForceBmLink(
    const Dataset& dataset, const RecordSimFn& sim,
    const std::vector<std::pair<int32_t, int32_t>>& candidates,
    const FilterRefineConfig& config, FilterRefineStats* stats) {
  FilterRefineConfig no_bounds = config;
  no_bounds.use_upper_bound_filter = false;
  no_bounds.use_lower_bound_accept = false;
  return FilterRefineLink(dataset, sim, candidates, no_bounds, stats);
}

}  // namespace grouplink
