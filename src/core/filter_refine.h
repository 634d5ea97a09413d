#ifndef GROUPLINK_CORE_FILTER_REFINE_H_
#define GROUPLINK_CORE_FILTER_REFINE_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/execution_context.h"
#include "common/thread_pool.h"
#include "core/group_measures.h"

namespace grouplink {

/// Configuration of the two-phase BM evaluation.
struct FilterRefineConfig {
  /// Record-level edge threshold θ (must be > 0).
  double theta = 0.7;
  /// Group-level link threshold Θ.
  double group_threshold = 0.4;
  /// Prune candidates with UB < Θ before computing exact BM.
  bool use_upper_bound_filter = true;
  /// Accept candidates with LB >= Θ without computing exact BM.
  bool use_lower_bound_accept = true;
};

/// Per-phase counters of one FilterRefineLink run.
struct FilterRefineStats {
  /// Candidate group pairs examined.
  size_t candidates = 0;
  /// Dropped because the thresholded graph had no edges at all.
  size_t empty_graphs = 0;
  /// Pruned by UB < Θ.
  size_t pruned_by_upper_bound = 0;
  /// Accepted by LB >= Θ (no exact matching run).
  size_t accepted_by_lower_bound = 0;
  /// Survivors sent to the Hungarian refine step.
  size_t refined = 0;
  /// Final links emitted.
  size_t linked = 0;
  /// Shed by the candidate cap (budget or injected oversize) before any
  /// scoring; decided by UB order, deterministically.
  size_t shed_candidates = 0;
  /// Decided with the bounds-only fallback instead of Hungarian because
  /// the per-pair matcher budget tripped.
  size_t degraded_refines = 0;
  /// Never scored: the deadline or cancellation tripped first.
  size_t skipped = 0;
  /// Wall time spent building similarity graphs / in bounds / in refine.
  double seconds_graphs = 0.0;
  double seconds_bounds = 0.0;
  double seconds_refine = 0.0;
};

/// Outcome of one candidate pair. kSkipped is the preallocated default,
/// so a pair a stop request prevented from running stays in a
/// well-defined state.
enum class Decision : uint8_t {
  kSkipped = 0,
  kShedByCap,
  kEmptyGraph,
  kPrunedByUpperBound,
  kAcceptedByLowerBound,
  kRefinedLink,
  kRefinedNoLink,
  kDegradedLink,
  kDegradedNoLink,
};

/// True for the decisions that emit a link.
[[nodiscard]] bool IsLink(Decision decision);

/// The decision ladder on a prebuilt θ-thresholded similarity graph, and
/// the one definition of "do these two groups link": empty graph -> no
/// link, UB < Θ -> prune, LB >= Θ -> accept, matcher budget trip ->
/// decide from the sound LB (marking `ctx` degraded), otherwise exact
/// BM >= Θ. Every path decides through it: FilterRefineGraphs (the
/// per-pair engine, the edge join's buckets and the streaming refresh),
/// the streaming arrival path and both LinkQuery paths.
///
/// `size_left` / `size_right` are the group sizes |g1| / |g2| (the graph
/// only has cross edges, so isolated records are invisible to it). A
/// non-null `timing` accumulates the bounds and refine wall times.
[[nodiscard]] Decision DecideGraph(const BipartiteGraph& graph, int32_t size_left,
                                   int32_t size_right,
                                   const FilterRefineConfig& config,
                                   const ExecutionContext* ctx = nullptr,
                                   FilterRefineStats* timing = nullptr);

/// Builds the θ-thresholded similarity graph of candidate `i` (left side
/// = candidates[i].first). Called from pool workers, and once more per
/// candidate when a candidate cap ranks them, so it must be thread-safe
/// and deterministic. A graph with no edges classifies the pair as
/// kEmptyGraph; its dimensions are then never read.
using CandidateGraphFn = std::function<BipartiteGraph(size_t)>;

/// Decides every candidate group pair through DecideGraph on the graphs
/// `graph_of` builds, and returns the linked pairs (a subset of
/// `candidates`, same order). Group sizes come from `dataset`.
///
/// With a non-null `pool`, candidates are decided in parallel into
/// preallocated slots; the output and stats counters are identical to the
/// serial run, while the per-phase timing breakdown is only populated
/// serially.
///
/// With a non-null `ctx`, the run degrades instead of running unbounded:
/// a candidate budget keeps only the top pairs by upper-bound score
/// (ties to the lower index; deterministic — it depends on the pairs
/// alone, not timing), the matcher budget swaps Hungarian for the sound
/// bounds-only fallback on oversized pairs, and a deadline/cancellation
/// trip sheds the remaining pairs. Every degraded decision can only
/// *remove* links relative to the unconstrained run, so the output is
/// always a subset of it.
///
/// The per-run stats are mirrored into the filter_refine.* registry
/// counters.
[[nodiscard]] std::vector<std::pair<int32_t, int32_t>> FilterRefineGraphs(
    const Dataset& dataset, const std::vector<std::pair<int32_t, int32_t>>& candidates,
    const CandidateGraphFn& graph_of, const FilterRefineConfig& config,
    FilterRefineStats* stats = nullptr, ThreadPool* pool = nullptr,
    ExecutionContext* ctx = nullptr);

/// FilterRefineGraphs over graphs built pair by pair with `sim`. With
/// sound bounds (the default) the output is *identical* to evaluating
/// exact BM on every candidate — that equivalence is covered by an
/// integration test — while the Hungarian algorithm only runs on the
/// small fraction of pairs where the bounds disagree. With a non-null
/// `pool`, `sim` must be thread-safe (the engine's default TF-IDF cosine
/// is, being a pure read of precomputed vectors).
///
/// With a non-null `store` (the engine passes its VectorStore when `sim`
/// is the default TF-IDF similarity), similarity graphs are built through
/// the batched scatter-dot kernel (one VectorStore::Scores call per left
/// record) and a sorted-set-intersection precheck on the groups' token
/// unions classifies zero-overlap pairs as empty graphs without scoring a
/// single record pair. Both are exact for the default sim — decisions,
/// stats, and links are identical to the `sim`-driven path bit for bit.
/// Callers overriding `sim` must pass store = nullptr.
[[nodiscard]] std::vector<std::pair<int32_t, int32_t>> FilterRefineLink(
    const Dataset& dataset, const RecordSimFn& sim,
    const std::vector<std::pair<int32_t, int32_t>>& candidates,
    const FilterRefineConfig& config, FilterRefineStats* stats = nullptr,
    ThreadPool* pool = nullptr, ExecutionContext* ctx = nullptr,
    const VectorStore* store = nullptr);

/// Reference path: exact BM on every candidate, no bounds. Same output
/// contract as FilterRefineLink.
[[nodiscard]] std::vector<std::pair<int32_t, int32_t>> BruteForceBmLink(
    const Dataset& dataset, const RecordSimFn& sim,
    const std::vector<std::pair<int32_t, int32_t>>& candidates,
    const FilterRefineConfig& config, FilterRefineStats* stats = nullptr);

}  // namespace grouplink

#endif  // GROUPLINK_CORE_FILTER_REFINE_H_
