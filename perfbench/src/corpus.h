#ifndef PERFBENCH_CORPUS_H_
#define PERFBENCH_CORPUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/group.h"
#include "core/incremental.h"
#include "core/linkage_engine.h"

namespace perfbench {

/// Record/group thresholds of every workload: the values the repository's
/// experiments calibrated for TF-IDF record similarity (bench/bench_util.h).
inline constexpr double kTheta = 0.35;
inline constexpr double kGroupThreshold = 0.2;

[[nodiscard]] grouplink::LinkageConfig EngineConfig();

/// The `serve`/`paged` corpus: hard-config bibliographic groups holding
/// about `records` records in all, about a quarter of the groups held out
/// as probes. Known probes are held-out renditions of
/// entities that keep other groups in the corpus; unseen probes are all
/// the groups of entities absent from it.
struct ServeCorpus {
  grouplink::Dataset seed;
  std::vector<grouplink::GroupArrival> probes;
  int32_t known_probes = 0;
  int32_t unseen_probes = 0;
  int64_t text_bytes = 0;  // Record-text bytes in the seeded corpus.
};
[[nodiscard]] ServeCorpus MakeServeCorpus(int32_t records, double known_share,
                                          uint64_t seed);

/// One write of the `ingest` stream. Slots are the service's group
/// indexes, which it assigns in arrival order, so the whole stream (and
/// every slot it names) is fixed by the seed before anything runs.
struct IngestOp {
  enum class Kind { kAdd, kRemove, kMerge };
  Kind kind = Kind::kAdd;
  int32_t arrival = -1;  // kAdd: index into IngestCorpus::arrivals.
  int32_t slot = -1;     // kAdd: slot it must get; kRemove: victim; kMerge: into.
  int32_t from = -1;     // kMerge: the group merged away.
};

/// The `ingest` corpus: households seeded from the first survey wave and
/// the early part of the second, with the rest of the second wave
/// arriving as a stream of adds mixed with removals and merges.
struct IngestCorpus {
  grouplink::Dataset seed;
  std::vector<grouplink::GroupArrival> arrivals;
  std::vector<IngestOp> ops;
  /// Every record text by record id: the seed records, then each
  /// arrival's records in the order the stream adds them.
  std::vector<std::string> texts;
};
[[nodiscard]] IngestCorpus MakeIngestCorpus(int32_t households, int32_t num_ops,
                                            double remove_share, double merge_share,
                                            uint64_t seed);

/// The records of `groups` (in order) as a self-contained dataset.
[[nodiscard]] grouplink::Dataset SubsetDataset(const grouplink::Dataset& full,
                                               const std::vector<int32_t>& groups);

/// Index of a probe of median record count: the restart probe, so the
/// first answer after a restart costs a typical query whatever the seed.
[[nodiscard]] size_t MedianSizedProbe(const std::vector<grouplink::GroupArrival>& probes);

[[nodiscard]] grouplink::GroupArrival ArrivalOf(const grouplink::Dataset& full,
                                                int32_t group);

}  // namespace perfbench

#endif  // PERFBENCH_CORPUS_H_
