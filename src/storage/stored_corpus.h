#ifndef GROUPLINK_STORAGE_STORED_CORPUS_H_
#define GROUPLINK_STORAGE_STORED_CORPUS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/snapshot.h"
#include "storage/buffer_manager.h"
#include "storage/snapshot_store.h"
#include "storage/store_format.h"

namespace grouplink {
namespace storage {

/// Out-of-core LinkQuery serving directly from a store file: the big
/// per-record data — index posting lists and the token-major weighted
/// postings of the TF-IDF vectors — stays on disk and is paged in through
/// a fixed-budget BufferManager. Only compact metadata (dictionaries,
/// group structure, tombstones, directories, live records' slots) is
/// resident. A query reads each distinct probe token's lists once, so its
/// page reads follow the probe's tokens, not the candidate records.
///
/// Decision-procedure contract: LinkQuery here answers bit-identically
/// to CorpusSnapshot::LinkQuery over the same epoch: both run
/// CorpusSnapshot::RunLinkQuery, scoring through the same
/// WeightedPostings accumulation over the same raw IEEE-754 weights.
/// tests/storage_differential_test.cc and the paged half of
/// tests/core_snapshot_scoring_test.cc hold the paths to one answer
/// across thread counts and buffer budgets, down to a one-frame pool.
///
/// Thread safety: every method is const over immutable resident state;
/// the buffer pool is internally synchronized. Any number of threads
/// may query concurrently. Queries pin at most one page at a time, so
/// even a one-frame pool makes progress.
class StoredCorpus {
 public:
  /// Opens the store at `path`, loading resident metadata and building
  /// a buffer pool of `options.buffer_pool_pages` frames
  /// (`options.page_bytes` is ignored — the store dictates it).
  /// Errors: NotFound, DataLoss, IoError.
  [[nodiscard]] static Result<std::unique_ptr<StoredCorpus>> Open(
      const std::string& path, const StorageOptions& options = {});

  /// Links `group` against the stored corpus; see the class contract.
  /// Paged reads can fail (corruption discovered lazily, pool
  /// exhaustion), hence the Result the in-RAM path does not need.
  [[nodiscard]] Result<CorpusSnapshot::QueryResult> LinkQuery(
      const GroupArrival& group,
      const CorpusSnapshot::QueryOptions& options = {}) const;

  [[nodiscard]] int64_t epoch() const { return meta_.epoch; }
  [[nodiscard]] int32_t num_records() const {
    return static_cast<int32_t>(meta_.num_records);
  }
  [[nodiscard]] int32_t num_groups() const {
    return static_cast<int32_t>(meta_.num_groups);
  }
  [[nodiscard]] const LinkageConfig& engine_config() const { return meta_.config; }
  /// Buffer-pool counters since Open (per-budget bench rows).
  [[nodiscard]] BufferStats buffer_stats() const { return buffer_->stats(); }
  [[nodiscard]] size_t pool_pages() const { return buffer_->pool_pages(); }

 private:
  StoredCorpus() = default;

  /// CorpusSnapshot::QueryPlan::score over the paged weighted postings.
  [[nodiscard]] Status ScoreProbes(
      const std::vector<SparseVector>& probes,
      std::vector<std::vector<WeightedPostings::Hit>>* hits) const;

  // Resident metadata (immutable after Open).
  MetaData meta_;
  Vocabulary index_vocab_;
  Vocabulary epoch_vocab_;
  std::vector<uint64_t> postings_offsets_;  // Prefix sums, size |index vocab|+1.
  std::vector<uint64_t> weighted_offsets_;  // Prefix sums, size |epoch vocab|+1.
  // Each record's position in its live group's list, -1 for records of
  // dead groups (LiveScoringIndex::record_slot, rebuilt at Open).
  std::vector<int32_t> record_slot_;

  // Paged data plumbing. The BufferManager owns the file and is internally
  // synchronized; reaching it through const methods is safe by contract.
  std::unique_ptr<BufferManager> buffer_;
  SegmentReader postings_reader_;
  SegmentReader weighted_reader_;
};

}  // namespace storage
}  // namespace grouplink

#endif  // GROUPLINK_STORAGE_STORED_CORPUS_H_
