#ifndef GROUPLINK_INDEX_WEIGHTED_POSTINGS_H_
#define GROUPLINK_INDEX_WEIGHTED_POSTINGS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "text/tfidf.h"

namespace grouplink {

/// Membership marks over a dense id space [0, n), cleared in O(1) by
/// bumping a round stamp instead of rewriting the array. Meant to live in
/// a thread_local: one instance serves every round on its thread, growing
/// to the largest universe it has seen.
class StampSet {
 public:
  /// Starts a new, empty round over ids in [0, universe).
  void Clear(size_t universe);

  /// Adds `id` to the current round; true if it was not yet a member.
  bool Insert(int32_t id) {
    uint32_t& stamp = stamps_[static_cast<size_t>(id)];
    if (stamp == round_) return false;
    stamp = round_;
    return true;
  }

 private:
  std::vector<uint32_t> stamps_;
  uint32_t round_ = 0;
};

/// An immutable CSR of weighted postings, token id -> (record, weight),
/// over a fixed set of L2-normalized TF-IDF vectors: the term-at-a-time
/// counterpart of the per-pair PrenormalizedCosineSimilarity merge.
///
/// ScoresAtLeast walks the postings of the probe's ids in ascending order
/// and adds `record_weight * probe_weight` to a per-record accumulator
/// that starts at +0.0. Every shared token of one (record, probe) pair is
/// therefore added in ascending id order from +0.0 — DotProduct's order —
/// so each reported score is bit-identical to
/// PrenormalizedCosineSimilarity(vectors[record], probe). A record that
/// shares no weighted token never enters the accumulator; with a strictly
/// positive threshold it could not have qualified anyway.
///
/// Memory: one int32 record id plus one double weight per indexed vector
/// entry, plus one offset per token.
///
/// Thread safety: const methods only read the index; each thread scores
/// into its own thread_local scratch, so any number of threads may query
/// one instance (or instances of different sizes) concurrently.
class WeightedPostings {
 public:
  /// One record whose score reached the threshold.
  struct Hit {
    int32_t record = 0;
    double score = 0.0;
  };

  WeightedPostings() = default;

  /// Indexes vectors[r] for every r with indexed[r] != 0. Every indexed
  /// vector must have strictly ascending ids in [0, num_tokens) and one
  /// weight per id (GL_CHECK; validate untrusted input first).
  WeightedPostings(int32_t num_tokens, const std::vector<SparseVector>& vectors,
                   const std::vector<char>& indexed);

  /// Adopts decoded lists: token t's entries are [offsets[t], offsets[t+1])
  /// of `records`/`weights`, ids ascending in [0, num_records) (unchecked).
  WeightedPostings(std::vector<size_t> offsets, std::vector<int32_t> records,
                   std::vector<double> weights, size_t num_records);

  /// Token t's record ids (ascending) and their weights.
  std::span<const int32_t> records(size_t t) const {
    return std::span(records_).subspan(offsets_[t], offsets_[t + 1] - offsets_[t]);
  }
  std::span<const double> weights(size_t t) const {
    return std::span(weights_).subspan(offsets_[t], offsets_[t + 1] - offsets_[t]);
  }

  /// Appends to `hits` every indexed record whose dot product with
  /// `probe` (ascending ids) is >= threshold, in first-touch order.
  /// `threshold` must be > 0. Probe ids outside [0, num_tokens) carry no
  /// postings and are skipped.
  void ScoresAtLeast(const SparseVector& probe, double threshold,
                     std::vector<Hit>* hits) const;

 private:
  int32_t num_tokens() const {
    return static_cast<int32_t>(offsets_.size()) - 1;
  }

  // offsets_[t]..offsets_[t + 1] delimit token t's entries in records_ /
  // weights_ (ascending record id within a token).
  std::vector<size_t> offsets_{0};
  std::vector<int32_t> records_;
  std::vector<double> weights_;
  // Size of the record id space: the accumulator's universe.
  size_t num_records_ = 0;
};

}  // namespace grouplink

#endif  // GROUPLINK_INDEX_WEIGHTED_POSTINGS_H_
