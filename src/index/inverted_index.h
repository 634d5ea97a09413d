#ifndef GROUPLINK_INDEX_INVERTED_INDEX_H_
#define GROUPLINK_INDEX_INVERTED_INDEX_H_

#include <cstdint>
#include <vector>

namespace grouplink {

/// Token-id -> posting-list index over a corpus of documents, where a
/// document is a sorted, deduplicated vector of token ids. Posting lists
/// are sorted by document id (documents are appended in id order).
///
/// This is the data structure behind blocking and set-similarity joins:
/// it turns "which documents share a token with d?" into posting-list
/// lookups instead of all-pairs comparisons.
///
/// Thread safety (shared-read contract, audited for the serving layer):
/// the class does no internal synchronization. Every `const` member —
/// Postings, DocumentFrequency, DocumentTokens, DocumentsSharingToken,
/// IsRemoved, the counts, PostingsAreSorted — only reads the index, so
/// any number of threads may call them concurrently *provided no thread
/// is inside a mutator* (AddDocument, RemoveDocument, Compact).
/// Mutators grow the posting table and splice vectors; racing a reader
/// against one is undefined behavior, not just staleness. CorpusSnapshot
/// relies on exactly this contract: it copies the index into an
/// immutable epoch, after which all access is const and lock-free.
class InvertedIndex {
 public:
  /// Adds a document and returns its id (sequential from 0).
  /// `token_ids` must be sorted and unique; enforced with GL_DCHECK.
  int32_t AddDocument(std::vector<int32_t> token_ids);

  /// Tombstones `doc`: it stops appearing in DocumentsSharingToken
  /// results immediately; its posting entries linger in Postings() until
  /// Compact() reclaims them. Document ids are never reused.
  void RemoveDocument(int32_t doc);

  /// True if `doc` was tombstoned by RemoveDocument.
  [[nodiscard]] bool IsRemoved(int32_t doc) const;
  /// The tombstone flag of every document, by id.
  [[nodiscard]] const std::vector<char>& removed() const { return removed_; }

  /// Documents tombstoned since construction (compaction keeps the count;
  /// removed ids stay dead forever).
  [[nodiscard]] int32_t num_removed() const { return num_removed_; }

  /// Erases every tombstoned document's posting entries and token list,
  /// reclaiming the space. Postings stay sorted by document id.
  void Compact();

  /// Documents containing `token` (empty list if none). May include
  /// tombstoned ids until Compact().
  [[nodiscard]] const std::vector<int32_t>& Postings(int32_t token) const;

  /// Number of documents containing `token` (including tombstoned ones
  /// until Compact()).
  [[nodiscard]] int64_t DocumentFrequency(int32_t token) const;

  /// Token set of a document (as passed to AddDocument).
  [[nodiscard]] const std::vector<int32_t>& DocumentTokens(int32_t doc) const;

  [[nodiscard]] int32_t num_documents() const { return static_cast<int32_t>(documents_.size()); }

  /// Returns document ids sharing at least one token with `token_ids`,
  /// sorted and deduplicated (includes the probe document itself if it was
  /// added). Tombstoned documents never appear. The basic token-blocking
  /// primitive.
  [[nodiscard]] std::vector<int32_t> DocumentsSharingToken(const std::vector<int32_t>& token_ids) const;

  /// Contract predicate: every posting list is sorted by document id with
  /// no duplicates. Always true for a correctly maintained index (ids are
  /// appended in order and Compact preserves order); GL_DCHECKed after
  /// mutations and exposed so tests can assert it directly.
  [[nodiscard]] bool PostingsAreSorted() const;

 private:
  /// Dense token-id-indexed posting table (token ids come from a
  /// Vocabulary, so the id space is compact): direct indexing instead of
  /// hashing on every probe. Grown on demand by AddDocument.
  std::vector<std::vector<int32_t>> postings_;
  std::vector<std::vector<int32_t>> documents_;
  std::vector<char> removed_;
  int32_t num_removed_ = 0;
  std::vector<int32_t> empty_postings_;
};

}  // namespace grouplink

#endif  // GROUPLINK_INDEX_INVERTED_INDEX_H_
