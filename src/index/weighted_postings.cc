#include "index/weighted_postings.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace grouplink {

void StampSet::Clear(size_t universe) {
  if (stamps_.size() < universe) stamps_.resize(universe, 0);
  if (++round_ == 0) {
    // The stamp wrapped: old marks could alias the new round.
    std::fill(stamps_.begin(), stamps_.end(), 0);
    round_ = 1;
  }
}

WeightedPostings::WeightedPostings(int32_t num_tokens,
                                   const std::vector<SparseVector>& vectors,
                                   const std::vector<char>& indexed) {
  GL_CHECK_GE(num_tokens, 0);
  GL_CHECK_EQ(indexed.size(), vectors.size());
  num_records_ = vectors.size();
  const size_t n_tokens = static_cast<size_t>(num_tokens);
  // Counting pass, then a fill pass in ascending record order: O(nnz),
  // and every token's entries come out sorted by record id.
  std::vector<size_t> counts(n_tokens + 1, 0);
  for (size_t r = 0; r < vectors.size(); ++r) {
    if (indexed[r] == 0) continue;
    const SparseVector& v = vectors[r];
    GL_CHECK_EQ(v.ids.size(), v.weights.size());
    for (size_t k = 0; k < v.ids.size(); ++k) {
      const int32_t id = v.ids[k];
      GL_CHECK(id >= 0 && static_cast<size_t>(id) < n_tokens)
          << "vector id " << id << " outside the vocabulary";
      GL_CHECK(k == 0 || v.ids[k - 1] < id) << "vector ids must ascend";
      ++counts[static_cast<size_t>(id) + 1];
    }
  }
  for (size_t t = 0; t < n_tokens; ++t) counts[t + 1] += counts[t];
  offsets_ = counts;
  records_.resize(offsets_.back());
  weights_.resize(offsets_.back());
  for (size_t r = 0; r < vectors.size(); ++r) {
    if (indexed[r] == 0) continue;
    const SparseVector& v = vectors[r];
    for (size_t k = 0; k < v.ids.size(); ++k) {
      const size_t at = counts[static_cast<size_t>(v.ids[k])]++;
      records_[at] = static_cast<int32_t>(r);
      weights_[at] = v.weights[k];
    }
  }
}

WeightedPostings::WeightedPostings(std::vector<size_t> offsets,
                                   std::vector<int32_t> records,
                                   std::vector<double> weights,
                                   size_t num_records)
    : offsets_(std::move(offsets)),
      records_(std::move(records)),
      weights_(std::move(weights)),
      num_records_(num_records) {
  GL_CHECK(offsets_.front() == 0 && offsets_.back() == records_.size() &&
           records_.size() == weights_.size());
}

void WeightedPostings::ScoresAtLeast(const SparseVector& probe, double threshold,
                                     std::vector<Hit>* hits) const {
  GL_CHECK_GT(threshold, 0.0);
  // Per-thread scratch, reused across queries and across instances of
  // any size. `touched` lists the records this probe reached, so the
  // final scan neither walks the whole corpus nor mistakes a record
  // whose sum is exactly 0 for an untouched one.
  struct Accumulator {
    StampSet seen;
    std::vector<double> sums;
    std::vector<int32_t> touched;
  };
  thread_local Accumulator acc;
  acc.seen.Clear(num_records_);
  if (acc.sums.size() < num_records_) acc.sums.resize(num_records_);
  acc.touched.clear();

  const int32_t tokens = num_tokens();
  for (size_t k = 0; k < probe.ids.size(); ++k) {
    const int32_t t = probe.ids[k];
    if (t < 0 || t >= tokens) continue;
    const double w = probe.weights[k];
    const size_t end = offsets_[static_cast<size_t>(t) + 1];
    for (size_t e = offsets_[static_cast<size_t>(t)]; e < end; ++e) {
      const int32_t r = records_[e];
      double& sum = acc.sums[static_cast<size_t>(r)];
      if (acc.seen.Insert(r)) {
        sum = 0.0;
        acc.touched.push_back(r);
      }
      sum += weights_[e] * w;
    }
  }
  for (const int32_t r : acc.touched) {
    const double sum = acc.sums[static_cast<size_t>(r)];
    if (sum >= threshold) hits->push_back({r, sum});
  }
}

}  // namespace grouplink
