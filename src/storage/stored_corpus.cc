#include "storage/stored_corpus.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace grouplink {
namespace storage {

Result<std::unique_ptr<StoredCorpus>> StoredCorpus::Open(
    const std::string& path, const StorageOptions& options) {
  GL_ASSIGN_OR_RETURN(std::unique_ptr<PageFile> opened, PageFile::Open(path));
  std::shared_ptr<const PageFile> file = std::move(opened);
  GL_ASSIGN_OR_RETURN(const StoreInfo info, ReadStoreInfo(*file));

  std::unique_ptr<StoredCorpus> corpus(new StoredCorpus());

  // Resident metadata: everything except the postings and weighted
  // postings segments, whose bytes stay on disk behind the buffer pool.
  GL_ASSIGN_OR_RETURN(const std::vector<uint8_t> meta_bytes,
                      ReadWholeSegment(*file, info, kMeta));
  GL_RETURN_IF_ERROR(DecodeMeta(meta_bytes, &corpus->meta_));
  GL_RETURN_IF_ERROR(corpus->meta_.config.Validate());
  GL_ASSIGN_OR_RETURN(const std::vector<uint8_t> dict_bytes,
                      ReadWholeSegment(*file, info, kDictIndex));
  GL_ASSIGN_OR_RETURN(corpus->index_vocab_, DecodeIndexVocab(dict_bytes));
  GL_ASSIGN_OR_RETURN(const std::vector<uint8_t> epoch_dict_bytes,
                      ReadWholeSegment(*file, info, kDictEpoch));
  GL_ASSIGN_OR_RETURN(corpus->epoch_vocab_,
                      DecodeEpochVocab(epoch_dict_bytes, corpus->index_vocab_));
  GL_ASSIGN_OR_RETURN(const std::vector<uint8_t> postings_dir,
                      ReadWholeSegment(*file, info, kPostingsDir));
  GL_RETURN_IF_ERROR(DecodeDirectory(postings_dir, corpus->index_vocab_.size(),
                                     info.segments[kPostings].length,
                                     &corpus->postings_offsets_));
  GL_ASSIGN_OR_RETURN(const std::vector<uint8_t> weighted_dir,
                      ReadWholeSegment(*file, info, kWeightedPostingsDir));
  GL_RETURN_IF_ERROR(DecodeDirectory(weighted_dir, corpus->epoch_vocab_.size(),
                                     info.segments[kWeightedPostings].length,
                                     &corpus->weighted_offsets_));
  // Slots of the live groups' records, as LiveScoringIndex
  // derives them. Edges address a group's graph by slot, so lists that
  // disagree with record_group are DataLoss, as in FromParts.
  const MetaData& meta = corpus->meta_;
  corpus->record_slot_.assign(static_cast<size_t>(meta.num_records), -1);
  for (size_t g = 0; g < meta.group_records.size(); ++g) {
    if (meta.group_alive[g] == 0) continue;
    const std::vector<int32_t>& records = meta.group_records[g];
    for (size_t i = 0; i < records.size(); ++i) {
      const size_t r = static_cast<size_t>(records[i]);
      if (r >= corpus->record_slot_.size() || corpus->record_slot_[r] != -1 ||
          static_cast<size_t>(meta.record_group[r]) != g) {
        return Status::DataLoss("group record lists disagree with record_group");
      }
      corpus->record_slot_[r] = static_cast<int32_t>(i);
    }
  }

  corpus->buffer_ = std::make_unique<BufferManager>(
      file, info.page_bytes, info.num_pages, options.buffer_pool_pages);
  corpus->postings_reader_ =
      SegmentReader(corpus->buffer_.get(), info.segments[kPostings].first_page,
                    info.segments[kPostings].length);
  corpus->weighted_reader_ = SegmentReader(
      corpus->buffer_.get(), info.segments[kWeightedPostings].first_page,
      info.segments[kWeightedPostings].length);
  return corpus;
}

Status StoredCorpus::ScoreProbes(
    const std::vector<SparseVector>& probes,
    std::vector<std::vector<WeightedPostings::Hit>>* hits) const {
  // Each distinct probe token's list is paged in and decoded once, its
  // live records kept, into a query-local CSR over the probe's sorted
  // distinct tokens, so the work follows the probe, not the vocabulary.
  // Probe ids are remapped to their ranks in that order-keeping list and
  // the lists keep their ascending record order, so the accumulation is
  // the in-RAM one, bit for bit.
  std::vector<int32_t> tokens;
  for (const SparseVector& probe : probes) {
    tokens.insert(tokens.end(), probe.ids.begin(), probe.ids.end());
  }
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());

  std::vector<size_t> offsets{0};
  std::vector<int32_t> records;
  std::vector<double> weights;
  std::vector<uint8_t> bytes;
  std::vector<int32_t> list_records;
  std::vector<double> list_weights;
  for (const int32_t token : tokens) {
    const size_t t = static_cast<size_t>(token);
    bytes.resize(weighted_offsets_[t + 1] - weighted_offsets_[t]);
    GL_RETURN_IF_ERROR(
        weighted_reader_.ReadAt(weighted_offsets_[t], bytes.size(), bytes.data()));
    GL_RETURN_IF_ERROR(DecodeWeightedPostingList(bytes.data(), bytes.size(),
                                                 meta_.num_records, &list_records,
                                                 &list_weights));
    for (size_t k = 0; k < list_records.size(); ++k) {
      if (record_slot_[static_cast<size_t>(list_records[k])] < 0) continue;
      records.push_back(list_records[k]);
      weights.push_back(list_weights[k]);
    }
    offsets.push_back(records.size());
  }
  const WeightedPostings postings(std::move(offsets), std::move(records),
                                  std::move(weights), record_slot_.size());
  SparseVector local;
  for (size_t j = 0; j < probes.size(); ++j) {
    local.ids.clear();
    for (const int32_t id : probes[j].ids) {
      local.ids.push_back(static_cast<int32_t>(
          std::lower_bound(tokens.begin(), tokens.end(), id) - tokens.begin()));
    }
    local.weights = probes[j].weights;
    postings.ScoresAtLeast(local, meta_.config.theta, &(*hits)[j]);
  }
  return Status::Ok();
}

Result<CorpusSnapshot::QueryResult> StoredCorpus::LinkQuery(
    const GroupArrival& group, const CorpusSnapshot::QueryOptions& options) const {
  const CorpusSnapshot::QueryPlan plan{
      meta_.epoch, &meta_.config, &index_vocab_, &epoch_vocab_,
      &meta_.record_removed, &meta_.record_group, &record_slot_,
      &meta_.group_records, &meta_.group_alive,
      [this](int32_t token,
             std::vector<int32_t>* docs) -> Result<std::span<const int32_t>> {
        // One index token's posting list, paged in and decoded.
        const size_t t = static_cast<size_t>(token);
        std::vector<uint8_t> bytes(postings_offsets_[t + 1] - postings_offsets_[t]);
        GL_RETURN_IF_ERROR(postings_reader_.ReadAt(postings_offsets_[t],
                                                   bytes.size(), bytes.data()));
        ByteReader reader(bytes.data(), bytes.size());
        GL_RETURN_IF_ERROR(reader.ReadDeltaVarints(docs));
        if (!reader.AtEnd()) return Status::DataLoss("trailing bytes in posting list");
        // ReadDeltaVarints never yields a descending id, so the last one
        // bounds them all.
        if (!docs->empty() && docs->back() >= meta_.num_records) {
          return Status::DataLoss("posting references a record out of range");
        }
        return std::span<const int32_t>(*docs);
      },
      [this](const auto& probes, auto* hits) { return ScoreProbes(probes, hits); }};
  return CorpusSnapshot::RunLinkQuery(plan, group, options);
}

}  // namespace storage
}  // namespace grouplink
