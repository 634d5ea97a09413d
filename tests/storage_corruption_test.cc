// Corruption suite: any bit flip, anywhere in a persisted store — header
// page, dictionary pages, posting pages, the seal, the checksum fields
// themselves, even the zero padding — must turn Load into a clean
// Status::DataLoss. A corrupted store must never decode into a silently
// different link set. Truncation at any page boundary or mid-page is
// equally fatal.
#include "storage/snapshot_store.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/incremental.h"
#include "core/snapshot.h"
#include "data/bibliographic_generator.h"
#include "storage/page.h"
#include "storage/page_file.h"
#include "storage/store_format.h"
#include "storage/stored_corpus.h"

namespace grouplink {
namespace storage {
namespace {

LinkageConfig TestConfig() {
  LinkageConfig config;
  config.theta = 0.35;
  config.group_threshold = 0.2;
  return config;
}

Dataset MakeCorpus(int32_t entities, uint64_t seed) {
  BibliographicConfig config;
  config.num_entities = entities;
  config.noise = 0.25;
  config.num_topics = 5;
  config.offtopic_word_prob = 0.5;
  config.seed = seed;
  return GenerateBibliographic(config);
}

std::string StorePath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  GL_CHECK(in.good()) << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  GL_CHECK(out.good()) << path;
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  GL_CHECK(out.good()) << path;
}

class StorageCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const Dataset dataset = MakeCorpus(15, 29);
    auto linker = IncrementalLinker::Create(dataset, TestConfig());
    GL_CHECK(linker.ok());
    snapshot_ = CorpusSnapshot::Capture(*linker);
    path_ = StorePath("corruption.glsnap");
    StorageOptions options;
    options.page_bytes = 512;
    GL_CHECK(SnapshotStore::Persist(*snapshot_, path_, options).ok());
    clean_ = ReadAll(path_);
    GL_CHECK_EQ(clean_.size() % 512, 0u);
  }

  void TearDown() override { GL_CHECK(RemoveFile(path_).ok()); }

  /// Loads the store with one bit flipped at `byte`:`bit` and demands a
  /// clean DataLoss.
  void ExpectFlipIsFatal(size_t byte, int bit) {
    std::vector<uint8_t> bytes = clean_;
    bytes[byte] ^= static_cast<uint8_t>(1u << bit);
    WriteAll(path_, bytes);
    const auto loaded = SnapshotStore::Load(path_);
    ASSERT_FALSE(loaded.ok()) << "flip at byte " << byte << " bit " << bit
                              << " silently decoded";
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << "byte " << byte << " bit " << bit << ": "
        << loaded.status().message();
  }

  std::shared_ptr<const CorpusSnapshot> snapshot_;
  std::string path_;
  std::vector<uint8_t> clean_;
};

TEST_F(StorageCorruptionTest, CleanStoreLoadsAsAControl) {
  const auto loaded = SnapshotStore::Load(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ((*loaded)->epoch(), snapshot_->epoch());
  EXPECT_EQ((*loaded)->linked_pairs(), snapshot_->linked_pairs());
}

TEST_F(StorageCorruptionTest, HeaderPageFlipsAreDataLoss) {
  // Magic, version, page_bytes, num_pages, the segment directory, the
  // header checksum itself, and the header padding.
  for (const size_t byte : {0u, 4u, 16u, 18u, 24u, 28u, 36u, 60u, 100u, 511u}) {
    ExpectFlipIsFatal(byte, static_cast<int>(byte) % 8);
  }
}

TEST_F(StorageCorruptionTest, DictionaryAndPostingPageFlipsAreDataLoss) {
  // Pages 1..num_pages-2 hold the segments (meta, dictionaries, posting
  // lists, vectors, documents). Flip a bit in the payload, the page
  // header, and the padding of several of them.
  const size_t num_pages = clean_.size() / 512;
  ASSERT_GT(num_pages, 3u);
  for (size_t page = 1; page + 1 < num_pages; page += (num_pages > 9 ? 3 : 1)) {
    const size_t base = page * 512;
    ExpectFlipIsFatal(base + 0, 7);    // Stored checksum.
    ExpectFlipIsFatal(base + 5, 2);    // Page id field.
    ExpectFlipIsFatal(base + 40, 1);   // Payload.
    ExpectFlipIsFatal(base + 511, 6);  // Final padding/payload byte.
  }
}

TEST_F(StorageCorruptionTest, SealPageFlipsAreDataLoss) {
  const size_t seal_base = clean_.size() - 512;
  ExpectFlipIsFatal(seal_base + 0, 0);   // Seal checksum.
  ExpectFlipIsFatal(seal_base + 16, 3);  // Seal magic.
  ExpectFlipIsFatal(seal_base + 24, 5);  // Sealed num_pages.
  ExpectFlipIsFatal(seal_base + 500, 4); // Seal padding.
}

TEST_F(StorageCorruptionTest, EveryStridedBitFlipAcrossTheFileIsFatal) {
  // A pseudo-exhaustive sweep: one flipped bit every 97 bytes, rotating
  // through bit positions, covering every page and every field class the
  // targeted tests above might have missed.
  int flips = 0;
  for (size_t byte = 0; byte < clean_.size(); byte += 97) {
    ExpectFlipIsFatal(byte, static_cast<int>((byte / 97) % 8));
    ++flips;
  }
  EXPECT_GT(flips, 20);
}

TEST_F(StorageCorruptionTest, TruncationIsDataLoss) {
  // Dropping the seal page, cutting mid-page, a single-page stub, and an
  // empty file must all fail cleanly.
  for (const size_t keep :
       {clean_.size() - 512, clean_.size() - 100, size_t{512}, size_t{0}}) {
    std::vector<uint8_t> bytes(clean_.begin(),
                               clean_.begin() + static_cast<long>(keep));
    WriteAll(path_, bytes);
    const auto loaded = SnapshotStore::Load(path_);
    ASSERT_FALSE(loaded.ok()) << "kept " << keep << " bytes";
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << "kept " << keep << " bytes: " << loaded.status().message();
  }
}

TEST_F(StorageCorruptionTest, ExtraTrailingPagesAreDataLoss) {
  // A store with garbage appended after the seal: the sealed page count
  // no longer matches the file size.
  std::vector<uint8_t> bytes = clean_;
  bytes.insert(bytes.end(), 512, 0xab);
  WriteAll(path_, bytes);
  const auto loaded = SnapshotStore::Load(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST_F(StorageCorruptionTest, ForeignFileIsDataLossNotACrash) {
  // A well-formed-looking file of the right granularity but alien
  // content (e.g. another tool's output dropped at the store path).
  std::vector<uint8_t> alien(4096, 0x5a);
  WriteAll(path_, alien);
  const auto loaded = SnapshotStore::Load(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

// --- Decoders behind the CRC. The stores below are re-laid from forged
// --- segment bytes with every page re-sealed, so each page passes its
// --- checksum and the segment decoders themselves must reject the bytes.

using Segments = std::array<std::vector<uint8_t>, kNumSegments>;

/// The segments of the store at `path`, as Persist wrote them.
Segments ReadSegments(const std::string& path) {
  auto file = PageFile::Open(path);
  GL_CHECK(file.ok());
  const auto info = ReadStoreInfo(**file);
  GL_CHECK(info.ok());
  Segments segments;
  for (uint32_t s = 0; s < kNumSegments; ++s) {
    auto bytes = ReadWholeSegment(**file, *info, static_cast<SegmentId>(s));
    GL_CHECK(bytes.ok());
    segments[s] = std::move(*bytes);
  }
  return segments;
}

/// Lays `segments` out in Persist's page layout (header, segment pages,
/// seal) with 512-byte pages, sealing every page with a valid checksum.
std::vector<uint8_t> LayOutStore(const Segments& segments, int64_t epoch) {
  constexpr uint32_t page_bytes = 512;
  StoreInfo info;
  info.page_bytes = page_bytes;
  uint64_t next_page = 1;
  for (uint32_t s = 0; s < kNumSegments; ++s) {
    info.segments[s] = {next_page, segments[s].size()};
    next_page += info.PagesOf(static_cast<SegmentId>(s));
  }
  info.num_pages = next_page + 1;
  std::vector<uint8_t> store(info.num_pages * page_bytes, 0);
  const auto put_page = [&](uint64_t page, PageType type, const uint8_t* payload,
                            size_t size) {
    uint8_t* frame = store.data() + page * page_bytes;
    std::copy(payload, payload + size, frame + kPageHeaderBytes);
    SealPageFrame(static_cast<uint32_t>(page), type, static_cast<uint32_t>(size),
                  frame, page_bytes);
  };
  const std::vector<uint8_t> header = EncodeHeaderPayload(info);
  put_page(0, PageType::kHeader, header.data(), header.size());
  const uint64_t cap = PagePayloadCapacity(page_bytes);
  for (uint32_t s = 0; s < kNumSegments; ++s) {
    for (uint64_t done = 0; done < segments[s].size(); done += cap) {
      put_page(info.segments[s].first_page + done / cap, PageType::kSegment,
               segments[s].data() + done,
               std::min<uint64_t>(cap, segments[s].size() - done));
    }
  }
  const std::vector<uint8_t> seal = EncodeSealPayload(info, epoch);
  put_page(info.num_pages - 1, PageType::kSeal, seal.data(), seal.size());
  return store;
}

/// Each token's list in segment `data` (directory `dir`), as raw bytes.
std::vector<std::vector<uint8_t>> Lists(const Segments& segments, SegmentId dir,
                                        SegmentId data, size_t num_tokens) {
  std::vector<uint64_t> offsets;
  GL_CHECK(DecodeDirectory(segments[dir], num_tokens, segments[data].size(), &offsets)
               .ok());
  std::vector<std::vector<uint8_t>> lists;
  for (size_t t = 0; t + 1 < offsets.size(); ++t) {
    lists.emplace_back(segments[data].begin() + offsets[t],
                       segments[data].begin() + offsets[t + 1]);
  }
  return lists;
}

/// `segments` with segment `data` and its directory `dir` re-encoded
/// from `lists`.
Segments WithLists(Segments segments, SegmentId dir, SegmentId data,
                   const std::vector<std::vector<uint8_t>>& lists) {
  segments[dir].clear();
  segments[data].clear();
  PutVarint(segments[dir], lists.size());
  for (const std::vector<uint8_t>& list : lists) {
    PutVarint(segments[dir], list.size());
    segments[data].insert(segments[data].end(), list.begin(), list.end());
  }
  return segments;
}

/// A delta-varint list of two ids, `first` then `second`, whose gap is
/// written as the 64-bit two's complement it wraps to when `second` is
/// below `first` (a ten-byte varint).
std::vector<uint8_t> TwoIdList(int32_t first, int32_t second) {
  std::vector<uint8_t> list;
  PutVarint(list, 2);
  PutVarint(list, static_cast<uint64_t>(first));
  PutVarint(list, static_cast<uint64_t>(second) - static_cast<uint64_t>(first));
  return list;
}

class StorageDecoderTest : public StorageCorruptionTest {
 protected:
  void SetUp() override {
    StorageCorruptionTest::SetUp();
    segments_ = ReadSegments(path_);
    // The probe is record 0's group, so its vector holds record 0's
    // first epoch token, the one the forged lists below replace.
    const Dataset dataset = MakeCorpus(15, 29);
    for (const Group& group : dataset.groups) {
      if (group.record_ids.front() != 0) continue;
      for (const int32_t r : group.record_ids) {
        probe_.record_texts.push_back(dataset.records[static_cast<size_t>(r)].text);
      }
    }
    GL_CHECK(!probe_.record_texts.empty());
    token_ = static_cast<size_t>(snapshot_->record_vectors()[0].ids.front());
  }

  std::vector<std::vector<uint8_t>> CleanLists() const {
    return Lists(segments_, kWeightedPostingsDir, kWeightedPostings,
                 snapshot_->epoch_vocab().size());
  }

  /// The clean segments with token_'s weighted posting list replaced.
  Segments WithForgedList(const std::vector<uint8_t>& list) const {
    std::vector<std::vector<uint8_t>> lists = CleanLists();
    lists[token_] = list;
    return WithLists(segments_, kWeightedPostingsDir, kWeightedPostings, lists);
  }

  /// Load, and the paged path at a one-frame and a roomy pool (Open, or
  /// else the probe's LinkQuery), must all be a clean DataLoss.
  void ExpectDataLossEverywhere(const std::vector<uint8_t>& store,
                                const std::string& what) {
    WriteAll(path_, store);
    const auto loaded = SnapshotStore::Load(path_);
    ASSERT_FALSE(loaded.ok()) << what << ": Load accepted it";
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << what << ": " << loaded.status().message();
    for (const size_t pool : {size_t{1}, size_t{64}}) {
      StorageOptions options;
      options.buffer_pool_pages = pool;
      const auto opened = StoredCorpus::Open(path_, options);
      if (!opened.ok()) {
        EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss)
            << what << ": " << opened.status().message();
        continue;
      }
      const auto answer = (*opened)->LinkQuery(probe_);
      ASSERT_FALSE(answer.ok()) << what << ": LinkQuery accepted it, pool " << pool;
      EXPECT_EQ(answer.status().code(), StatusCode::kDataLoss)
          << what << ": " << answer.status().message();
    }
  }

  Segments segments_;
  GroupArrival probe_{"probe", {}};
  size_t token_ = 0;
};

TEST_F(StorageDecoderTest, ReLaidCleanStoreIsByteIdenticalAsAControl) {
  // The rewriter reproduces Persist's bytes, and the probe reaches the
  // forged token's list through both paths.
  EXPECT_EQ(LayOutStore(segments_, snapshot_->epoch()), clean_);
  EXPECT_EQ(LayOutStore(WithForgedList(CleanLists()[token_]), snapshot_->epoch()),
            clean_);
  const auto opened = StoredCorpus::Open(path_);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  const auto answer = (*opened)->LinkQuery(probe_);
  ASSERT_TRUE(answer.ok()) << answer.status().message();
  EXPECT_EQ(answer->linked_to, snapshot_->LinkQuery(probe_).linked_to);
  EXPECT_FALSE(answer->linked_to.empty());
}

TEST_F(StorageDecoderTest, WeightedPostingRecordOutOfRangeIsDataLoss) {
  std::vector<uint8_t> list;
  PutDeltaVarints(list, {snapshot_->num_records()});
  PutDouble(list, 0.5);
  ExpectDataLossEverywhere(LayOutStore(WithForgedList(list), snapshot_->epoch()),
                           "record id at num_records");
}

TEST_F(StorageDecoderTest, NonAscendingWeightedPostingRecordsAreDataLoss) {
  // A non-ascending pair is either a zero gap (a repeat) or a gap that
  // wraps past 2^63 into a step down.
  std::vector<uint8_t> list = TwoIdList(0, 0);
  PutDouble(list, 0.5);
  PutDouble(list, 0.5);
  ExpectDataLossEverywhere(LayOutStore(WithForgedList(list), snapshot_->epoch()),
                           "repeated record id");
  // The first id is out of range and the last in range, so a bound on the
  // last id alone would pass it.
  list = TwoIdList(snapshot_->num_records() + 1000, 1);
  PutDouble(list, 0.5);
  PutDouble(list, 0.5);
  ExpectDataLossEverywhere(LayOutStore(WithForgedList(list), snapshot_->epoch()),
                           "descending record ids");
}

TEST_F(StorageDecoderTest, DescendingIndexPostingDocsAreDataLoss) {
  // The index postings segment is read only by the paged path (Load
  // rebuilds the index from the docs segment), so Open or LinkQuery
  // must reject it at both pool sizes.
  const std::string& text = snapshot_->epoch_vocab().TokenOf(static_cast<int32_t>(token_));
  const size_t index_token = static_cast<size_t>(snapshot_->index_vocab().GetId(text));
  std::vector<std::vector<uint8_t>> lists =
      Lists(segments_, kPostingsDir, kPostings, snapshot_->index_vocab().size());
  lists[index_token] = TwoIdList(snapshot_->num_records() + 1000, 1);
  WriteAll(path_, LayOutStore(WithLists(segments_, kPostingsDir, kPostings, lists),
                              snapshot_->epoch()));
  for (const size_t pool : {size_t{1}, size_t{64}}) {
    StorageOptions options;
    options.buffer_pool_pages = pool;
    const auto opened = StoredCorpus::Open(path_, options);
    if (!opened.ok()) {
      EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss)
          << opened.status().message();
      continue;
    }
    const auto answer = (*opened)->LinkQuery(probe_);
    ASSERT_FALSE(answer.ok()) << "LinkQuery accepted it, pool " << pool;
    EXPECT_EQ(answer.status().code(), StatusCode::kDataLoss)
        << answer.status().message();
  }
}

TEST_F(StorageDecoderTest, ShortWeightBlockIsDataLoss) {
  std::vector<uint8_t> list = CleanLists()[token_];
  list.resize(list.size() - 3);
  ExpectDataLossEverywhere(LayOutStore(WithForgedList(list), snapshot_->epoch()),
                           "short weight block");
}

TEST_F(StorageDecoderTest, TrailingBytesInAWeightedPostingListAreDataLoss) {
  std::vector<uint8_t> list = CleanLists()[token_];
  list.push_back(0);
  ExpectDataLossEverywhere(LayOutStore(WithForgedList(list), snapshot_->epoch()),
                           "trailing byte");
}

TEST_F(StorageDecoderTest, DirectoryTotalDisagreeingWithSegmentIsDataLoss) {
  Segments segments = segments_;
  segments[kWeightedPostings].push_back(0);  // One byte no list owns.
  ExpectDataLossEverywhere(LayOutStore(segments, snapshot_->epoch()), "segment longer");
  segments = segments_;
  segments[kWeightedPostings].pop_back();  // The last list loses a byte.
  ExpectDataLossEverywhere(LayOutStore(segments, snapshot_->epoch()), "segment shorter");
}

TEST_F(StorageDecoderTest, VersionOneHeaderIsRejected) {
  // The header payload is magic (8 bytes), then the u32 version.
  std::vector<uint8_t> store = clean_;
  store[kPageHeaderBytes + 8] = 1;
  const uint32_t payload_len = store[12] | (store[13] << 8);
  SealPageFrame(0, PageType::kHeader, payload_len, store.data(), 512);
  ExpectDataLossEverywhere(store, "version 1 header");
  WriteAll(path_, store);
  const auto loaded = SnapshotStore::Load(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("version 1"), std::string::npos)
      << loaded.status().message();
}

/// The snapshot's own frozen state as FromParts input: the starting
/// point for the forged epochs below, each of which decodes cleanly (no
/// CRC ever fails) yet must be rejected before the scoring index that
/// addresses postings by vector id and records by group slot is built.
CorpusSnapshot::Parts PartsOf(const CorpusSnapshot& snapshot) {
  CorpusSnapshot::Parts parts;
  parts.config = snapshot.engine_config();
  parts.epoch = snapshot.epoch();
  parts.index_vocab = snapshot.index_vocab();
  parts.token_index = snapshot.token_index();
  parts.epoch_vocab = snapshot.epoch_vocab();
  parts.record_vectors = snapshot.record_vectors();
  parts.record_group = snapshot.record_group();
  parts.record_token_ids = snapshot.record_token_ids();
  parts.group_records = snapshot.group_records();
  parts.group_labels = snapshot.group_labels();
  parts.group_alive = snapshot.group_alive();
  parts.num_alive_groups = snapshot.num_alive_groups();
  parts.linked_pairs = snapshot.linked_pairs();
  parts.cluster_labels = snapshot.cluster_labels();
  return parts;
}

void ExpectForgedPartsAreDataLoss(CorpusSnapshot::Parts parts,
                                  const std::string& what) {
  const auto rebuilt = CorpusSnapshot::FromParts(std::move(parts));
  ASSERT_FALSE(rebuilt.ok()) << what << " was accepted";
  EXPECT_EQ(rebuilt.status().code(), StatusCode::kDataLoss) << what;
}

/// Index of a record whose vector has at least two ids.
size_t RecordWithTwoVectorIds(const CorpusSnapshot::Parts& parts) {
  for (size_t r = 0; r < parts.record_vectors.size(); ++r) {
    if (parts.record_vectors[r].size() >= 2) return r;
  }
  GL_CHECK(false) << "fixture has no record with two vector ids";
  return 0;
}

/// Index of a group listing at least two records.
size_t GroupWithTwoRecords(const CorpusSnapshot::Parts& parts) {
  for (size_t g = 0; g < parts.group_records.size(); ++g) {
    if (parts.group_records[g].size() >= 2) return g;
  }
  GL_CHECK(false) << "fixture has no group with two records";
  return 0;
}

TEST_F(StorageCorruptionTest, UnforgedPartsRebuildAsAControl) {
  const auto rebuilt = CorpusSnapshot::FromParts(PartsOf(*snapshot_));
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().message();
  EXPECT_EQ((*rebuilt)->linked_pairs(), snapshot_->linked_pairs());
  // The fixture's own corpus, replayed as probes through both epochs.
  const Dataset dataset = MakeCorpus(15, 29);
  size_t linked = 0;
  for (const Group& group : dataset.groups) {
    std::vector<std::string> texts;
    for (const int32_t r : group.record_ids) {
      texts.push_back(dataset.records[static_cast<size_t>(r)].text);
    }
    const auto expected = snapshot_->LinkQuery({"probe", texts});
    EXPECT_EQ((*rebuilt)->LinkQuery({"probe", texts}).linked_to,
              expected.linked_to);
    linked += expected.linked_to.size();
  }
  EXPECT_GT(linked, 0u);
}

TEST_F(StorageCorruptionTest, MalformedRecordVectorsAreDataLoss) {
  const CorpusSnapshot::Parts clean = PartsOf(*snapshot_);
  const size_t r = RecordWithTwoVectorIds(clean);
  {
    CorpusSnapshot::Parts parts = clean;
    std::swap(parts.record_vectors[r].ids[0], parts.record_vectors[r].ids[1]);
    ExpectForgedPartsAreDataLoss(std::move(parts), "unsorted vector ids");
  }
  {
    CorpusSnapshot::Parts parts = clean;
    parts.record_vectors[r].ids[1] = parts.record_vectors[r].ids[0];
    ExpectForgedPartsAreDataLoss(std::move(parts), "duplicated vector id");
  }
  {
    CorpusSnapshot::Parts parts = clean;
    parts.record_vectors[r].ids.back() =
        static_cast<int32_t>(parts.epoch_vocab.size());
    ExpectForgedPartsAreDataLoss(std::move(parts),
                                 "vector id at the vocabulary size");
  }
  {
    CorpusSnapshot::Parts parts = clean;
    parts.record_vectors[r].ids[0] = -1;
    ExpectForgedPartsAreDataLoss(std::move(parts), "negative vector id");
  }
  {
    CorpusSnapshot::Parts parts = clean;
    parts.record_vectors[r].weights.pop_back();
    ExpectForgedPartsAreDataLoss(std::move(parts), "missing vector weight");
  }
}

TEST_F(StorageCorruptionTest, GroupRecordsDisagreeingWithRecordGroupAreDataLoss) {
  const CorpusSnapshot::Parts clean = PartsOf(*snapshot_);
  const size_t g = GroupWithTwoRecords(clean);
  const size_t other = (g + 1) % clean.group_records.size();
  const int32_t r = clean.group_records[g][1];
  {
    // The record moves to another group's list; record_group still says g.
    CorpusSnapshot::Parts parts = clean;
    parts.group_records[g].erase(parts.group_records[g].begin() + 1);
    parts.group_records[other].push_back(r);
    ExpectForgedPartsAreDataLoss(std::move(parts),
                                 "record listed under a foreign group");
  }
  {
    // record_group is rewritten; the lists still say g.
    CorpusSnapshot::Parts parts = clean;
    parts.record_group[static_cast<size_t>(r)] = static_cast<int32_t>(other);
    ExpectForgedPartsAreDataLoss(std::move(parts),
                                 "record_group pointing away from its list");
  }
  {
    CorpusSnapshot::Parts parts = clean;
    parts.group_records[g].push_back(r);
    ExpectForgedPartsAreDataLoss(std::move(parts), "record listed twice");
  }
  {
    CorpusSnapshot::Parts parts = clean;
    parts.group_records[g].push_back(
        static_cast<int32_t>(parts.record_vectors.size()));
    ExpectForgedPartsAreDataLoss(std::move(parts), "record id out of range");
  }
  {
    CorpusSnapshot::Parts parts = clean;
    parts.group_records[g][0] = -1;
    ExpectForgedPartsAreDataLoss(std::move(parts), "negative record id");
  }
}

}  // namespace
}  // namespace storage
}  // namespace grouplink
