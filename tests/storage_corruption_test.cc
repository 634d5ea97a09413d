// Corruption suite: any bit flip, anywhere in a persisted store — header
// page, dictionary pages, posting pages, the seal, the checksum fields
// themselves, even the zero padding — must turn Load into a clean
// Status::DataLoss. A corrupted store must never decode into a silently
// different link set. Truncation at any page boundary or mid-page is
// equally fatal.
#include "storage/snapshot_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/incremental.h"
#include "core/snapshot.h"
#include "data/bibliographic_generator.h"
#include "storage/page_file.h"
#include "storage/store_format.h"

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
