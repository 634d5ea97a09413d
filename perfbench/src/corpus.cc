#include "corpus.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/random.h"
#include "data/bibliographic_generator.h"
#include "data/household_generator.h"

namespace perfbench {

using grouplink::Dataset;
using grouplink::GroupArrival;
using grouplink::Rng;

grouplink::LinkageConfig EngineConfig() {
  grouplink::LinkageConfig config;
  config.theta = kTheta;
  config.group_threshold = kGroupThreshold;
  return config;
}

Dataset SubsetDataset(const Dataset& full, const std::vector<int32_t>& groups) {
  Dataset out;
  for (const int32_t g : groups) {
    grouplink::Group group = full.groups[static_cast<size_t>(g)];
    for (int32_t& r : group.record_ids) {
      out.records.push_back(full.records[static_cast<size_t>(r)]);
      r = static_cast<int32_t>(out.records.size() - 1);
    }
    out.groups.push_back(std::move(group));
    if (!full.group_entities.empty()) {
      out.group_entities.push_back(full.group_entities[static_cast<size_t>(g)]);
    }
  }
  return out;
}

GroupArrival ArrivalOf(const Dataset& full, int32_t group) {
  const grouplink::Group& g = full.groups[static_cast<size_t>(group)];
  GroupArrival arrival;
  arrival.label = g.label;
  for (const int32_t r : g.record_ids) {
    arrival.record_texts.push_back(full.records[static_cast<size_t>(r)].text);
  }
  return arrival;
}

size_t MedianSizedProbe(const std::vector<GroupArrival>& probes) {
  std::vector<size_t> by_size(probes.size());
  for (size_t i = 0; i < by_size.size(); ++i) by_size[i] = i;
  std::stable_sort(by_size.begin(), by_size.end(), [&](size_t a, size_t b) {
    return probes[a].record_texts.size() < probes[b].record_texts.size();
  });
  return by_size[by_size.size() / 2];
}

namespace {

int64_t TextBytes(const Dataset& dataset) {
  int64_t bytes = 0;
  for (const grouplink::Record& r : dataset.records) bytes += static_cast<int64_t>(r.text.size());
  return bytes;
}

}  // namespace

ServeCorpus MakeServeCorpus(int32_t records, double known_share, uint64_t seed) {
  // The repository's hard bibliographic configuration: few topics and
  // many off-topic words, so every probe shares a token with every group.
  // Entities are generated generously (about 27 records each on average)
  // and then taken whole, in seeded order, until `records` is reached, so
  // the seed changes the corpus but hardly its size.
  grouplink::BibliographicConfig config;
  config.num_entities = records / 15 + 8;
  config.noise = 0.25;
  config.num_topics = 6;
  config.offtopic_word_prob = 0.5;
  config.seed = seed;
  const Dataset full = grouplink::GenerateBibliographic(config);

  std::map<int32_t, std::vector<int32_t>> by_entity;
  for (int32_t g = 0; g < full.num_groups(); ++g) {
    by_entity[full.group_entities[static_cast<size_t>(g)]].push_back(g);
  }
  std::vector<int32_t> order;
  for (const auto& entry : by_entity) order.push_back(entry.first);
  Rng rng(seed ^ 0x5e4e5eedULL);
  rng.Shuffle(order);
  int32_t taken_records = 0;
  int32_t taken_groups = 0;
  size_t taken = 0;
  for (; taken < order.size() && taken_records < records; ++taken) {
    for (const int32_t g : by_entity[order[taken]]) {
      taken_records += full.GroupSize(g);
      ++taken_groups;
    }
  }
  order.resize(taken);

  const int32_t holdout = static_cast<int32_t>(std::lround(taken_groups / 4.0));
  const int32_t known_target = static_cast<int32_t>(std::lround(holdout * known_share));
  std::vector<char> held(static_cast<size_t>(full.num_groups()), 0);
  std::vector<int32_t> known, unseen;
  size_t next = 0;
  // Unseen entities: every group held out, so nothing in the corpus
  // co-refers with these probes.
  for (; next < order.size() &&
         static_cast<int32_t>(unseen.size()) < holdout - known_target;
       ++next) {
    for (const int32_t g : by_entity[order[next]]) {
      unseen.push_back(g);
      held[static_cast<size_t>(g)] = 1;
    }
  }
  // Known entities: one rendition held out, the others stay seeded.
  for (; next < order.size() && static_cast<int32_t>(known.size()) < known_target;
       ++next) {
    const std::vector<int32_t>& groups = by_entity[order[next]];
    if (groups.size() < 2) continue;
    const int32_t g = groups[rng.Uniform(groups.size())];
    known.push_back(g);
    held[static_cast<size_t>(g)] = 1;
  }

  std::vector<char> in_corpus(static_cast<size_t>(full.num_groups()), 0);
  for (const int32_t entity : order) {
    for (const int32_t g : by_entity[entity]) in_corpus[static_cast<size_t>(g)] = 1;
  }
  std::vector<int32_t> seeded;
  for (int32_t g = 0; g < full.num_groups(); ++g) {
    if (in_corpus[static_cast<size_t>(g)] && !held[static_cast<size_t>(g)]) seeded.push_back(g);
  }
  ServeCorpus corpus;
  corpus.seed = SubsetDataset(full, seeded);
  for (const int32_t g : known) corpus.probes.push_back(ArrivalOf(full, g));
  for (const int32_t g : unseen) corpus.probes.push_back(ArrivalOf(full, g));
  corpus.known_probes = static_cast<int32_t>(known.size());
  corpus.unseen_probes = static_cast<int32_t>(unseen.size());
  corpus.text_bytes = TextBytes(corpus.seed);
  return corpus;
}

IngestCorpus MakeIngestCorpus(int32_t households, int32_t num_ops,
                              double remove_share, double merge_share, uint64_t seed) {
  grouplink::HouseholdConfig config;
  config.num_households = households;
  config.noise = 0.3;
  config.seed = seed;
  const Dataset full = grouplink::GenerateHouseholds(config);

  Rng rng(seed ^ 0x1a6e57ULL);
  std::vector<IngestOp::Kind> kinds;
  int32_t adds = 0;
  for (int32_t i = 0; i < num_ops; ++i) {
    const double u = rng.UniformDouble();
    IngestOp::Kind kind = IngestOp::Kind::kAdd;
    if (i > 0 && u < remove_share) {
      kind = IngestOp::Kind::kRemove;
    } else if (i > 0 && u < remove_share + merge_share) {
      kind = IngestOp::Kind::kMerge;
    }
    if (kind == IngestOp::Kind::kAdd) ++adds;
    kinds.push_back(kind);
  }

  // The arrivals are the last second-wave ("b") groups; their first-wave
  // renditions are seeded, so arrivals link into the corpus.
  std::vector<int32_t> second_wave;
  for (int32_t g = 0; g < full.num_groups(); ++g) {
    if (full.groups[static_cast<size_t>(g)].id.back() == 'b') second_wave.push_back(g);
  }
  adds = std::min<int32_t>(adds, static_cast<int32_t>(second_wave.size()));
  std::vector<char> arriving(static_cast<size_t>(full.num_groups()), 0);
  std::vector<int32_t> arrival_groups(second_wave.end() - adds, second_wave.end());
  for (const int32_t g : arrival_groups) arriving[static_cast<size_t>(g)] = 1;
  std::vector<int32_t> seeded;
  for (int32_t g = 0; g < full.num_groups(); ++g) {
    if (!arriving[static_cast<size_t>(g)]) seeded.push_back(g);
  }

  IngestCorpus corpus;
  corpus.seed = SubsetDataset(full, seeded);
  for (const grouplink::Record& r : corpus.seed.records) corpus.texts.push_back(r.text);
  for (const int32_t g : arrival_groups) corpus.arrivals.push_back(ArrivalOf(full, g));

  std::vector<int32_t> alive;
  for (int32_t g = 0; g < corpus.seed.num_groups(); ++g) alive.push_back(g);
  int32_t next_slot = corpus.seed.num_groups();
  int32_t next_arrival = 0;
  const auto take_alive = [&]() {
    const size_t i = rng.Uniform(alive.size());
    const int32_t slot = alive[i];
    alive[i] = alive.back();
    alive.pop_back();
    return slot;
  };
  for (const IngestOp::Kind kind : kinds) {
    IngestOp op;
    op.kind = kind;
    if (kind == IngestOp::Kind::kAdd) {
      if (next_arrival == adds) continue;  // Second wave exhausted.
      op.arrival = next_arrival++;
      op.slot = next_slot++;
      alive.push_back(op.slot);
      for (const std::string& text :
           corpus.arrivals[static_cast<size_t>(op.arrival)].record_texts) {
        corpus.texts.push_back(text);
      }
    } else if (kind == IngestOp::Kind::kRemove) {
      op.slot = take_alive();
    } else {
      op.from = take_alive();
      op.slot = alive[rng.Uniform(alive.size())];
    }
    corpus.ops.push_back(op);
  }
  return corpus;
}

}  // namespace perfbench
