#include "embed/doc2vec.h"

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "util/rng.h"
#include "util/string_util.h"

namespace querc::embed {
namespace {

/// Tiny corpus with two obvious structural groups.
std::vector<std::vector<std::string>> TwoGroupCorpus(int per_group = 30) {
  std::vector<std::vector<std::string>> docs;
  for (int i = 0; i < per_group; ++i) {
    docs.push_back({"SELECT", "revenue", "FROM", "sales", "WHERE", "region",
                    "=", "<str>"});
    docs.push_back({"INSERT", "INTO", "audit_log", "VALUES", "(", "<num>",
                    ",", "<str>", ")"});
  }
  return docs;
}

Doc2VecEmbedder::Options SmallOptions(Doc2VecEmbedder::Mode mode) {
  Doc2VecEmbedder::Options options;
  options.dim = 16;
  options.mode = mode;
  options.epochs = 20;
  options.min_count = 1;
  options.seed = 21;
  return options;
}

class Doc2VecModeTest
    : public ::testing::TestWithParam<Doc2VecEmbedder::Mode> {};

TEST_P(Doc2VecModeTest, TrainSucceedsAndEmbedsToDim) {
  Doc2VecEmbedder embedder(SmallOptions(GetParam()));
  ASSERT_TRUE(embedder.Train(TwoGroupCorpus()).ok());
  nn::Vec v = embedder.Embed({"SELECT", "revenue", "FROM", "sales"});
  EXPECT_EQ(v.size(), 16u);
  double mag = 0.0;
  for (double x : v) mag += std::abs(x);
  EXPECT_GT(mag, 0.0);
}

TEST_P(Doc2VecModeTest, SimilarQueriesCloserThanDissimilar) {
  Doc2VecEmbedder embedder(SmallOptions(GetParam()));
  ASSERT_TRUE(embedder.Train(TwoGroupCorpus()).ok());
  nn::Vec select1 = embedder.Embed(
      {"SELECT", "revenue", "FROM", "sales", "WHERE", "region", "=", "<str>"});
  nn::Vec select2 = embedder.Embed({"SELECT", "revenue", "FROM", "sales"});
  nn::Vec insert = embedder.Embed(
      {"INSERT", "INTO", "audit_log", "VALUES", "(", "<num>", ")"});
  double sim_same = nn::CosineSimilarity(select1, select2);
  double sim_diff = nn::CosineSimilarity(select1, insert);
  EXPECT_GT(sim_same, sim_diff);
}

TEST_P(Doc2VecModeTest, InferenceIsDeterministicPerInput) {
  Doc2VecEmbedder embedder(SmallOptions(GetParam()));
  ASSERT_TRUE(embedder.Train(TwoGroupCorpus()).ok());
  std::vector<std::string> doc = {"SELECT", "revenue", "FROM", "sales"};
  EXPECT_EQ(embedder.Embed(doc), embedder.Embed(doc));
}

INSTANTIATE_TEST_SUITE_P(Modes, Doc2VecModeTest,
                         ::testing::Values(Doc2VecEmbedder::Mode::kDm,
                                           Doc2VecEmbedder::Mode::kDbow));

TEST(Doc2VecTest, EmptyCorpusFails) {
  Doc2VecEmbedder embedder(SmallOptions(Doc2VecEmbedder::Mode::kDm));
  EXPECT_FALSE(embedder.Train({}).ok());
}

TEST(Doc2VecTest, EmbedBeforeTrainReturnsZeros) {
  Doc2VecEmbedder embedder(SmallOptions(Doc2VecEmbedder::Mode::kDm));
  nn::Vec v = embedder.Embed({"a"});
  for (double x : v) EXPECT_EQ(x, 0.0);
}

TEST(Doc2VecTest, TrainedDocVectorsAvailable) {
  Doc2VecEmbedder embedder(SmallOptions(Doc2VecEmbedder::Mode::kDm));
  auto corpus = TwoGroupCorpus(5);
  ASSERT_TRUE(embedder.Train(corpus).ok());
  EXPECT_EQ(embedder.num_train_docs(), corpus.size());
  EXPECT_EQ(embedder.TrainedDocVector(0).size(), 16u);
}

TEST(Doc2VecTest, SaveLoadPreservesEmbeddings) {
  Doc2VecEmbedder embedder(SmallOptions(Doc2VecEmbedder::Mode::kDm));
  ASSERT_TRUE(embedder.Train(TwoGroupCorpus()).ok());
  std::stringstream ss;
  ASSERT_TRUE(embedder.Save(ss).ok());
  auto loaded = Doc2VecEmbedder::Load(ss);
  ASSERT_TRUE(loaded.ok());
  std::vector<std::string> doc = {"SELECT", "revenue", "FROM", "sales"};
  nn::Vec original = embedder.Embed(doc);
  nn::Vec restored = loaded->Embed(doc);
  ASSERT_EQ(original.size(), restored.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_NEAR(original[i], restored[i], 1e-12);
  }
}

TEST(Doc2VecTest, SaveUntrainedFails) {
  Doc2VecEmbedder embedder(SmallOptions(Doc2VecEmbedder::Mode::kDm));
  std::stringstream ss;
  EXPECT_FALSE(embedder.Save(ss).ok());
}

TEST(Doc2VecTest, LoadRejectsBadMagic) {
  std::stringstream ss("garbage bytes here, definitely not a model");
  EXPECT_FALSE(Doc2VecEmbedder::Load(ss).ok());
}

TEST(Doc2VecTest, NameReflectsMode) {
  EXPECT_EQ(Doc2VecEmbedder(SmallOptions(Doc2VecEmbedder::Mode::kDm)).name(),
            "doc2vec-dm");
  EXPECT_EQ(
      Doc2VecEmbedder(SmallOptions(Doc2VecEmbedder::Mode::kDbow)).name(),
      "doc2vec-dbow");
}


TEST(Doc2VecTest, DbowInferenceIsOrderInvariant) {
  // PV-DBOW is a bag-of-words model: two inputs with the same token
  // multiset must embed identically, byte for byte. (This is load-bearing
  // for the Table 1 reproduction: order signal must be invisible here.)
  Doc2VecEmbedder embedder(SmallOptions(Doc2VecEmbedder::Mode::kDbow));
  ASSERT_TRUE(embedder.Train(TwoGroupCorpus()).ok());
  std::vector<std::string> a = {"SELECT", "revenue", "FROM", "sales",
                                "WHERE", "region", "=", "<str>"};
  std::vector<std::string> b = {"WHERE", "region", "FROM", "sales",
                                "SELECT", "revenue", "=", "<str>"};
  EXPECT_EQ(embedder.Embed(a), embedder.Embed(b));
}

TEST(Doc2VecTest, DmInferenceUsesOrder) {
  // PV-DM predicts words from context windows, so order can influence the
  // vector. Different multisets must certainly differ.
  Doc2VecEmbedder embedder(SmallOptions(Doc2VecEmbedder::Mode::kDm));
  ASSERT_TRUE(embedder.Train(TwoGroupCorpus()).ok());
  std::vector<std::string> a = {"SELECT", "revenue", "FROM", "sales"};
  std::vector<std::string> c = {"INSERT", "INTO", "audit_log"};
  EXPECT_NE(embedder.Embed(a), embedder.Embed(c));
}

/// Seeded corpus over a 40-word alphabet with Zipf-ish frequencies, so
/// the sampling table has ties, rare words fold into <unk> (min_count 2)
/// and documents repeat tokens.
std::vector<std::vector<std::string>> GoldenCorpus(size_t docs,
                                                   uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<std::string>> corpus(docs);
  for (auto& doc : corpus) {
    const int len = static_cast<int>(rng.UniformInt(3, 14));
    for (int t = 0; t < len; ++t) {
      const double u = rng.UniformDouble();
      doc.push_back("w" + std::to_string(static_cast<int>(40.0 * u * u)));
    }
  }
  return corpus;
}

uint64_t HashVectors(const std::vector<nn::Vec>& vecs) {
  std::string bytes;
  for (const nn::Vec& v : vecs) {
    bytes.append(reinterpret_cast<const char*>(v.data()),
                 v.size() * sizeof(double));
  }
  return util::Fnv1a64(bytes);
}

TEST(Doc2VecTest, GoldenBitsPinned) {
  // Every bit of the trained tables (via Save) and of inference output is
  // pinned, so speed work on the training/inference loops cannot move a
  // vector unnoticed. EXPERIMENTS.md's Fig. 3 and Table 1 run PV-DBOW
  // through this code. A legitimate change to the model's arithmetic must
  // re-record these constants and say why.
  struct Golden {
    Doc2VecEmbedder::Mode mode;
    uint64_t save_hash;
    uint64_t embed_hash;
  };
  const Golden goldens[] = {
      {Doc2VecEmbedder::Mode::kDm, 0x009d08265a795686ULL,
       0x722a3c39636d9132ULL},
      {Doc2VecEmbedder::Mode::kDbow, 0xc9c66b9c9bc2450aULL,
       0x4289aff23cf8aefbULL},
  };
  const auto corpus = GoldenCorpus(120, 31);
  // Half of the probes are training documents, half unseen ones (which
  // also carry words absent from the vocabulary).
  auto probes = GoldenCorpus(25, 31);
  for (auto& doc : GoldenCorpus(25, 77)) {
    doc.push_back("never_seen");
    probes.push_back(doc);
  }
  for (const Golden& golden : goldens) {
    Doc2VecEmbedder::Options options = SmallOptions(golden.mode);
    options.epochs = 4;
    options.min_count = 2;
    Doc2VecEmbedder embedder(options);
    ASSERT_TRUE(embedder.Train(corpus).ok());
    std::stringstream ss;
    ASSERT_TRUE(embedder.Save(ss).ok());
    std::vector<nn::Vec> embedded;
    for (const auto& doc : probes) embedded.push_back(embedder.Embed(doc));
    EXPECT_EQ(util::Fnv1a64(ss.str()), golden.save_hash)
        << embedder.name();
    EXPECT_EQ(HashVectors(embedded), golden.embed_hash) << embedder.name();
  }
}

}  // namespace
}  // namespace querc::embed
