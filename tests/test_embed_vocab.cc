#include "embed/vocab.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace querc::embed {
namespace {

std::vector<std::vector<std::string>> Corpus() {
  return {{"select", "a", "from", "t"},
          {"select", "b", "from", "t"},
          {"select", "a", "from", "u"}};
}

TEST(VocabTest, BuildAssignsSpecialsFirst) {
  Vocabulary v = Vocabulary::Build(Corpus());
  EXPECT_EQ(v.Word(v.UnknownId()), Vocabulary::kUnknown);
  EXPECT_EQ(v.Word(v.SosId()), Vocabulary::kStartOfSequence);
  EXPECT_EQ(v.Word(v.EosId()), Vocabulary::kEndOfSequence);
  EXPECT_EQ(v.size(), 3u + 6u);  // specials + {select,a,from,t,b,u}
  EXPECT_EQ(v.total_tokens(), 12u);
}

TEST(VocabTest, IdRoundTrip) {
  Vocabulary v = Vocabulary::Build(Corpus());
  size_t id = v.Id("select");
  EXPECT_GE(id, 3u);
  EXPECT_EQ(v.Word(id), "select");
  EXPECT_EQ(v.Count(id), 3u);
}

TEST(VocabTest, UnknownWordsMapToUnk) {
  Vocabulary v = Vocabulary::Build(Corpus());
  EXPECT_EQ(v.Id("nonexistent"), v.UnknownId());
}

TEST(VocabTest, MinCountFoldsRareWords) {
  Vocabulary v = Vocabulary::Build(Corpus(), /*min_count=*/2);
  // b and u occur once -> folded into <unk>.
  EXPECT_EQ(v.Id("b"), v.UnknownId());
  EXPECT_EQ(v.Id("u"), v.UnknownId());
  EXPECT_NE(v.Id("select"), v.UnknownId());
  EXPECT_EQ(v.Count(v.UnknownId()), 2u);
}

TEST(VocabTest, EncodeSequence) {
  Vocabulary v = Vocabulary::Build(Corpus());
  auto ids = v.Encode({"select", "zzz", "t"});
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0], v.Id("select"));
  EXPECT_EQ(ids[1], v.UnknownId());
  EXPECT_EQ(ids[2], v.Id("t"));
}

TEST(VocabTest, NegativeSamplingFollowsPowerLaw) {
  // One dominant word and one rare word: the dominant word must be drawn
  // far more often, but sub-proportionally (0.75 exponent).
  std::vector<std::vector<std::string>> corpus;
  for (int i = 0; i < 81; ++i) corpus.push_back({"common"});
  corpus.push_back({"rare"});
  Vocabulary v = Vocabulary::Build(corpus);
  util::Rng rng(3);
  std::map<size_t, int> counts;
  for (int i = 0; i < 20000; ++i) ++counts[v.SampleNegative(rng)];
  double ratio = static_cast<double>(counts[v.Id("common")]) /
                 std::max(1, counts[v.Id("rare")]);
  // 81^0.75 = 27; allow generous noise.
  EXPECT_GT(ratio, 15.0);
  EXPECT_LT(ratio, 50.0);
}

TEST(VocabTest, SamplingNeverReturnsZeroCountSpecials) {
  Vocabulary v = Vocabulary::Build(Corpus());
  util::Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    size_t id = v.SampleNegative(rng);
    EXPECT_GE(id, 3u);  // specials have zero counts here
  }
}

TEST(VocabTest, SaveLoadRoundTrip) {
  Vocabulary v = Vocabulary::Build(Corpus(), 2);
  std::stringstream ss;
  ASSERT_TRUE(v.Save(ss).ok());
  Vocabulary loaded;
  ASSERT_TRUE(Vocabulary::Load(ss, &loaded).ok());
  EXPECT_EQ(loaded.size(), v.size());
  EXPECT_EQ(loaded.Id("select"), v.Id("select"));
  EXPECT_EQ(loaded.Count(loaded.Id("from")), 3u);
  EXPECT_EQ(loaded.total_tokens(), v.total_tokens());
}

TEST(VocabTest, LoadRejectsGarbage) {
  std::stringstream ss("not a vocab");
  Vocabulary v;
  EXPECT_FALSE(Vocabulary::Load(ss, &v).ok());
}

/// SampleNegative must return exactly what a binary search over the
/// unigram^0.75 CDF returns, draw for draw, from the same RNG stream: the
/// sampler's lookup structure is a speed choice, never a change to the
/// negatives Doc2Vec and the LSTM autoencoder train on.
void ExpectSamplerMatchesLowerBound(const Vocabulary& v, uint64_t seed) {
  std::vector<double> cdf(v.size());
  double acc = 0.0;
  for (size_t i = 0; i < v.size(); ++i) {
    acc += std::pow(static_cast<double>(v.Count(i)), 0.75);
    cdf[i] = acc;
  }
  ASSERT_GT(acc, 0.0);
  for (double& c : cdf) c /= acc;

  util::Rng sampler(seed);
  util::Rng reference(seed);
  size_t mismatches = 0;
  for (int i = 0; i < 120000; ++i) {
    const double u = reference.UniformDouble();
    const size_t want = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    if (v.SampleNegative(sampler) != want) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u);
  // Both streams consumed exactly one draw per sample.
  EXPECT_EQ(sampler.NextUint64(), reference.NextUint64());
}

/// `n` words where word i occurs count(i) times.
Vocabulary VocabWithCounts(size_t n, size_t (*count)(size_t)) {
  std::vector<std::vector<std::string>> docs(1);
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = count(i); c > 0; --c) {
      docs[0].push_back("w" + std::to_string(i));
    }
  }
  return Vocabulary::Build(docs);
}

TEST(VocabTest, SamplerMatchesLowerBoundWithZeroCountSpecials) {
  ExpectSamplerMatchesLowerBound(Vocabulary::Build(Corpus()), 1);
  // min_count folding gives <unk> a nonzero count.
  ExpectSamplerMatchesLowerBound(Vocabulary::Build(Corpus(), 2), 2);
}

TEST(VocabTest, SamplerMatchesLowerBoundWithOneRealWord) {
  Vocabulary v = Vocabulary::Build({{"only"}});
  ASSERT_EQ(v.size(), 4u);
  ExpectSamplerMatchesLowerBound(v, 3);
}

TEST(VocabTest, SamplerMatchesLowerBoundWithTiedCounts) {
  ExpectSamplerMatchesLowerBound(
      VocabWithCounts(500, [](size_t) -> size_t { return 3; }), 4);
  // Ties in runs of varying length.
  ExpectSamplerMatchesLowerBound(
      VocabWithCounts(997, [](size_t i) -> size_t { return 1 + i / 100; }),
      5);
}

Vocabulary LargeZipfVocab() {
  return VocabWithCounts(
      12000, [](size_t i) -> size_t { return 1 + 3000 / (i + 1); });
}

TEST(VocabTest, SamplerMatchesLowerBoundOnLargeVocabulary) {
  Vocabulary v = LargeZipfVocab();
  ASSERT_GE(v.size(), 12000u);
  ExpectSamplerMatchesLowerBound(v, 6);
}

TEST(VocabTest, SamplerMatchesLowerBoundAfterSaveLoad) {
  Vocabulary v = LargeZipfVocab();
  std::stringstream ss;
  ASSERT_TRUE(v.Save(ss).ok());
  Vocabulary loaded;
  ASSERT_TRUE(Vocabulary::Load(ss, &loaded).ok());
  ExpectSamplerMatchesLowerBound(loaded, 7);
  util::Rng a(8);
  util::Rng b(8);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(loaded.SampleNegative(a), v.SampleNegative(b));
  }
}

}  // namespace
}  // namespace querc::embed
