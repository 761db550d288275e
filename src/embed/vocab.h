#ifndef QUERC_EMBED_VOCAB_H_
#define QUERC_EMBED_VOCAB_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/rng.h"
#include "util/status.h"

namespace querc::embed {

/// Token vocabulary shared by the neural embedders. Words below
/// `min_count` map to the <unk> id. Provides the unigram^0.75 negative-
/// sampling distribution of Mikolov et al.
class Vocabulary {
 public:
  static constexpr const char* kUnknown = "<unk>";
  static constexpr const char* kStartOfSequence = "<sos>";
  static constexpr const char* kEndOfSequence = "<eos>";

  Vocabulary() = default;

  /// Builds the vocabulary from tokenized documents. Ids 0..2 are the
  /// special tokens (<unk>, <sos>, <eos>) in that order.
  static Vocabulary Build(const std::vector<std::vector<std::string>>& docs,
                          size_t min_count = 1);

  size_t size() const { return words_.size(); }

  /// Id for `word`; unknown words map to UnknownId().
  size_t Id(const std::string& word) const;
  const std::string& Word(size_t id) const { return words_[id]; }
  /// Raw corpus frequency of word id (special tokens have count 0).
  uint64_t Count(size_t id) const { return counts_[id]; }
  uint64_t total_tokens() const { return total_tokens_; }

  size_t UnknownId() const { return 0; }
  size_t SosId() const { return 1; }
  size_t EosId() const { return 2; }

  /// Converts words to ids (unknowns folded).
  std::vector<size_t> Encode(const std::vector<std::string>& words) const;

  /// Draws one id from the unigram^0.75 negative-sampling distribution:
  /// the first id whose CDF value is >= one `UniformDouble` draw.
  size_t SampleNegative(util::Rng& rng) const;

  util::Status Save(std::ostream& out) const;
  static util::Status Load(std::istream& in, Vocabulary* vocab);

 private:
  void BuildSamplingTable();

  std::vector<std::string> words_;
  std::vector<uint64_t> counts_;
  std::unordered_map<std::string, size_t> index_;
  uint64_t total_tokens_ = 0;
  /// Cumulative unigram^0.75 distribution over ids.
  std::vector<double> sampling_cdf_;
  /// Guide table over the CDF: `sampling_guide_[b]` is the first id whose
  /// bucket `floor(cdf * V)` is >= b, so a draw `u` in bucket b starts its
  /// search there and walks forward (O(1) steps expected) to the exact
  /// lower bound. Empty when no id has a nonzero count.
  std::vector<uint32_t> sampling_guide_;
};

}  // namespace querc::embed

#endif  // QUERC_EMBED_VOCAB_H_
