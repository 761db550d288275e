#include "embed/vocab.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <map>
#include <ostream>

#include "nn/serialize.h"

namespace querc::embed {

Vocabulary Vocabulary::Build(const std::vector<std::vector<std::string>>& docs,
                             size_t min_count) {
  std::map<std::string, uint64_t> raw_counts;
  uint64_t total = 0;
  for (const auto& doc : docs) {
    for (const auto& w : doc) {
      ++raw_counts[w];
      ++total;
    }
  }

  Vocabulary vocab;
  vocab.total_tokens_ = total;
  vocab.words_ = {kUnknown, kStartOfSequence, kEndOfSequence};
  vocab.counts_ = {0, 0, 0};
  for (const auto& [word, count] : raw_counts) {
    if (count >= min_count) {
      vocab.words_.push_back(word);
      vocab.counts_.push_back(count);
    } else {
      vocab.counts_[0] += count;  // folded into <unk>
    }
  }
  for (size_t i = 0; i < vocab.words_.size(); ++i) {
    vocab.index_[vocab.words_[i]] = i;
  }
  vocab.BuildSamplingTable();
  return vocab;
}

size_t Vocabulary::Id(const std::string& word) const {
  auto it = index_.find(word);
  return it == index_.end() ? UnknownId() : it->second;
}

std::vector<size_t> Vocabulary::Encode(
    const std::vector<std::string>& words) const {
  std::vector<size_t> ids;
  ids.reserve(words.size());
  for (const auto& w : words) ids.push_back(Id(w));
  return ids;
}

void Vocabulary::BuildSamplingTable() {
  const size_t n = words_.size();
  sampling_cdf_.assign(n, 0.0);
  sampling_guide_.clear();
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    // Special tokens and <unk> participate with their (possibly zero)
    // counts; pow(0, 0.75) == 0, so they are never drawn unless folded.
    acc += std::pow(static_cast<double>(counts_[i]), 0.75);
    sampling_cdf_[i] = acc;
  }
  if (acc <= 0.0) return;
  for (double& v : sampling_cdf_) v /= acc;

  // One bucket per id. Bucket(x) = floor(x * n) is monotone in x (rounded
  // multiplication is), so for a draw u the exact answer `a` has
  // Bucket(cdf[a]) >= Bucket(u): the guide entry is never past it. The
  // last CDF entry is acc / acc == 1, whose bucket is n, so every bucket
  // gets an entry.
  sampling_guide_.resize(n);
  size_t b = 0;
  for (size_t i = 0; i < n && b < n; ++i) {
    const size_t top = static_cast<size_t>(sampling_cdf_[i] * n);
    while (b < n && b <= top) sampling_guide_[b++] = static_cast<uint32_t>(i);
  }
}

size_t Vocabulary::SampleNegative(util::Rng& rng) const {
  if (sampling_guide_.empty()) return UnknownId();
  const double u = rng.UniformDouble();
  const size_t n = sampling_guide_.size();
  // u < 1, so the bucket is < n up to rounding; clamp for the rounding.
  size_t id = sampling_guide_[std::min(static_cast<size_t>(u * n), n - 1)];
  // Same answer as std::lower_bound over the CDF; terminates because
  // the last entry is 1 > u.
  while (sampling_cdf_[id] < u) ++id;
  return id;
}

util::Status Vocabulary::Save(std::ostream& out) const {
  QUERC_RETURN_IF_ERROR(nn::WriteU64(out, words_.size()));
  QUERC_RETURN_IF_ERROR(nn::WriteU64(out, total_tokens_));
  for (size_t i = 0; i < words_.size(); ++i) {
    QUERC_RETURN_IF_ERROR(nn::WriteString(out, words_[i]));
    QUERC_RETURN_IF_ERROR(nn::WriteU64(out, counts_[i]));
  }
  return util::Status::OK();
}

util::Status Vocabulary::Load(std::istream& in, Vocabulary* vocab) {
  uint64_t n = 0;
  QUERC_RETURN_IF_ERROR(nn::ReadU64(in, n));
  QUERC_RETURN_IF_ERROR(nn::ReadU64(in, vocab->total_tokens_));
  if (n < 3 || n > (1ULL << 28)) {
    return util::Status::Corruption("vocabulary size implausible");
  }
  vocab->words_.resize(n);
  vocab->counts_.resize(n);
  vocab->index_.clear();
  for (size_t i = 0; i < n; ++i) {
    QUERC_RETURN_IF_ERROR(nn::ReadString(in, vocab->words_[i]));
    uint64_t c = 0;
    QUERC_RETURN_IF_ERROR(nn::ReadU64(in, c));
    vocab->counts_[i] = c;
    vocab->index_[vocab->words_[i]] = i;
  }
  vocab->BuildSamplingTable();
  return util::Status::OK();
}

}  // namespace querc::embed
