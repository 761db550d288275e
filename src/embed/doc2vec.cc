#include "embed/doc2vec.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <type_traits>

#include "nn/serialize.h"
#include "nn/softmax.h"
#include "util/string_util.h"

namespace querc::embed {

namespace {
// Format v2 adds min_learning_rate (it drives the inference LR schedule,
// so dropping it changed Embed() across a save/load round trip).
constexpr uint64_t kMagic = 0x51444f4332564532ULL;    // "QDOC2VE2"
constexpr uint64_t kMagicV1 = 0x51444f4332564543ULL;  // "QDOC2VEC"
}

/// TrainDocument's buffers, allocated once per Train or Embed call rather
/// than once per document pass.
struct Doc2VecEmbedder::Scratch {
  explicit Scratch(const Options& options)
      : context(options.dim, 0.0),
        negatives(static_cast<size_t>(options.negative)) {}

  nn::Vec context;
  nn::Vec d_context;
  std::vector<size_t> negatives;
  std::vector<size_t> window_words;
};

util::Status Doc2VecEmbedder::Train(
    const std::vector<std::vector<std::string>>& docs) {
  if (docs.empty()) {
    return util::Status::InvalidArgument("doc2vec: empty training corpus");
  }
  vocab_ = Vocabulary::Build(docs, options_.min_count);
  if (vocab_.size() <= 3) {
    return util::Status::InvalidArgument(
        "doc2vec: vocabulary collapsed to special tokens only");
  }
  util::Rng rng(options_.seed);
  word_in_ = nn::Tensor(vocab_.size(), options_.dim, "doc2vec.word_in");
  out_ = nn::Tensor(vocab_.size(), options_.dim, "doc2vec.out");
  doc_vecs_ = nn::Tensor(docs.size(), options_.dim, "doc2vec.docs");
  word_in_.EmbeddingInit(rng);
  doc_vecs_.EmbeddingInit(rng);
  // Output table starts at zero (word2vec convention).

  std::vector<std::vector<size_t>> encoded;
  encoded.reserve(docs.size());
  for (const auto& d : docs) encoded.push_back(EncodeDocument(d));
  Scratch scratch(options_);

  std::vector<size_t> order(docs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  const double lr0 = options_.learning_rate;
  const double lr1 = options_.min_learning_rate;
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    double frac = options_.epochs > 1
                      ? static_cast<double>(epoch) /
                            static_cast<double>(options_.epochs - 1)
                      : 0.0;
    double lr = lr0 + (lr1 - lr0) * frac;
    rng.Shuffle(order);
    for (size_t doc_id : order) {
      TrainDocument(*this, encoded[doc_id], doc_vecs_.row(doc_id), lr, rng,
                    scratch);
    }
  }
  num_train_docs_ = docs.size();
  trained_ = true;
  return util::Status::OK();
}

std::vector<size_t> Doc2VecEmbedder::EncodeDocument(
    const std::vector<std::string>& words) const {
  // PV-DBOW is a pure bag-of-words objective: process tokens in a
  // canonical (sorted) order so the RNG pairing cannot smuggle token-order
  // information into the vector. PV-DM keeps document order (its windows
  // are inherently order-aware).
  std::vector<size_t> ids = vocab_.Encode(words);
  if (options_.mode == Mode::kDbow) std::sort(ids.begin(), ids.end());
  return ids;
}

template <typename Self>
void Doc2VecEmbedder::TrainDocument(Self& self, const std::vector<size_t>& ids,
                                    double* doc_vec, double lr,
                                    util::Rng& rng, Scratch& scratch) {
  constexpr bool kUpdateTables = !std::is_const_v<Self>;
  const Options& options = self.options_;
  const Vocabulary& vocab = self.vocab_;
  const size_t dim = options.dim;
  nn::Vec& context = scratch.context;
  nn::Vec& d_context = scratch.d_context;
  std::vector<size_t>& negatives = scratch.negatives;
  std::vector<size_t>& window_words = scratch.window_words;

  auto step = [&](const double* ctx, size_t target) {
    if constexpr (kUpdateTables) {
      nn::NegativeSamplingStep(ctx, dim, target, negatives, self.out_, lr,
                               d_context);
    } else {
      nn::NegativeSamplingStep(ctx, dim, target, negatives, self.out_,
                               d_context);
    }
  };

  for (size_t t = 0; t < ids.size(); ++t) {
    size_t target = ids[t];
    if (target == vocab.UnknownId()) continue;

    for (auto& n : negatives) n = vocab.SampleNegative(rng);

    if (options.mode == Mode::kDbow) {
      // Paragraph vector alone predicts the word.
      step(doc_vec, target);
      nn::Axpy(-lr, d_context.data(), doc_vec, dim);
      continue;
    }

    // PV-DM: mean of doc vector and window word vectors.
    window_words.clear();
    size_t lo = t >= static_cast<size_t>(options.window)
                    ? t - static_cast<size_t>(options.window)
                    : 0;
    size_t hi = std::min(ids.size(), t + static_cast<size_t>(options.window) +
                                         1);
    for (size_t j = lo; j < hi; ++j) {
      if (j != t && ids[j] != vocab.UnknownId()) {
        window_words.push_back(ids[j]);
      }
    }
    double denom = static_cast<double>(window_words.size() + 1);
    for (size_t d = 0; d < dim; ++d) context[d] = doc_vec[d];
    for (size_t w : window_words) {
      nn::Axpy(1.0, self.word_in_.row(w), context.data(), dim);
    }
    for (double& v : context) v /= denom;

    step(context.data(), target);
    // The mean distributes the gradient equally to each contributor.
    double scale = -lr / denom;
    nn::Axpy(scale, d_context.data(), doc_vec, dim);
    if constexpr (kUpdateTables) {
      for (size_t w : window_words) {
        nn::Axpy(scale, d_context.data(), self.word_in_.row(w), dim);
      }
    }
  }
}

nn::Vec Doc2VecEmbedder::Embed(const std::vector<std::string>& words) const {
  nn::Vec vec(options_.dim, 0.0);
  if (!trained_) return vec;

  // Inference: train a fresh paragraph vector against frozen tables.
  // Deterministic per input: the RNG is seeded from the document content.
  // The combining function is ORDER-INVARIANT (commutative) on purpose —
  // two documents with the same token multiset must infer identically, or
  // token order would leak into the vectors of a bag-of-words model
  // through the seed.
  uint64_t h = options_.seed;
  for (const auto& w : words) h += util::Fnv1a64(w) * 0x9e3779b97f4a7c15ULL;
  util::Rng rng(h);
  for (double& v : vec) {
    v = rng.UniformDouble(-0.5, 0.5) / static_cast<double>(options_.dim);
  }

  const std::vector<size_t> ids = EncodeDocument(words);
  Scratch scratch(options_);
  const double lr0 = options_.learning_rate;
  const double lr1 = options_.min_learning_rate;
  for (int epoch = 0; epoch < options_.infer_epochs; ++epoch) {
    double frac = options_.infer_epochs > 1
                      ? static_cast<double>(epoch) /
                            static_cast<double>(options_.infer_epochs - 1)
                      : 0.0;
    double lr = lr0 + (lr1 - lr0) * frac;
    TrainDocument(*this, ids, vec.data(), lr, rng, scratch);
  }
  return vec;
}

const nn::Vec Doc2VecEmbedder::TrainedDocVector(size_t i) const {
  const double* row = doc_vecs_.row(i);
  return nn::Vec(row, row + options_.dim);
}

util::Status Doc2VecEmbedder::Save(std::ostream& out) const {
  if (!trained_) {
    return util::Status::FailedPrecondition("doc2vec: not trained");
  }
  QUERC_RETURN_IF_ERROR(nn::WriteU64(out, kMagic));
  QUERC_RETURN_IF_ERROR(nn::WriteU64(out, options_.dim));
  QUERC_RETURN_IF_ERROR(
      nn::WriteU64(out, options_.mode == Mode::kDm ? 0 : 1));
  QUERC_RETURN_IF_ERROR(nn::WriteU64(out, static_cast<uint64_t>(options_.window)));
  QUERC_RETURN_IF_ERROR(
      nn::WriteU64(out, static_cast<uint64_t>(options_.negative)));
  QUERC_RETURN_IF_ERROR(
      nn::WriteU64(out, static_cast<uint64_t>(options_.infer_epochs)));
  QUERC_RETURN_IF_ERROR(nn::WriteF64(out, options_.learning_rate));
  QUERC_RETURN_IF_ERROR(nn::WriteF64(out, options_.min_learning_rate));
  QUERC_RETURN_IF_ERROR(nn::WriteU64(out, options_.seed));
  QUERC_RETURN_IF_ERROR(vocab_.Save(out));
  QUERC_RETURN_IF_ERROR(nn::WriteTensor(out, word_in_));
  QUERC_RETURN_IF_ERROR(nn::WriteTensor(out, out_));
  return util::Status::OK();
}

util::StatusOr<Doc2VecEmbedder> Doc2VecEmbedder::Load(std::istream& in) {
  uint64_t magic = 0;
  QUERC_RETURN_IF_ERROR(nn::ReadU64(in, magic));
  if (magic == kMagicV1) {
    return util::Status::Corruption(
        "doc2vec: v1 model file lacks min_learning_rate (inference would "
        "not match the saving process); retrain and re-save");
  }
  if (magic != kMagic) {
    return util::Status::Corruption("doc2vec: bad magic");
  }
  Options options;
  uint64_t dim = 0, mode = 0, window = 0, negative = 0, infer_epochs = 0,
           seed = 0;
  QUERC_RETURN_IF_ERROR(nn::ReadU64(in, dim));
  QUERC_RETURN_IF_ERROR(nn::ReadU64(in, mode));
  QUERC_RETURN_IF_ERROR(nn::ReadU64(in, window));
  QUERC_RETURN_IF_ERROR(nn::ReadU64(in, negative));
  QUERC_RETURN_IF_ERROR(nn::ReadU64(in, infer_epochs));
  QUERC_RETURN_IF_ERROR(nn::ReadF64(in, options.learning_rate));
  QUERC_RETURN_IF_ERROR(nn::ReadF64(in, options.min_learning_rate));
  QUERC_RETURN_IF_ERROR(nn::ReadU64(in, seed));
  // A corrupt stream can pass the magic check; reject degenerate headers
  // before they size tensors or drive inference loops.
  if (dim == 0 || dim > 65536) {
    return util::Status::Corruption("doc2vec: corrupt header (dim)");
  }
  if (mode > 1) {
    return util::Status::Corruption("doc2vec: corrupt header (mode)");
  }
  if (window == 0 || window > 4096) {
    return util::Status::Corruption("doc2vec: corrupt header (window)");
  }
  if (negative == 0 || negative > 4096) {
    return util::Status::Corruption("doc2vec: corrupt header (negative)");
  }
  if (infer_epochs == 0 || infer_epochs > 1000000) {
    return util::Status::Corruption("doc2vec: corrupt header (infer_epochs)");
  }
  if (!std::isfinite(options.learning_rate) || options.learning_rate <= 0.0 ||
      !std::isfinite(options.min_learning_rate) ||
      options.min_learning_rate <= 0.0) {
    return util::Status::Corruption("doc2vec: corrupt header (learning rate)");
  }
  options.dim = dim;
  options.mode = mode == 0 ? Mode::kDm : Mode::kDbow;
  options.window = static_cast<int>(window);
  options.negative = static_cast<int>(negative);
  options.infer_epochs = static_cast<int>(infer_epochs);
  options.seed = seed;

  Doc2VecEmbedder embedder(options);
  QUERC_RETURN_IF_ERROR(Vocabulary::Load(in, &embedder.vocab_));
  QUERC_RETURN_IF_ERROR(nn::ReadTensor(in, embedder.word_in_));
  QUERC_RETURN_IF_ERROR(nn::ReadTensor(in, embedder.out_));
  const size_t vocab_size = embedder.vocab_.size();
  if (embedder.word_in_.rows() != vocab_size ||
      embedder.word_in_.cols() != options.dim ||
      embedder.out_.rows() != vocab_size ||
      embedder.out_.cols() != options.dim) {
    return util::Status::Corruption(
        "doc2vec: tensor shape disagrees with header/vocabulary");
  }
  embedder.trained_ = true;
  return embedder;
}

}  // namespace querc::embed
