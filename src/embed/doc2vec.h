#ifndef QUERC_EMBED_DOC2VEC_H_
#define QUERC_EMBED_DOC2VEC_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "embed/embedder.h"
#include "util/statusor.h"
#include "embed/vocab.h"
#include "nn/tensor.h"
#include "util/rng.h"

namespace querc::embed {

/// Paragraph-vector embedder (Le & Mikolov), the paper's "Doc2Vec" method:
/// each query is a "paragraph" whose learned vector must help predict the
/// tokens inside it. Trained with negative sampling.
///
/// Two training modes:
///  - PV-DM: the paragraph vector is averaged with the window's word
///    vectors to predict the center word (captures local order/context).
///  - PV-DBOW: the paragraph vector alone predicts each sampled word.
///
/// Unseen queries are embedded by *inference*: a fresh paragraph vector is
/// trained against frozen word/output tables. This is how transfer works —
/// the tables carry the cross-workload knowledge.
class Doc2VecEmbedder : public Embedder {
 public:
  enum class Mode { kDm, kDbow };

  struct Options {
    size_t dim = 32;
    Mode mode = Mode::kDm;
    int window = 4;       // context tokens on each side (PV-DM)
    int negative = 6;     // negative samples per positive
    int epochs = 12;
    int infer_epochs = 24;
    double learning_rate = 0.05;
    double min_learning_rate = 1e-4;
    size_t min_count = 2;
    uint64_t seed = 7;
  };

  explicit Doc2VecEmbedder(const Options& options) : options_(options) {}

  util::Status Train(
      const std::vector<std::vector<std::string>>& docs) override;

  nn::Vec Embed(const std::vector<std::string>& words) const override;

  size_t dim() const override { return options_.dim; }
  std::string name() const override {
    return options_.mode == Mode::kDm ? "doc2vec-dm" : "doc2vec-dbow";
  }

  /// Paragraph vector learned for training document `i` (valid post-Train).
  const nn::Vec TrainedDocVector(size_t i) const;
  size_t num_train_docs() const { return num_train_docs_; }
  const Vocabulary& vocabulary() const { return vocab_; }

  util::Status Save(std::ostream& out) const;
  static util::StatusOr<Doc2VecEmbedder> Load(std::istream& in);

 private:
  struct Scratch;

  /// Encodes `words` in the order TrainDocument consumes them.
  std::vector<size_t> EncodeDocument(
      const std::vector<std::string>& words) const;

  /// One negative-sampling pass over `ids` (from EncodeDocument) updating
  /// `doc_vec`. `Self` is `Doc2VecEmbedder` while training, which also
  /// updates the word/output tables, and `const Doc2VecEmbedder` at
  /// inference, where the compiler keeps the shared tables frozen.
  template <typename Self>
  static void TrainDocument(Self& self, const std::vector<size_t>& ids,
                            double* doc_vec, double lr, util::Rng& rng,
                            Scratch& scratch);

  Options options_;
  Vocabulary vocab_;
  nn::Tensor word_in_;   // V x D input word vectors (PV-DM)
  nn::Tensor doc_vecs_;  // N x D trained paragraph vectors
  nn::Tensor out_;       // V x D output (context) vectors
  size_t num_train_docs_ = 0;
  bool trained_ = false;
};

}  // namespace querc::embed

#endif  // QUERC_EMBED_DOC2VEC_H_
