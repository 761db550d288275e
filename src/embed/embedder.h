#ifndef QUERC_EMBED_EMBEDDER_H_
#define QUERC_EMBED_EMBEDDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "nn/tensor.h"
#include "sql/dialect.h"
#include "sql/token.h"
#include "util/status.h"
#include "workload/workload.h"

namespace querc::util {
class ThreadPool;
}  // namespace querc::util

namespace querc::embed {

/// Tokenizes `text` for the embedding pipeline: lenient lexing under
/// `dialect` followed by the default normalization (literals folded,
/// identifiers lower-cased). The same as
/// NormalizeForEmbedding(LexForEmbedding(text, dialect)).
std::vector<std::string> TokenizeForEmbedding(std::string_view text,
                                              sql::Dialect dialect);

/// The first half of TokenizeForEmbedding: the lenient lex. A caller that
/// needs the tokens for more than the embedding (the QWorker's lint stage)
/// lexes once here. Records no stage span: QWorker times the served lex
/// and normalize, so training-time tokenization stays out of those rows.
sql::TokenList LexForEmbedding(std::string_view text, sql::Dialect dialect);

/// The second half: the default normalization.
std::vector<std::string> NormalizeForEmbedding(const sql::TokenList& tokens);

/// The representation-learner half of a Querc classifier (§4): maps query
/// text to a fixed-length vector. Implementations: Doc2VecEmbedder,
/// LstmAutoencoderEmbedder (learned), FeatureEmbedder (hand-engineered
/// baseline).
///
/// The split between Embedder and labeler is the paper's key design move:
/// one embedder trained on a large combined workload serves many
/// application-specific labelers.
class Embedder {
 public:
  Embedder();
  /// Copies/moves get a *fresh* instance id: the new object is a distinct
  /// cache-key namespace even if its weights start out identical (they can
  /// diverge through further training).
  Embedder(const Embedder&);
  Embedder(Embedder&&) noexcept;
  /// Assignment keeps the target's own id (the object identity the caches
  /// key on does not change).
  Embedder& operator=(const Embedder&) { return *this; }
  Embedder& operator=(Embedder&&) noexcept { return *this; }
  virtual ~Embedder() = default;

  /// Trains on tokenized documents (as from TokenizeForEmbedding). May be
  /// a no-op for non-learned embedders.
  virtual util::Status Train(
      const std::vector<std::vector<std::string>>& docs) = 0;

  /// Embeds one tokenized document. Valid after Train() succeeded (or
  /// immediately for non-learned embedders). An *untrained* learned
  /// embedder returns the all-zero vector of dim() — never a partially
  /// meaningful fallback (uniform policy across implementations).
  virtual nn::Vec Embed(const std::vector<std::string>& words) const = 0;

  /// Embeds many tokenized documents; returns one vector per doc, in
  /// order. The default runs Embed() per doc — in parallel via
  /// `pool->ParallelFor` when `pool` is non-null (Embed is const and
  /// thread-safe in every implementation), serially otherwise. The pool
  /// tasks ride the batch lane, since corpus embedding is training/advisor
  /// churn that must not queue ahead of predict traffic on a shared pool.
  /// Implementations with a cheaper batch form may override.
  virtual std::vector<nn::Vec> EmbedBatch(
      const std::vector<std::vector<std::string>>& docs,
      util::ThreadPool* pool = nullptr) const;

  /// Output dimensionality.
  virtual size_t dim() const = 0;

  /// Short method name for reports ("doc2vec", "lstm", "features").
  virtual std::string name() const = 0;

  /// Process-unique id of this embedder object, used to namespace
  /// template-cache keys (see EmbeddingCache::KeyFor): two live embedders
  /// never share an id, so one cache can serve many models.
  uint64_t instance_id() const { return instance_id_; }

  /// Convenience: tokenize + Embed.
  nn::Vec EmbedQuery(std::string_view text,
                     sql::Dialect dialect = sql::Dialect::kGeneric) const {
    return Embed(TokenizeForEmbedding(text, dialect));
  }

 private:
  uint64_t instance_id_;
};

/// Tokenizes every query in `workload` (each under its own dialect).
std::vector<std::vector<std::string>> TokenizeWorkload(
    const workload::Workload& workload);

/// Trains `embedder` on the tokenized `corpus` workload.
util::Status TrainOnWorkload(Embedder& embedder,
                             const workload::Workload& corpus);

/// Embeds every query of `workload`; returns one vector per query. With a
/// non-null `pool`, embedding runs batch-parallel (EmbedBatch).
std::vector<nn::Vec> EmbedWorkload(const Embedder& embedder,
                                   const workload::Workload& workload,
                                   util::ThreadPool* pool = nullptr);

}  // namespace querc::embed

#endif  // QUERC_EMBED_EMBEDDER_H_
