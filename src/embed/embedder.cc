#include "embed/embedder.h"

#include <atomic>

#include "sql/lexer.h"
#include "sql/normalizer.h"
#include "util/thread_pool.h"

namespace querc::embed {

namespace {

uint64_t NextInstanceId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Embedder::Embedder() : instance_id_(NextInstanceId()) {}
Embedder::Embedder(const Embedder&) : instance_id_(NextInstanceId()) {}
Embedder::Embedder(Embedder&&) noexcept : instance_id_(NextInstanceId()) {}

std::vector<nn::Vec> Embedder::EmbedBatch(
    const std::vector<std::vector<std::string>>& docs,
    util::ThreadPool* pool) const {
  std::vector<nn::Vec> vectors(docs.size());
  if (pool != nullptr && docs.size() > 1) {
    pool->ParallelFor(util::Lane::kBatch, docs.size(),
                      [&](size_t i) { vectors[i] = Embed(docs[i]); });
  } else {
    for (size_t i = 0; i < docs.size(); ++i) vectors[i] = Embed(docs[i]);
  }
  return vectors;
}

std::vector<std::string> TokenizeForEmbedding(std::string_view text,
                                              sql::Dialect dialect) {
  return NormalizeForEmbedding(LexForEmbedding(text, dialect));
}

sql::TokenList LexForEmbedding(std::string_view text, sql::Dialect dialect) {
  sql::LexOptions options;
  options.dialect = dialect;
  return sql::LexLenient(text, options);
}

std::vector<std::string> NormalizeForEmbedding(const sql::TokenList& tokens) {
  return sql::Normalize(tokens);
}

std::vector<std::vector<std::string>> TokenizeWorkload(
    const workload::Workload& workload) {
  std::vector<std::vector<std::string>> docs;
  docs.reserve(workload.size());
  for (const auto& q : workload) {
    docs.push_back(TokenizeForEmbedding(q.text, q.dialect));
  }
  return docs;
}

util::Status TrainOnWorkload(Embedder& embedder,
                             const workload::Workload& corpus) {
  return embedder.Train(TokenizeWorkload(corpus));
}

std::vector<nn::Vec> EmbedWorkload(const Embedder& embedder,
                                   const workload::Workload& workload,
                                   util::ThreadPool* pool) {
  return embedder.EmbedBatch(TokenizeWorkload(workload), pool);
}

}  // namespace querc::embed
