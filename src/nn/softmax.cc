#include "nn/softmax.h"

#include <algorithm>
#include <cmath>
#include <type_traits>

namespace querc::nn {

void SoftmaxInPlace(Vec& logits) {
  double max_logit = *std::max_element(logits.begin(), logits.end());
  double sum = 0.0;
  for (double& v : logits) {
    v = std::exp(v - max_logit);
    sum += v;
  }
  for (double& v : logits) v /= sum;
}

SoftmaxHead::SoftmaxHead(size_t vocab_size, size_t hidden_dim,
                         const std::string& name, util::Rng& rng)
    : w_(vocab_size, hidden_dim, name + ".w"),
      b_(vocab_size, 1, name + ".b") {
  w_.XavierInit(rng);
}

double SoftmaxHead::ForwardLoss(const Vec& h, size_t target,
                                Vec& probs) const {
  probs.resize(w_.rows());
  for (size_t r = 0; r < w_.rows(); ++r) {
    probs[r] = Dot(w_.row(r), h.data(), w_.cols()) + b_.at(r, 0);
  }
  SoftmaxInPlace(probs);
  double p = std::max(probs[target], 1e-12);
  return -std::log(p);
}

void SoftmaxHead::Backward(const Vec& h, size_t target, const Vec& probs,
                           Vec& dh) {
  dh.assign(w_.cols(), 0.0);
  for (size_t r = 0; r < w_.rows(); ++r) {
    double dlogit = probs[r] - (r == target ? 1.0 : 0.0);
    if (dlogit == 0.0) continue;
    Axpy(dlogit, h.data(), w_.grad_row(r), w_.cols());
    b_.grad_at(r, 0) += dlogit;
    Axpy(dlogit, w_.row(r), dh.data(), w_.cols());
  }
}

size_t SoftmaxHead::Predict(const Vec& h) const {
  size_t best = 0;
  double best_logit = -1e300;
  for (size_t r = 0; r < w_.rows(); ++r) {
    double logit = Dot(w_.row(r), h.data(), w_.cols()) + b_.at(r, 0);
    if (logit > best_logit) {
      best_logit = logit;
      best = r;
    }
  }
  return best;
}

namespace {

/// Shared body of both NegativeSamplingStep overloads. `Table` is `Tensor`
/// when the output rows are trained and `const Tensor` when frozen, so a
/// frozen step cannot write the table.
template <typename Table>
void NegativeSamplingPairs(const double* context, size_t dim,
                           size_t target_word,
                           const std::vector<size_t>& negative_words,
                           Table& output_table, double lr, Vec& d_context,
                           double* loss) {
  constexpr bool kUpdate = !std::is_const_v<Table>;
  d_context.assign(dim, 0.0);
  double step_loss = 0.0;

  auto update_pair = [&](size_t word, double label) {
    auto* out_row = output_table.row(word);
    double score = Sigmoid(Dot(context, out_row, dim));
    if (loss != nullptr) {
      step_loss -=
          std::log(std::max(label > 0.5 ? score : 1.0 - score, 1e-12));
    }
    double g = score - label;  // d(loss)/d(logit)
    Axpy(g, out_row, d_context.data(), dim);
    if constexpr (kUpdate) Axpy(-lr * g, context, out_row, dim);
  };

  update_pair(target_word, 1.0);
  for (size_t neg : negative_words) {
    if (neg == target_word) continue;
    update_pair(neg, 0.0);
  }
  if (loss != nullptr) *loss += step_loss;
}

}  // namespace

void NegativeSamplingStep(const double* context, size_t dim,
                          size_t target_word,
                          const std::vector<size_t>& negative_words,
                          Tensor& output_table, double lr, Vec& d_context,
                          double* loss) {
  NegativeSamplingPairs(context, dim, target_word, negative_words,
                        output_table, lr, d_context, loss);
}

void NegativeSamplingStep(const double* context, size_t dim,
                          size_t target_word,
                          const std::vector<size_t>& negative_words,
                          const Tensor& output_table, Vec& d_context) {
  NegativeSamplingPairs(context, dim, target_word, negative_words,
                        output_table, /*lr=*/0.0, d_context,
                        /*loss=*/nullptr);
}

}  // namespace querc::nn
