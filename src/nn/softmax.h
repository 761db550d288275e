#ifndef QUERC_NN_SOFTMAX_H_
#define QUERC_NN_SOFTMAX_H_

#include <vector>

#include "nn/tensor.h"

namespace querc::nn {

/// In-place numerically stable softmax over `logits`.
void SoftmaxInPlace(Vec& logits);

/// Full-vocabulary softmax classifier head used by the LSTM decoder:
/// logits = W h + b, loss = -log p[target].
///
/// ForwardLoss computes probabilities and returns the cross-entropy loss.
/// Backward accumulates dW, db into the tensors and writes the hidden-state
/// gradient into `dh` (overwriting it).
class SoftmaxHead {
 public:
  SoftmaxHead(size_t vocab_size, size_t hidden_dim, const std::string& name,
              util::Rng& rng);

  size_t vocab_size() const { return w_.rows(); }
  size_t hidden_dim() const { return w_.cols(); }

  /// Computes p = softmax(W h + b) into `probs` and returns -log p[target].
  double ForwardLoss(const Vec& h, size_t target, Vec& probs) const;

  /// Given `probs` from ForwardLoss, accumulates parameter gradients and
  /// writes the gradient w.r.t. `h` into `dh`.
  void Backward(const Vec& h, size_t target, const Vec& probs, Vec& dh);

  /// Index of the highest-probability word given hidden state `h`.
  size_t Predict(const Vec& h) const;

  std::vector<Tensor*> Params() { return {&w_, &b_}; }
  std::vector<const Tensor*> Params() const { return {&w_, &b_}; }

 private:
  Tensor w_;  // V x H
  Tensor b_;  // V x 1
};

/// Negative-sampling logistic loss used by Doc2Vec (Mikolov et al.):
/// positive pair (context, target) scored against k sampled negatives
/// (a negative equal to the target is skipped). Free function because
/// Doc2Vec updates its embedding tables directly with SGD rather than
/// through the optimizer.
///
/// Writes the context-vector gradient into `d_context` (resized/zeroed
/// internally) and applies SGD updates with rate `lr` directly to the rows
/// of `output_table` touched. The loss costs a log per pair, so it is only
/// computed on request: when `loss` is non-null the step's loss is added
/// to `*loss`.
void NegativeSamplingStep(const double* context, size_t dim,
                          size_t target_word,
                          const std::vector<size_t>& negative_words,
                          Tensor& output_table, double lr, Vec& d_context,
                          double* loss = nullptr);

/// The same step against a frozen output table (inferring vectors for
/// unseen documents): only `d_context` is written.
void NegativeSamplingStep(const double* context, size_t dim,
                          size_t target_word,
                          const std::vector<size_t>& negative_words,
                          const Tensor& output_table, Vec& d_context);

}  // namespace querc::nn

#endif  // QUERC_NN_SOFTMAX_H_
