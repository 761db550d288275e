#include "nn/softmax.h"

#include <cmath>
#include <utility>

#include <gtest/gtest.h>

namespace querc::nn {
namespace {

TEST(SoftmaxTest, SumsToOneAndOrders) {
  Vec logits = {1.0, 2.0, 3.0};
  SoftmaxInPlace(logits);
  EXPECT_NEAR(logits[0] + logits[1] + logits[2], 1.0, 1e-12);
  EXPECT_LT(logits[0], logits[1]);
  EXPECT_LT(logits[1], logits[2]);
}

TEST(SoftmaxTest, StableForLargeLogits) {
  Vec logits = {1000.0, 1000.0};
  SoftmaxInPlace(logits);
  EXPECT_NEAR(logits[0], 0.5, 1e-12);
}

TEST(SoftmaxHeadTest, LossDropsAsTargetLogitRises) {
  util::Rng rng(3);
  SoftmaxHead head(4, 3, "h", rng);
  Vec h = {0.5, -0.5, 0.25};
  Vec probs;
  double loss0 = head.ForwardLoss(h, 1, probs);
  EXPECT_GT(loss0, 0.0);
  EXPECT_NEAR(probs[0] + probs[1] + probs[2] + probs[3], 1.0, 1e-12);
}

// Gradient check of the full softmax head.
TEST(SoftmaxHeadTest, GradientCheck) {
  util::Rng rng(5);
  SoftmaxHead head(5, 4, "gc", rng);
  Vec h = {0.3, -0.2, 0.7, 0.1};
  const size_t target = 2;

  Vec probs;
  head.ForwardLoss(h, target, probs);
  Vec dh;
  head.Backward(h, target, probs, dh);

  const double eps = 1e-6;
  // dh check.
  for (size_t i = 0; i < h.size(); ++i) {
    Vec hp = h;
    hp[i] += eps;
    Vec hm = h;
    hm[i] -= eps;
    Vec tmp;
    double up = head.ForwardLoss(hp, target, tmp);
    double down = head.ForwardLoss(hm, target, tmp);
    EXPECT_NEAR(dh[i], (up - down) / (2 * eps), 1e-6);
  }
  // Parameter check (sampled).
  for (Tensor* param : head.Params()) {
    for (size_t i = 0; i < param->size(); i += 3) {
      double saved = param->value()[i];
      Vec tmp;
      param->value()[i] = saved + eps;
      double up = head.ForwardLoss(h, target, tmp);
      param->value()[i] = saved - eps;
      double down = head.ForwardLoss(h, target, tmp);
      param->value()[i] = saved;
      EXPECT_NEAR(param->grad()[i], (up - down) / (2 * eps), 1e-6);
    }
  }
}

TEST(SoftmaxHeadTest, PredictReturnsArgmax) {
  util::Rng rng(7);
  SoftmaxHead head(3, 2, "h", rng);
  // Force known weights: logits = Wh.
  Tensor* w = head.Params()[0];
  double vals[] = {1, 0, 0, 1, -1, -1};
  std::copy(vals, vals + 6, w->value().begin());
  EXPECT_EQ(head.Predict({5.0, 1.0}), 0u);
  EXPECT_EQ(head.Predict({1.0, 5.0}), 1u);
}

TEST(NegativeSamplingTest, StepReducesLossOnRepetition) {
  util::Rng rng(9);
  Tensor out(10, 6);
  Vec context(6);
  for (auto& v : context) v = rng.UniformDouble(-0.5, 0.5);
  std::vector<size_t> negatives = {3, 4, 5};
  Vec d_context;
  double first = 0.0;
  NegativeSamplingStep(context.data(), 6, 1, negatives, out, 0.5, d_context,
                       &first);
  // Apply the context update as the caller would.
  Axpy(-0.5, d_context, context);
  double second = 0.0;
  NegativeSamplingStep(context.data(), 6, 1, negatives, out, 0.5, d_context,
                       &second);
  EXPECT_LT(second, first);
}

TEST(NegativeSamplingTest, FrozenOutputTableUnchanged) {
  util::Rng rng(11);
  Tensor out(5, 4);
  out.XavierInit(rng);
  Vec before = out.value();
  Vec context = {0.1, 0.2, 0.3, 0.4};
  Vec d_context;
  NegativeSamplingStep(context.data(), 4, 0, {1, 2}, std::as_const(out),
                       d_context);
  EXPECT_EQ(out.value(), before);
  // But the context gradient is still produced.
  double mag = 0.0;
  for (double v : d_context) mag += std::abs(v);
  EXPECT_GT(mag, 0.0);
}

TEST(NegativeSamplingTest, TargetCollidingNegativeSkipped) {
  util::Rng rng(13);
  Tensor out(4, 3);
  Vec context = {0.3, -0.3, 0.1};
  Vec d_context;
  // All negatives equal the target: only the positive term contributes;
  // must not blow up or double-count.
  double loss = 0.0;
  NegativeSamplingStep(context.data(), 3, 2, {2, 2, 2}, out, 0.1, d_context,
                       &loss);
  // Positive pair with zero-initialized output row: loss = -log(0.5).
  EXPECT_NEAR(loss, std::log(2.0), 1e-9);
}

TEST(NegativeSamplingTest, LossIsOnlyARequest) {
  // Asking for the loss must not change the gradient or the table update,
  // and the loss is added to what the caller already holds.
  util::Rng rng(17);
  Tensor with_loss(6, 5);
  with_loss.XavierInit(rng);
  Tensor without_loss = with_loss;
  Vec context = {0.2, -0.1, 0.4, 0.05, -0.3};
  const std::vector<size_t> negatives = {0, 3, 3, 5};
  Vec d_with;
  Vec d_without;
  double loss = 1.5;
  NegativeSamplingStep(context.data(), 5, 2, negatives, with_loss, 0.2,
                       d_with, &loss);
  NegativeSamplingStep(context.data(), 5, 2, negatives, without_loss, 0.2,
                       d_without);
  EXPECT_EQ(d_with, d_without);
  EXPECT_EQ(with_loss.value(), without_loss.value());
  EXPECT_GT(loss, 1.5);

  // With distinct rows, the frozen step yields the training step's
  // gradient from the same starting table (each row is read before its
  // own update).
  const Tensor frozen = without_loss;
  Vec d_frozen;
  NegativeSamplingStep(context.data(), 5, 2, {0, 3}, frozen, d_frozen);
  Tensor trained = frozen;
  Vec d_trained;
  NegativeSamplingStep(context.data(), 5, 2, {0, 3}, trained, 0.2,
                       d_trained);
  EXPECT_EQ(d_frozen, d_trained);
  EXPECT_NE(trained.value(), frozen.value());
}

}  // namespace
}  // namespace querc::nn
