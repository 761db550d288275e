#include "embed/lstm_autoencoder.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "nn/serialize.h"
#include "nn/softmax.h"

namespace querc::embed {

namespace {
constexpr uint64_t kMagic = 0x514c53544d414532ULL;  // "QLSTMAE2"
}

LstmAutoencoderEmbedder::LstmAutoencoderEmbedder(const Options& options)
    : options_(options) {}

void LstmAutoencoderEmbedder::BuildNetwork(util::Rng& rng) {
  token_embed_ = nn::Tensor(vocab_.size(), options_.token_dim, "ae.embed");
  token_embed_.EmbeddingInit(rng);
  encoder_ = std::make_unique<nn::LstmLayer>(
      options_.token_dim, options_.hidden_dim, "ae.encoder", rng);
  decoder_ = std::make_unique<nn::LstmLayer>(
      options_.token_dim, options_.hidden_dim, "ae.decoder", rng);
  out_ = nn::Tensor(vocab_.size(), options_.hidden_dim, "ae.out");
  out_bias_ = nn::Tensor(vocab_.size(), 1, "ae.out_bias");
  if (options_.full_softmax) out_.XavierInit(rng);
  // Sampled-softmax mode keeps out_ zero-initialized (word2vec convention).

  nn::AdamOptimizer::Options adam;
  adam.learning_rate = options_.learning_rate;
  optimizer_ = std::make_unique<nn::AdamOptimizer>(adam);
  optimizer_->Register(&token_embed_);
  for (nn::Tensor* t : encoder_->Params()) optimizer_->Register(t);
  for (nn::Tensor* t : decoder_->Params()) optimizer_->Register(t);
  if (options_.full_softmax) {
    optimizer_->Register(&out_);
    optimizer_->Register(&out_bias_);
  }
}

util::Status LstmAutoencoderEmbedder::Train(
    const std::vector<std::vector<std::string>>& docs) {
  if (docs.empty()) {
    return util::Status::InvalidArgument("lstm-ae: empty training corpus");
  }
  vocab_ = Vocabulary::Build(docs, options_.min_count);
  if (vocab_.size() <= 3) {
    return util::Status::InvalidArgument(
        "lstm-ae: vocabulary collapsed to special tokens only");
  }
  util::Rng rng(options_.seed);
  BuildNetwork(rng);

  std::vector<std::vector<size_t>> encoded;
  encoded.reserve(docs.size());
  for (const auto& d : docs) {
    auto ids = vocab_.Encode(d);
    if (ids.size() > options_.max_sequence) {
      ids.resize(options_.max_sequence);
    }
    encoded.push_back(std::move(ids));
  }

  std::vector<size_t> order(encoded.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(order);
    double loss_sum = 0.0;
    size_t token_sum = 0;
    for (size_t doc_id : order) {
      if (encoded[doc_id].empty()) continue;
      auto [loss, tokens] = TrainDocument(encoded[doc_id], rng);
      loss_sum += loss;
      token_sum += tokens;
    }
    last_epoch_loss_ =
        token_sum > 0 ? loss_sum / static_cast<double>(token_sum) : 0.0;
  }
  trained_ = true;
  return util::Status::OK();
}

std::pair<double, size_t> LstmAutoencoderEmbedder::TrainDocument(
    const std::vector<size_t>& ids, util::Rng& rng) {
  const size_t hd = options_.hidden_dim;

  // ---- Encode ----
  encoder_->Reset();
  std::vector<size_t> enc_inputs = ids;
  for (size_t id : enc_inputs) {
    const double* row = token_embed_.row(id);
    encoder_->Forward(nn::Vec(row, row + options_.token_dim));
  }

  // ---- Decode with teacher forcing ----
  decoder_->Reset();
  decoder_->SetState(encoder_->hidden(), encoder_->cell());
  // Inputs are the targets shifted right by one: [<sos>, w1..wn], targets
  // [w1..wn, <eos>] (the <eos> step is dropped when it would exceed
  // max_sequence).
  std::vector<size_t> dec_inputs;
  std::vector<size_t> targets;
  dec_inputs.push_back(vocab_.SosId());
  for (size_t i = 0; i + 1 < ids.size(); ++i) dec_inputs.push_back(ids[i]);
  for (size_t id : ids) targets.push_back(id);
  if (ids.size() + 1 <= options_.max_sequence) {
    dec_inputs.push_back(ids.back());
    targets.push_back(vocab_.EosId());
  }

  double loss = 0.0;
  std::vector<nn::Vec> dh_per_step(dec_inputs.size());
  std::vector<size_t> negatives(static_cast<size_t>(options_.negative));
  nn::Vec probs;
  for (size_t t = 0; t < dec_inputs.size(); ++t) {
    const double* row = token_embed_.row(dec_inputs[t]);
    const nn::Vec& h =
        decoder_->Forward(nn::Vec(row, row + options_.token_dim));
    size_t target = targets[t];
    if (options_.full_softmax) {
      // logits = out_ h + bias; CE; grads accumulate into out_/out_bias_.
      probs.resize(vocab_.size());
      for (size_t r = 0; r < vocab_.size(); ++r) {
        probs[r] = nn::Dot(out_.row(r), h.data(), hd) + out_bias_.at(r, 0);
      }
      nn::SoftmaxInPlace(probs);
      loss += -std::log(std::max(probs[target], 1e-12));
      nn::Vec dh(hd, 0.0);
      for (size_t r = 0; r < vocab_.size(); ++r) {
        double dlogit = probs[r] - (r == target ? 1.0 : 0.0);
        if (dlogit == 0.0) continue;
        nn::Axpy(dlogit, h.data(), out_.grad_row(r), hd);
        out_bias_.grad_at(r, 0) += dlogit;
        nn::Axpy(dlogit, out_.row(r), dh.data(), hd);
      }
      dh_per_step[t] = std::move(dh);
    } else {
      for (auto& n : negatives) n = vocab_.SampleNegative(rng);
      nn::Vec d_context;
      nn::NegativeSamplingStep(h.data(), hd, target, negatives, out_,
                               /*lr=*/0.05, d_context, &loss);
      dh_per_step[t] = std::move(d_context);
    }
  }

  // ---- Backward ----
  auto dec_grad = decoder_->Backward(dh_per_step);
  for (size_t t = 0; t < dec_inputs.size(); ++t) {
    nn::Axpy(1.0, dec_grad.dx[t].data(),
             token_embed_.grad_row(dec_inputs[t]), options_.token_dim);
  }
  auto enc_grad = encoder_->Backward({}, dec_grad.dh_init, dec_grad.dc_init);
  for (size_t t = 0; t < enc_inputs.size(); ++t) {
    nn::Axpy(1.0, enc_grad.dx[t].data(),
             token_embed_.grad_row(enc_inputs[t]), options_.token_dim);
  }
  optimizer_->Step();
  return {loss, dec_inputs.size()};
}

nn::Vec LstmAutoencoderEmbedder::Embed(
    const std::vector<std::string>& words) const {
  nn::Vec h(options_.hidden_dim, 0.0);
  if (!trained_) return h;
  std::vector<size_t> ids = vocab_.Encode(words);
  if (ids.size() > options_.max_sequence) ids.resize(options_.max_sequence);
  std::vector<nn::Vec> xs;
  xs.reserve(ids.size());
  for (size_t id : ids) {
    const double* row = token_embed_.row(id);
    xs.emplace_back(row, row + options_.token_dim);
  }
  encoder_->InferSequence(xs, &h, nullptr);
  return h;
}

std::vector<std::string> LstmAutoencoderEmbedder::Reconstruct(
    const std::vector<std::string>& words) const {
  std::vector<std::string> result;
  if (!trained_) return result;
  std::vector<size_t> ids = vocab_.Encode(words);
  if (ids.size() > options_.max_sequence) ids.resize(options_.max_sequence);
  std::vector<nn::Vec> xs;
  for (size_t id : ids) {
    const double* row = token_embed_.row(id);
    xs.emplace_back(row, row + options_.token_dim);
  }
  nn::Vec h, c;
  encoder_->InferSequence(xs, &h, &c);

  size_t prev = vocab_.SosId();
  for (size_t step = 0; step < options_.max_sequence; ++step) {
    const double* row = token_embed_.row(prev);
    nn::Vec x(row, row + options_.token_dim);
    decoder_->InferStep(x, &h, &c);
    // argmax over logits (biases included for full-softmax models).
    size_t best = 0;
    double best_score = -1e300;
    for (size_t r = 0; r < vocab_.size(); ++r) {
      double score = nn::Dot(out_.row(r), h.data(), options_.hidden_dim) +
                     out_bias_.at(r, 0);
      if (score > best_score) {
        best_score = score;
        best = r;
      }
    }
    if (best == vocab_.EosId()) break;
    result.push_back(vocab_.Word(best));
    prev = best;
  }
  return result;
}

util::Status LstmAutoencoderEmbedder::Save(std::ostream& out) const {
  if (!trained_) {
    return util::Status::FailedPrecondition("lstm-ae: not trained");
  }
  QUERC_RETURN_IF_ERROR(nn::WriteU64(out, kMagic));
  QUERC_RETURN_IF_ERROR(nn::WriteU64(out, options_.hidden_dim));
  QUERC_RETURN_IF_ERROR(nn::WriteU64(out, options_.token_dim));
  QUERC_RETURN_IF_ERROR(nn::WriteU64(out, options_.max_sequence));
  QUERC_RETURN_IF_ERROR(nn::WriteU64(out, options_.full_softmax ? 1 : 0));
  QUERC_RETURN_IF_ERROR(vocab_.Save(out));
  QUERC_RETURN_IF_ERROR(nn::WriteTensor(out, token_embed_));
  for (const nn::Tensor* t : encoder_->Params()) {
    QUERC_RETURN_IF_ERROR(nn::WriteTensor(out, *t));
  }
  for (const nn::Tensor* t : decoder_->Params()) {
    QUERC_RETURN_IF_ERROR(nn::WriteTensor(out, *t));
  }
  QUERC_RETURN_IF_ERROR(nn::WriteTensor(out, out_));
  QUERC_RETURN_IF_ERROR(nn::WriteTensor(out, out_bias_));
  return util::Status::OK();
}

util::StatusOr<LstmAutoencoderEmbedder> LstmAutoencoderEmbedder::Load(
    std::istream& in) {
  uint64_t magic = 0;
  QUERC_RETURN_IF_ERROR(nn::ReadU64(in, magic));
  if (magic != kMagic) {
    return util::Status::Corruption("lstm-ae: bad magic");
  }
  Options options;
  uint64_t hidden = 0, token = 0, max_seq = 0, full = 0;
  QUERC_RETURN_IF_ERROR(nn::ReadU64(in, hidden));
  QUERC_RETURN_IF_ERROR(nn::ReadU64(in, token));
  QUERC_RETURN_IF_ERROR(nn::ReadU64(in, max_seq));
  QUERC_RETURN_IF_ERROR(nn::ReadU64(in, full));
  // Reject degenerate headers from corrupt streams before sizing tensors.
  if (hidden == 0 || hidden > 65536 || token == 0 || token > 65536) {
    return util::Status::Corruption("lstm-ae: corrupt header (dims)");
  }
  if (max_seq == 0 || max_seq > (1ULL << 20)) {
    return util::Status::Corruption("lstm-ae: corrupt header (max_sequence)");
  }
  if (full > 1) {
    return util::Status::Corruption("lstm-ae: corrupt header (full_softmax)");
  }
  options.hidden_dim = hidden;
  options.token_dim = token;
  options.max_sequence = max_seq;
  options.full_softmax = full != 0;

  LstmAutoencoderEmbedder embedder(options);
  QUERC_RETURN_IF_ERROR(Vocabulary::Load(in, &embedder.vocab_));
  util::Rng rng(options.seed);
  embedder.BuildNetwork(rng);
  QUERC_RETURN_IF_ERROR(nn::ReadTensor(in, embedder.token_embed_));
  for (nn::Tensor* t : embedder.encoder_->Params()) {
    QUERC_RETURN_IF_ERROR(nn::ReadTensor(in, *t));
  }
  for (nn::Tensor* t : embedder.decoder_->Params()) {
    QUERC_RETURN_IF_ERROR(nn::ReadTensor(in, *t));
  }
  QUERC_RETURN_IF_ERROR(nn::ReadTensor(in, embedder.out_));
  QUERC_RETURN_IF_ERROR(nn::ReadTensor(in, embedder.out_bias_));
  embedder.trained_ = true;
  return embedder;
}

}  // namespace querc::embed
