#include "split/split_inference.hpp"

#include "nn/loss.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mdl::split {

SplitInference::SplitInference(std::unique_ptr<nn::Sequential> local,
                               std::unique_ptr<nn::Sequential> cloud)
    : local_(std::move(local)), cloud_(std::move(cloud)) {
  MDL_CHECK(local_ != nullptr && cloud_ != nullptr,
            "both halves must be provided");
}

SplitInference SplitInference::from_whole(
    std::unique_ptr<nn::Sequential> whole, std::size_t split_point) {
  MDL_CHECK(whole != nullptr, "null model");
  auto cloud = whole->split_off(split_point);
  return SplitInference(std::move(whole), std::move(cloud));
}

Tensor SplitInference::perturb(const Tensor& representation,
                               const PerturbConfig& config, Rng& rng) const {
  MDL_CHECK(config.nullification_rate >= 0.0 &&
                config.nullification_rate <= 1.0,
            "nullification rate must be in [0, 1]");
  MDL_CHECK(config.clip_bound > 0.0, "clip bound must be positive");
  MDL_CHECK(config.laplace_scale >= 0.0, "laplace scale must be >= 0");
  MDL_OBS_SPAN("split.perturb");
  Tensor out = representation;
  out.clamp_(-static_cast<float>(config.clip_bound),
             static_cast<float>(config.clip_bound));
  privacy::nullify(out.flat(), config.nullification_rate, rng);
  if (config.laplace_scale > 0.0) {
    for (std::int64_t i = 0; i < out.size(); ++i)
      out[i] += static_cast<float>(rng.laplace(config.laplace_scale));
  }
  return out;
}

Tensor SplitInference::cloud_infer(const Tensor& representation) const {
  MDL_OBS_SPAN("split.cloud_infer");
  return cloud_->infer(representation);
}

Tensor SplitInference::local_infer(const Tensor& x) const {
  MDL_OBS_SPAN("split.local_infer");
  return local_->infer(x);
}

std::vector<std::int64_t> SplitInference::predict(const Tensor& x,
                                                  const PerturbConfig& config,
                                                  Rng& rng) const {
  MDL_OBS_COUNTER_ADD("split.predictions",
                      static_cast<std::uint64_t>(x.shape(0)));
  const Tensor rep = perturb(local_infer(x), config, rng);
  return cloud_infer(rep).argmax_rows();
}

double SplitInference::evaluate(const data::TabularDataset& ds,
                                const PerturbConfig& config, Rng& rng) const {
  const auto pred = predict(ds.features, config, rng);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < pred.size(); ++i)
    if (pred[i] == ds.labels[i]) ++correct;
  return static_cast<double>(correct) / static_cast<double>(pred.size());
}

double SplitInference::train_cloud(const data::TabularDataset& train,
                                   const PerturbConfig& config, bool noisy,
                                   std::int64_t epochs,
                                   std::int64_t batch_size, double lr,
                                   Rng& rng) {
  MDL_CHECK(train.size() > 0, "empty training set");
  MDL_CHECK(epochs > 0 && batch_size > 0 && lr > 0.0, "invalid config");
  MDL_OBS_SPAN("split.train_cloud");

  // Clean representations are deterministic (frozen local part): compute
  // once; noisy training re-perturbs per minibatch.
  const Tensor clean_rep = local_infer(train.features);
  cloud_->set_training(true);
  nn::SoftmaxCrossEntropy loss;
  double last_loss = 0.0;

  for (std::int64_t epoch = 0; epoch < epochs; ++epoch) {
    const auto batches =
        data::minibatch_indices(static_cast<std::size_t>(train.size()),
                                static_cast<std::size_t>(batch_size), rng);
    double sum = 0.0;
    for (const auto& batch : batches) {
      Tensor rb({static_cast<std::int64_t>(batch.size()), clean_rep.shape(1)});
      std::vector<std::int64_t> yb(batch.size());
      for (std::size_t r = 0; r < batch.size(); ++r) {
        rb.set_row(static_cast<std::int64_t>(r),
                   clean_rep.row(static_cast<std::int64_t>(batch[r])));
        yb[r] = train.labels[batch[r]];
      }
      if (noisy) rb = perturb(rb, config, rng);
      const Tensor logits = cloud_->forward(rb);
      sum += loss.forward(logits, yb);
      cloud_->zero_grad();
      cloud_->backward(loss.backward());
      for (nn::Parameter* p : cloud_->parameters())
        p->value.add_scaled_(p->grad, static_cast<float>(-lr));
    }
    last_loss = sum / static_cast<double>(batches.size());
  }
  return last_loss;
}

std::int64_t SplitInference::representation_dim(std::int64_t input_dim) const {
  return local_infer(Tensor({1, input_dim})).shape(1);
}

}  // namespace mdl::split
