// Private cloud-based split inference (Fig. 3; Wang et al., KDD'18 — the
// authors' own system surveyed in §III-A).
//
// The DNN is divided into a *local* part (shallow, frozen, runs on the
// phone) and a *cloud* part (deep, trainable, runs on the server). At
// inference time the phone computes the local representation of its
// sensitive input, perturbs it with nullification + noise to satisfy
// differential privacy, and ships only the perturbed representation to the
// cloud. Because the representation is smaller than the raw input, the
// scheme also reduces uplink bytes.
//
// The accuracy cost of the perturbation is recovered by *noisy training*:
// the cloud part is (re)trained on representations perturbed exactly the
// way the phones will perturb them, so it learns to be robust to the noise
// (bench/fig3_split_inference ablates this on/off).
#pragma once

#include <memory>

#include "core/random.hpp"
#include "data/dataset.hpp"
#include "nn/module.hpp"
#include "privacy/mechanisms.hpp"

namespace mdl::split {

/// Perturbation applied on-device to the local representation.
struct PerturbConfig {
  /// Probability each representation coordinate is zeroed (data hiding).
  double nullification_rate = 0.1;
  /// Per-coordinate clip bound B applied before noising (bounds
  /// sensitivity to 2B per surviving coordinate).
  double clip_bound = 3.0;
  /// Laplace scale b; the per-coordinate privacy level is eps = 2B / b.
  /// 0 disables noise.
  double laplace_scale = 0.5;

  /// Nominal per-coordinate epsilon implied by the clip bound and scale.
  double per_coordinate_epsilon() const {
    return laplace_scale <= 0.0 ? std::numeric_limits<double>::infinity()
                                : 2.0 * clip_bound / laplace_scale;
  }
};

/// A network partitioned between phone and cloud.
class SplitInference {
 public:
  /// Takes ownership of both halves. The local part is frozen (its
  /// parameters are never updated here, matching the transfer-learning
  /// design of the paper).
  SplitInference(std::unique_ptr<nn::Sequential> local,
                 std::unique_ptr<nn::Sequential> cloud);

  /// Convenience: splits `whole` at `split_point` layers.
  static SplitInference from_whole(std::unique_ptr<nn::Sequential> whole,
                                   std::size_t split_point);

  /// Phone-side: raw features -> frozen local representation.
  Tensor local_infer(const Tensor& x) const;

  /// Phone-side: clip + nullification + Laplace noise (in place copy).
  Tensor perturb(const Tensor& representation, const PerturbConfig& config,
                 Rng& rng) const;

  /// Cloud-side: (perturbed) representation -> logits. Const and
  /// cache-free, so one cloud half can serve concurrent requests (the
  /// mdl::serve execution path).
  Tensor cloud_infer(const Tensor& representation) const;

  /// End-to-end private prediction.
  std::vector<std::int64_t> predict(const Tensor& x,
                                    const PerturbConfig& config,
                                    Rng& rng) const;

  /// Accuracy under the given perturbation.
  double evaluate(const data::TabularDataset& ds, const PerturbConfig& config,
                  Rng& rng) const;

  /// Trains the cloud part; when `noisy` is set, every minibatch's
  /// representations are perturbed with fresh draws from `config`
  /// (the noisy-training method). The local part stays frozen.
  double train_cloud(const data::TabularDataset& train,
                     const PerturbConfig& config, bool noisy,
                     std::int64_t epochs, std::int64_t batch_size, double lr,
                     Rng& rng);

  nn::Sequential& local() { return *local_; }
  nn::Sequential& cloud() { return *cloud_; }

  /// Width of the transmitted representation (floats per example).
  std::int64_t representation_dim(std::int64_t input_dim) const;

  /// Representation width the cloud half accepts (0 if it takes any).
  std::int64_t cloud_input_dim() const { return cloud_->in_features(); }

 private:
  std::unique_ptr<nn::Sequential> local_;
  std::unique_ptr<nn::Sequential> cloud_;
};

}  // namespace mdl::split
