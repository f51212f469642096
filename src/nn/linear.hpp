// Fully connected (dense) layer: y = x W^T + b.
#pragma once

#include "nn/init.hpp"
#include "nn/module.hpp"

namespace mdl::nn {

/// Affine layer with weight [out_features, in_features] and bias
/// [out_features]. Input is [batch, in_features].
class Linear : public Module {
 public:
  /// Xavier-uniform initialized layer; pass `bias = false` to omit the bias
  /// term (the factorization layers in mdl::fusion use bias-free Linears).
  Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng,
         bool bias = true);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor infer(const Tensor& x) const override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override;
  std::int64_t flops_per_example() const override;

  std::int64_t in_features() const override { return in_; }
  std::int64_t out_features() const { return out_; }

  Parameter& weight() { return weight_; }
  const Parameter& weight() const { return weight_; }
  Parameter& bias() { return bias_; }
  bool has_bias() const { return has_bias_; }

 private:
  std::int64_t in_;
  std::int64_t out_;
  bool has_bias_;
  Parameter weight_;  // [out, in]
  Parameter bias_;    // [out]
  Tensor cached_input_;
};

}  // namespace mdl::nn
