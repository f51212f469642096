// Block-circulant fully connected layer (CirCNN — Ding et al. [14]; the
// "structural matrix" compression of §III-B, cf. circulant projections
// [35]).
//
// The [out, in] weight is partitioned into b x b blocks, each constrained
// to be circulant and therefore defined by b numbers instead of b^2 — a
// b-fold parameter reduction — while every block matvec becomes a circular
// convolution computed in O(b log b) via FFT instead of O(b^2). Both the
// storage and the compute saving the paper describes are real here, and
// the layer trains with exact gradients (also computed with FFTs).
#pragma once

#include "core/fft.hpp"
#include "nn/linear.hpp"
#include "nn/module.hpp"

namespace mdl::compress {

/// Fully connected layer with block-circulant weights.
///
/// Block (r, q) of the implied dense weight W satisfies
///   W[r*b + i][q*b + j] = c_{r,q}[(i - j) mod b],
/// so y_r = sum_q circ(c_{r,q}) x_q + bias.
class CirculantLinear : public nn::Module {
 public:
  /// in/out features must be multiples of `block_size`, which must be a
  /// power of two (radix-2 FFT).
  CirculantLinear(std::int64_t in_features, std::int64_t out_features,
                  std::int64_t block_size, Rng& rng);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor infer(const Tensor& x) const override;
  std::vector<nn::Parameter*> parameters() override;
  std::string name() const override;
  std::int64_t flops_per_example() const override;

  std::int64_t in_features() const override { return in_; }
  std::int64_t out_features() const { return out_; }
  std::int64_t block_size() const { return block_; }

  /// Materializes the implied dense weight (tests / inspection).
  Tensor to_dense_weight() const;

  /// Parameter count ratio vs a dense layer (= block_size, minus bias).
  double compression_ratio() const;

  nn::Parameter& kernels() { return kernels_; }
  nn::Parameter& bias() { return bias_; }

 private:
  std::int64_t in_;
  std::int64_t out_;
  std::int64_t block_;
  std::int64_t rows_;  ///< out / block
  std::int64_t cols_;  ///< in / block
  nn::Parameter kernels_;  ///< [rows * cols, block]
  nn::Parameter bias_;     ///< [out]
  Tensor cached_input_;
};

/// Projects a trained dense Linear weight onto the nearest (Frobenius)
/// block-circulant structure: c_{r,q}[k] = mean over the k-th circulant
/// diagonal of block (r, q). Returns the kernel tensor [rows*cols, block].
Tensor project_to_circulant(const Tensor& dense_weight,
                            std::int64_t block_size);

/// Builds a CirculantLinear initialized from a trained dense Linear
/// (weights projected, bias copied).
std::unique_ptr<CirculantLinear> circulant_from_linear(
    const nn::Linear& linear, std::int64_t block_size, Rng& rng);

}  // namespace mdl::compress
