// Independent double-precision reference for the layers the benchmark
// serves: Linear / ReLU / Tanh stacks, the GRU of Eq. (1) and the
// Multi-view Machine of Eq. (4). Weights are copied once through the public
// parameters() accessors; the forward passes below are written from the
// equations, not from the library's code.
//
// Every output comes with an error bound: how far a float32 evaluation of
// the same function may land from the exact value. The bound is propagated
// layer by layer from
//   - dot products: |fl(sum) - sum| <= gamma_n * sum |a_i b_i| with
//     gamma_n = n u / (1 - n u), u = 2^-24 — true for any summation order,
//     blocking or FMA use, so it holds for every MDL_GEMM mode;
//   - elementwise exp/tanh/sigmoid: kElemUlps units of roundoff relative to
//     the output, plus the input error scaled by the function's Lipschitz
//     constant (1 for tanh/ReLU, 1/4 for the sigmoid);
//   - products and sums of two floats: one roundoff each.
// First-order terms are tracked exactly; checks allow twice the bound to
// cover the second-order remainder.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "apps/multiview_model.hpp"
#include "nn/module.hpp"

namespace perfbench::ref {

/// Values with a per-element float32 error bound.
struct Approx {
  std::vector<double> value;
  std::vector<double> bound;
};

/// A Linear layer with an optional activation after it.
struct Dense {
  enum class Act { kNone, kRelu, kTanh };
  std::int64_t in = 0, out = 0;
  std::vector<double> w;  ///< [out, in]
  std::vector<double> b;  ///< [out] (zeros when the layer has no bias)
  Act act = Act::kNone;
};

/// A Sequential of Linear / ReLU / Tanh layers.
struct Mlp {
  std::vector<Dense> layers;
  /// Copies the weights of `net`; throws if it holds another layer type.
  static Mlp from(mdl::nn::Sequential& net);
  /// Forward pass of one example `x` (exact float32 inputs).
  Approx forward(const float* x) const;
};

/// Eq. (1): one GRU encoder.
struct Gru {
  std::int64_t in = 0, hidden = 0;
  // [H, I] input weights, [H, H] recurrent weights, [H] biases per gate.
  std::vector<double> w_r, u_r, b_r, w_z, u_z, b_z, w_h, u_h, b_h;
  /// Final hidden state after running over `x` ([T, in], row-major).
  Approx forward(const float* x, std::int64_t steps) const;
};

/// Eq. (4): the Multi-view Machine head.
struct Mvm {
  std::int64_t classes = 0, factors = 0;
  std::vector<std::int64_t> dims;
  std::vector<std::vector<double>> u;  ///< per view [classes, factors, d+1]
  Approx forward(const std::vector<Approx>& views) const;
};

/// GRU encoders + MVM head of an apps::MultiViewModel.
struct MultiView {
  std::vector<Gru> encoders;
  Mvm head;
  /// Copies the weights of `model` (GRU encoders, MVM fusion); throws if
  /// the model has another layout.
  static MultiView from(mdl::apps::MultiViewModel& model);
  /// views[p] is one session's [T_p, dim_p] series.
  Approx forward(const std::vector<const float*>& views) const;
  std::vector<std::int64_t> seq_lens;
};

/// True when every |got[i] - want.value[i]| <= 2 * want.bound[i]; on a miss
/// `why` names the worst element.
bool within(const float* got, const Approx& want, std::string* why);

/// The reference's own self-test: hand-computed values of Eq. (1), Eq. (4)
/// and Linear/ReLU/Tanh, and the dot-product bound against float32
/// evaluations in several orders. Returns an empty string on success.
std::string self_test();

}  // namespace perfbench::ref
