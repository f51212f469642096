#include "compress/circulant.hpp"

#include <cmath>
#include <sstream>

#include "nn/init.hpp"
#include "nn/linear.hpp"

namespace mdl::compress {

CirculantLinear::CirculantLinear(std::int64_t in_features,
                                 std::int64_t out_features,
                                 std::int64_t block_size, Rng& rng)
    : in_(in_features),
      out_(out_features),
      block_(block_size),
      rows_(out_features / block_size),
      cols_(in_features / block_size),
      kernels_("circ_kernels", Tensor({(out_features / block_size) *
                                           (in_features / block_size),
                                       block_size})),
      bias_("bias", Tensor({out_features})) {
  MDL_CHECK(block_size > 0 && is_power_of_two(static_cast<std::size_t>(block_size)),
            "block size must be a power of two, got " << block_size);
  MDL_CHECK(in_features > 0 && in_features % block_size == 0,
            "in features " << in_features << " not a multiple of block "
                           << block_size);
  MDL_CHECK(out_features > 0 && out_features % block_size == 0,
            "out features " << out_features << " not a multiple of block "
                            << block_size);
  // Match the variance a dense Xavier layer would have: each output sums
  // `in` kernel entries, so initialize like a dense [out, in] weight.
  nn::xavier_uniform(kernels_.value, in_, out_, rng);
}

Tensor CirculantLinear::forward(const Tensor& x) {
  Tensor y = infer(x);
  cached_input_ = x;
  return y;
}

Tensor CirculantLinear::infer(const Tensor& x) const {
  MDL_CHECK(x.ndim() == 2 && x.shape(1) == in_,
            "CirculantLinear(" << in_ << "->" << out_ << ") got "
                               << x.shape_str());
  const std::int64_t batch = x.shape(0);
  const auto b = static_cast<std::size_t>(block_);
  Tensor y({batch, out_});
  for (std::int64_t n = 0; n < batch; ++n) {
    const float* xin = x.data() + n * in_;
    float* yout = y.data() + n * out_;
    for (std::int64_t r = 0; r < rows_; ++r) {
      for (std::int64_t q = 0; q < cols_; ++q) {
        const float* c = kernels_.value.data() + (r * cols_ + q) * block_;
        const auto conv = circular_convolve({c, b}, {xin + q * block_, b});
        for (std::int64_t i = 0; i < block_; ++i)
          yout[r * block_ + i] += conv[static_cast<std::size_t>(i)];
      }
      for (std::int64_t i = 0; i < block_; ++i)
        yout[r * block_ + i] += bias_.value[r * block_ + i];
    }
  }
  return y;
}

Tensor CirculantLinear::backward(const Tensor& grad_out) {
  MDL_CHECK(grad_out.ndim() == 2 && grad_out.shape(1) == out_ &&
                grad_out.shape(0) == cached_input_.shape(0),
            "CirculantLinear backward grad " << grad_out.shape_str());
  const std::int64_t batch = grad_out.shape(0);
  const auto b = static_cast<std::size_t>(block_);
  Tensor grad_in({batch, in_});

  for (std::int64_t n = 0; n < batch; ++n) {
    const float* xin = cached_input_.data() + n * in_;
    const float* gout = grad_out.data() + n * out_;
    float* gin = grad_in.data() + n * in_;
    for (std::int64_t r = 0; r < rows_; ++r) {
      const std::span<const float> dy{gout + r * block_, b};
      for (std::int64_t i = 0; i < block_; ++i)
        bias_.grad[r * block_ + i] += dy[static_cast<std::size_t>(i)];
      for (std::int64_t q = 0; q < cols_; ++q) {
        const float* c = kernels_.value.data() + (r * cols_ + q) * block_;
        float* dc = kernels_.grad.data() + (r * cols_ + q) * block_;
        const std::span<const float> xq{xin + q * block_, b};
        // y_i = sum_j c[(i-j) mod b] x_j:
        //   dc[k] = sum_i dy[i] x[(i-k) mod b]  (correlate(dy, x))
        //   dx[j] = sum_i dy[i] c[(i-j) mod b]  (correlate(dy, c))
        const auto dck = circular_correlate(dy, xq);
        const auto dxj = circular_correlate(dy, {c, b});
        for (std::int64_t k = 0; k < block_; ++k) {
          dc[k] += dck[static_cast<std::size_t>(k)];
          gin[q * block_ + k] += dxj[static_cast<std::size_t>(k)];
        }
      }
    }
  }
  return grad_in;
}

std::vector<nn::Parameter*> CirculantLinear::parameters() {
  return {&kernels_, &bias_};
}

std::string CirculantLinear::name() const {
  std::ostringstream os;
  os << "CirculantLinear(" << in_ << "->" << out_ << ", b=" << block_ << ')';
  return os.str();
}

std::int64_t CirculantLinear::flops_per_example() const {
  // Per block: three FFTs of length b (~5 b log2 b each) plus b multiplies.
  const auto lb = static_cast<std::int64_t>(
      std::llround(std::log2(static_cast<double>(block_))));
  return rows_ * cols_ * (3 * 5 * block_ * lb + 6 * block_) + out_;
}

Tensor CirculantLinear::to_dense_weight() const {
  Tensor w({out_, in_});
  for (std::int64_t r = 0; r < rows_; ++r)
    for (std::int64_t q = 0; q < cols_; ++q) {
      const float* c = kernels_.value.data() + (r * cols_ + q) * block_;
      for (std::int64_t i = 0; i < block_; ++i)
        for (std::int64_t j = 0; j < block_; ++j)
          w[(r * block_ + i) * in_ + q * block_ + j] =
              c[((i - j) % block_ + block_) % block_];
    }
  return w;
}

double CirculantLinear::compression_ratio() const {
  return static_cast<double>(in_ * out_) /
         static_cast<double>(kernels_.value.size());
}

Tensor project_to_circulant(const Tensor& dense_weight,
                            std::int64_t block_size) {
  MDL_CHECK(dense_weight.ndim() == 2, "need a 2-D weight");
  const std::int64_t out = dense_weight.shape(0);
  const std::int64_t in = dense_weight.shape(1);
  MDL_CHECK(out % block_size == 0 && in % block_size == 0,
            "weight " << dense_weight.shape_str()
                      << " not divisible into blocks of " << block_size);
  const std::int64_t rows = out / block_size;
  const std::int64_t cols = in / block_size;
  Tensor kernels({rows * cols, block_size});
  for (std::int64_t r = 0; r < rows; ++r)
    for (std::int64_t q = 0; q < cols; ++q) {
      float* c = kernels.data() + (r * cols + q) * block_size;
      for (std::int64_t i = 0; i < block_size; ++i)
        for (std::int64_t j = 0; j < block_size; ++j) {
          const std::int64_t k = ((i - j) % block_size + block_size) % block_size;
          c[k] += dense_weight[(r * block_size + i) * in + q * block_size + j];
        }
      for (std::int64_t k = 0; k < block_size; ++k)
        c[k] /= static_cast<float>(block_size);
    }
  return kernels;
}

std::unique_ptr<CirculantLinear> circulant_from_linear(
    const nn::Linear& linear, std::int64_t block_size, Rng& rng) {
  auto layer = std::make_unique<CirculantLinear>(
      linear.in_features(), linear.out_features(), block_size, rng);
  layer->kernels().value =
      project_to_circulant(linear.weight().value, block_size);
  if (linear.has_bias())
    layer->bias().value = const_cast<nn::Linear&>(linear).bias().value;
  return layer;
}

}  // namespace mdl::compress
