#include "nn/lstm.hpp"

#include <gtest/gtest.h>

#include "grad_check.hpp"
#include "nn/gru.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"

namespace mdl::nn {
namespace {

TEST(LSTMCell, StepShapesAndDeterminism) {
  Rng rng(1);
  LSTMCell cell(4, 6, rng);
  const Tensor x = Tensor::randn({3, 4}, rng);
  const Tensor h0({3, 6});
  const Tensor c0({3, 6});
  auto [h1, c1] = cell.step(x, h0, c0);
  EXPECT_EQ(h1.shape(0), 3);
  EXPECT_EQ(h1.shape(1), 6);
  EXPECT_TRUE(c1.same_shape(h1));
  LSTMCell::StepCache cache;
  auto [h1b, c1b] = cell.step(x, h0, c0, &cache);
  EXPECT_TRUE(allclose(h1, h1b, 0.0F));
  EXPECT_TRUE(allclose(c1, c1b, 0.0F));
}

TEST(LSTMCell, HiddenBounded) {
  // h = o ⊙ tanh(c): |h| < 1 always.
  Rng rng(2);
  LSTMCell cell(3, 5, rng);
  Tensor h({2, 5}), c({2, 5});
  for (int t = 0; t < 50; ++t)
    std::tie(h, c) = cell.step(Tensor::randn({2, 3}, rng, 0.0F, 3.0F), h, c);
  EXPECT_LT(h.max(), 1.0F);
  EXPECT_GT(h.min(), -1.0F);
}

TEST(LSTMCell, ParameterCount) {
  Rng rng(3);
  LSTMCell cell(4, 6, rng);
  std::int64_t total = 0;
  for (Parameter* p : cell.parameters()) total += p->value.size();
  EXPECT_EQ(total, 4 * (6 * 4 + 6 * 6 + 6));  // four gates
}

TEST(LSTMCell, BackwardRequiresCache) {
  Rng rng(4);
  LSTMCell cell(2, 3, rng);
  EXPECT_THROW(cell.step_backward(Tensor({1, 3}), Tensor({1, 3}),
                                  LSTMCell::StepCache{}),
               Error);
}

TEST(LSTM, ForwardShapes) {
  Rng rng(5);
  LSTM lstm(3, 8, rng);
  const Tensor seq = Tensor::randn({5, 2, 3}, rng);
  const Tensor h = lstm.forward(seq);
  EXPECT_EQ(h.shape(0), 2);
  EXPECT_EQ(h.shape(1), 8);
  EXPECT_THROW(lstm.forward(Tensor({5, 2, 4})), Error);
  EXPECT_THROW(lstm.forward(Tensor({0, 2, 3})), Error);
}

TEST(LSTM, ParameterGradientCheck) {
  Rng rng(6);
  LSTM lstm(2, 3, rng);
  const Tensor seq = Tensor::randn({4, 2, 2}, rng);
  const std::vector<std::int64_t> labels{0, 2};
  SoftmaxCrossEntropy loss;
  auto loss_fn = [&] { return loss.forward(lstm.forward(seq), labels); };
  for (Parameter* p : lstm.parameters()) {
    const test::GradCheckStats stats = test::check_gradient(
        p->value, loss_fn,
        [&] {
          loss_fn();
          lstm.zero_grad();
          lstm.backward(loss.backward());
          return p->grad;
        },
        1e-3, 3e-2, 48, p->name);
    EXPECT_GT(stats.coords_checked, 0) << p->name;
  }
}

TEST(LSTM, InputGradientCheck) {
  Rng rng(7);
  LSTM lstm(2, 3, rng);
  Tensor seq = Tensor::randn({3, 2, 2}, rng);
  const std::vector<std::int64_t> labels{1, 0};
  SoftmaxCrossEntropy loss;
  auto loss_fn = [&] { return loss.forward(lstm.forward(seq), labels); };
  test::check_gradient(
      seq, loss_fn,
      [&] {
        loss_fn();
        lstm.zero_grad();
        return lstm.backward(loss.backward());
      },
      1e-3, 3e-2, 24, "input_seq");
}

TEST(LSTM, LearnsSequenceDiscrimination) {
  Rng rng(8);
  LSTM lstm(1, 4, rng);
  Sequential head;
  head.emplace<Linear>(4, 2, rng);
  SoftmaxCrossEntropy loss;

  auto make_batch = [&](std::int64_t b, Rng& r, std::vector<std::int64_t>& y) {
    Tensor seq({6, b, 1});
    y.resize(static_cast<std::size_t>(b));
    for (std::int64_t i = 0; i < b; ++i) {
      const bool pos = r.bernoulli(0.5);
      y[static_cast<std::size_t>(i)] = pos ? 1 : 0;
      for (std::int64_t t = 0; t < 6; ++t)
        seq.at(t, i, 0) =
            static_cast<float>((pos ? 1.0 : -1.0) + 0.3 * r.normal());
    }
    return seq;
  };

  std::vector<std::int64_t> y;
  std::vector<Parameter*> params = lstm.parameters();
  for (Parameter* p : head.parameters()) params.push_back(p);
  for (int step = 0; step < 150; ++step) {
    const Tensor seq = make_batch(16, rng, y);
    loss.forward(head.forward(lstm.forward(seq)), y);
    for (Parameter* p : params) p->zero_grad();
    lstm.backward(head.backward(loss.backward()));
    for (Parameter* p : params) p->value.add_scaled_(p->grad, -0.1F);
  }
  Rng eval_rng(99);
  const Tensor seq = make_batch(64, eval_rng, y);
  const auto pred = head.forward(lstm.forward(seq)).argmax_rows();
  std::size_t correct = 0;
  for (std::size_t i = 0; i < y.size(); ++i)
    if (pred[i] == y[i]) ++correct;
  EXPECT_GT(static_cast<double>(correct) / y.size(), 0.9);
}

TEST(LSTM, FlopsExceedGru) {
  // Four gates vs three: LSTM is ~4/3 the GRU cost.
  Rng rng(9);
  LSTM lstm(8, 16, rng);
  GRU gru(8, 16, rng);
  lstm.set_nominal_seq_len(10);
  gru.set_nominal_seq_len(10);
  EXPECT_GT(lstm.flops_per_example(), gru.flops_per_example());
}

}  // namespace
}  // namespace mdl::nn
