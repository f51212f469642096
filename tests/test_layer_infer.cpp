// infer()/forward() equivalence for every layer on the train and serve
// paths.
//
// Serving scores with the const infer() path, training with the caching
// forward(); both run one compute body per layer, so for the same input
// they must produce the same bytes. These checks compare raw float bits
// (memcmp), not values within a tolerance: an infer() that drifts from
// forward() by a single ulp fails here.
//
// Suites are named LayerInfer* so the TSan stage can select them by filter;
// the concurrent case catches any mutable scratch on the const path.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <thread>

#include "apps/multiview_model.hpp"
#include "fusion/fusion.hpp"
#include "nn/activations.hpp"
#include "nn/dropout.hpp"
#include "nn/gru.hpp"
#include "nn/linear.hpp"
#include "nn/lstm.hpp"
#include "split/split_inference.hpp"

namespace mdl {
namespace {

::testing::AssertionResult BitEqual(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape())
    return ::testing::AssertionFailure()
           << "shapes " << a.shape_str() << " vs " << b.shape_str();
  if (std::memcmp(a.data(), b.data(),
                  static_cast<std::size_t>(a.size()) * sizeof(float)) != 0)
    return ::testing::AssertionFailure() << "bytes differ";
  return ::testing::AssertionSuccess();
}

/// infer() before any forward(), forward(), then infer() again: all three
/// must agree bit for bit (a stale cache must not leak into infer()).
void expect_infer_matches_forward(nn::Module& layer, const Tensor& x) {
  const Tensor before = layer.infer(x);
  const Tensor trained = layer.forward(x);
  const Tensor after = layer.infer(x);
  EXPECT_TRUE(BitEqual(before, trained)) << layer.name();
  EXPECT_TRUE(BitEqual(after, trained)) << layer.name();
}

TEST(LayerInfer, GruMatchesForward) {
  for (const std::int64_t t : {1, 5}) {
    SCOPED_TRACE(t);
    Rng rng(100 + static_cast<std::uint64_t>(t));
    nn::GRU gru(5, 7, rng);
    expect_infer_matches_forward(gru, Tensor::randn({t, 3, 5}, rng));
  }
}

TEST(LayerInfer, BiGruMatchesForward) {
  for (const std::int64_t t : {1, 5}) {
    SCOPED_TRACE(t);
    Rng rng(110 + static_cast<std::uint64_t>(t));
    nn::BiGRU bigru(4, 6, rng);
    expect_infer_matches_forward(bigru, Tensor::randn({t, 3, 4}, rng));
  }
}

TEST(LayerInfer, LstmMatchesForward) {
  for (const std::int64_t t : {1, 5}) {
    SCOPED_TRACE(t);
    Rng rng(120 + static_cast<std::uint64_t>(t));
    nn::LSTM lstm(5, 7, rng);
    expect_infer_matches_forward(lstm, Tensor::randn({t, 3, 5}, rng));
  }
}

TEST(LayerInfer, LinearMatchesForward) {
  Rng rng(130);
  nn::Linear with_bias(33, 17, rng);
  nn::Linear no_bias(33, 17, rng, /*bias=*/false);
  const Tensor x = Tensor::randn({5, 33}, rng);
  expect_infer_matches_forward(with_bias, x);
  expect_infer_matches_forward(no_bias, x);
}

TEST(LayerInfer, ActivationsMatchForward) {
  Rng rng(140);
  const Tensor x = Tensor::randn({4, 9}, rng, 0.0F, 3.0F);
  nn::ReLU relu;
  nn::Sigmoid sigmoid;
  nn::Tanh tanh;
  expect_infer_matches_forward(relu, x);
  expect_infer_matches_forward(sigmoid, x);
  expect_infer_matches_forward(tanh, x);
}

TEST(LayerInfer, DropoutEvalModeIsIdentity) {
  Rng rng(150);
  nn::Dropout dropout(0.5, rng);
  dropout.set_training(false);
  const Tensor x = Tensor::randn({4, 9}, rng);
  expect_infer_matches_forward(dropout, x);
  EXPECT_TRUE(BitEqual(dropout.infer(x), x));
}

TEST(LayerInfer, SequentialMatchesForward) {
  Rng rng(160);
  nn::Sequential net;
  net.emplace<nn::Linear>(10, 16, rng);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Linear>(16, 8, rng);
  net.emplace<nn::Tanh>();
  net.emplace<nn::Dropout>(0.3, rng);
  net.emplace<nn::Linear>(8, 3, rng);
  net.emplace<nn::Sigmoid>();
  net.set_training(false);
  expect_infer_matches_forward(net, Tensor::randn({6, 10}, rng));
}

TEST(LayerInfer, FusionHeadsMatchForward) {
  for (const auto kind : {fusion::FusionKind::kFullyConnected,
                          fusion::FusionKind::kFactorizationMachine,
                          fusion::FusionKind::kMultiviewMachine}) {
    SCOPED_TRACE(fusion::to_string(kind));
    Rng rng(170);
    auto head = fusion::make_fusion(kind, {3, 5, 4}, 6, 4, rng);
    const std::vector<Tensor> views{Tensor::randn({3, 3}, rng),
                                    Tensor::randn({3, 5}, rng),
                                    Tensor::randn({3, 4}, rng)};
    const Tensor before = head->infer(views);
    const Tensor trained = head->forward(views);
    const Tensor after = head->infer(views);
    EXPECT_TRUE(BitEqual(before, trained));
    EXPECT_TRUE(BitEqual(after, trained));
  }
}

apps::MultiViewConfig multiview_config(apps::EncoderKind encoder,
                                       bool bidirectional) {
  apps::MultiViewConfig cfg;
  cfg.view_dims = {3, 2, 4};
  cfg.seq_lens = {5, 1, 3};
  cfg.hidden = 6;
  cfg.encoder = encoder;
  cfg.bidirectional = bidirectional;
  cfg.fusion_kind = fusion::FusionKind::kMultiviewMachine;
  cfg.fusion_capacity = 4;
  cfg.classes = 3;
  return cfg;
}

std::vector<Tensor> multiview_batch(const apps::MultiViewConfig& cfg,
                                    std::int64_t batch, Rng& rng) {
  std::vector<Tensor> views;
  for (std::size_t p = 0; p < cfg.view_dims.size(); ++p)
    views.push_back(
        Tensor::randn({cfg.seq_lens[p], batch, cfg.view_dims[p]}, rng));
  return views;
}

TEST(LayerInfer, MultiViewModelMatchesForward) {
  const std::pair<apps::EncoderKind, bool> encoders[] = {
      {apps::EncoderKind::kGru, false},
      {apps::EncoderKind::kGru, true},
      {apps::EncoderKind::kLstm, false}};
  for (const auto& [encoder, bidirectional] : encoders) {
    SCOPED_TRACE(bidirectional ? "bigru"
                 : encoder == apps::EncoderKind::kGru ? "gru"
                                                      : "lstm");
    Rng rng(180);
    const apps::MultiViewConfig cfg = multiview_config(encoder, bidirectional);
    apps::MultiViewModel model(cfg, rng);
    const std::vector<Tensor> views = multiview_batch(cfg, 4, rng);
    const Tensor before = model.infer(views);
    const Tensor trained = model.forward(views);
    const Tensor after = model.infer(views);
    EXPECT_TRUE(BitEqual(before, trained));
    EXPECT_TRUE(BitEqual(after, trained));
  }
}

TEST(LayerInfer, SplitHalvesComposeToWholeForward) {
  Rng rng(190);
  auto whole = std::make_unique<nn::Sequential>();
  whole->emplace<nn::Linear>(12, 16, rng);
  whole->emplace<nn::ReLU>();
  whole->emplace<nn::Linear>(16, 8, rng);
  whole->emplace<nn::Tanh>();
  whole->emplace<nn::Dropout>(0.2, rng);
  whole->emplace<nn::Linear>(8, 3, rng);
  whole->set_training(false);
  const Tensor x = Tensor::randn({5, 12}, rng);
  const Tensor expected = whole->forward(x);
  const split::SplitInference split =
      split::SplitInference::from_whole(std::move(whole), 4);
  EXPECT_TRUE(BitEqual(split.cloud_infer(split.local_infer(x)), expected));
}

TEST(LayerInferConcurrent, FourThreadsShareOneMultiViewModel) {
  Rng rng(200);
  const apps::MultiViewConfig cfg =
      multiview_config(apps::EncoderKind::kGru, /*bidirectional=*/true);
  const apps::MultiViewModel model(cfg, rng);

  constexpr int kThreads = 4;
  constexpr int kRounds = 8;
  std::vector<std::vector<Tensor>> inputs;
  std::vector<Tensor> expected;
  for (int t = 0; t < kThreads; ++t) {
    inputs.push_back(multiview_batch(cfg, 1 + t, rng));
    expected.push_back(model.infer(inputs.back()));
  }

  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRounds; ++i)
        if (!BitEqual(model.infer(inputs[t]), expected[t])) ++mismatches[t];
    });
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

}  // namespace
}  // namespace mdl
