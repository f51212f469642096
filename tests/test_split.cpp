#include "split/split_inference.hpp"

#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "federated/common.hpp"
#include "nn/activations.hpp"
#include "nn/linear.hpp"

namespace mdl::split {
namespace {

std::unique_ptr<nn::Sequential> make_net(Rng& rng, std::int64_t in = 12,
                                         std::int64_t rep = 8,
                                         std::int64_t classes = 3) {
  auto net = std::make_unique<nn::Sequential>();
  net->emplace<nn::Linear>(in, rep, rng);
  net->emplace<nn::Tanh>();
  net->emplace<nn::Linear>(rep, 16, rng);
  net->emplace<nn::ReLU>();
  net->emplace<nn::Linear>(16, classes, rng);
  return net;
}

struct SplitFixture : ::testing::Test {
  SplitFixture() {
    Rng rng(1);
    data::SyntheticConfig c;
    c.num_samples = 400;
    c.num_features = 12;
    c.num_classes = 3;
    c.class_sep = 3.0;
    const auto ds = data::make_classification(c, rng);
    const auto split = data::train_test_split(ds, 0.25, rng);
    train_set = split.train;
    test_set = split.test;
  }
  data::TabularDataset train_set, test_set;
};

TEST_F(SplitFixture, FromWholePreservesFunction) {
  Rng rng(2);
  auto whole = make_net(rng);
  const Tensor x = Tensor::randn({3, 12}, rng);
  whole->set_training(false);
  const Tensor expected = whole->forward(x);
  SplitInference split = SplitInference::from_whole(std::move(whole), 2);
  const Tensor composed = split.cloud_infer(split.local_infer(x));
  EXPECT_TRUE(allclose(expected, composed, 1e-5F));
  EXPECT_EQ(split.representation_dim(12), 8);
  EXPECT_EQ(split.cloud_input_dim(), 8);
}

TEST(SequentialWidth, FirstSizedLayerDecides) {
  Rng rng(5);
  nn::Sequential net;
  EXPECT_EQ(net.in_features(), 0);
  net.emplace<nn::Tanh>();  // elementwise: any width
  EXPECT_EQ(net.in_features(), 0);
  net.emplace<nn::Linear>(7, 3, rng);
  EXPECT_EQ(net.in_features(), 7);
}

TEST_F(SplitFixture, PerturbClipsAndNullifies) {
  Rng rng(3);
  SplitInference split = SplitInference::from_whole(make_net(rng), 2);
  Tensor rep({2, 8}, std::vector<float>(16, 10.0F));
  PerturbConfig cfg;
  cfg.clip_bound = 1.0;
  cfg.nullification_rate = 0.5;
  cfg.laplace_scale = 0.0;
  const Tensor p = split.perturb(rep, cfg, rng);
  std::int64_t zeros = 0;
  for (std::int64_t i = 0; i < p.size(); ++i) {
    EXPECT_LE(std::abs(p[i]), 1.0F);
    if (p[i] == 0.0F) ++zeros;
  }
  EXPECT_GT(zeros, 0);
}

TEST_F(SplitFixture, NoPerturbationIsIdentityWithinClip) {
  Rng rng(4);
  SplitInference split = SplitInference::from_whole(make_net(rng), 2);
  // Tanh output is already within [-1, 1] < clip bound.
  const Tensor rep = split.local_infer(Tensor::randn({2, 12}, rng));
  PerturbConfig cfg;
  cfg.nullification_rate = 0.0;
  cfg.laplace_scale = 0.0;
  cfg.clip_bound = 3.0;
  EXPECT_TRUE(allclose(split.perturb(rep, cfg, rng), rep, 0.0F));
}

TEST_F(SplitFixture, EpsilonHelper) {
  PerturbConfig cfg;
  cfg.clip_bound = 2.0;
  cfg.laplace_scale = 0.5;
  EXPECT_NEAR(cfg.per_coordinate_epsilon(), 8.0, 1e-9);
  cfg.laplace_scale = 0.0;
  EXPECT_TRUE(std::isinf(cfg.per_coordinate_epsilon()));
}

TEST_F(SplitFixture, CloudTrainingLearns) {
  Rng rng(5);
  SplitInference split = SplitInference::from_whole(make_net(rng), 2);
  PerturbConfig clean;
  clean.nullification_rate = 0.0;
  clean.laplace_scale = 0.0;
  Rng train_rng(6);
  split.train_cloud(train_set, clean, false, 20, 16, 0.1, train_rng);
  Rng eval_rng(7);
  EXPECT_GT(split.evaluate(test_set, clean, eval_rng), 0.85);
}

TEST_F(SplitFixture, NoisyTrainingRecoversPerturbedAccuracy) {
  PerturbConfig noisy_cfg;
  noisy_cfg.nullification_rate = 0.2;
  noisy_cfg.laplace_scale = 0.4;
  noisy_cfg.clip_bound = 1.0;

  // Train one cloud on clean representations, one with noisy training.
  Rng rng_a(8);
  SplitInference clean_trained = SplitInference::from_whole(make_net(rng_a), 2);
  Rng rng_b(8);  // identical init
  SplitInference noisy_trained = SplitInference::from_whole(make_net(rng_b), 2);

  Rng ta(9), tb(9);
  clean_trained.train_cloud(train_set, noisy_cfg, false, 25, 16, 0.1, ta);
  noisy_trained.train_cloud(train_set, noisy_cfg, true, 25, 16, 0.1, tb);

  // Evaluate both under perturbation, averaged over noise draws.
  double clean_acc = 0.0, noisy_acc = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    Rng ea(100 + rep), eb(100 + rep);
    clean_acc += clean_trained.evaluate(test_set, noisy_cfg, ea);
    noisy_acc += noisy_trained.evaluate(test_set, noisy_cfg, eb);
  }
  EXPECT_GT(noisy_acc, clean_acc);
}

TEST_F(SplitFixture, LocalPartStaysFrozen) {
  Rng rng(10);
  SplitInference split = SplitInference::from_whole(make_net(rng), 2);
  const std::vector<float> before =
      nn::flatten_values(split.local().parameters());
  PerturbConfig cfg;
  Rng train_rng(11);
  split.train_cloud(train_set, cfg, true, 3, 16, 0.1, train_rng);
  const std::vector<float> after =
      nn::flatten_values(split.local().parameters());
  EXPECT_EQ(before, after);
}

TEST_F(SplitFixture, InvalidPerturbConfigThrows) {
  Rng rng(12);
  SplitInference split = SplitInference::from_whole(make_net(rng), 2);
  const Tensor rep({1, 8});
  PerturbConfig bad;
  bad.nullification_rate = 1.5;
  EXPECT_THROW(split.perturb(rep, bad, rng), Error);
  PerturbConfig bad2;
  bad2.clip_bound = 0.0;
  EXPECT_THROW(split.perturb(rep, bad2, rng), Error);
}

TEST(SplitConstruction, NullHalvesRejected) {
  EXPECT_THROW(SplitInference(nullptr, std::make_unique<nn::Sequential>()),
               Error);
}

}  // namespace
}  // namespace mdl::split
