#include "compress/distill.hpp"

#include "core/random.hpp"
#include "federated/common.hpp"

namespace mdl::compress {

double distill(const nn::Sequential& teacher, nn::Sequential& student,
               const data::TabularDataset& train,
               const data::TabularDataset& test, const DistillConfig& config) {
  MDL_CHECK(train.size() > 0, "empty training set");
  MDL_CHECK(config.epochs > 0 && config.batch_size > 0 && config.lr > 0.0,
            "invalid distillation config");

  // Teacher logits are fixed; compute once.
  const Tensor teacher_logits = teacher.infer(train.features);

  Rng rng(config.seed);
  nn::DistillationLoss loss(config.temperature, config.alpha);
  student.set_training(true);
  const std::int64_t d = train.dim();
  const std::int64_t c = teacher_logits.shape(1);

  for (std::int64_t epoch = 0; epoch < config.epochs; ++epoch) {
    const auto batches =
        data::minibatch_indices(static_cast<std::size_t>(train.size()),
                                static_cast<std::size_t>(config.batch_size),
                                rng);
    for (const auto& batch : batches) {
      Tensor xb({static_cast<std::int64_t>(batch.size()), d});
      Tensor tb({static_cast<std::int64_t>(batch.size()), c});
      std::vector<std::int64_t> yb(batch.size());
      for (std::size_t r = 0; r < batch.size(); ++r) {
        xb.set_row(static_cast<std::int64_t>(r),
                   train.features.row(static_cast<std::int64_t>(batch[r])));
        tb.set_row(static_cast<std::int64_t>(r),
                   teacher_logits.row(static_cast<std::int64_t>(batch[r])));
        yb[r] = train.labels[batch[r]];
      }
      const Tensor logits = student.forward(xb);
      loss.forward(logits, tb, yb);
      student.zero_grad();
      student.backward(loss.backward());
      for (nn::Parameter* p : student.parameters())
        p->value.add_scaled_(p->grad, static_cast<float>(-config.lr));
    }
  }
  return federated::evaluate_accuracy(student, test);
}

}  // namespace mdl::compress
