#include "fusion/fusion.hpp"

#include <cmath>
#include <numeric>
#include <sstream>

#include "nn/init.hpp"

namespace mdl::fusion {

FusionLayer::FusionLayer(std::vector<std::int64_t> view_dims,
                         std::int64_t classes)
    : view_dims_(std::move(view_dims)), classes_(classes) {
  MDL_CHECK(!view_dims_.empty(), "fusion needs at least one view");
  for (std::int64_t d : view_dims_)
    MDL_CHECK(d > 0, "view dim must be positive, got " << d);
  // classes == 1 is allowed: a single-output head is useful for regression
  // scores and for unit-testing the interaction algebra directly.
  MDL_CHECK(classes >= 1, "fusion needs >= 1 output, got " << classes);
}

void FusionLayer::check_views(const std::vector<Tensor>& views) const {
  MDL_CHECK(views.size() == view_dims_.size(),
            "expected " << view_dims_.size() << " views, got "
                        << views.size());
  const std::int64_t batch = views.front().shape(0);
  for (std::size_t p = 0; p < views.size(); ++p) {
    MDL_CHECK(views[p].ndim() == 2 && views[p].shape(0) == batch &&
                  views[p].shape(1) == view_dims_[p],
              "view " << p << " has shape " << views[p].shape_str()
                      << ", expected [" << batch << ", " << view_dims_[p]
                      << ']');
  }
}

Tensor FusionLayer::concat_views(const std::vector<Tensor>& views) const {
  check_views(views);
  return Tensor::concat_cols(views);
}

std::vector<Tensor> FusionLayer::split_views(const Tensor& grad_concat) const {
  std::vector<Tensor> grads;
  grads.reserve(view_dims_.size());
  const std::int64_t batch = grad_concat.shape(0);
  const std::int64_t width = grad_concat.shape(1);
  std::int64_t off = 0;
  for (std::int64_t d : view_dims_) {
    Tensor g({batch, d});
    for (std::int64_t b = 0; b < batch; ++b)
      for (std::int64_t i = 0; i < d; ++i)
        g[b * d + i] = grad_concat[b * width + off + i];
    grads.push_back(std::move(g));
    off += d;
  }
  return grads;
}

namespace {

std::int64_t sum_dims(const std::vector<std::int64_t>& dims) {
  return std::accumulate(dims.begin(), dims.end(), std::int64_t{0});
}

}  // namespace

// ---------------------------------------------------------------- FCFusion

FCFusion::FCFusion(std::vector<std::int64_t> view_dims,
                   std::int64_t hidden_units, std::int64_t classes, Rng& rng)
    : FusionLayer(std::move(view_dims), classes), hidden_units_(hidden_units) {
  MDL_CHECK(hidden_units > 0, "hidden units must be positive");
  mlp_.emplace<nn::Linear>(sum_dims(view_dims_), hidden_units, rng);
  mlp_.emplace<nn::ReLU>();
  mlp_.emplace<nn::Linear>(hidden_units, classes, rng);
}

Tensor FCFusion::forward(const std::vector<Tensor>& views) {
  return mlp_.forward(concat_views(views));
}

Tensor FCFusion::infer(const std::vector<Tensor>& views) const {
  return mlp_.infer(concat_views(views));
}

std::vector<Tensor> FCFusion::backward(const Tensor& grad_logits) {
  return split_views(mlp_.backward(grad_logits));
}

std::vector<Parameter*> FCFusion::parameters() { return mlp_.parameters(); }

std::string FCFusion::name() const {
  std::ostringstream os;
  os << "FCFusion(d=" << sum_dims(view_dims_) << ", k'=" << hidden_units_
     << ", c=" << classes_ << ')';
  return os.str();
}

std::int64_t FCFusion::flops_per_example() const {
  return mlp_.flops_per_example();
}

// ----------------------------------------------- FactorizationMachineLayer

FactorizationMachineLayer::FactorizationMachineLayer(
    std::vector<std::int64_t> view_dims, std::int64_t factors,
    std::int64_t classes, Rng& rng)
    : FusionLayer(std::move(view_dims), classes),
      factors_(factors),
      total_dim_(sum_dims(view_dims_)),
      u_("fm_u", Tensor({classes, factors, total_dim_})),
      w_("fm_w", Tensor({classes, total_dim_ + 1})) {
  MDL_CHECK(factors > 0, "factor count must be positive");
  // Small init keeps the quadratic term from exploding at the start.
  nn::scaled_normal(u_.value, 0.05F, rng);
  nn::xavier_uniform(w_.value, total_dim_ + 1, classes, rng);
}

Tensor FactorizationMachineLayer::forward(const std::vector<Tensor>& views) {
  return run(views, &cache_);
}

Tensor FactorizationMachineLayer::infer(
    const std::vector<Tensor>& views) const {
  return run(views, nullptr);
}

Tensor FactorizationMachineLayer::run(const std::vector<Tensor>& views,
                                      Cache* cache) const {
  Tensor hcat = concat_views(views);
  const std::int64_t batch = hcat.shape(0);
  const std::int64_t d = total_dim_;
  const std::int64_t k = factors_;

  // q = U_a h is kept only for backward().
  Tensor q = cache != nullptr ? Tensor({batch, classes_, k}) : Tensor();
  Tensor y({batch, classes_});
  for (std::int64_t b = 0; b < batch; ++b) {
    const float* h = hcat.data() + b * d;
    for (std::int64_t a = 0; a < classes_; ++a) {
      const float* ua = u_.value.data() + a * k * d;
      const float* wa = w_.value.data() + a * (d + 1);
      double score = wa[d];  // global bias
      for (std::int64_t i = 0; i < d; ++i) score += wa[i] * h[i];
      float* qa = cache != nullptr ? q.data() + (b * classes_ + a) * k
                                   : nullptr;
      for (std::int64_t j = 0; j < k; ++j) {
        double acc = 0.0;
        const float* uaj = ua + j * d;
        for (std::int64_t i = 0; i < d; ++i) acc += uaj[i] * h[i];
        if (qa != nullptr) qa[j] = static_cast<float>(acc);
        score += acc * acc;
      }
      y[b * classes_ + a] = static_cast<float>(score);
    }
  }
  if (cache != nullptr) {
    cache->h = std::move(hcat);
    cache->q = std::move(q);
  }
  return y;
}

std::vector<Tensor> FactorizationMachineLayer::backward(
    const Tensor& grad_logits) {
  MDL_CHECK(!cache_.h.empty(), "backward before forward");
  const std::int64_t batch = cache_.h.shape(0);
  const std::int64_t d = total_dim_;
  const std::int64_t k = factors_;
  MDL_CHECK(grad_logits.ndim() == 2 && grad_logits.shape(0) == batch &&
                grad_logits.shape(1) == classes_,
            "grad shape " << grad_logits.shape_str());

  Tensor gh({batch, d});
  for (std::int64_t b = 0; b < batch; ++b) {
    const float* h = cache_.h.data() + b * d;
    float* ghb = gh.data() + b * d;
    for (std::int64_t a = 0; a < classes_; ++a) {
      const float g = grad_logits[b * classes_ + a];
      if (g == 0.0F) continue;
      float* ua = u_.grad.data() + a * k * d;
      const float* uav = u_.value.data() + a * k * d;
      float* wa = w_.grad.data() + a * (d + 1);
      const float* wav = w_.value.data() + a * (d + 1);
      const float* q = cache_.q.data() + (b * classes_ + a) * k;
      wa[d] += g;
      for (std::int64_t i = 0; i < d; ++i) {
        wa[i] += g * h[i];
        ghb[i] += g * wav[i];
      }
      for (std::int64_t j = 0; j < k; ++j) {
        const float coef = 2.0F * g * q[j];
        float* uaj = ua + j * d;
        const float* uajv = uav + j * d;
        for (std::int64_t i = 0; i < d; ++i) {
          uaj[i] += coef * h[i];
          ghb[i] += coef * uajv[i];
        }
      }
    }
  }

  return split_views(gh);
}

std::vector<Parameter*> FactorizationMachineLayer::parameters() {
  return {&u_, &w_};
}

std::string FactorizationMachineLayer::name() const {
  std::ostringstream os;
  os << "FactorizationMachine(d=" << total_dim_ << ", k=" << factors_
     << ", c=" << classes_ << ')';
  return os.str();
}

std::int64_t FactorizationMachineLayer::flops_per_example() const {
  return classes_ * (2 * factors_ * total_dim_ + 2 * total_dim_);
}

// --------------------------------------------------- MultiviewMachineLayer

MultiviewMachineLayer::MultiviewMachineLayer(
    std::vector<std::int64_t> view_dims, std::int64_t factors,
    std::int64_t classes, Rng& rng)
    : FusionLayer(std::move(view_dims), classes), factors_(factors) {
  MDL_CHECK(factors > 0, "factor count must be positive");
  u_.reserve(view_dims_.size());
  for (std::size_t p = 0; p < view_dims_.size(); ++p) {
    u_.emplace_back("mvm_u" + std::to_string(p),
                    Tensor({classes, factors, view_dims_[p] + 1}));
    // Init near 1/sqrt within the product so m-way products stay O(1):
    // each |q| ~ 0.3 gives products ~ 0.3^m.
    nn::scaled_normal(u_.back().value, 0.3F, rng);
  }
}

Tensor MultiviewMachineLayer::forward(const std::vector<Tensor>& views) {
  Tensor y = run(views, cached_q_);
  cached_views_ = views;
  return y;
}

Tensor MultiviewMachineLayer::infer(const std::vector<Tensor>& views) const {
  std::vector<Tensor> q;
  return run(views, q);
}

Tensor MultiviewMachineLayer::run(const std::vector<Tensor>& views,
                                  std::vector<Tensor>& q) const {
  check_views(views);
  const std::int64_t batch = views.front().shape(0);
  const std::int64_t k = factors_;
  const std::int64_t m = num_views();

  // q is materialized per view in float32 first; the cross-view products
  // then multiply those float values in double.
  q.assign(static_cast<std::size_t>(m), Tensor());
  for (std::int64_t p = 0; p < m; ++p) {
    const std::int64_t dp = view_dims_[static_cast<std::size_t>(p)];
    Tensor qp({batch, classes_, k});
    const Tensor& uv = u_[static_cast<std::size_t>(p)].value;
    const Tensor& h = views[static_cast<std::size_t>(p)];
    for (std::int64_t b = 0; b < batch; ++b) {
      const float* hb = h.data() + b * dp;
      for (std::int64_t a = 0; a < classes_; ++a) {
        const float* ua = uv.data() + a * k * (dp + 1);
        float* qba = qp.data() + (b * classes_ + a) * k;
        for (std::int64_t j = 0; j < k; ++j) {
          const float* uaj = ua + j * (dp + 1);
          double acc = uaj[dp];  // appended-1 bias input
          for (std::int64_t i = 0; i < dp; ++i) acc += uaj[i] * hb[i];
          qba[j] = static_cast<float>(acc);
        }
      }
    }
    q[static_cast<std::size_t>(p)] = std::move(qp);
  }

  Tensor y({batch, classes_});
  for (std::int64_t b = 0; b < batch; ++b) {
    for (std::int64_t a = 0; a < classes_; ++a) {
      double score = 0.0;
      for (std::int64_t j = 0; j < k; ++j) {
        double prod = 1.0;
        for (std::int64_t p = 0; p < m; ++p)
          prod *= q[static_cast<std::size_t>(p)][(b * classes_ + a) * k + j];
        score += prod;
      }
      y[b * classes_ + a] = static_cast<float>(score);
    }
  }
  return y;
}

std::vector<Tensor> MultiviewMachineLayer::backward(
    const Tensor& grad_logits) {
  MDL_CHECK(!cached_views_.empty(), "backward before forward");
  const std::int64_t batch = cached_views_.front().shape(0);
  const std::int64_t k = factors_;
  const std::int64_t m = num_views();
  MDL_CHECK(grad_logits.ndim() == 2 && grad_logits.shape(0) == batch &&
                grad_logits.shape(1) == classes_,
            "grad shape " << grad_logits.shape_str());

  std::vector<Tensor> grads;
  grads.reserve(static_cast<std::size_t>(m));
  for (std::int64_t p = 0; p < m; ++p)
    grads.emplace_back(std::vector<std::int64_t>{
        batch, view_dims_[static_cast<std::size_t>(p)]});

  for (std::int64_t b = 0; b < batch; ++b) {
    for (std::int64_t a = 0; a < classes_; ++a) {
      const float g = grad_logits[b * classes_ + a];
      if (g == 0.0F) continue;
      for (std::int64_t j = 0; j < k; ++j) {
        for (std::int64_t p = 0; p < m; ++p) {
          // Leave-one-out product across the other views.
          double loo = 1.0;
          for (std::int64_t p2 = 0; p2 < m; ++p2) {
            if (p2 == p) continue;
            loo *= cached_q_[static_cast<std::size_t>(p2)]
                            [(b * classes_ + a) * k + j];
          }
          const float dq = g * static_cast<float>(loo);
          if (dq == 0.0F) continue;
          const std::int64_t dp = view_dims_[static_cast<std::size_t>(p)];
          const float* hb =
              cached_views_[static_cast<std::size_t>(p)].data() + b * dp;
          float* ugrad = u_[static_cast<std::size_t>(p)].grad.data() +
                         (a * k + j) * (dp + 1);
          const float* uval = u_[static_cast<std::size_t>(p)].value.data() +
                              (a * k + j) * (dp + 1);
          float* ghb = grads[static_cast<std::size_t>(p)].data() + b * dp;
          for (std::int64_t i = 0; i < dp; ++i) {
            ugrad[i] += dq * hb[i];
            ghb[i] += dq * uval[i];
          }
          ugrad[dp] += dq;
        }
      }
    }
  }
  return grads;
}

std::vector<Parameter*> MultiviewMachineLayer::parameters() {
  std::vector<Parameter*> out;
  out.reserve(u_.size());
  for (Parameter& p : u_) out.push_back(&p);
  return out;
}

std::string MultiviewMachineLayer::name() const {
  std::ostringstream os;
  os << "MultiviewMachine(m=" << num_views() << ", k=" << factors_
     << ", c=" << classes_ << ')';
  return os.str();
}

std::int64_t MultiviewMachineLayer::flops_per_example() const {
  std::int64_t f = 0;
  for (std::int64_t dp : view_dims_)
    f += classes_ * factors_ * 2 * (dp + 1);
  f += classes_ * factors_ * num_views();
  return f;
}

// ------------------------------------------------------------------ factory

std::unique_ptr<FusionLayer> make_fusion(FusionKind kind,
                                         std::vector<std::int64_t> view_dims,
                                         std::int64_t capacity,
                                         std::int64_t classes, Rng& rng) {
  switch (kind) {
    case FusionKind::kFullyConnected:
      return std::make_unique<FCFusion>(std::move(view_dims), capacity,
                                        classes, rng);
    case FusionKind::kFactorizationMachine:
      return std::make_unique<FactorizationMachineLayer>(
          std::move(view_dims), capacity, classes, rng);
    case FusionKind::kMultiviewMachine:
      return std::make_unique<MultiviewMachineLayer>(std::move(view_dims),
                                                     capacity, classes, rng);
  }
  MDL_FAIL("unknown fusion kind");
}

FusionKind fusion_kind_from_string(const std::string& s) {
  if (s == "fc") return FusionKind::kFullyConnected;
  if (s == "fm") return FusionKind::kFactorizationMachine;
  if (s == "mvm") return FusionKind::kMultiviewMachine;
  MDL_FAIL("unknown fusion kind '" << s << "' (expected fc|fm|mvm)");
}

std::string to_string(FusionKind kind) {
  switch (kind) {
    case FusionKind::kFullyConnected: return "fc";
    case FusionKind::kFactorizationMachine: return "fm";
    case FusionKind::kMultiviewMachine: return "mvm";
  }
  return "?";
}

}  // namespace mdl::fusion
