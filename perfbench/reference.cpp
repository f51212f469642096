#include "reference.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "core/random.hpp"
#include "nn/activations.hpp"
#include "nn/linear.hpp"

namespace perfbench::ref {
namespace {

constexpr double kU = 1.0 / 16777216.0;  // float32 unit roundoff, 2^-24
// Allowance for one float32 exp/tanh/sigmoid evaluation, in units of
// roundoff relative to its output: libm's expf/tanhf are within 1-2 ulp and
// the sigmoid adds an add and a divide.
constexpr double kElemUlps = 8.0;

double gamma(std::int64_t n) {
  const double nu = static_cast<double>(n) * kU;
  return nu / (1.0 - nu);
}

double sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

std::vector<double> to_double(const mdl::Tensor& t) {
  return std::vector<double>(t.data(), t.data() + t.size());
}

// y = W x + b over exact-or-approximate inputs; W is [out, in].
// Returns the pre-activation with its bound.
Approx affine(const std::vector<double>& w, const std::vector<double>& b,
              std::int64_t in, std::int64_t out, const Approx& x) {
  Approx y;
  y.value.resize(static_cast<std::size_t>(out));
  y.bound.resize(static_cast<std::size_t>(out));
  const double g = gamma(in + 1);
  for (std::int64_t j = 0; j < out; ++j) {
    const double* wj = w.data() + j * in;
    double s = b[static_cast<std::size_t>(j)];
    double mag = std::fabs(s);
    double prop = 0.0;
    for (std::int64_t i = 0; i < in; ++i) {
      const auto ii = static_cast<std::size_t>(i);
      s += wj[i] * x.value[ii];
      mag += std::fabs(wj[i]) * (std::fabs(x.value[ii]) + x.bound[ii]);
      prop += std::fabs(wj[i]) * x.bound[ii];
    }
    y.value[static_cast<std::size_t>(j)] = s;
    y.bound[static_cast<std::size_t>(j)] = prop + g * mag;
  }
  return y;
}

// Gate pre-activation W x + U h + b of Eq. (1): one sum of I + H + 1 terms.
Approx gate_pre(const std::vector<double>& w, const std::vector<double>& u,
                const std::vector<double>& b, std::int64_t in,
                std::int64_t hidden, const float* x, const Approx& h) {
  Approx y;
  y.value.resize(static_cast<std::size_t>(hidden));
  y.bound.resize(static_cast<std::size_t>(hidden));
  const double g = gamma(in + hidden + 2);
  for (std::int64_t j = 0; j < hidden; ++j) {
    double s = b[static_cast<std::size_t>(j)];
    double mag = std::fabs(s);
    double prop = 0.0;
    for (std::int64_t i = 0; i < in; ++i) {
      const double wx = w[static_cast<std::size_t>(j * in + i)] * x[i];
      s += wx;
      mag += std::fabs(wx);
    }
    for (std::int64_t i = 0; i < hidden; ++i) {
      const auto ii = static_cast<std::size_t>(i);
      const double uji = u[static_cast<std::size_t>(j * hidden + i)];
      s += uji * h.value[ii];
      mag += std::fabs(uji) * (std::fabs(h.value[ii]) + h.bound[ii]);
      prop += std::fabs(uji) * h.bound[ii];
    }
    y.value[static_cast<std::size_t>(j)] = s;
    y.bound[static_cast<std::size_t>(j)] = prop + g * mag;
  }
  return y;
}

void require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error("reference: " + what);
}

}  // namespace

Mlp Mlp::from(mdl::nn::Sequential& net) {
  Mlp m;
  for (std::size_t i = 0; i < net.size(); ++i) {
    mdl::nn::Module& layer = net.layer(i);
    if (auto* lin = dynamic_cast<mdl::nn::Linear*>(&layer)) {
      Dense d;
      d.in = lin->in_features();
      d.out = lin->out_features();
      d.b.assign(static_cast<std::size_t>(d.out), 0.0);
      for (mdl::nn::Parameter* p : lin->parameters()) {
        if (p->value.ndim() == 2) {
          require(p->value.shape(0) == d.out && p->value.shape(1) == d.in,
                  "Linear weight shape " + p->value.shape_str());
          d.w = to_double(p->value);
        } else {
          require(p->value.size() == d.out, "Linear bias shape");
          d.b = to_double(p->value);
        }
      }
      require(!d.w.empty(), "Linear without a weight");
      m.layers.push_back(std::move(d));
    } else {
      require(!m.layers.empty() && m.layers.back().act == Dense::Act::kNone,
              "activation must follow a Linear: " + layer.name());
      if (dynamic_cast<mdl::nn::ReLU*>(&layer) != nullptr)
        m.layers.back().act = Dense::Act::kRelu;
      else if (dynamic_cast<mdl::nn::Tanh*>(&layer) != nullptr)
        m.layers.back().act = Dense::Act::kTanh;
      else
        require(false, "unsupported layer " + layer.name());
    }
  }
  require(!m.layers.empty(), "empty network");
  return m;
}

Approx Mlp::forward(const float* x) const {
  Approx a;
  a.value.assign(x, x + layers.front().in);
  a.bound.assign(a.value.size(), 0.0);
  for (const Dense& d : layers) {
    a = affine(d.w, d.b, d.in, d.out, a);
    for (std::size_t j = 0; j < a.value.size(); ++j) {
      if (d.act == Dense::Act::kRelu) {
        a.value[j] = std::max(0.0, a.value[j]);
      } else if (d.act == Dense::Act::kTanh) {
        a.value[j] = std::tanh(a.value[j]);
        a.bound[j] += kElemUlps * kU * std::fabs(a.value[j]);
      }
    }
  }
  return a;
}

Approx Gru::forward(const float* x, std::int64_t steps) const {
  const auto hn = static_cast<std::size_t>(hidden);
  Approx h{std::vector<double>(hn, 0.0), std::vector<double>(hn, 0.0)};
  for (std::int64_t t = 0; t < steps; ++t) {
    const float* xt = x + t * in;
    // r_t = sigma(W_r x_t + U_r h_{t-1} + b_r), z_t likewise.
    Approx r = gate_pre(w_r, u_r, b_r, in, hidden, xt, h);
    Approx z = gate_pre(w_z, u_z, b_z, in, hidden, xt, h);
    for (std::size_t j = 0; j < hn; ++j) {
      r.value[j] = sigmoid(r.value[j]);
      r.bound[j] = r.bound[j] / 4.0 + kElemUlps * kU * r.value[j];
      z.value[j] = sigmoid(z.value[j]);
      z.bound[j] = z.bound[j] / 4.0 + kElemUlps * kU * z.value[j];
    }
    // h~_t = tanh(W_h x_t + U_h (r_t o h_{t-1}) + b_h).
    Approx rh{std::vector<double>(hn), std::vector<double>(hn)};
    for (std::size_t j = 0; j < hn; ++j) {
      rh.value[j] = r.value[j] * h.value[j];
      rh.bound[j] = r.value[j] * h.bound[j] +
                    (std::fabs(h.value[j]) + h.bound[j]) * r.bound[j] +
                    kU * std::fabs(rh.value[j]);
    }
    Approx cand = gate_pre(w_h, u_h, b_h, in, hidden, xt, rh);
    // h_t = z_t o h_{t-1} + (1 - z_t) o h~_t.
    Approx next{std::vector<double>(hn), std::vector<double>(hn)};
    for (std::size_t j = 0; j < hn; ++j) {
      const double c = std::tanh(cand.value[j]);
      const double ec = cand.bound[j] + kElemUlps * kU * std::fabs(c);
      const double zj = z.value[j], ez = z.bound[j];
      next.value[j] = zj * h.value[j] + (1.0 - zj) * c;
      next.bound[j] = (std::fabs(h.value[j]) + std::fabs(c)) * ez +
                      zj * h.bound[j] + (1.0 - zj) * ec +
                      ez * (h.bound[j] + ec) +
                      4.0 * kU * (zj * std::fabs(h.value[j]) +
                                  (1.0 - zj) * std::fabs(c) + ez);
    }
    h = std::move(next);
  }
  return h;
}

Approx Mvm::forward(const std::vector<Approx>& views) const {
  const std::size_t m = dims.size();
  require(views.size() == m, "MVM view count");
  Approx y{std::vector<double>(static_cast<std::size_t>(classes)),
           std::vector<double>(static_cast<std::size_t>(classes))};
  for (std::int64_t a = 0; a < classes; ++a) {
    double score = 0.0, dev = 0.0, mag = 0.0;
    for (std::int64_t j = 0; j < factors; ++j) {
      // q^(p)_{a,j} = U^(p)_{a,j} . [h^(p); 1]
      double prod = 1.0, prod_mag = 1.0, prod_abs = 1.0;
      for (std::size_t p = 0; p < m; ++p) {
        const std::int64_t d = dims[p];
        const double* uj = u[p].data() + (a * factors + j) * (d + 1);
        double q = uj[d], qmag = std::fabs(uj[d]), qprop = 0.0;
        for (std::int64_t i = 0; i < d; ++i) {
          const auto ii = static_cast<std::size_t>(i);
          q += uj[i] * views[p].value[ii];
          qmag += std::fabs(uj[i]) *
                  (std::fabs(views[p].value[ii]) + views[p].bound[ii]);
          qprop += std::fabs(uj[i]) * views[p].bound[ii];
        }
        const double eq = qprop + gamma(d + 2) * qmag;
        prod *= q;
        prod_abs *= std::fabs(q);
        prod_mag *= std::fabs(q) + eq;
      }
      // Eq. (4): y_a = sum_j prod_p q^(p)_{a,j}.
      score += prod;
      dev += prod_mag - prod_abs +
             static_cast<double>(m - 1) * kU * prod_mag;
      mag += prod_mag;
    }
    y.value[static_cast<std::size_t>(a)] = score;
    y.bound[static_cast<std::size_t>(a)] =
        dev + gamma(factors + 1) * mag + kU * std::fabs(score);
  }
  return y;
}

MultiView MultiView::from(mdl::apps::MultiViewModel& model) {
  const mdl::apps::MultiViewConfig& cfg = model.config();
  require(cfg.encoder == mdl::apps::EncoderKind::kGru && !cfg.bidirectional,
          "only unidirectional GRU encoders are modelled");
  require(cfg.fusion_kind == mdl::fusion::FusionKind::kMultiviewMachine,
          "only the Multi-view Machine head is modelled");
  const std::vector<mdl::nn::Parameter*> params = model.parameters();
  const std::size_t views = cfg.view_dims.size();
  require(params.size() == views * 10, "unexpected parameter count");
  MultiView mv;
  mv.seq_lens = cfg.seq_lens;
  std::size_t k = 0;
  const auto take = [&](const char* name, std::int64_t rows,
                        std::int64_t cols) {
    const mdl::nn::Parameter* p = params[k++];
    require(p->name == name, std::string("expected ") + name + ", got " +
                                 p->name);
    require(p->value.size() == rows * cols,
            p->name + " shape " + p->value.shape_str());
    return to_double(p->value);
  };
  for (std::size_t v = 0; v < views; ++v) {
    Gru g;
    g.in = cfg.view_dims[v];
    g.hidden = cfg.hidden;
    const std::int64_t h = g.hidden;
    g.w_r = take("w_r", h, g.in);
    g.u_r = take("u_r", h, h);
    g.b_r = take("b_r", h, 1);
    g.w_z = take("w_z", h, g.in);
    g.u_z = take("u_z", h, h);
    g.b_z = take("b_z", h, 1);
    g.w_h = take("w_h", h, g.in);
    g.u_h = take("u_h", h, h);
    g.b_h = take("b_h", h, 1);
    mv.encoders.push_back(std::move(g));
  }
  mv.head.classes = cfg.classes;
  mv.head.factors = cfg.fusion_capacity;
  for (std::size_t v = 0; v < views; ++v) {
    mv.head.dims.push_back(cfg.hidden);
    const std::string name = "mvm_u" + std::to_string(v);
    mv.head.u.push_back(take(name.c_str(), cfg.classes * cfg.fusion_capacity,
                             cfg.hidden + 1));
  }
  return mv;
}

Approx MultiView::forward(const std::vector<const float*>& views) const {
  require(views.size() == encoders.size(), "view count");
  std::vector<Approx> hidden;
  hidden.reserve(views.size());
  for (std::size_t p = 0; p < views.size(); ++p)
    hidden.push_back(encoders[p].forward(views[p], seq_lens[p]));
  return head.forward(hidden);
}

bool within(const float* got, const Approx& want, std::string* why) {
  for (std::size_t i = 0; i < want.value.size(); ++i) {
    const double err = std::fabs(static_cast<double>(got[i]) - want.value[i]);
    if (err <= 2.0 * want.bound[i]) continue;  // false for NaN as well
    if (why != nullptr) {
      std::ostringstream os;
      os.precision(9);
      os << "element " << i << ": got " << got[i] << ", reference "
         << want.value[i] << " +- 2*" << want.bound[i];
      *why = os.str();
    }
    return false;
  }
  return true;
}

std::string self_test() {
  std::ostringstream err;
  const auto near = [&](double got, double want, const char* what) {
    if (!(std::fabs(got - want) <= 1e-12 * (1.0 + std::fabs(want))))
      err << what << ": got " << got << ", want " << want << "; ";
  };

  // Linear / ReLU / Tanh: W = [[1, 2], [3, 4]], b = [0.5, -1], x = [1, -1]
  // gives W x + b = [-0.5, -2].
  {
    Mlp m;
    Dense d;
    d.in = 2;
    d.out = 2;
    d.w = {1, 2, 3, 4};
    d.b = {0.5, -1};
    m.layers = {d};
    const float x[2] = {1.0F, -1.0F};
    Approx y = m.forward(x);
    near(y.value[0], -0.5, "linear[0]");
    near(y.value[1], -2.0, "linear[1]");
    m.layers[0].act = Dense::Act::kRelu;
    y = m.forward(x);
    near(y.value[0], 0.0, "relu[0]");
    near(y.value[1], 0.0, "relu[1]");
    m.layers[0].act = Dense::Act::kTanh;
    y = m.forward(x);
    near(y.value[0], std::tanh(-0.5), "tanh[0]");
    near(y.value[1], std::tanh(-2.0), "tanh[1]");
  }

  // Eq. (1), one step with I = H = 1, all input weights 1, no recurrence or
  // bias, x = 1, h0 = 0: r = z = sigma(1), h~ = tanh(1), and
  // h1 = (1 - sigma(1)) tanh(1) = sigma(-1) tanh(1).
  {
    Gru g;
    g.in = g.hidden = 1;
    g.w_r = g.w_z = g.w_h = {1.0};
    g.u_r = g.u_z = g.u_h = {0.0};
    g.b_r = g.b_z = g.b_h = {0.0};
    const float x[2] = {1.0F, 0.0F};
    near(g.forward(x, 1).value[0], sigmoid(-1.0) * std::tanh(1.0), "gru step");
    // Second step with x = 0 and U_h = 1: r = z = sigma(0) = 1/2,
    // h~ = tanh(h1 / 2), h2 = (h1 + h~) / 2.
    g.u_h = {1.0};
    const double h1 = sigmoid(-1.0) * std::tanh(1.0);
    near(g.forward(x, 2).value[0], 0.5 * h1 + 0.5 * std::tanh(0.5 * h1),
         "gru recurrence");
  }

  // Eq. (4) with two one-dimensional views, one factor, one class:
  // y = (2 h1 + 1)(3 h2 - 1); at h = (0.5, 2) that is 2 * 5 = 10.
  {
    Mvm m;
    m.classes = 1;
    m.factors = 1;
    m.dims = {1, 1};
    m.u = {{2.0, 1.0}, {3.0, -1.0}};
    const Approx h1{{0.5}, {0.0}}, h2{{2.0}, {0.0}};
    near(m.forward({h1, h2}).value[0], 10.0, "mvm");
  }

  // The dot-product bound holds for float32 evaluations in three orders
  // (forward, backward, pairwise) on random vectors.
  {
    mdl::Rng rng(12345);
    for (int trial = 0; trial < 50; ++trial) {
      const std::int64_t n = 1 + rng.uniform_int(700);
      std::vector<float> a(static_cast<std::size_t>(n)),
          x(static_cast<std::size_t>(n));
      for (std::int64_t i = 0; i < n; ++i) {
        a[static_cast<std::size_t>(i)] = static_cast<float>(rng.normal());
        x[static_cast<std::size_t>(i)] = static_cast<float>(rng.normal());
      }
      Approx in{std::vector<double>(x.begin(), x.end()),
                std::vector<double>(x.size(), 0.0)};
      const Approx want = affine(std::vector<double>(a.begin(), a.end()),
                                 {0.0}, n, 1, in);
      float fwd = 0.0F, bwd = 0.0F;
      for (std::int64_t i = 0; i < n; ++i) {
        fwd += a[static_cast<std::size_t>(i)] * x[static_cast<std::size_t>(i)];
        bwd += a[static_cast<std::size_t>(n - 1 - i)] *
               x[static_cast<std::size_t>(n - 1 - i)];
      }
      std::vector<float> pair(static_cast<std::size_t>(n));
      for (std::size_t i = 0; i < pair.size(); ++i) pair[i] = a[i] * x[i];
      while (pair.size() > 1) {
        std::vector<float> next((pair.size() + 1) / 2);
        for (std::size_t i = 0; i < next.size(); ++i)
          next[i] = pair[2 * i] + (2 * i + 1 < pair.size() ? pair[2 * i + 1]
                                                            : 0.0F);
        pair = std::move(next);
      }
      for (const float got : {fwd, bwd, pair[0]}) {
        // The bound itself, not twice it: this is what the derivation
        // promises for a single dot product.
        if (std::fabs(got - want.value[0]) > want.bound[0])
          err << "dot bound broken at n=" << n << "; ";
      }
    }
  }
  return err.str();
}

}  // namespace perfbench::ref
