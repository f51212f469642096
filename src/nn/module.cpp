#include "nn/module.hpp"

#include <sstream>

namespace mdl::nn {

void Module::save_state(BinaryWriter& w) {
  const auto params = parameters();
  w.write_u32(static_cast<std::uint32_t>(params.size()));
  for (Parameter* p : params) {
    w.write_string(p->name);
    w.write_tensor(p->value);
  }
}

void Module::load_state(BinaryReader& r) {
  const auto params = parameters();
  const std::uint32_t n = r.read_u32();
  MDL_CHECK(n == params.size(), "state has " << n << " parameters, module has "
                                             << params.size());
  for (Parameter* p : params) {
    const std::string name = r.read_string();
    Tensor value = r.read_tensor();
    MDL_CHECK(value.same_shape(p->value),
              "parameter " << name << " shape " << value.shape_str()
                           << " vs expected " << p->value.shape_str());
    p->value = std::move(value);
  }
}

Tensor Sequential::forward(const Tensor& x) {
  Tensor h = x;
  for (auto& layer : layers_) h = layer->forward(h);
  return h;
}

Tensor Sequential::infer(const Tensor& x) const {
  Tensor h = x;
  for (const auto& layer : layers_) h = layer->infer(h);
  return h;
}

Tensor Sequential::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
    g = (*it)->backward(g);
  return g;
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> out;
  for (auto& layer : layers_)
    for (Parameter* p : layer->parameters()) out.push_back(p);
  return out;
}

std::string Sequential::name() const {
  std::ostringstream os;
  os << "Sequential(";
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (i) os << " -> ";
    os << layers_[i]->name();
  }
  os << ')';
  return os.str();
}

std::int64_t Sequential::flops_per_example() const {
  std::int64_t n = 0;
  for (const auto& layer : layers_) n += layer->flops_per_example();
  return n;
}

std::int64_t Sequential::in_features() const {
  for (const auto& layer : layers_)
    if (const std::int64_t width = layer->in_features(); width > 0)
      return width;
  return 0;
}

void Sequential::set_training(bool training) {
  Module::set_training(training);
  for (auto& layer : layers_) layer->set_training(training);
}

Module& Sequential::layer(std::size_t i) {
  MDL_CHECK(i < layers_.size(), "layer index " << i << " out of range");
  return *layers_[i];
}

const Module& Sequential::layer(std::size_t i) const {
  MDL_CHECK(i < layers_.size(), "layer index " << i << " out of range");
  return *layers_[i];
}

std::unique_ptr<Sequential> Sequential::split_off(std::size_t split_point) {
  MDL_CHECK(split_point <= layers_.size(),
            "split point " << split_point << " beyond " << layers_.size()
                           << " layers");
  auto tail = std::make_unique<Sequential>();
  for (std::size_t i = split_point; i < layers_.size(); ++i)
    tail->append(std::move(layers_[i]));
  layers_.resize(split_point);
  return tail;
}

}  // namespace mdl::nn
