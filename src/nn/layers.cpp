#include "nn/layers.hpp"

#include <cmath>
#include <utility>

#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"

namespace adapex {

const char* to_string(LayerKind kind) {
  switch (kind) {
    case LayerKind::kConv: return "Conv";
    case LayerKind::kLinear: return "Linear";
    case LayerKind::kBatchNorm: return "BatchNorm";
    case LayerKind::kActQuant: return "ActQuant";
    case LayerKind::kMaxPool: return "MaxPool";
    case LayerKind::kFlatten: return "Flatten";
  }
  return "?";
}

// ---------------------------------------------------------------- QuantConv2d

QuantConv2d::QuantConv2d(int in_channels, int out_channels, int kernel,
                         int weight_bits, Rng& rng)
    : weight_bits_(weight_bits) {
  ADAPEX_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0,
               "conv dimensions must be positive");
  weight_.value = Tensor({out_channels, in_channels, kernel, kernel});
  const float stddev =
      std::sqrt(2.0f / static_cast<float>(in_channels * kernel * kernel));
  weight_.value.randn_(rng, stddev);
  weight_.ensure_grad();
}

Tensor QuantConv2d::forward(const Tensor& input, bool train) {
  quantize_weight_per_channel(weight_.value, weight_bits_, cached_qweight_);
  if (train) cached_input_ = input;
  static const Tensor kNoBias;
  return ops::conv2d_forward(input, cached_qweight_, kNoBias, col_scratch_);
}

Tensor QuantConv2d::backward(const Tensor& grad_output) {
  ADAPEX_CHECK(!cached_input_.empty(), "backward before forward(train=true)");
  Tensor grad_input;
  Tensor no_bias_grad;
  weight_.ensure_grad();
  // STE: gradient w.r.t. the quantized weight is applied to the latent float
  // weight directly.
  ops::conv2d_backward(cached_input_, cached_qweight_, grad_output, grad_input,
                       weight_.grad, no_bias_grad, col_scratch_);
  return grad_input;
}

void QuantConv2d::backward_params(const Tensor& grad_output) {
  ADAPEX_CHECK(!cached_input_.empty(), "backward before forward(train=true)");
  Tensor no_bias_grad;
  weight_.ensure_grad();
  ops::conv2d_backward(cached_input_, cached_qweight_, grad_output, nullptr,
                       weight_.grad, no_bias_grad, col_scratch_);
}

std::string QuantConv2d::name() const {
  return "QuantConv2d(" + std::to_string(in_channels()) + "->" +
         std::to_string(out_channels()) + ", k=" + std::to_string(kernel()) +
         ", w" + std::to_string(weight_bits_) + ")";
}

std::unique_ptr<Layer> QuantConv2d::clone() const {
  Rng dummy(0);
  auto copy = std::make_unique<QuantConv2d>(in_channels(), out_channels(),
                                            kernel(), weight_bits_, dummy);
  copy->weight_.value = weight_.value;
  copy->weight_.ensure_grad();
  return copy;
}

void QuantConv2d::set_weight(Tensor w) {
  ADAPEX_CHECK(w.ndim() == 4, "conv weight must be 4-D");
  weight_.value = std::move(w);
  weight_.grad = Tensor(weight_.value.shape());
}

// ---------------------------------------------------------------- QuantLinear

QuantLinear::QuantLinear(int in_features, int out_features, int weight_bits,
                         Rng& rng)
    : weight_bits_(weight_bits) {
  ADAPEX_CHECK(in_features > 0 && out_features > 0,
               "linear dimensions must be positive");
  weight_.value = Tensor({out_features, in_features});
  const float stddev = std::sqrt(2.0f / static_cast<float>(in_features));
  weight_.value.randn_(rng, stddev);
  weight_.ensure_grad();
}

Tensor QuantLinear::forward(const Tensor& input, bool train) {
  quantize_weight_per_channel(weight_.value, weight_bits_, cached_qweight_);
  if (train) cached_input_ = input;
  static const Tensor kNoBias;
  return ops::linear_forward(input, cached_qweight_, kNoBias);
}

Tensor QuantLinear::backward(const Tensor& grad_output) {
  ADAPEX_CHECK(!cached_input_.empty(), "backward before forward(train=true)");
  Tensor grad_input;
  Tensor no_bias_grad;
  weight_.ensure_grad();
  ops::linear_backward(cached_input_, cached_qweight_, grad_output, grad_input,
                       weight_.grad, no_bias_grad);
  return grad_input;
}

std::string QuantLinear::name() const {
  return "QuantLinear(" + std::to_string(in_features()) + "->" +
         std::to_string(out_features()) + ", w" + std::to_string(weight_bits_) +
         ")";
}

std::unique_ptr<Layer> QuantLinear::clone() const {
  Rng dummy(0);
  auto copy = std::make_unique<QuantLinear>(in_features(), out_features(),
                                            weight_bits_, dummy);
  copy->weight_.value = weight_.value;
  copy->weight_.ensure_grad();
  return copy;
}

void QuantLinear::set_weight(Tensor w) {
  ADAPEX_CHECK(w.ndim() == 2, "linear weight must be 2-D");
  weight_.value = std::move(w);
  weight_.grad = Tensor(weight_.value.shape());
}

// ------------------------------------------------------------------ BatchNorm

BatchNorm::BatchNorm(int channels) {
  ADAPEX_CHECK(channels > 0, "batchnorm channels must be positive");
  gamma_.value = Tensor({channels});
  gamma_.value.fill(1.0f);
  gamma_.ensure_grad();
  beta_.value = Tensor({channels});
  beta_.ensure_grad();
  running_mean_ = Tensor({channels});
  running_var_ = Tensor({channels});
  running_var_.fill(1.0f);
}

namespace {

// Unifies [N,C,H,W] and [N,C] handling: returns (N, C, spatial).
struct BnGeom {
  int n;
  int c;
  int spatial;
};

BnGeom bn_geom(const std::vector<int>& shape, int channels) {
  ADAPEX_CHECK(shape.size() == 2 || shape.size() == 4,
               "batchnorm input must be 2-D or 4-D");
  BnGeom g{shape[0], shape[1], 1};
  if (shape.size() == 4) g.spatial = shape[2] * shape[3];
  ADAPEX_CHECK(g.c == channels, "batchnorm channel mismatch");
  return g;
}

}  // namespace

Tensor BatchNorm::forward(const Tensor& input, bool train) {
  const auto g = bn_geom(input.shape(), channels());
  const std::size_t plane = static_cast<std::size_t>(g.spatial);
  const std::size_t count = static_cast<std::size_t>(g.n) * plane;
  const auto nc = static_cast<std::size_t>(g.c);
  constexpr float kMomentum = 0.1f;

  std::vector<float> mean(nc);
  std::vector<float> inv_std(nc);
  std::vector<double> sum;
  std::vector<double> sq;
  if (train) {
    sum.resize(nc);
    sq.resize(nc);
    kernels::bn_channel_sums(input.data(), input.data(), g.n, g.c, plane,
                             sum.data(), sq.data());
  }
  for (std::size_t c = 0; c < nc; ++c) {
    float var;
    if (train) {
      mean[c] = static_cast<float>(sum[c] / count);
      var = static_cast<float>(sq[c] / count -
                               static_cast<double>(mean[c]) * mean[c]);
      var = std::max(var, 0.0f);
      running_mean_[c] =
          (1 - kMomentum) * running_mean_[c] + kMomentum * mean[c];
      running_var_[c] = (1 - kMomentum) * running_var_[c] + kMomentum * var;
    } else {
      mean[c] = running_mean_[c];
      var = running_var_[c];
    }
    inv_std[c] = 1.0f / std::sqrt(var + kEps);
  }

  Tensor out(input.shape());
  if (train) {
    cached_shape_ = input.shape();
    cached_xhat_ = Tensor(input.shape());
    cached_inv_std_ = inv_std;
  }
  kernels::bn_forward(input.data(), out.data(),
                      train ? cached_xhat_.data() : nullptr, g.n, g.c, plane,
                      mean.data(), inv_std.data(), gamma_.value.data(),
                      beta_.value.data());
  return out;
}

Tensor BatchNorm::backward(const Tensor& grad_output) {
  ADAPEX_CHECK(!cached_shape_.empty(), "backward before forward(train=true)");
  ADAPEX_CHECK(grad_output.shape() == cached_shape_,
               "batchnorm gradient must have the input's shape");
  const auto g = bn_geom(cached_shape_, channels());
  const std::size_t plane = static_cast<std::size_t>(g.spatial);
  const double count = static_cast<double>(g.n) * g.spatial;
  const auto nc = static_cast<std::size_t>(g.c);

  std::vector<double> sum_dy(nc);
  std::vector<double> sum_dy_xhat(nc);
  kernels::bn_channel_sums(grad_output.data(), cached_xhat_.data(), g.n, g.c,
                           plane, sum_dy.data(), sum_dy_xhat.data());
  gamma_.ensure_grad();
  beta_.ensure_grad();
  for (std::size_t c = 0; c < nc; ++c) {
    gamma_.grad[c] += static_cast<float>(sum_dy_xhat[c]);
    beta_.grad[c] += static_cast<float>(sum_dy[c]);
  }
  Tensor grad_input(cached_shape_);
  kernels::bn_backward(grad_output.data(), cached_xhat_.data(),
                       grad_input.data(), g.n, g.c, plane, gamma_.value.data(),
                       cached_inv_std_.data(), sum_dy.data(),
                       sum_dy_xhat.data(), count);
  return grad_input;
}

std::string BatchNorm::name() const {
  return "BatchNorm(" + std::to_string(channels()) + ")";
}

std::unique_ptr<Layer> BatchNorm::clone() const {
  auto copy = std::make_unique<BatchNorm>(channels());
  copy->gamma_.value = gamma_.value;
  copy->beta_.value = beta_.value;
  copy->running_mean_ = running_mean_;
  copy->running_var_ = running_var_;
  copy->gamma_.ensure_grad();
  copy->beta_.ensure_grad();
  return copy;
}

void BatchNorm::set_state(Tensor gamma, Tensor beta, Tensor mean,
                          Tensor var) {
  const auto shape = std::vector<int>{channels()};
  ADAPEX_CHECK(gamma.shape() == shape && beta.shape() == shape &&
                   mean.shape() == shape && var.shape() == shape,
               "batchnorm state shape mismatch");
  gamma_.value = std::move(gamma);
  beta_.value = std::move(beta);
  running_mean_ = std::move(mean);
  running_var_ = std::move(var);
  gamma_.ensure_grad();
  beta_.ensure_grad();
}

void BatchNorm::slice_channels(const std::vector<int>& keep) {
  const int new_c = static_cast<int>(keep.size());
  ADAPEX_CHECK(new_c > 0 && new_c <= channels(), "invalid channel slice");
  Tensor gamma({new_c}), beta({new_c}), mean({new_c}), var({new_c});
  for (int i = 0; i < new_c; ++i) {
    const auto src = static_cast<std::size_t>(keep[static_cast<std::size_t>(i)]);
    ADAPEX_CHECK(static_cast<int>(src) < channels(), "slice index out of range");
    gamma[static_cast<std::size_t>(i)] = gamma_.value[src];
    beta[static_cast<std::size_t>(i)] = beta_.value[src];
    mean[static_cast<std::size_t>(i)] = running_mean_[src];
    var[static_cast<std::size_t>(i)] = running_var_[src];
  }
  gamma_.value = std::move(gamma);
  beta_.value = std::move(beta);
  running_mean_ = std::move(mean);
  running_var_ = std::move(var);
  gamma_.grad = Tensor(gamma_.value.shape());
  beta_.grad = Tensor(beta_.value.shape());
}

// ------------------------------------------------------------------- ActQuant

Tensor ActQuant::forward(const Tensor& input, bool train) {
  if (train) cached_input_ = input;
  return quantizer_.forward(input, train);
}

Tensor ActQuant::backward(const Tensor& grad_output) {
  ADAPEX_CHECK(!cached_input_.empty(), "backward before forward(train=true)");
  return quantizer_.backward(cached_input_, grad_output);
}

std::string ActQuant::name() const {
  return "ActQuant(a" + std::to_string(quantizer_.bits()) + ")";
}

std::unique_ptr<Layer> ActQuant::clone() const {
  auto copy = std::make_unique<ActQuant>(quantizer_.bits());
  copy->quantizer_ = quantizer_;
  return copy;
}

// ------------------------------------------------------------------ MaxPool2d

Tensor MaxPool2d::forward(const Tensor& input, bool train) {
  if (train) cached_input_ = input;
  return ops::maxpool_forward(input, kernel_, stride_, argmax_);
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  ADAPEX_CHECK(!cached_input_.empty(), "backward before forward(train=true)");
  return ops::maxpool_backward(cached_input_, grad_output, kernel_, stride_,
                               argmax_);
}

std::string MaxPool2d::name() const {
  return "MaxPool2d(k=" + std::to_string(kernel_) +
         ", s=" + std::to_string(stride_) + ")";
}

std::unique_ptr<Layer> MaxPool2d::clone() const {
  return std::make_unique<MaxPool2d>(kernel_, stride_);
}

// -------------------------------------------------------------------- Flatten

Tensor Flatten::forward(const Tensor& input, bool train) {
  if (train) cached_shape_ = input.shape();
  const int batch = input.dim(0);
  const int features = static_cast<int>(input.numel()) / batch;
  return input.reshaped({batch, features});
}

Tensor Flatten::backward(const Tensor& grad_output) {
  ADAPEX_CHECK(!cached_shape_.empty(), "backward before forward(train=true)");
  return grad_output.reshaped(cached_shape_);
}

// ----------------------------------------------------------------- Sequential

Tensor Sequential::forward(const Tensor& input, bool train) {
  Tensor x = input;
  for (auto& layer : layers_) x = layer->forward(x, train);
  return x;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

void Sequential::backward_params(const Tensor& grad_output) {
  if (layers_.empty()) return;
  Tensor g = grad_output;
  for (std::size_t i = layers_.size() - 1; i > 0; --i) {
    g = layers_[i]->backward(g);
  }
  layers_.front()->backward_params(g);
}

std::vector<Param*> Sequential::params() {
  std::vector<Param*> all;
  for (auto& layer : layers_) {
    for (Param* p : layer->params()) all.push_back(p);
  }
  return all;
}

std::vector<const Param*> Sequential::params() const {
  std::vector<const Param*> all;
  for (const auto& layer : layers_) {
    for (const Param* p : std::as_const(*layer).params()) all.push_back(p);
  }
  return all;
}

std::unique_ptr<Layer> Sequential::clone() const {
  auto copy = std::make_unique<Sequential>();
  for (const auto& layer : layers_) copy->append(layer->clone());
  return copy;
}

}  // namespace adapex
