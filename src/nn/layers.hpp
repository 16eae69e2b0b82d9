// Neural-network layers with explicit forward/backward passes.
//
// A layer caches whatever it needs during forward(train=true) so that a
// subsequent backward(grad) can produce the input gradient and accumulate
// parameter gradients. This layer graph is the training substrate standing
// in for Brevitas/PyTorch (see DESIGN.md, substitution table).
//
// Layers also expose structural metadata (LayerKind + channel/kernel
// geometry) consumed by the pruning pass and the FINN-style dataflow
// compiler, which walk trained models to perform filter surgery and
// hardware mapping.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/quant.hpp"
#include "tensor/tensor.hpp"

namespace adapex {

/// A trainable parameter: value plus gradient accumulator.
struct Param {
  Tensor value;
  Tensor grad;

  void ensure_grad() {
    if (grad.shape() != value.shape()) grad = Tensor(value.shape());
  }
};

/// Structural classification of layers (used by pruning and hardware
/// mapping; mirrors the ONNX node kinds FINN consumes).
enum class LayerKind {
  kConv,
  kLinear,
  kBatchNorm,
  kActQuant,
  kMaxPool,
  kFlatten,
};

const char* to_string(LayerKind kind);

/// Base layer interface.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Runs the layer. train=true caches activations for backward and updates
  /// any running statistics.
  virtual Tensor forward(const Tensor& input, bool train) = 0;

  /// Propagates gradients; accumulates into parameter .grad fields.
  /// Must be called after a forward(train=true).
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// backward() for a layer whose input gradient nobody reads (the model's
  /// first layer, fed the image): accumulates the parameter gradients only.
  /// The default runs backward() and drops its result.
  virtual void backward_params(const Tensor& grad_output) {
    (void)backward(grad_output);
  }

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<Param*> params() { return {}; }
  /// Read-only view of the trainable parameters (for inspection of models
  /// shared const across threads).
  virtual std::vector<const Param*> params() const { return {}; }

  virtual LayerKind kind() const = 0;
  virtual std::string name() const = 0;

  /// Deep copy (weights and running statistics included).
  virtual std::unique_ptr<Layer> clone() const = 0;
};

/// 2-D convolution (3x3 valid, stride 1) with optional weight quantization.
class QuantConv2d : public Layer {
 public:
  /// Creates a conv layer with weights initialized He-style from `rng`.
  /// weight_bits <= 0 disables quantization.
  QuantConv2d(int in_channels, int out_channels, int kernel, int weight_bits,
              Rng& rng);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  /// Skips the input gradient's GEMM and col2im.
  void backward_params(const Tensor& grad_output) override;
  std::vector<Param*> params() override { return {&weight_}; }
  std::vector<const Param*> params() const override { return {&weight_}; }
  LayerKind kind() const override { return LayerKind::kConv; }
  std::string name() const override;
  std::unique_ptr<Layer> clone() const override;

  int in_channels() const { return weight_.value.dim(1); }
  int out_channels() const { return weight_.value.dim(0); }
  int kernel() const { return weight_.value.dim(2); }
  int weight_bits() const { return weight_bits_; }

  Param& weight() { return weight_; }
  const Param& weight() const { return weight_; }

  /// Replaces the weight tensor (used by pruning surgery).
  void set_weight(Tensor w);

 private:
  Param weight_;  // [F, C, k, k]
  int weight_bits_;
  Tensor cached_input_;
  Tensor cached_qweight_;
  std::vector<float> col_scratch_;
};

/// Fully-connected layer with optional weight quantization.
class QuantLinear : public Layer {
 public:
  QuantLinear(int in_features, int out_features, int weight_bits, Rng& rng);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param*> params() override { return {&weight_}; }
  std::vector<const Param*> params() const override { return {&weight_}; }
  LayerKind kind() const override { return LayerKind::kLinear; }
  std::string name() const override;
  std::unique_ptr<Layer> clone() const override;

  int in_features() const { return weight_.value.dim(1); }
  int out_features() const { return weight_.value.dim(0); }
  int weight_bits() const { return weight_bits_; }

  Param& weight() { return weight_; }
  const Param& weight() const { return weight_; }
  void set_weight(Tensor w);

 private:
  Param weight_;  // [Out, In]
  int weight_bits_;
  Tensor cached_input_;
  Tensor cached_qweight_;
};

/// Batch normalization over the channel dimension. Handles both [N,C,H,W]
/// and [N,C] inputs (2-D inputs are treated as H=W=1).
class BatchNorm : public Layer {
 public:
  /// Variance epsilon; the frozen packed path (nn/quant.hpp) folds the same
  /// value so its codes match the float path bit for bit.
  static constexpr float kEps = 1e-5f;

  explicit BatchNorm(int channels);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param*> params() override { return {&gamma_, &beta_}; }
  std::vector<const Param*> params() const override {
    return {&gamma_, &beta_};
  }
  LayerKind kind() const override { return LayerKind::kBatchNorm; }
  std::string name() const override;
  std::unique_ptr<Layer> clone() const override;

  int channels() const { return gamma_.value.dim(0); }

  /// Pruning surgery: keep only the listed channels (ascending order).
  void slice_channels(const std::vector<int>& keep);

  // State access for serialization and freezing.
  const Tensor& gamma() const { return gamma_.value; }
  const Tensor& beta() const { return beta_.value; }
  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }
  void set_state(Tensor gamma, Tensor beta, Tensor mean, Tensor var);

 private:
  Param gamma_;
  Param beta_;
  Tensor running_mean_;
  Tensor running_var_;
  // Cached values from the training forward pass.
  std::vector<int> cached_shape_;
  Tensor cached_xhat_;
  std::vector<float> cached_inv_std_;
};

/// Quantized activation (ReLU clamp + uniform quantization, STE backward).
class ActQuant : public Layer {
 public:
  explicit ActQuant(int bits) : quantizer_(bits) {}

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  LayerKind kind() const override { return LayerKind::kActQuant; }
  std::string name() const override;
  std::unique_ptr<Layer> clone() const override;

  int bits() const { return quantizer_.bits(); }
  float scale() const { return quantizer_.scale(); }
  void set_scale(float s) { quantizer_.set_scale(s); }

 private:
  ActQuantizer quantizer_;
  Tensor cached_input_;
};

/// Max pooling with square kernel and stride == kernel by default.
class MaxPool2d : public Layer {
 public:
  explicit MaxPool2d(int kernel, int stride = 0)
      : kernel_(kernel), stride_(stride > 0 ? stride : kernel) {}

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  LayerKind kind() const override { return LayerKind::kMaxPool; }
  std::string name() const override;
  std::unique_ptr<Layer> clone() const override;

  int kernel() const { return kernel_; }
  int stride() const { return stride_; }

 private:
  int kernel_;
  int stride_;
  Tensor cached_input_;
  std::vector<int> argmax_;
};

/// Flattens [N,C,H,W] to [N, C*H*W].
class Flatten : public Layer {
 public:
  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  LayerKind kind() const override { return LayerKind::kFlatten; }
  std::string name() const override { return "Flatten"; }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Flatten>();
  }

 private:
  std::vector<int> cached_shape_;
};

/// An ordered container of layers with pass-through forward/backward.
class Sequential : public Layer {
 public:
  Sequential() = default;

  void append(std::unique_ptr<Layer> layer) {
    layers_.push_back(std::move(layer));
  }

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  /// backward() whose first layer runs backward_params().
  void backward_params(const Tensor& grad_output) override;
  std::vector<Param*> params() override;
  std::vector<const Param*> params() const override;
  LayerKind kind() const override { return LayerKind::kFlatten; }  // unused
  std::string name() const override { return "Sequential"; }
  std::unique_ptr<Layer> clone() const override;

  std::size_t size() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }
  const Layer& layer(std::size_t i) const { return *layers_.at(i); }

  /// Replaces layer i (pruning surgery on BatchNorm/ActQuant rebuilds).
  void replace(std::size_t i, std::unique_ptr<Layer> layer) {
    layers_.at(i) = std::move(layer);
  }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace adapex
