// Tensor-level layer passes: convolution (im2col/im2row-based), linear,
// pooling, softmax/cross-entropy, and their backward passes.
//
// Forward/backward pairs implement exactly the math the nn layer graph needs
// for quantization-aware training. All passes are deterministic; the conv
// passes split across the calling thread's work team, if it has one, with
// byte-identical results at any team size. Convolution is unpadded with
// stride 1 (the CNV topology the paper evaluates uses only 3x3 valid
// convolutions).
//
// Their GEMMs are the blocked, vectorized kernels of tensor/kernels.hpp,
// which callers that need a raw GEMM use directly; they are byte-identical
// to the naive references they replaced (see the determinism contract there
// and DESIGN.md "Kernel layer").

#pragma once

#include <cstddef>
#include <vector>

#include "tensor/tensor.hpp"

namespace adapex::ops {

/// Output spatial size of an unpadded convolution/pool: floor((in-k)/s)+1.
int out_dim(int in, int kernel, int stride);

/// im2col for one image: input [C,H,W] -> col [C*kh*kw, oh*ow], stride 1,
/// no padding. col's rows are ldcol >= oh*ow floats apart, so several
/// images can fill side-by-side columns of one panel.
void im2col(const float* img, int channels, int height, int width, int kernel,
            float* col, std::size_t ldcol);

/// col2im scatter-accumulate (the adjoint of im2col), reading col rows
/// ldcol floats apart.
void col2im_accumulate(const float* col, std::size_t ldcol, int channels,
                       int height, int width, int kernel, float* img);

/// Convolution forward. input [N,C,H,W], weight [F,C,k,k], bias [F] (may be
/// empty), output [N,F,oh,ow]: each output element starts at its filter's
/// bias (or 0) and adds the W * col products in the direct GEMM's order
/// (tensor/kernels.hpp). Chunks of images split across the calling thread's
/// work team (common/thread_pool.hpp) with unchanged output bytes. The
/// im2col and output panels are per-thread buffers shared by every layer
/// (see DESIGN.md "Kernel layer"), so `col_scratch` is left untouched.
Tensor conv2d_forward(const Tensor& input, const Tensor& weight,
                      const Tensor& bias, std::vector<float>& col_scratch);

/// Convolution backward: fills grad_input (same shape as input), accumulates
/// into grad_weight (the weight's shape) and grad_bias ([F], or empty to
/// skip). grad_output must be [N,F,oh,ow]; throws Error on any mismatch.
/// Each image's weight and bias gradients are added in ascending image
/// order, as one image at a time would, so the bytes do not depend on the
/// calling thread's work team. Like the forward, it works in per-thread
/// panels and leaves `col_scratch` untouched.
void conv2d_backward(const Tensor& input, const Tensor& weight,
                     const Tensor& grad_output, Tensor& grad_input,
                     Tensor& grad_weight, Tensor& grad_bias,
                     std::vector<float>& col_scratch);

/// conv2d_backward with grad_input optional: nullptr skips the input
/// gradient (its GEMM and col2im) for a layer whose input is the model's
/// image. grad_weight and grad_bias come out byte-identical either way.
void conv2d_backward(const Tensor& input, const Tensor& weight,
                     const Tensor& grad_output, Tensor* grad_input,
                     Tensor& grad_weight, Tensor& grad_bias,
                     std::vector<float>& col_scratch);

/// Linear forward: input [N,In], weight [Out,In], bias [Out] (may be empty)
/// -> [N,Out]: each output element is its bias (or 0) plus one dot product,
/// added once (the dot GEMM contract in tensor/kernels.hpp).
Tensor linear_forward(const Tensor& input, const Tensor& weight,
                      const Tensor& bias);

/// Linear backward.
void linear_backward(const Tensor& input, const Tensor& weight,
                     const Tensor& grad_output, Tensor& grad_input,
                     Tensor& grad_weight, Tensor& grad_bias);

/// Max-pool forward with kernel k and stride s; records argmax indices for
/// the backward pass (flat index into the input's HxW plane).
Tensor maxpool_forward(const Tensor& input, int kernel, int stride,
                       std::vector<int>& argmax);

/// Max-pool backward using recorded argmax indices: the gradient of an
/// input of shape `input_shape` ([N,C,H,W]).
Tensor maxpool_backward(const std::vector<int>& input_shape,
                        const Tensor& grad_output, int kernel, int stride,
                        const std::vector<int>& argmax);

/// Row-wise softmax of logits [N,K].
Tensor softmax(const Tensor& logits);

/// Mean cross-entropy loss of logits [N,K] against labels[N]; also returns
/// dLoss/dlogits in grad (same shape as logits), already divided by N.
double cross_entropy(const Tensor& logits, const std::vector<int>& labels,
                     Tensor& grad);

}  // namespace adapex::ops
