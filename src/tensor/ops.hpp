// Numeric kernels: GEMM, convolution (im2col/im2row-based), pooling, batch
// normalization, activations, softmax, and their backward passes.
//
// Forward/backward pairs implement exactly the math the nn layer graph needs
// for quantization-aware training. All kernels are single-threaded and
// deterministic; convolution is unpadded with stride 1 (the CNV topology the
// paper evaluates uses only 3x3 valid convolutions).
//
// The GEMMs route through the blocked, vectorized kernel layer in
// tensor/kernels.hpp, which is byte-identical to the naive references it
// replaced (see the determinism contract there and DESIGN.md "Kernel
// layer").

#pragma once

#include <cstddef>
#include <vector>

#include "tensor/tensor.hpp"

namespace adapex::ops {

/// C[M,N] += A[M,K] * B[K,N]. C must be pre-sized; not zeroed here.
void gemm_accumulate(const float* a, const float* b, float* c, int m, int k,
                     int n);

/// C[M,N] += A^T[M,K] * B[K,N] where A is stored [K,M].
void gemm_at_b_accumulate(const float* a, const float* b, float* c, int m,
                          int k, int n);

/// C[M,N] += A[M,K] * B^T[K,N] where B is stored [N,K].
void gemm_a_bt_accumulate(const float* a, const float* b, float* c, int m,
                          int k, int n);

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
/// empty), output [N,F,oh,ow]. Its im2col and output panels are per-thread
/// buffers shared by every layer (see DESIGN.md "Kernel layer"), so
/// `col_scratch` is left untouched; it keeps the signature of the
/// conv2d_backward pair. With fuse_relu the ReLU is applied in the GEMM
/// epilogue — bit-identical to conv2d_forward followed by relu_forward,
/// without the extra pass.
Tensor conv2d_forward(const Tensor& input, const Tensor& weight,
                      const Tensor& bias, std::vector<float>& col_scratch,
                      bool fuse_relu = false);

/// Convolution backward: fills grad_input (same shape as input), accumulates
/// into grad_weight (the weight's shape) and grad_bias ([F], or empty to
/// skip). grad_output must be [N,F,oh,ow]; throws Error on any mismatch.
/// `col_scratch` is resized to hold one image's im2row panel.
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

/// Linear forward: input [N,In], weight [Out,In], bias [Out] -> [N,Out].
/// With fuse_relu the ReLU is applied in the GEMM epilogue — bit-identical
/// to linear_forward followed by relu_forward, without the extra pass.
Tensor linear_forward(const Tensor& input, const Tensor& weight,
                      const Tensor& bias, bool fuse_relu = false);

/// Linear backward.
void linear_backward(const Tensor& input, const Tensor& weight,
                     const Tensor& grad_output, Tensor& grad_input,
                     Tensor& grad_weight, Tensor& grad_bias);

/// Max-pool forward with kernel k and stride s; records argmax indices for
/// the backward pass (flat index into the input's HxW plane).
Tensor maxpool_forward(const Tensor& input, int kernel, int stride,
                       std::vector<int>& argmax);

/// Max-pool backward using recorded argmax indices.
Tensor maxpool_backward(const Tensor& input, const Tensor& grad_output,
                        int kernel, int stride, const std::vector<int>& argmax);

/// ReLU forward (elementwise max(0, x)).
Tensor relu_forward(const Tensor& input);

/// ReLU backward: passes gradient where input > 0.
Tensor relu_backward(const Tensor& input, const Tensor& grad_output);

/// Row-wise softmax of logits [N,K].
Tensor softmax(const Tensor& logits);

/// Mean cross-entropy loss of logits [N,K] against labels[N]; also returns
/// dLoss/dlogits in grad (same shape as logits), already divided by N.
double cross_entropy(const Tensor& logits, const std::vector<int>& labels,
                     Tensor& grad);

}  // namespace adapex::ops
