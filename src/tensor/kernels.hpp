// Blocked, vectorized GEMM micro-kernels with fused epilogues.
//
// This is the performance layer under tensor/ops.hpp: cache-blocked,
// register-tiled GEMM kernels with B-panel packing and a j-vectorized inner
// loop (compiler auto-vectorization over contiguous output columns). The
// implementation is compiled three times — SSE2 baseline, AVX2, AVX-512 —
// and the widest variant the host supports is selected once at runtime, so
// default (non -march=native) builds still use wide vectors.
//
// Determinism contract (see DESIGN.md "Kernel layer"): every kernel performs
//, per output element, exactly the same sequence of float operations as the
// naive reference implementation in kernels::ref —
//   * gemm_accumulate / gemm_at_b_accumulate: the element's running value
//     lives in C; products are added in ascending-k order; terms whose A
//     operand is exactly 0.0f are skipped.
//   * gemm_a_bt_accumulate / gemm_a_bt_packed_accumulate: a fresh
//     accumulator starts at 0, sums products in ascending-k order with no
//     zero skip, and is added to C once.
//   * the element-wise training passes (act_*, bn_*): each output element
//     gets the reference's float/double operations in the reference's
//     order; bn_channel_sums keeps each channel's sums in ascending order.
// Blocking/tiling only regroups *independent* output elements (i/j), never
// the per-element reduction, and the translation unit is built with
// -ffp-contract=off so no variant fuses multiply+add. Results are therefore
// byte-identical to the reference at any block size, vector width, and
// thread count.
//
// Because the orders are identical, dispatch is free to pick whichever
// implementation is faster per call: the direct kernels fall back to the
// scalar reference form when N is narrower than one sliver or when A is
// mostly exact zeros (pruned/quantized weights), where the naive zero-skip
// beats packing. The choice never changes the output bytes.

#pragma once

#include <cstddef>

namespace adapex::kernels {

/// Optional activation fused into the final store of a forward GEMM.
enum class Epilogue {
  kNone,
  kRelu,  ///< out = max(0, out), applied after the full k reduction.
};

/// C[M,N] += A[M,K] * B[K,N]. Blocked i-k-j kernel; skips terms where the A
/// operand is exactly zero (quantized weights are often exact zeros).
void gemm_accumulate(const float* a, const float* b, float* c, int m, int k,
                     int n);

/// gemm_accumulate with a fused bias/activation epilogue: equivalent to
/// filling row i of C with row_bias[i] (when row_bias != nullptr), running
/// gemm_accumulate, then applying the epilogue — without the extra passes.
/// When row_bias == nullptr, C's existing contents seed the accumulation.
void gemm_bias_accumulate(const float* a, const float* b,
                          const float* row_bias, float* c, int m, int k, int n,
                          Epilogue epilogue);

/// C[M,N] += A^T[M,K] * B[K,N] where A is stored [K,M]. Same per-element
/// semantics as gemm_accumulate (ascending k, zero skip); implemented as a
/// one-time packed transpose of A followed by the blocked i-k-j kernel, so
/// the reduction order is unchanged.
void gemm_at_b_accumulate(const float* a, const float* b, float* c, int m,
                          int k, int n);

/// C[M,N] += A[M,K] * B^T[K,N] where B is stored [N,K] (row dot products).
/// Each element's accumulator starts at zero, sums in ascending-k order
/// without a zero skip, and is added to C once — exactly the reference
/// reduction — vectorized across independent output columns via a packed
/// transpose of the B panel.
void gemm_a_bt_accumulate(const float* a, const float* b, float* c, int m,
                          int k, int n);

/// Alignment, in floats, of a packed B^T panel's rows: the widest tier's
/// vector width, so every tier's vector tiles fit inside the padding.
constexpr int kPanelAlign = 16;

/// Row stride of a packed B^T panel with n columns: n rounded up to
/// kPanelAlign.
constexpr int panel_stride(int n) {
  return (n + kPanelAlign - 1) / kPanelAlign * kPanelAlign;
}

/// gemm_a_bt_accumulate with B^T supplied packed: bt[kk * ldbt + j] = B[j][kk]
/// (e.g. an im2row patch matrix, one patch per row), ldbt >=
/// panel_stride(n), and the padding columns n..panel_stride(n)-1 of each row
/// zero. Vectorized across the n columns straight out of bt, register-tiled
/// over the m rows; the per-element reduction is gemm_a_bt_accumulate's, so
/// the result is byte-identical to it on the unpacked B.
void gemm_a_bt_packed_accumulate(const float* a, const float* bt, int ldbt,
                                 float* c, int m, int k, int n);

/// gemm_a_bt_accumulate with a fused column-bias/activation epilogue:
/// out[i][j] = epilogue(col_bias[j] + dot) when col_bias != nullptr
/// (overwrites C), else epilogue(C[i][j] + dot).
void gemm_a_bt_bias(const float* a, const float* b, const float* col_bias,
                    float* c, int m, int k, int n, Epilogue epilogue);

// ---------------------------------------------------------------------------
// Element-wise training passes of the activation quantizer (nn/quant.hpp)
// and BatchNorm (nn/layers.hpp). Each is byte-identical to its ref:: form at
// every tier; BatchNorm tensors are [n, c, plane] with one row of `plane`
// contiguous elements per (image, channel).

/// The std::max fold of x from 0.0f: the largest positive element, or +0
/// (NaNs, negatives and -0 never win).
float act_batch_max(const float* x, std::size_t n);

/// Activation fake quantization with L = 2^bits - 1 levels:
/// y = std::round(std::clamp(x, 0, s) / s * L) / L * s, so -0 and NaN pass
/// through. bits <= 0 is plain ReLU, y = std::max(x, 0.0f). Throws Error
/// when bits > 30.
void act_quantize(const float* x, float* y, std::size_t n, float s, int bits);

/// Straight-through estimator of act_quantize: dx = dy where 0 < x and
/// (bits <= 0 or x < s), else +0 (so x == 0 and x == s pass nothing).
void act_quantize_backward(const float* x, const float* dy, float* dx,
                           std::size_t n, float s, int bits);

/// Per-channel sums of a pair of [n, c, plane] tensors, each one double
/// chain over images then positions in ascending order:
/// sum_a[ch] = sum of double(a), sum_ab[ch] = sum of double(a) * double(b).
/// b may equal a (BatchNorm's forward sum of squares).
void bn_channel_sums(const float* a, const float* b, int n, int c,
                     std::size_t plane, double* sum_a, double* sum_ab);

/// BatchNorm affine, in float: xhat = (x - mean[ch]) * inv_std[ch] (stored
/// when xhat != nullptr) and y = gamma[ch] * xhat + beta[ch].
void bn_forward(const float* x, float* y, float* xhat, int n, int c,
                std::size_t plane, const float* mean, const float* inv_std,
                const float* gamma, const float* beta);

/// BatchNorm input gradient, in double:
/// dx = float(double(gamma[ch] * inv_std[ch]) *
///            (dy - sum_dy[ch] / count - xhat * sum_dy_xhat[ch] / count)),
/// the float product widened and (xhat * sum_dy_xhat) / count divided per
/// element.
void bn_backward(const float* dy, const float* xhat, float* dx, int n, int c,
                 std::size_t plane, const float* gamma, const float* inv_std,
                 const double* sum_dy, const double* sum_dy_xhat,
                 double count);

/// Name of the dispatched implementation: "avx512", "avx2", or "sse2".
const char* active_isa();

/// Forces a specific implementation tier ("avx512" | "avx2" | "sse2"), e.g.
/// to verify cross-tier byte-identity in tests. Throws ConfigError when the
/// name is unknown or the host lacks the ISA. Not thread-safe: call only
/// while no kernel is running. The ADAPEX_KERNEL_ISA environment variable
/// applies the same override at first use.
void force_isa(const char* name);

/// Naive reference kernels — the exact pre-blocking (GEMM) and pre-vector
/// (element-wise) implementations, kept for differential tests and benchmark
/// baselines.
namespace ref {

void gemm_accumulate(const float* a, const float* b, float* c, int m, int k,
                     int n);
void gemm_at_b_accumulate(const float* a, const float* b, float* c, int m,
                          int k, int n);
void gemm_a_bt_accumulate(const float* a, const float* b, float* c, int m,
                          int k, int n);

float act_batch_max(const float* x, std::size_t n);
void act_quantize(const float* x, float* y, std::size_t n, float s, int bits);
void act_quantize_backward(const float* x, const float* dy, float* dx,
                           std::size_t n, float s, int bits);
void bn_channel_sums(const float* a, const float* b, int n, int c,
                     std::size_t plane, double* sum_a, double* sum_ab);
void bn_forward(const float* x, float* y, float* xhat, int n, int c,
                std::size_t plane, const float* mean, const float* inv_std,
                const float* gamma, const float* beta);
void bn_backward(const float* dy, const float* xhat, float* dx, int n, int c,
                 std::size_t plane, const float* gamma, const float* inv_std,
                 const double* sum_dy, const double* sum_dy_xhat,
                 double count);

}  // namespace ref

}  // namespace adapex::kernels
