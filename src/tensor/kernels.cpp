// Blocked GEMM kernel layer: ISA-tiered bodies + runtime dispatch.
//
// kernels_core.inl is compiled three times below — SSE2 (the x86-64
// baseline every build targets), AVX2, and AVX-512 — via `#pragma GCC
// target` regions, and the widest tier the host CPU supports is picked once
// at startup. All tiers perform identical float operations in identical
// per-element order (this translation unit is built with -ffp-contract=off,
// see src/CMakeLists.txt), so the dispatch choice never changes results —
// it only changes how many independent output columns one instruction
// covers.

#include "tensor/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/isa.hpp"

namespace adapex::kernels {

namespace {

/// Per-thread packing scratch, grown on demand and reused across calls so
/// the hot path never allocates. thread_local keeps the pool workers'
/// kernels independent.
float* pack_scratch(std::size_t floats) {
  thread_local std::vector<float> buf;
  if (buf.size() < floats) buf.resize(floats);
  return buf.data();
}

/// Per-thread scratch for the transposes of gemm_at_b_accumulate (A^T) and
/// gemm_a_bt_accumulate (B^T).
float* transpose_scratch(std::size_t floats) {
  thread_local std::vector<float> buf;
  if (buf.size() < floats) buf.resize(floats);
  return buf.data();
}

}  // namespace

// ---------------------------------------------------------------- ISA tiers

// The element-wise bodies pass double vectors twice a tier's native width
// between static functions of one tier; -Wpsabi warns that such vectors
// cross calls differently on a wider ISA. Every function that takes or
// returns a vector is defined inside its tier's target region, so caller
// and callee always agree; a library template (std::bit_cast, say)
// instantiated on a vector type would not be, and must not be used here.
#pragma GCC diagnostic ignored "-Wpsabi"

// Tile geometry per tier: kNR spans several native vectors per row so each
// A-element broadcast/zero-test is amortized over more multiply-adds; kMR is
// sized so the accumulator tile plus one packed-B row still fits the tier's
// register file (16 xmm/ymm, 32 zmm).
namespace sse2 {
#define ADAPEX_K_MR 6
#define ADAPEX_K_NR 8
#define ADAPEX_K_VW 4
#include "tensor/kernels_core.inl"
#undef ADAPEX_K_MR
#undef ADAPEX_K_NR
#undef ADAPEX_K_VW
}  // namespace sse2

#if defined(__GNUC__) && defined(__x86_64__)
#define ADAPEX_K_MULTIVERSION 1
#pragma GCC push_options
#pragma GCC target("avx2")
namespace avx2 {
#define ADAPEX_K_MR 6
#define ADAPEX_K_NR 16
#define ADAPEX_K_VW 8
#include "tensor/kernels_core.inl"
#undef ADAPEX_K_MR
#undef ADAPEX_K_NR
#undef ADAPEX_K_VW
}  // namespace avx2
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f,avx512vl,avx512bw,avx512dq")
namespace avx512 {
#define ADAPEX_K_MR 4
#define ADAPEX_K_NR 64
#define ADAPEX_K_VW 16
#include "tensor/kernels_core.inl"
#undef ADAPEX_K_MR
#undef ADAPEX_K_NR
#undef ADAPEX_K_VW
}  // namespace avx512
#pragma GCC pop_options
#endif  // ADAPEX_K_MULTIVERSION

// ----------------------------------------------------------------- dispatch

namespace {

using GemmDirectFn = void (*)(const float*, const float*, float*, int, int,
                              int);
using GemmDotPackedFn = void (*)(const float*, const float*, int, float*, int,
                                 int, int);
using BatchMaxFn = float (*)(const float*, std::size_t);
using ActQuantizeFn = void (*)(const float*, float*, std::size_t, float, int);
using ActQuantizeBackwardFn = void (*)(const float*, const float*, float*,
                                       std::size_t, float, int);
using ChannelSumsFn = void (*)(const float*, const float*, int, int,
                               std::size_t, double*, double*);
using BnForwardFn = void (*)(const float*, float*, float*, int, int,
                             std::size_t, const float*, const float*,
                             const float*, const float*);
using BnBackwardFn = void (*)(const float*, const float*, float*, int, int,
                              std::size_t, const float*, const float*,
                              const double*, const double*, double);

struct KernelTable {
  const char* name;
  isa::Feature feature;
  GemmDirectFn direct;
  GemmDotPackedFn dot_packed;
  BatchMaxFn batch_max;
  ActQuantizeFn act_quantize;
  ActQuantizeBackwardFn act_quantize_backward;
  ChannelSumsFn channel_sums;
  BnForwardFn bn_forward;
  BnBackwardFn bn_backward;
};

// One table row per compiled tier namespace.
#define ADAPEX_K_TIER(tier, feature)                                        \
  {                                                                         \
    #tier, feature, &tier::tier_gemm_direct, &tier::tier_gemm_dot_packed,   \
        &tier::tier_act_batch_max, &tier::tier_act_quantize,                \
        &tier::tier_act_quantize_backward, &tier::tier_bn_channel_sums,     \
        &tier::tier_bn_forward, &tier::tier_bn_backward                     \
  }

// Widest first; see common/isa.hpp.
constexpr KernelTable kTiers[] = {
#ifdef ADAPEX_K_MULTIVERSION
    ADAPEX_K_TIER(avx512, isa::Feature::kAvx512),
    ADAPEX_K_TIER(avx2, isa::Feature::kAvx2),
#endif
    ADAPEX_K_TIER(sse2, isa::Feature::kBaseline),
};
#undef ADAPEX_K_TIER

isa::Dispatcher<KernelTable>& dispatcher() {
  static isa::Dispatcher<KernelTable> d("kernel", kTiers, "ADAPEX_KERNEL_ISA");
  return d;
}

// ---------------------------------------------------------- adaptive dispatch

// The blocked direct kernel only wins when the zero-skip is not carrying
// the load: packing a B panel costs a full K x N sweep no matter how many A
// elements are exactly zero. Quantized (W2A2) and pruned weights make that
// case common — a naive i-k-j loop that skips a whole N-wide B-row sweep per
// zero beats the blocked kernel outright on an 85% pruned layer — so the
// public entry points fall back to the reference kernel, which has the
// identical per-element reduction order (see the kernels.hpp contract;
// results are byte-identical either way). The density crossover was
// measured on the tiny-scale CNV conv shapes; the A scan it needs is M x K
// loads against a 2 x M x K x N flop kernel, i.e. noise.
constexpr float kMinBlockedDensity = 0.3f;

bool blocked_profitable(const float* a, std::size_t len) {
  std::size_t nnz = 0;
  for (std::size_t i = 0; i < len; ++i) nnz += a[i] != 0.0f ? 1u : 0u;
  return static_cast<float>(nnz) >=
         kMinBlockedDensity * static_cast<float>(len);
}

}  // namespace

const char* active_isa() { return dispatcher().active().name; }

void force_isa(const char* name) { dispatcher().force(name); }

// ------------------------------------------------------------ public kernels

void gemm_accumulate(const float* a, const float* b, float* c, int m, int k,
                     int n) {
  if (!blocked_profitable(a, static_cast<std::size_t>(m) * k)) {
    ref::gemm_accumulate(a, b, c, m, k, n);
    return;
  }
  dispatcher().active().direct(a, b, c, m, k, n);
}

void gemm_at_b_accumulate(const float* a, const float* b, float* c, int m,
                          int k, int n) {
  if (!blocked_profitable(a, static_cast<std::size_t>(k) * m)) {
    ref::gemm_at_b_accumulate(a, b, c, m, k, n);
    return;
  }
  // One-time packed transpose of A ([K,M] -> [M,K]); the blocked direct
  // kernel then reduces in the same ascending-k order with the same zero
  // skip as the reference k-i-j loop.
  float* at = transpose_scratch(static_cast<std::size_t>(m) * k);
  for (int kk = 0; kk < k; ++kk) {
    const float* arow = a + static_cast<std::size_t>(kk) * m;
    for (int i = 0; i < m; ++i) {
      at[static_cast<std::size_t>(i) * k + kk] = arow[i];
    }
  }
  dispatcher().active().direct(at, b, c, m, k, n);
}

// The dot form has no zero skip for sparsity to feed, so it needs no
// density gate: B ([N,K]) is transposed once into a zero-padded B^T panel,
// the layout gemm_a_bt_packed_accumulate takes.
void gemm_a_bt_accumulate(const float* a, const float* b, float* c, int m,
                          int k, int n) {
  if (m <= 0 || n <= 0) return;
  const int ldbt = panel_stride(n);
  float* bt = transpose_scratch(static_cast<std::size_t>(k) * ldbt);
  // kPanelAlign columns at a time, so the reads walk that many rows of B.
  for (int j0 = 0; j0 < ldbt; j0 += kPanelAlign) {
    for (int kk = 0; kk < k; ++kk) {
      float* dst = bt + static_cast<std::size_t>(kk) * ldbt + j0;
      for (int j = 0; j < kPanelAlign; ++j) {
        dst[j] = j0 + j < n ? b[static_cast<std::size_t>(j0 + j) * k + kk]
                            : 0.0f;
      }
    }
  }
  dispatcher().active().dot_packed(a, bt, ldbt, c, m, k, n);
}

void gemm_a_bt_packed_accumulate(const float* a, const float* bt, int ldbt,
                                 float* c, int m, int k, int n) {
  ADAPEX_CHECK(ldbt >= panel_stride(n),
               "gemm_a_bt_packed_accumulate: row stride below the padded width");
  dispatcher().active().dot_packed(a, bt, ldbt, c, m, k, n);
}

float act_batch_max(const float* x, std::size_t n) {
  return dispatcher().active().batch_max(x, n);
}

void act_quantize(const float* x, float* y, std::size_t n, float s, int bits) {
  ADAPEX_CHECK(bits <= 30, "act_quantize: at most 30 bits");
  dispatcher().active().act_quantize(x, y, n, s, bits);
}

void act_quantize_backward(const float* x, const float* dy, float* dx,
                           std::size_t n, float s, int bits) {
  dispatcher().active().act_quantize_backward(x, dy, dx, n, s, bits);
}

void bn_channel_sums(const float* a, const float* b, int n, int c,
                     std::size_t plane, double* sum_a, double* sum_ab) {
  dispatcher().active().channel_sums(a, b, n, c, plane, sum_a, sum_ab);
}

void bn_forward(const float* x, float* y, float* xhat, int n, int c,
                std::size_t plane, const float* mean, const float* inv_std,
                const float* gamma, const float* beta) {
  dispatcher().active().bn_forward(x, y, xhat, n, c, plane, mean, inv_std,
                                   gamma, beta);
}

void bn_backward(const float* dy, const float* xhat, float* dx, int n, int c,
                 std::size_t plane, const float* gamma, const float* inv_std,
                 const double* sum_dy, const double* sum_dy_xhat,
                 double count) {
  dispatcher().active().bn_backward(dy, xhat, dx, n, c, plane, gamma, inv_std,
                                    sum_dy, sum_dy_xhat, count);
}

// ------------------------------------------------------- naive references

namespace ref {

void gemm_accumulate(const float* a, const float* b, float* c, int m, int k,
                     int n) {
  // i-k-j loop order: streams through B and C rows; good cache behaviour for
  // the (small-M, large-N) shapes im2col produces.
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    float* crow = c + static_cast<std::size_t>(i) * n;
    for (int kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;  // quantized weights are often exactly zero
      const float* brow = b + static_cast<std::size_t>(kk) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_at_b_accumulate(const float* a, const float* b, float* c, int m,
                          int k, int n) {
  // C[M,N] += A^T B with A stored [K,M].
  for (int kk = 0; kk < k; ++kk) {
    const float* arow = a + static_cast<std::size_t>(kk) * m;
    const float* brow = b + static_cast<std::size_t>(kk) * n;
    for (int i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_a_bt_accumulate(const float* a, const float* b, float* c, int m,
                          int k, int n) {
  // C[M,N] += A B^T with B stored [N,K]: dot products of rows.
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    float* crow = c + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const float* brow = b + static_cast<std::size_t>(j) * k;
      float acc = 0.0f;
      for (int kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      crow[j] += acc;
    }
  }
}

float act_batch_max(const float* x, std::size_t n) {
  float m = 0.0f;
  for (std::size_t i = 0; i < n; ++i) m = std::max(m, x[i]);
  return m;
}

void act_quantize(const float* x, float* y, std::size_t n, float s, int bits) {
  if (bits <= 0) {
    for (std::size_t i = 0; i < n; ++i) y[i] = std::max(x[i], 0.0f);
    return;
  }
  const float levels = static_cast<float>((1 << bits) - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const float clamped = std::clamp(x[i], 0.0f, s);
    y[i] = std::round(clamped / s * levels) / levels * s;
  }
}

void act_quantize_backward(const float* x, const float* dy, float* dx,
                           std::size_t n, float s, int bits) {
  for (std::size_t i = 0; i < n; ++i) {
    const bool inside = x[i] > 0.0f && (bits <= 0 || x[i] < s);
    dx[i] = inside ? dy[i] : 0.0f;
  }
}

void bn_channel_sums(const float* a, const float* b, int n, int c,
                     std::size_t plane, double* sum_a, double* sum_ab) {
  for (int ch = 0; ch < c; ++ch) {
    double sum = 0.0, sq = 0.0;
    for (int img = 0; img < n; ++img) {
      const std::size_t base =
          (static_cast<std::size_t>(img) * c + ch) * plane;
      for (std::size_t i = 0; i < plane; ++i) {
        sum += a[base + i];
        sq += static_cast<double>(a[base + i]) * b[base + i];
      }
    }
    sum_a[ch] = sum;
    sum_ab[ch] = sq;
  }
}

void bn_forward(const float* x, float* y, float* xhat, int n, int c,
                std::size_t plane, const float* mean, const float* inv_std,
                const float* gamma, const float* beta) {
  for (int ch = 0; ch < c; ++ch) {
    for (int img = 0; img < n; ++img) {
      const std::size_t base =
          (static_cast<std::size_t>(img) * c + ch) * plane;
      for (std::size_t i = 0; i < plane; ++i) {
        const float xh = (x[base + i] - mean[ch]) * inv_std[ch];
        if (xhat != nullptr) xhat[base + i] = xh;
        y[base + i] = gamma[ch] * xh + beta[ch];
      }
    }
  }
}

void bn_backward(const float* dy, const float* xhat, float* dx, int n, int c,
                 std::size_t plane, const float* gamma, const float* inv_std,
                 const double* sum_dy, const double* sum_dy_xhat,
                 double count) {
  for (int ch = 0; ch < c; ++ch) {
    for (int img = 0; img < n; ++img) {
      const std::size_t base =
          (static_cast<std::size_t>(img) * c + ch) * plane;
      for (std::size_t i = 0; i < plane; ++i) {
        const double d = dy[base + i];
        const double xh = xhat[base + i];
        dx[base + i] = static_cast<float>(
            gamma[ch] * inv_std[ch] *
            (d - sum_dy[ch] / count - xh * sum_dy_xhat[ch] / count));
      }
    }
  }
}

}  // namespace ref

}  // namespace adapex::kernels
