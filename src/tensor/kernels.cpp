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
#include "common/thread_pool.hpp"

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
using ActQuantizeFn = void (*)(const float*, float*, std::uint8_t*,
                               std::size_t, float, int);
using ActQuantizeBackwardFn = void (*)(const std::uint8_t*, const float*,
                                       float*, std::size_t);
using ChannelSumsFn = void (*)(const float*, const float*, int, int,
                               std::size_t, int, int, double*, double*);
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

// ------------------------------------------------------------ team splits

// An element-wise pass over at least kSplitElems elements splits across
// the calling thread's work team (common/thread_pool.hpp): on the
// tiny-scale CNV at its training batch, the 30x30 and 28x28 planes (about
// 100 us per pass). Smaller passes, and every pass on a thread without a
// team, run in one piece. A split regroups independent elements, rows or
// channels only, so the results are the unsplit bytes.
constexpr std::size_t kSplitElems = std::size_t{1} << 16;

/// [0, total) cut into `parts` ranges of `step` items (a multiple of
/// `align`), the last one shorter.
struct Split {
  std::size_t parts;
  std::size_t step;
};

Split split_for(std::size_t total, std::size_t elems, std::size_t align) {
  const std::size_t team = elems < kSplitElems ? 1 : team_size();
  if (total == 0 || team <= 1) return {1, total};
  std::size_t step = (total + team - 1) / team;
  step = (step + align - 1) / align * align;
  return {(total + step - 1) / step, step};
}

/// Runs fn(part, begin, end) for every range of `sp` over [0, total).
template <class F>
void for_ranges(const Split& sp, std::size_t total, F fn) {
  team_for(sp.parts, [&](std::size_t r) {
    fn(r, r * sp.step, std::min(total, (r + 1) * sp.step));
  });
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
  // Each range folds from +0 like the whole pass; folding the range maxima
  // the same way gives the largest positive element or +0 again.
  const Split sp = split_for(n, n, kPanelAlign);
  std::vector<float> part(sp.parts);
  for_ranges(sp, n, [&](std::size_t r, std::size_t i0, std::size_t i1) {
    part[r] = dispatcher().active().batch_max(x + i0, i1 - i0);
  });
  float m = 0.0f;
  for (float v : part) m = m < v ? v : m;
  return m;
}

void act_quantize(const float* x, float* y, std::uint8_t* pass, std::size_t n,
                  float s, int bits) {
  ADAPEX_CHECK(bits <= 30, "act_quantize: at most 30 bits");
  for_ranges(split_for(n, n, kPanelAlign), n,
             [&](std::size_t, std::size_t i0, std::size_t i1) {
               dispatcher().active().act_quantize(
                   x + i0, y + i0, pass == nullptr ? nullptr : pass + i0,
                   i1 - i0, s, bits);
             });
}

void act_quantize_backward(const std::uint8_t* pass, const float* dy,
                           float* dx, std::size_t n) {
  for_ranges(split_for(n, n, kPanelAlign), n,
             [&](std::size_t, std::size_t i0, std::size_t i1) {
               dispatcher().active().act_quantize_backward(
                   pass + i0, dy + i0, dx + i0, i1 - i0);
             });
}

void bn_channel_sums(const float* a, const float* b, int n, int c,
                     std::size_t plane, double* sum_a, double* sum_ab) {
  // Channel ranges, each keeping its channels' whole chains; multiples of
  // four channels keep the kernel's channel groups intact.
  const std::size_t channels = static_cast<std::size_t>(std::max(c, 0));
  const std::size_t elems = static_cast<std::size_t>(std::max(n, 0)) *
                            channels * plane;
  for_ranges(split_for(channels, elems, 4), channels,
             [&](std::size_t, std::size_t c0, std::size_t c1) {
               dispatcher().active().channel_sums(
                   a, b, n, c, plane, static_cast<int>(c0),
                   static_cast<int>(c1), sum_a, sum_ab);
             });
}

// BatchNorm's affine and input gradient split by image: a range of whole
// images is a contiguous [images, c, plane] block with the same channels.
void bn_forward(const float* x, float* y, float* xhat, int n, int c,
                std::size_t plane, const float* mean, const float* inv_std,
                const float* gamma, const float* beta) {
  const std::size_t images = static_cast<std::size_t>(std::max(n, 0));
  const std::size_t per_image = static_cast<std::size_t>(c) * plane;
  for_ranges(split_for(images, images * per_image, 1), images,
             [&](std::size_t, std::size_t i0, std::size_t i1) {
               const std::size_t off = i0 * per_image;
               dispatcher().active().bn_forward(
                   x + off, y + off, xhat == nullptr ? nullptr : xhat + off,
                   static_cast<int>(i1 - i0), c, plane, mean, inv_std, gamma,
                   beta);
             });
}

void bn_backward(const float* dy, const float* xhat, float* dx, int n, int c,
                 std::size_t plane, const float* gamma, const float* inv_std,
                 const double* sum_dy, const double* sum_dy_xhat,
                 double count) {
  const std::size_t images = static_cast<std::size_t>(std::max(n, 0));
  const std::size_t per_image = static_cast<std::size_t>(c) * plane;
  for_ranges(split_for(images, images * per_image, 1), images,
             [&](std::size_t, std::size_t i0, std::size_t i1) {
               const std::size_t off = i0 * per_image;
               dispatcher().active().bn_backward(
                   dy + off, xhat + off, dx + off, static_cast<int>(i1 - i0),
                   c, plane, gamma, inv_std, sum_dy, sum_dy_xhat, count);
             });
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

void act_quantize(const float* x, float* y, std::uint8_t* pass, std::size_t n,
                  float s, int bits) {
  if (bits <= 0) {
    for (std::size_t i = 0; i < n; ++i) y[i] = std::max(x[i], 0.0f);
  } else {
    const float levels = static_cast<float>((1 << bits) - 1);
    for (std::size_t i = 0; i < n; ++i) {
      const float clamped = std::clamp(x[i], 0.0f, s);
      y[i] = std::round(clamped / s * levels) / levels * s;
    }
  }
  for (std::size_t i = 0; pass != nullptr && i < n; ++i) {
    pass[i] = x[i] > 0.0f && (bits <= 0 || x[i] < s);
  }
}

void act_quantize_backward(const std::uint8_t* pass, const float* dy,
                           float* dx, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dx[i] = pass[i] != 0 ? dy[i] : 0.0f;
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
