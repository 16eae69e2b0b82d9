// Differential tests for the blocked kernel layer (tensor/kernels.hpp):
// every blocked kernel must be byte-identical to the retained naive
// reference at awkward shapes, including narrow and partial-sliver N, the
// image-batched conv passes must equal the per-image reference on every
// tiny CNV conv shape, the bias-seeded conv and linear forwards must equal
// their reference compositions, the vectorized activation-quantizer and
// BatchNorm passes must equal their scalar references on adversarial
// floats, all ISA tiers must agree, and the end-to-end train -> eval
// pipeline must be byte-identical at any thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "model/cnv.hpp"
#include "model/serialize.hpp"
#include "nn/eval.hpp"
#include "nn/quant.hpp"
#include "nn/trainer.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"

namespace adapex {
namespace {

// Shapes chosen to exercise every tail path of the blocked kernels: smaller
// than one register tile, exact tile multiples, one-past multiples, primes,
// degenerate single rows/columns, and k larger than the cache block.
struct Shape {
  int m, k, n;
};
const Shape kShapes[] = {
    {1, 1, 1},   {1, 7, 1},    {2, 3, 5},    {3, 5, 7},    {4, 8, 8},
    {4, 16, 32}, {5, 17, 33},  {7, 129, 65}, {8, 256, 64}, {9, 257, 129},
    {1, 300, 9}, {13, 31, 97}, {16, 64, 96}, {33, 10, 31},
};

std::vector<float> random_matrix(std::size_t len, std::uint64_t seed,
                                 bool inject_zeros) {
  Rng rng(seed);
  std::vector<float> out(len);
  for (auto& v : out) {
    // uniform01 in [0,1): shift to be sign-varied.
    v = static_cast<float>(rng.uniform() * 2.0 - 1.0);
    // ~25% exact zeros to exercise the zero-skip path (quantized weights).
    if (inject_zeros && rng.bernoulli(0.25)) v = 0.0f;
  }
  return out;
}

TEST(Kernels, GemmAccumulateMatchesReferenceBitwise) {
  for (const auto& s : kShapes) {
    const auto a = random_matrix(static_cast<std::size_t>(s.m) * s.k, 11, true);
    const auto b = random_matrix(static_cast<std::size_t>(s.k) * s.n, 22, false);
    // Nonzero initial C: accumulate semantics, not overwrite.
    auto c_ref = random_matrix(static_cast<std::size_t>(s.m) * s.n, 33, false);
    auto c_blk = c_ref;
    kernels::ref::gemm_accumulate(a.data(), b.data(), c_ref.data(), s.m, s.k,
                                  s.n);
    kernels::gemm_accumulate(a.data(), b.data(), c_blk.data(), s.m, s.k, s.n);
    ASSERT_EQ(0, std::memcmp(c_ref.data(), c_blk.data(),
                             c_ref.size() * sizeof(float)))
        << "m=" << s.m << " k=" << s.k << " n=" << s.n;
  }
}

TEST(Kernels, GemmAtBMatchesReferenceBitwise) {
  for (const auto& s : kShapes) {
    // A stored [K,M].
    const auto a = random_matrix(static_cast<std::size_t>(s.k) * s.m, 44, true);
    const auto b = random_matrix(static_cast<std::size_t>(s.k) * s.n, 55, false);
    auto c_ref = random_matrix(static_cast<std::size_t>(s.m) * s.n, 66, false);
    auto c_blk = c_ref;
    kernels::ref::gemm_at_b_accumulate(a.data(), b.data(), c_ref.data(), s.m,
                                       s.k, s.n);
    kernels::gemm_at_b_accumulate(a.data(), b.data(), c_blk.data(), s.m, s.k,
                                  s.n);
    ASSERT_EQ(0, std::memcmp(c_ref.data(), c_blk.data(),
                             c_ref.size() * sizeof(float)))
        << "m=" << s.m << " k=" << s.k << " n=" << s.n;
  }
}

TEST(Kernels, GemmABtMatchesReferenceBitwise) {
  for (const auto& s : kShapes) {
    const auto a = random_matrix(static_cast<std::size_t>(s.m) * s.k, 77, false);
    // B stored [N,K].
    const auto b = random_matrix(static_cast<std::size_t>(s.n) * s.k, 88, false);
    // Nonzero initial C is the important case: the dot kernel must keep the
    // reference's "fresh accumulator, then one add into C" order, which is
    // NOT equivalent to seeding the accumulator with C.
    auto c_ref = random_matrix(static_cast<std::size_t>(s.m) * s.n, 99, false);
    auto c_blk = c_ref;
    kernels::ref::gemm_a_bt_accumulate(a.data(), b.data(), c_ref.data(), s.m,
                                       s.k, s.n);
    kernels::gemm_a_bt_accumulate(a.data(), b.data(), c_blk.data(), s.m, s.k,
                                  s.n);
    ASSERT_EQ(0, std::memcmp(c_ref.data(), c_blk.data(),
                             c_ref.size() * sizeof(float)))
        << "m=" << s.m << " k=" << s.k << " n=" << s.n;
  }
}

// ~90% exact zeros in A trips the adaptive density fallback (the reference
// kernel); the output bytes must not care which implementation dispatch
// picked.
TEST(Kernels, SparseFallbackMatchesReferenceBitwise) {
  for (const auto& s : kShapes) {
    Rng zrng(1234);
    auto a = random_matrix(static_cast<std::size_t>(s.m) * s.k, 111, false);
    for (auto& v : a) {
      if (zrng.bernoulli(0.9)) v = 0.0f;
    }
    const auto b = random_matrix(static_cast<std::size_t>(s.k) * s.n, 112, false);
    auto c_ref = random_matrix(static_cast<std::size_t>(s.m) * s.n, 114, false);
    auto c_blk = c_ref;
    kernels::ref::gemm_accumulate(a.data(), b.data(), c_ref.data(), s.m, s.k,
                                  s.n);
    kernels::gemm_accumulate(a.data(), b.data(), c_blk.data(), s.m, s.k, s.n);
    ASSERT_EQ(0, std::memcmp(c_ref.data(), c_blk.data(),
                             c_ref.size() * sizeof(float)))
        << "m=" << s.m << " k=" << s.k << " n=" << s.n;

    // A^T B with sparse A ([K,M]) takes the ref fallback before transposing.
    const auto at = random_matrix(static_cast<std::size_t>(s.k) * s.m, 115, false);
    auto at_sparse = at;
    Rng zrng2(5678);
    for (auto& v : at_sparse) {
      if (zrng2.bernoulli(0.9)) v = 0.0f;
    }
    auto c_tref = random_matrix(static_cast<std::size_t>(s.m) * s.n, 116, false);
    auto c_tblk = c_tref;
    kernels::ref::gemm_at_b_accumulate(at_sparse.data(), b.data(),
                                       c_tref.data(), s.m, s.k, s.n);
    kernels::gemm_at_b_accumulate(at_sparse.data(), b.data(), c_tblk.data(),
                                  s.m, s.k, s.n);
    ASSERT_EQ(0, std::memcmp(c_tref.data(), c_tblk.data(),
                             c_tref.size() * sizeof(float)))
        << "m=" << s.m << " k=" << s.k << " n=" << s.n;
  }
}

// gemm_a_bt_packed_accumulate at the conv weight-gradient shapes: n = kdim
// (conv fan-in, including sub-vector, odd and just-past-a-vector widths) and
// k = patches per image, against the reference on the unpacked B.
TEST(Kernels, GemmABtPackedMatchesReferenceBitwise) {
  for (int n : {1, 27, 31, 33, 108, 432}) {
    for (int k : {1, 9, 900}) {
      for (int m : {1, 7, 12}) {
        // Rows padded past panel_stride(n) too, to exercise a wider stride.
        for (int ldbt : {kernels::panel_stride(n), kernels::panel_stride(n) + 16}) {
          const auto a = random_matrix(static_cast<std::size_t>(m) * k, 401, true);
          const auto b = random_matrix(static_cast<std::size_t>(n) * k, 402, true);
          std::vector<float> bt(static_cast<std::size_t>(k) * ldbt, 0.0f);
          for (int j = 0; j < n; ++j) {
            for (int kk = 0; kk < k; ++kk) {
              bt[static_cast<std::size_t>(kk) * ldbt + j] =
                  b[static_cast<std::size_t>(j) * k + kk];
            }
          }
          auto c_ref = random_matrix(static_cast<std::size_t>(m) * n, 403, false);
          auto c_pk = c_ref;
          kernels::ref::gemm_a_bt_accumulate(a.data(), b.data(), c_ref.data(),
                                             m, k, n);
          kernels::gemm_a_bt_packed_accumulate(a.data(), bt.data(), ldbt,
                                               c_pk.data(), m, k, n);
          ASSERT_EQ(0, std::memcmp(c_ref.data(), c_pk.data(),
                                   c_ref.size() * sizeof(float)))
              << "m=" << m << " k=" << k << " n=" << n << " ldbt=" << ldbt;
        }
      }
    }
  }
}

TEST(Kernels, GemmABtPackedRejectsShortStride) {
  std::vector<float> a(27), bt(32), c(27);
  EXPECT_THROW(kernels::gemm_a_bt_packed_accumulate(a.data(), bt.data(), 27,
                                                    c.data(), 1, 1, 27),
               Error);
}

// ---------------------------------------------------------------- conv golden

// The per-image convolution the image-batched ops::conv2d_* replaced, kept
// as the bitwise reference: per image, im2col then the reference GEMMs —
// forward W * col (bias-seeded, ReLU after), dW += dOut * col^T (dot
// contract), dcol = W^T * dOut scattered by col2im, db += row sums.
struct ConvCase {
  int cin, fout, h, batch;
};

struct ConvResult {
  Tensor out, out_bias, grad_input, grad_weight, grad_bias;
};

struct ConvOperands {
  Tensor x, wt, bias, dy, dw0, db0;
};

ConvOperands make_conv_operands(const ConvCase& cc) {
  const int k = 3, oh = cc.h - k + 1;
  Rng rng(static_cast<std::uint64_t>(cc.cin * 7919 + cc.fout * 31 + cc.h * 3 +
                                     cc.batch));
  auto fill = [&](Tensor& t, double zeros) {
    for (std::size_t i = 0; i < t.numel(); ++i) {
      t[i] = rng.bernoulli(zeros) ? 0.0f
                                  : static_cast<float>(rng.uniform() * 2.0 - 1.0);
    }
  };
  ConvOperands o{Tensor({cc.batch, cc.cin, cc.h, cc.h}),
                 Tensor({cc.fout, cc.cin, k, k}),
                 Tensor({cc.fout}),
                 Tensor({cc.batch, cc.fout, oh, oh}),
                 Tensor({cc.fout, cc.cin, k, k}),
                 Tensor({cc.fout})};
  fill(o.x, 0.2);
  fill(o.wt, 0.45);  // ternary-quantized weights are often exact zeros
  fill(o.bias, 0.0);
  fill(o.dy, 0.1);
  fill(o.dw0, 0.0);  // nonzero: dW and db accumulate
  fill(o.db0, 0.0);
  return o;
}

ConvResult reference_conv(const ConvOperands& o) {
  const int batch = o.x.dim(0), cin = o.x.dim(1), h = o.x.dim(2);
  const int fout = o.wt.dim(0), k = o.wt.dim(2), oh = h - k + 1;
  const int kdim = cin * k * k, patch = oh * oh;
  const std::size_t image = static_cast<std::size_t>(cin) * h * h;
  ConvResult r{Tensor({batch, fout, oh, oh}), Tensor({batch, fout, oh, oh}),
               Tensor(o.x.shape()), o.dw0, o.db0};
  std::vector<float> col(static_cast<std::size_t>(kdim) * patch);
  std::vector<float> dcol(col.size());
  for (int n = 0; n < batch; ++n) {
    ops::im2col(o.x.data() + n * image, cin, h, h, k, col.data(), patch);
    float* out = r.out.data() + static_cast<std::size_t>(n) * fout * patch;
    kernels::ref::gemm_accumulate(o.wt.data(), col.data(), out, fout, kdim,
                                  patch);
    float* biased =
        r.out_bias.data() + static_cast<std::size_t>(n) * fout * patch;
    for (int f = 0; f < fout; ++f) {
      std::fill(biased + f * patch, biased + (f + 1) * patch,
                o.bias[static_cast<std::size_t>(f)]);
    }
    kernels::ref::gemm_accumulate(o.wt.data(), col.data(), biased, fout, kdim,
                                  patch);

    const float* dout =
        o.dy.data() + static_cast<std::size_t>(n) * fout * patch;
    kernels::ref::gemm_a_bt_accumulate(dout, col.data(), r.grad_weight.data(),
                                       fout, patch, kdim);
    std::fill(dcol.begin(), dcol.end(), 0.0f);
    kernels::ref::gemm_at_b_accumulate(o.wt.data(), dout, dcol.data(), kdim,
                                       fout, patch);
    ops::col2im_accumulate(dcol.data(), patch, cin, h, h, k,
                           r.grad_input.data() + n * image);
    for (int f = 0; f < fout; ++f) {
      float acc = 0.0f;
      for (int p = 0; p < patch; ++p) acc += dout[f * patch + p];
      r.grad_bias[static_cast<std::size_t>(f)] += acc;
    }
  }
  return r;
}

ConvResult batched_conv(const ConvOperands& o) {
  std::vector<float> scratch;
  const Tensor no_bias;
  ConvResult r{ops::conv2d_forward(o.x, o.wt, no_bias, scratch),
               ops::conv2d_forward(o.x, o.wt, o.bias, scratch),
               Tensor(), o.dw0, o.db0};
  ops::conv2d_backward(o.x, o.wt, o.dy, r.grad_input, r.grad_weight,
                       r.grad_bias, scratch);
  return r;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

void expect_conv_bitwise(const ConvResult& ref, const ConvResult& got,
                         const ConvCase& cc, const char* isa) {
  const auto where = ::testing::Message()
                     << isa << " " << cc.cin << "->" << cc.fout << " @"
                     << cc.h << " batch " << cc.batch;
  EXPECT_TRUE(bitwise_equal(ref.out, got.out)) << "out " << where;
  EXPECT_TRUE(bitwise_equal(ref.out_bias, got.out_bias))
      << "out+bias " << where;
  EXPECT_TRUE(bitwise_equal(ref.grad_input, got.grad_input)) << "dX " << where;
  EXPECT_TRUE(bitwise_equal(ref.grad_weight, got.grad_weight))
      << "dW " << where;
  EXPECT_TRUE(bitwise_equal(ref.grad_bias, got.grad_bias)) << "db " << where;
}

// The eight conv shapes of the tiny-scale CNV (width 0.1875): six backbone
// convs, 32x32 down to 3x3 -> 1x1, and the two exit-head convs. Batch 1 and
// 16 (the training batch) plus a batch that crosses the 64 Ki-float panel
// cap with a partial last chunk: 37 for the 14x14 to 5x5 inputs (chunks of
// 3, 4 and 33 images; the two widest planes run one image per chunk), 157
// for the 3x3 input (chunks of 151).
std::vector<ConvCase> tiny_cnv_conv_cases() {
  const ConvCase shapes[] = {{3, 12, 32, 0},  {12, 12, 30, 0}, {12, 24, 14, 0},
                             {24, 24, 12, 0}, {24, 48, 5, 0},  {48, 48, 3, 0},
                             {12, 12, 14, 0}, {24, 24, 5, 0}};
  std::vector<ConvCase> cases;
  for (ConvCase cc : shapes) {
    for (int batch : {1, 16, cc.h == 3 ? 157 : 37}) {
      cc.batch = batch;
      cases.push_back(cc);
    }
  }
  return cases;
}

TEST(Kernels, ConvMatchesPerImageReferenceBitwise) {
  for (const ConvCase& cc : tiny_cnv_conv_cases()) {
    const ConvOperands o = make_conv_operands(cc);
    expect_conv_bitwise(reference_conv(o), batched_conv(o), cc,
                        kernels::active_isa());
  }
}


// ------------------------------------------------------------- work teams

// The conv passes on work teams of 1 to 4 threads against the same calls
// without a team, on every tiny CNV conv shape at batch 1, 5, 16 and 17 (5
// and 17 leave uneven chunks): forward with and without bias, backward with
// and without the input gradient and the bias gradient. dW starts with -0
// entries and one image's dOut is all -0, so a partial that is not the
// image's fresh accumulator, or partials added out of image order, change
// the bytes.
TEST(Kernels, ConvPassesByteIdenticalOnWorkTeams) {
  auto run = [](const ConvOperands& o) {
    ConvResult r = batched_conv(o);
    Tensor dw = o.dw0;
    Tensor no_bias_grad;
    std::vector<float> scratch;
    ops::conv2d_backward(o.x, o.wt, o.dy, nullptr, dw, no_bias_grad, scratch);
    return std::make_pair(std::move(r), std::move(dw));
  };
  for (ConvCase cc : tiny_cnv_conv_cases()) {
    if (cc.batch != 1) continue;
    for (int batch : {1, 5, 16, 17}) {
      cc.batch = batch;
      ConvOperands o = make_conv_operands(cc);
      for (std::size_t i = 0; i < o.dw0.numel(); i += 3) o.dw0[i] = -0.0f;
      const std::size_t per_image = o.dy.numel() / batch;
      std::fill_n(o.dy.data() + (batch / 2) * per_image, per_image, -0.0f);
      const auto want = run(o);
      for (std::size_t size : {1, 2, 3, 4}) {
        WorkTeam team(size);
        const WorkTeam::TeamScope scope(&team);
        const auto got = run(o);
        const std::string where = "team of " + std::to_string(size);
        expect_conv_bitwise(want.first, got.first, cc, where.c_str());
        EXPECT_TRUE(bitwise_equal(want.second, got.second))
            << "dW without dX or db, " << where << " " << cc.cin << "->"
            << cc.fout << " @" << cc.h << " batch " << batch;
      }
    }
  }
}

// ----------------------------------------------------- element-wise golden

// The activation-quantizer and BatchNorm passes against their kernels::ref
// forms (the scalar loops they replaced), at the active tier.

constexpr float kInf = std::numeric_limits<float>::infinity();

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Signed zeros, NaN, infinities, denormals and the finite extremes.
std::vector<float> special_floats() {
  const float dmin = std::numeric_limits<float>::denorm_min();
  return {0.0f,   -0.0f, std::numeric_limits<float>::quiet_NaN(),
          kInf,   -kInf, dmin,
          -dmin,  1e-39f, -1e-39f,
          std::numeric_limits<float>::min(), std::numeric_limits<float>::max(),
          -std::numeric_limits<float>::max()};
}

// Activation inputs for scale s at `bits`: the specials; the STE edges 0 and
// s and every half-level point (k + 1/2) * s / L, each with two float steps
// on either side (so the exact half point v = k + 1/2, when the float grid
// has one, is among them); random values over [-s/2, 3s/2]. The length is
// 7 past a multiple of 16, so every tier runs a tail.
std::vector<float> activation_inputs(float s, int bits, std::uint64_t seed) {
  std::vector<float> v = special_floats();
  auto with_neighbours = [&](float x) {
    v.push_back(x);
    float lo = x, hi = x;
    for (int i = 0; i < 2; ++i) {
      lo = std::nextafter(lo, -kInf);
      hi = std::nextafter(hi, kInf);
      v.push_back(lo);
      v.push_back(hi);
    }
  };
  with_neighbours(0.0f);
  with_neighbours(s);
  const int levels = bits > 0 ? (1 << bits) - 1 : 3;
  for (int k = 0; k < levels; ++k) {
    with_neighbours((static_cast<float>(k) + 0.5f) * s /
                    static_cast<float>(levels));
  }
  Rng rng(seed);
  while (v.size() < 200 || v.size() % 16 != 7) {
    v.push_back(static_cast<float>((rng.uniform() * 2.0 - 0.5) * s));
  }
  return v;
}

// Random gradients with the specials spread through them.
std::vector<float> gradient_inputs(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> g(n);
  for (auto& v : g) v = static_cast<float>(rng.normal(0.0, 1.0));
  const std::vector<float> sp = special_floats();
  for (std::size_t i = 0; i < n; i += 5) g[i] = sp[(i / 5) % sp.size()];
  return g;
}

// Prefix lengths that split the same inputs differently over whole vectors
// and the tail.
std::vector<std::size_t> prefix_lengths(std::size_t n) {
  return {0, 1, 7, 15, 16, 17, 31, 33, 47, n};
}

void expect_act_quantizer_matches_reference(const char* isa) {
  const auto where = ::testing::Message() << isa;
  int exact_halves = 0;
  for (float s : {1.0f, 2.0f, 0.37f, 6.0f, 1e-12f, 3e38f, kInf}) {
    for (int bits : {-1, 0, 1, 2, 3, 4, 8}) {
      const std::vector<float> x = activation_inputs(s, bits, 90 + bits);
      const std::vector<float> dy = gradient_inputs(x.size(), 91 + bits);
      if (bits > 0) {
        const float levels = static_cast<float>((1 << bits) - 1);
        for (float xi : x) {
          const float v = std::clamp(xi, 0.0f, s) / s * levels;
          exact_halves += v - std::trunc(v) == 0.5f;
        }
      }
      for (std::size_t n : prefix_lengths(x.size())) {
        // Also from an odd offset, so the vectors straddle other elements.
        for (std::size_t off : {std::size_t{0}, std::size_t{1}}) {
          if (off + n > x.size()) continue;
          const float* xp = x.data() + off;
          std::vector<float> got(n), want(n);
          std::vector<std::uint8_t> got_pass(n), want_pass(n);
          kernels::act_quantize(xp, got.data(), got_pass.data(), n, s, bits);
          kernels::ref::act_quantize(xp, want.data(), want_pass.data(), n, s,
                                     bits);
          EXPECT_TRUE(same_bits(got, want))
              << "act_quantize s=" << s << " bits=" << bits << " n=" << n
              << " off=" << off << " " << where;
          EXPECT_EQ(got_pass, want_pass)
              << "act_quantize pass mask s=" << s << " bits=" << bits
              << " n=" << n << " off=" << off << " " << where;
          kernels::act_quantize(xp, got.data(), nullptr, n, s, bits);
          EXPECT_TRUE(same_bits(got, want))
              << "act_quantize without a mask s=" << s << " bits=" << bits
              << " n=" << n << " off=" << off << " " << where;
          kernels::act_quantize_backward(got_pass.data(), dy.data() + off,
                                         got.data(), n);
          kernels::ref::act_quantize_backward(want_pass.data(),
                                              dy.data() + off, want.data(), n);
          EXPECT_TRUE(same_bits(got, want))
              << "act_quantize_backward s=" << s << " bits=" << bits
              << " n=" << n << " off=" << off << " " << where;
        }
      }
    }
  }
  EXPECT_GT(exact_halves, 0) << "no input hit an exact half level";

  // Batch max: with +inf present, without it, all non-positive (NaN and -0
  // included: the result is +0), and the maximum in every lane and the tail.
  std::vector<std::vector<float>> max_cases;
  max_cases.push_back(activation_inputs(1.0f, 2, 95));
  max_cases.push_back(max_cases.back());
  std::erase(max_cases.back(), kInf);
  max_cases.push_back({-0.0f, -1.0f, std::numeric_limits<float>::quiet_NaN(),
                       -kInf, -1e-39f});
  for (std::size_t at = 0; at < 40; ++at) {
    std::vector<float> v = gradient_inputs(40, 96 + at);
    std::replace(v.begin(), v.end(), kInf, 1.0f);
    v[at] = 1e30f;
    max_cases.push_back(v);
  }
  max_cases.push_back({});
  for (const std::vector<float>& v : max_cases) {
    EXPECT_TRUE(same_bits(kernels::act_batch_max(v.data(), v.size()),
                          kernels::ref::act_batch_max(v.data(), v.size())))
        << "act_batch_max n=" << v.size() << " " << where;
  }

  // The quantizer in train mode (scale EMA from the batch max, including a
  // non-positive batch that leaves the scale alone) and in eval mode, against
  // the same steps composed from the references.
  for (int bits : {-1, 2, 4}) {
    ActQuantizer q(bits);
    float ref_scale = 1.0f;
    bool ref_init = false;
    Rng rng(97);
    for (int step = 0; step < 6; ++step) {
      const bool train = step != 2 && step != 5;
      Tensor x({4, 3, 5, 5});
      for (std::size_t i = 0; i < x.numel(); ++i) {
        x[i] = static_cast<float>(rng.normal(0.0, 1.0 + step));
        if (step == 3) x[i] = -std::abs(x[i]);  // batch max 0: no update
      }
      x[7] = -0.0f;
      if (train || !ref_init) {
        const float m = kernels::ref::act_batch_max(x.data(), x.numel());
        if (m > 1e-12f) {
          constexpr float kMomentum = 0.1f;
          ref_scale = ref_init ? (1.0f - kMomentum) * ref_scale + kMomentum * m
                               : m;
          ref_init = true;
        }
      }
      const Tensor y = q.forward(x, train);
      std::vector<float> want(x.numel());
      kernels::ref::act_quantize(x.data(), want.data(), nullptr, x.numel(),
                                 std::max(ref_scale, 1e-12f), bits);
      EXPECT_TRUE(same_bits(q.scale(), ref_scale))
          << "scale bits=" << bits << " step=" << step << " " << where;
      EXPECT_TRUE(same_bits(std::vector<float>(y.data(), y.data() + y.numel()),
                            want))
          << "forward bits=" << bits << " step=" << step << " " << where;
    }
  }
}

// BatchNorm operands: [n, c, plane] with random values; channel 0 carries a
// NaN, channel 1 an infinity, channel 2 both infinities, and every channel
// signed zeros and denormals. NaN and infinities stay in separate channels
// so no sum meets two NaNs with different payloads.
std::vector<float> bn_input(int n, int c, std::size_t plane,
                            std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n) * c * plane);
  for (auto& f : v) f = static_cast<float>(rng.normal(0.3, 1.5));
  auto at = [&](int img, int ch, std::size_t i) -> float& {
    return v[(static_cast<std::size_t>(img) * c + ch) * plane + i];
  };
  const float dmin = std::numeric_limits<float>::denorm_min();
  for (int ch = 0; ch < c; ++ch) {
    at(n - 1, ch, plane - 1) = -0.0f;
    at(0, ch, 0) = ch % 2 ? dmin : -1e-39f;
  }
  if (c > 2 && plane > 1) {
    at(0, 0, 1) = std::numeric_limits<float>::quiet_NaN();
    at(n - 1, 1, 0) = kInf;
    at(0, 2, 1) = kInf;
    at(n - 1, 2, 0) = -kInf;
  }
  return v;
}

std::vector<float> per_channel(int c, double mean, double stddev,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(c));
  for (auto& f : v) f = static_cast<float>(rng.normal(mean, stddev));
  return v;
}

void expect_batchnorm_matches_reference(const char* isa) {
  struct BnShape {
    int n, c;
    std::size_t plane;
  };
  // Tiny-CNV planes (30x30 down to 1x1, and the [N, C] linear case), channel
  // counts that leave every channel-group remainder, odd planes.
  const BnShape shapes[] = {{1, 1, 1},   {3, 5, 1},   {16, 96, 1}, {2, 13, 9},
                            {4, 12, 900}, {2, 9, 17}, {16, 24, 25}, {5, 3, 33},
                            {16, 48, 9}, {3, 7, 100}};
  for (const BnShape& sh : shapes) {
    const auto where = ::testing::Message()
                       << isa << " n=" << sh.n << " c=" << sh.c
                       << " plane=" << sh.plane;
    const std::size_t len = static_cast<std::size_t>(sh.n) * sh.c * sh.plane;
    const std::vector<float> x = bn_input(sh.n, sh.c, sh.plane, 100 + len);
    const std::vector<float> dy = bn_input(sh.n, sh.c, sh.plane, 200 + len);
    const auto cs = static_cast<std::size_t>(sh.c);

    // Channel sums, the forward form (b == a) and the backward one.
    for (const float* b : {x.data(), dy.data()}) {
      std::vector<double> sa(cs), sab(cs), ra(cs), rab(cs);
      kernels::bn_channel_sums(x.data(), b, sh.n, sh.c, sh.plane, sa.data(),
                               sab.data());
      kernels::ref::bn_channel_sums(x.data(), b, sh.n, sh.c, sh.plane,
                                    ra.data(), rab.data());
      EXPECT_EQ(0, std::memcmp(sa.data(), ra.data(), cs * sizeof(double)))
          << "bn_channel_sums sum " << where;
      EXPECT_EQ(0, std::memcmp(sab.data(), rab.data(), cs * sizeof(double)))
          << "bn_channel_sums products " << where;
    }

    const std::vector<float> mean = per_channel(sh.c, 0.2, 1.0, 1);
    const std::vector<float> inv_std = per_channel(sh.c, 1.5, 0.5, 2);
    const std::vector<float> gamma = per_channel(sh.c, 1.0, 0.3, 3);
    const std::vector<float> beta = per_channel(sh.c, 0.0, 0.3, 4);
    std::vector<float> y(len), xhat(len), ry(len), rxhat(len);
    kernels::bn_forward(x.data(), y.data(), xhat.data(), sh.n, sh.c, sh.plane,
                        mean.data(), inv_std.data(), gamma.data(), beta.data());
    kernels::ref::bn_forward(x.data(), ry.data(), rxhat.data(), sh.n, sh.c,
                             sh.plane, mean.data(), inv_std.data(),
                             gamma.data(), beta.data());
    EXPECT_TRUE(same_bits(y, ry)) << "bn_forward y " << where;
    EXPECT_TRUE(same_bits(xhat, rxhat)) << "bn_forward xhat " << where;
    std::vector<float> y_eval(len);
    kernels::bn_forward(x.data(), y_eval.data(), nullptr, sh.n, sh.c, sh.plane,
                        mean.data(), inv_std.data(), gamma.data(), beta.data());
    EXPECT_TRUE(same_bits(y_eval, ry)) << "bn_forward without xhat " << where;

    std::vector<double> sum_dy(cs), sum_dy_xhat(cs);
    Rng rng(300 + len);
    for (std::size_t ch = 0; ch < cs; ++ch) {
      sum_dy[ch] = rng.normal(0.0, 10.0);
      sum_dy_xhat[ch] = rng.normal(0.0, 10.0);
    }
    const double count = static_cast<double>(sh.n) * sh.plane;
    std::vector<float> dx(len), rdx(len);
    kernels::bn_backward(dy.data(), x.data(), dx.data(), sh.n, sh.c, sh.plane,
                         gamma.data(), inv_std.data(), sum_dy.data(),
                         sum_dy_xhat.data(), count);
    kernels::ref::bn_backward(dy.data(), x.data(), rdx.data(), sh.n, sh.c,
                              sh.plane, gamma.data(), inv_std.data(),
                              sum_dy.data(), sum_dy_xhat.data(), count);
    EXPECT_TRUE(same_bits(dx, rdx)) << "bn_backward " << where;
  }

  // (xhat * sum_dy_xhat) / count is one double division per element: on
  // these operands xhat * (sum_dy_xhat / count) and a hoisted reciprocal
  // round to a different float (dy = mean dy = 0, gamma * inv_std = 1).
  struct DivCase {
    float xhat;
    double sdx, count;
  };
  for (const DivCase& dc : {DivCase{11.0f, 0x1.1745d28ba2e8cp-2, 3.0},
                            DivCase{1.0f, 0x1.18d2858c00000p+6, 49.0}}) {
    const double xh = dc.xhat;
    const float want = static_cast<float>(-(xh * dc.sdx / dc.count));
    ASSERT_TRUE(want != static_cast<float>(-(xh * (dc.sdx / dc.count))) ||
                want != static_cast<float>(-(xh * dc.sdx * (1.0 / dc.count))));
    const std::size_t plane = 21;  // whole vectors and a tail
    const std::vector<float> zeros(plane, 0.0f), xhat(plane, dc.xhat);
    const float one = 1.0f;
    const double zero_sum = 0.0;
    std::vector<float> dx(plane);
    kernels::bn_backward(zeros.data(), xhat.data(), dx.data(), 1, 1, plane,
                         &one, &one, &zero_sum, &dc.sdx, dc.count);
    EXPECT_TRUE(same_bits(dx, std::vector<float>(plane, want)))
        << "bn_backward division order " << isa;
  }
}

// The split element-wise passes on work teams of 1 to 4 threads against
// the same calls without a team: tiny-CNV planes above the 64K-element split
// threshold (30x30 and 28x28 at batch 16 and 17, and 13 channels, which
// leaves an uneven channel range) and one below it.
TEST(Kernels, ElementwisePassesByteIdenticalOnWorkTeams) {
  struct Outputs {
    float max = 0.0f;
    std::vector<float> q, relu, dq, y, xhat, y_eval, dx;
    std::vector<std::uint8_t> pass, relu_pass;
    std::vector<double> sum, sq, sum_dy, sum_dy_xhat;
  };
  struct BnShape {
    int n, c;
    std::size_t plane;
  };
  for (const BnShape& sh : {BnShape{16, 12, 900}, BnShape{17, 12, 784},
                            BnShape{16, 13, 400}, BnShape{16, 24, 144}}) {
    const std::size_t len = static_cast<std::size_t>(sh.n) * sh.c * sh.plane;
    const auto cs = static_cast<std::size_t>(sh.c);
    const std::vector<float> x = bn_input(sh.n, sh.c, sh.plane, 400 + len);
    const std::vector<float> dy = bn_input(sh.n, sh.c, sh.plane, 500 + len);
    const std::vector<float> mean = per_channel(sh.c, 0.2, 1.0, 5);
    const std::vector<float> inv_std = per_channel(sh.c, 1.5, 0.5, 6);
    const std::vector<float> gamma = per_channel(sh.c, 1.0, 0.3, 7);
    const std::vector<float> beta = per_channel(sh.c, 0.0, 0.3, 8);
    auto run = [&] {
      Outputs o{};
      o.max = kernels::act_batch_max(x.data(), len);
      o.q.resize(len);
      o.relu.resize(len);
      o.dq.resize(len);
      o.pass.resize(len);
      o.relu_pass.resize(len);
      kernels::act_quantize(x.data(), o.q.data(), o.pass.data(), len,
                            0.6f * o.max, 2);
      kernels::act_quantize(x.data(), o.relu.data(), o.relu_pass.data(), len,
                            0.6f * o.max, 0);
      kernels::act_quantize_backward(o.pass.data(), dy.data(), o.dq.data(),
                                     len);
      o.sum.resize(cs);
      o.sq.resize(cs);
      o.sum_dy.resize(cs);
      o.sum_dy_xhat.resize(cs);
      kernels::bn_channel_sums(x.data(), x.data(), sh.n, sh.c, sh.plane,
                               o.sum.data(), o.sq.data());
      o.y.resize(len);
      o.xhat.resize(len);
      o.y_eval.resize(len);
      o.dx.resize(len);
      kernels::bn_forward(x.data(), o.y.data(), o.xhat.data(), sh.n, sh.c,
                          sh.plane, mean.data(), inv_std.data(), gamma.data(),
                          beta.data());
      kernels::bn_forward(x.data(), o.y_eval.data(), nullptr, sh.n, sh.c,
                          sh.plane, mean.data(), inv_std.data(), gamma.data(),
                          beta.data());
      kernels::bn_channel_sums(dy.data(), o.xhat.data(), sh.n, sh.c, sh.plane,
                               o.sum_dy.data(), o.sum_dy_xhat.data());
      kernels::bn_backward(dy.data(), o.xhat.data(), o.dx.data(), sh.n, sh.c,
                           sh.plane, gamma.data(), inv_std.data(),
                           o.sum_dy.data(), o.sum_dy_xhat.data(),
                           static_cast<double>(sh.n) * sh.plane);
      return o;
    };
    auto same_doubles = [](const std::vector<double>& a,
                           const std::vector<double>& b) {
      return a.size() == b.size() &&
             std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
    };
    const Outputs want = run();
    for (std::size_t size : {1, 2, 3, 4}) {
      WorkTeam team(size);
      const WorkTeam::TeamScope scope(&team);
      const Outputs got = run();
      const auto where = ::testing::Message()
                         << "team of " << size << " n=" << sh.n
                         << " c=" << sh.c << " plane=" << sh.plane;
      EXPECT_TRUE(same_bits(got.max, want.max)) << "act_batch_max " << where;
      EXPECT_TRUE(same_bits(got.q, want.q)) << "act_quantize " << where;
      EXPECT_TRUE(same_bits(got.relu, want.relu)) << "relu " << where;
      EXPECT_EQ(got.pass, want.pass) << "pass mask " << where;
      EXPECT_EQ(got.relu_pass, want.relu_pass) << "relu mask " << where;
      EXPECT_TRUE(same_bits(got.dq, want.dq)) << "ste " << where;
      EXPECT_TRUE(same_doubles(got.sum, want.sum)) << "sum " << where;
      EXPECT_TRUE(same_doubles(got.sq, want.sq)) << "squares " << where;
      EXPECT_TRUE(same_bits(got.y, want.y)) << "bn_forward " << where;
      EXPECT_TRUE(same_bits(got.xhat, want.xhat)) << "xhat " << where;
      EXPECT_TRUE(same_bits(got.y_eval, want.y_eval)) << "eval " << where;
      EXPECT_TRUE(same_doubles(got.sum_dy, want.sum_dy)) << "sum dy " << where;
      EXPECT_TRUE(same_doubles(got.sum_dy_xhat, want.sum_dy_xhat))
          << "sum dy*xhat " << where;
      EXPECT_TRUE(same_bits(got.dx, want.dx)) << "bn_backward " << where;
    }
  }
}

// ------------------------------------------------- narrow N and linear bias

// Every GEMM against its reference at N narrower than one sliver, just
// past whole slivers and vectors, and past one kNC column panel, with k = 0
// and k past one kKC depth block. C holds -0 seeds over an all-zero A row
// and B holds infinities, so a dropped zero skip (-0 + +0 = +0, 0 * inf =
// NaN) shows in the bytes. C is sized exactly, so under ASan a load or
// store past its last column faults.
void expect_narrow_gemms_match_reference(const char* isa) {
  for (int n : {1, 3, 10, 15, 17, 48, 63, 65, 96, 144, 515}) {
    for (int k : {0, 1, 7, 300}) {
      for (int m : {1, 5, 13}) {
        const auto where = ::testing::Message()
                           << isa << " m=" << m << " k=" << k << " n=" << n;
        const auto len = [](int rows, int cols) {
          return static_cast<std::size_t>(rows) * cols;
        };
        auto a = random_matrix(len(m, k), 501 + n, true);
        // Row 0 all zeros; with m = 1 that would leave A below the density
        // gate, so the single-row case keeps its random row.
        if (m > 1) std::fill(a.begin(), a.begin() + k, 0.0f);
        auto b = random_matrix(len(k, n), 502 + n, false);
        for (std::size_t i = 3; i < b.size(); i += 11) b[i] = kInf;
        auto c0 = random_matrix(len(m, n), 503 + n, false);
        for (std::size_t i = 0; i < c0.size(); i += 3) c0[i] = -0.0f;

        auto c_ref = c0, c_got = c0;
        kernels::ref::gemm_accumulate(a.data(), b.data(), c_ref.data(), m, k,
                                      n);
        kernels::gemm_accumulate(a.data(), b.data(), c_got.data(), m, k, n);
        EXPECT_TRUE(same_bits(c_ref, c_got)) << "gemm_accumulate " << where;

        // A stored [K,M]: the transpose of the same matrix, row 0 -> column 0.
        std::vector<float> at(len(k, m));
        for (int i = 0; i < m; ++i) {
          for (int kk = 0; kk < k; ++kk) {
            at[len(kk, m) + i] = a[len(i, k) + kk];
          }
        }
        c_ref = c0;
        c_got = c0;
        kernels::ref::gemm_at_b_accumulate(at.data(), b.data(), c_ref.data(),
                                           m, k, n);
        kernels::gemm_at_b_accumulate(at.data(), b.data(), c_got.data(), m, k,
                                      n);
        EXPECT_TRUE(same_bits(c_ref, c_got))
            << "gemm_at_b_accumulate " << where;

        // B stored [N,K], finite: the dot form has no zero skip to check.
        const auto bt = random_matrix(len(n, k), 504 + n, true);
        c_ref = c0;
        c_got = c0;
        kernels::ref::gemm_a_bt_accumulate(a.data(), bt.data(), c_ref.data(),
                                           m, k, n);
        kernels::gemm_a_bt_accumulate(a.data(), bt.data(), c_got.data(), m, k,
                                      n);
        EXPECT_TRUE(same_bits(c_ref, c_got))
            << "gemm_a_bt_accumulate " << where;
      }
    }
  }
}

// ops::linear_forward against its composition: each row seeded with the
// bias (or zeros), then the reference dot GEMM. The tiny CNV's 96 -> 96 FC
// and 96 -> 10 classifier at its training and eval batches, and odd shapes.
void expect_linear_matches_reference(const char* isa) {
  struct LinearShape {
    int batch, in, out;
  };
  const LinearShape shapes[] = {{16, 96, 96}, {32, 96, 96}, {16, 96, 10},
                                {32, 96, 10}, {4, 30, 9},   {3, 7, 1}};
  for (const LinearShape& sh : shapes) {
    Rng rng(static_cast<std::uint64_t>(sh.batch * 1000 + sh.in + sh.out));
    Tensor x({sh.batch, sh.in});
    x.randn_(rng, 1.0f);
    Tensor w({sh.out, sh.in});
    w.randn_(rng, 0.5f);
    Tensor bias({sh.out});
    bias.randn_(rng, 0.5f);
    for (const Tensor& b : {bias, Tensor()}) {
      Tensor want({sh.batch, sh.out});
      for (int n = 0; n < sh.batch && !b.empty(); ++n) {
        for (int j = 0; j < sh.out; ++j) {
          want.at2(n, j) = b[static_cast<std::size_t>(j)];
        }
      }
      kernels::ref::gemm_a_bt_accumulate(x.data(), w.data(), want.data(),
                                         sh.batch, sh.in, sh.out);
      EXPECT_TRUE(bitwise_equal(want, ops::linear_forward(x, w, b)))
          << isa << " " << sh.batch << "x" << sh.in << "->" << sh.out
          << (b.empty() ? " no bias" : " bias");
    }
  }
}

TEST(Kernels, ActQuantizerStePassesNothingAtTheClampEdges) {
  const float s = 0.75f;
  const std::vector<float> x = {0.0f, -0.0f, s, std::nextafter(s, 0.0f),
                                std::nextafter(0.0f, 1.0f), 2.0f * s,
                                std::numeric_limits<float>::quiet_NaN()};
  const std::vector<float> dy(x.size(), 1.0f);
  std::vector<float> y(x.size()), dx(x.size());
  std::vector<std::uint8_t> pass(x.size());
  kernels::act_quantize(x.data(), y.data(), pass.data(), x.size(), s, 2);
  EXPECT_EQ(pass, (std::vector<std::uint8_t>{0, 0, 0, 1, 1, 0, 0}));
  kernels::act_quantize_backward(pass.data(), dy.data(), dx.data(), x.size());
  EXPECT_TRUE(same_bits(dx, {0.0f, 0.0f, 0.0f, 1.0f, 1.0f, 0.0f, 0.0f}));
  // ReLU (bits <= 0) has no upper clamp.
  kernels::act_quantize(x.data(), y.data(), pass.data(), x.size(), s, 0);
  kernels::act_quantize_backward(pass.data(), dy.data(), dx.data(), x.size());
  EXPECT_TRUE(same_bits(dx, {0.0f, 0.0f, 1.0f, 1.0f, 1.0f, 1.0f, 0.0f}));
}

TEST(Kernels, ActQuantizeRejectsMoreThan30Bits) {
  const float x = 1.0f;
  float y = 0.0f;
  EXPECT_THROW(kernels::act_quantize(&x, &y, nullptr, 1, 1.0f, 31), Error);
}

TEST(Kernels, AllSupportedIsaTiersAgreeBitwise) {
  const std::string initial = kernels::active_isa();
  const Shape s{9, 257, 129};
  const auto a = random_matrix(static_cast<std::size_t>(s.m) * s.k, 301, true);
  const auto b = random_matrix(static_cast<std::size_t>(s.k) * s.n, 302, false);
  const auto bt = random_matrix(static_cast<std::size_t>(s.n) * s.k, 303, false);
  const auto c0 = random_matrix(static_cast<std::size_t>(s.m) * s.n, 304, false);

  // The same operand packed for the packed dot kernel (s.n columns).
  const int ldbt = kernels::panel_stride(s.n);
  std::vector<float> btp(static_cast<std::size_t>(s.k) * ldbt, 0.0f);
  for (int j = 0; j < s.n; ++j) {
    for (int kk = 0; kk < s.k; ++kk) {
      btp[static_cast<std::size_t>(kk) * ldbt + j] =
          bt[static_cast<std::size_t>(j) * s.k + kk];
    }
  }
  // Every tier's conv passes must also equal the per-image reference.
  std::vector<ConvCase> conv_cases = tiny_cnv_conv_cases();
  std::vector<ConvOperands> conv_operands;
  std::vector<ConvResult> conv_refs;
  for (const ConvCase& cc : conv_cases) {
    conv_operands.push_back(make_conv_operands(cc));
    conv_refs.push_back(reference_conv(conv_operands.back()));
  }

  std::vector<std::vector<float>> direct_results;
  std::vector<std::vector<float>> dot_results;
  std::vector<std::vector<float>> packed_results;
  for (const char* isa : {"sse2", "avx2", "avx512"}) {
    try {
      kernels::force_isa(isa);
    } catch (const ConfigError&) {
      continue;  // host lacks this tier
    }
    auto c_direct = c0;
    kernels::gemm_accumulate(a.data(), b.data(), c_direct.data(), s.m, s.k,
                             s.n);
    direct_results.push_back(std::move(c_direct));
    auto c_dot = c0;
    kernels::gemm_a_bt_accumulate(a.data(), bt.data(), c_dot.data(), s.m, s.k,
                                  s.n);
    dot_results.push_back(std::move(c_dot));
    auto c_packed = c0;
    kernels::gemm_a_bt_packed_accumulate(a.data(), btp.data(), ldbt,
                                         c_packed.data(), s.m, s.k, s.n);
    packed_results.push_back(std::move(c_packed));
    for (std::size_t i = 0; i < conv_cases.size(); ++i) {
      expect_conv_bitwise(conv_refs[i], batched_conv(conv_operands[i]),
                          conv_cases[i], isa);
    }
    expect_narrow_gemms_match_reference(isa);
    expect_linear_matches_reference(isa);
    // The element-wise passes equal their scalar references at every tier.
    expect_act_quantizer_matches_reference(isa);
    expect_batchnorm_matches_reference(isa);
  }
  kernels::force_isa(initial.c_str());

  ASSERT_GE(direct_results.size(), 1u);  // sse2 is always supported
  for (std::size_t i = 1; i < direct_results.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(direct_results[0].data(),
                             direct_results[i].data(),
                             direct_results[0].size() * sizeof(float)));
    EXPECT_EQ(0,
              std::memcmp(dot_results[0].data(), dot_results[i].data(),
                          dot_results[0].size() * sizeof(float)));
    EXPECT_EQ(0,
              std::memcmp(packed_results[0].data(), packed_results[i].data(),
                          packed_results[0].size() * sizeof(float)));
  }
  // The packed kernel is the dot kernel on pre-transposed B.
  EXPECT_EQ(0, std::memcmp(dot_results[0].data(), packed_results[0].data(),
                           dot_results[0].size() * sizeof(float)));
}

TEST(Kernels, ForceIsaRejectsUnknownName) {
  EXPECT_THROW(kernels::force_isa("avx9000"), ConfigError);
  EXPECT_THROW(kernels::force_isa(nullptr), Error);
}

TEST(Kernels, MaxpoolMatchesNaiveReferenceWithArgmax) {
  Rng rng(7);
  for (const auto [h, w, kernel, stride] :
       {std::array<int, 4>{8, 8, 2, 2}, std::array<int, 4>{9, 7, 2, 2},
        std::array<int, 4>{8, 8, 3, 1}, std::array<int, 4>{11, 5, 3, 2}}) {
    Tensor x({2, 3, h, w});
    for (std::size_t i = 0; i < x.numel(); ++i) {
      x[i] = static_cast<float>(rng.uniform() * 2.0 - 1.0);
      if (rng.bernoulli(0.2)) x[i] = 0.5f;  // ties exercise argmax order
    }
    std::vector<int> argmax;
    Tensor out = ops::maxpool_forward(x, kernel, stride, argmax);

    // Naive reference: the original unhoisted scan.
    const int oh = ops::out_dim(h, kernel, stride);
    const int ow = ops::out_dim(w, kernel, stride);
    std::size_t oi = 0;
    for (int n = 0; n < 2; ++n) {
      for (int c = 0; c < 3; ++c) {
        const float* plane =
            x.data() + (static_cast<std::size_t>(n) * 3 + c) * h * w;
        for (int y = 0; y < oh; ++y) {
          for (int xx = 0; xx < ow; ++xx) {
            float best = -std::numeric_limits<float>::infinity();
            int best_idx = 0;
            for (int ky = 0; ky < kernel; ++ky) {
              for (int kx = 0; kx < kernel; ++kx) {
                const int idx = (y * stride + ky) * w + (xx * stride + kx);
                if (plane[idx] > best) {
                  best = plane[idx];
                  best_idx = idx;
                }
              }
            }
            ASSERT_EQ(best, out[oi]) << "k=" << kernel << " s=" << stride;
            ASSERT_EQ(best_idx, argmax[oi]) << "k=" << kernel
                                            << " s=" << stride;
            ++oi;
          }
        }
      }
    }
  }
}

TEST(Kernels, AugmentImageIntoMatchesAugmentImage) {
  Rng fill(5);
  Tensor img({3, 16, 16});
  for (std::size_t i = 0; i < img.numel(); ++i) {
    img[i] = static_cast<float>(fill.uniform());
  }
  for (bool flip : {false, true}) {
    // Same seed on both sides: the draws (dx, dy, flip) must line up.
    Rng rng_a(99), rng_b(99);
    for (int round = 0; round < 8; ++round) {
      Tensor via_tensor = augment_image(img, flip, rng_a);
      std::vector<float> via_span(img.numel());
      augment_image_into(img.data(), via_span.data(), 3, 16, 16, flip, rng_b);
      ASSERT_EQ(0, std::memcmp(via_tensor.data(), via_span.data(),
                               via_span.size() * sizeof(float)));
    }
  }
}

TEST(Kernels, LinearForwardMatchesReferenceBitwise) {
  expect_linear_matches_reference(kernels::active_isa());
}

// Training on work teams of 1 to 4 threads gives the same parameter bytes
// as training without one (the 4-argument call). Batches of 16 with a last
// batch of 12, so a team of 3 splits unevenly.
TEST(Kernels, TrainModelByteIdenticalOnWorkTeams) {
  SyntheticSpec spec = cifar10_like_spec();
  spec.train_size = 60;
  spec.test_size = 10;
  const SyntheticDataset data = make_synthetic(spec);
  CnvConfig cfg = CnvConfig{}.scaled(0.1875);
  cfg.num_classes = spec.num_classes;
  TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 16;
  auto trained = [&](std::size_t team) {
    Rng rng(43);
    BranchyModel model =
        build_cnv_with_exits(cfg, paper_exits_config(false), rng);
    if (team == 0) {
      train_model(model, data.train, spec.flip_symmetry, tc);
    } else {
      train_model(model, data.train, spec.flip_symmetry, tc, team);
    }
    // Weights, BatchNorm statistics and activation scales.
    return serialize_model(model);
  };
  const std::string serial = trained(0);
  ASSERT_FALSE(serial.empty());
  for (std::size_t team : {1, 2, 3, 4}) {
    EXPECT_TRUE(trained(team) == serial) << "team of " << team;
  }
}

// End-to-end keystone: a seeded train -> eval pipeline must produce
// byte-identical evaluation records whether the eval runs serially or across
// worker threads (the batch grid and per-batch math are thread-invariant).
TEST(Kernels, TrainEvalByteIdenticalAcrossThreadCounts) {
  SyntheticSpec spec = cifar10_like_spec();
  spec.train_size = 60;
  spec.test_size = 50;
  SyntheticDataset data = make_synthetic(spec);

  Rng rng(42);
  CnvConfig cfg = CnvConfig{}.scaled(0.125);
  cfg.num_classes = spec.num_classes;
  BranchyModel model = build_cnv_with_exits(cfg, paper_exits_config(false), rng);
  TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 16;
  train_model(model, data.train, spec.flip_symmetry, tc);

  const auto serial = evaluate_exits(model, data.test, 16, /*num_threads=*/1);
  for (int threads : {2, 4}) {
    const auto parallel = evaluate_exits(model, data.test, 16, threads);
    ASSERT_EQ(serial.confidence.size(), parallel.confidence.size());
    for (std::size_t s = 0; s < serial.confidence.size(); ++s) {
      ASSERT_EQ(0, std::memcmp(serial.confidence[s].data(),
                               parallel.confidence[s].data(),
                               serial.confidence[s].size() * sizeof(float)))
          << "threads=" << threads << " sample=" << s;
      ASSERT_TRUE(serial.correct[s] == parallel.correct[s]);
    }
  }
}

}  // namespace
}  // namespace adapex
