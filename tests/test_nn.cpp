// Unit tests for layers, quantization, the branched model, the optimizer,
// and training convergence on a tiny synthetic problem.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "data/dataset.hpp"
#include "model/cnv.hpp"
#include "nn/branchy.hpp"
#include "nn/eval.hpp"
#include "nn/layers.hpp"
#include "nn/optim.hpp"
#include "nn/quant.hpp"
#include "nn/trainer.hpp"
#include "tensor/ops.hpp"

namespace adapex {
namespace {

TEST(Quant, SignedQmax) {
  EXPECT_EQ(signed_qmax(2), 1);
  EXPECT_EQ(signed_qmax(3), 3);
  EXPECT_EQ(signed_qmax(8), 127);
  EXPECT_THROW(signed_qmax(1), Error);
}

TEST(Quant, TwoBitWeightsTakeThreeLevels) {
  Rng rng(1);
  Tensor w({4, 10});
  w.randn_(rng, 1.0f);
  Tensor q;
  quantize_weight_per_channel(w, 2, q);
  // Per channel (TWN ternary): values must be in {-a, 0, +a} for one a > 0,
  // with signs matching the latent weights and both zero and non-zero
  // entries present for a Gaussian tensor.
  for (int r = 0; r < 4; ++r) {
    float a = 0.0f;
    int zeros = 0, nonzeros = 0;
    for (int i = 0; i < 10; ++i) {
      const float v = q.at2(r, i);
      if (std::abs(v) < 1e-9f) {
        ++zeros;
        continue;
      }
      ++nonzeros;
      if (a == 0.0f) a = std::abs(v);
      EXPECT_NEAR(std::abs(v), a, 1e-5f) << "row " << r;
      EXPECT_GT(v * w.at2(r, i), 0.0f) << "sign flip at row " << r;
    }
    EXPECT_GT(nonzeros, 0) << "row " << r;
  }
}

TEST(Quant, DisabledBitsIsPassthrough) {
  Rng rng(1);
  Tensor w({2, 5});
  w.randn_(rng, 1.0f);
  Tensor q;
  quantize_weight_per_channel(w, 0, q);
  for (std::size_t i = 0; i < w.numel(); ++i) EXPECT_FLOAT_EQ(q[i], w[i]);
}

TEST(Quant, ZeroWeightRowStaysZero) {
  Tensor w({2, 4});
  w.at2(1, 0) = 1.0f;
  Tensor q;
  quantize_weight_per_channel(w, 2, q);
  for (int i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(q.at2(0, i), 0.0f);
  EXPECT_FLOAT_EQ(q.at2(1, 0), 1.0f);
}

TEST(Quant, ActQuantizerLevelsAndRange) {
  ActQuantizer aq(2);
  Tensor x({1, 8});
  for (int i = 0; i < 8; ++i) x.at2(0, i) = -1.0f + 0.4f * i;
  Tensor y = aq.forward(x, /*train=*/true);
  const float s = aq.scale();
  EXPECT_GT(s, 0.0f);
  for (std::size_t i = 0; i < y.numel(); ++i) {
    EXPECT_GE(y[i], 0.0f);
    EXPECT_LE(y[i], s + 1e-5f);
    // 2-bit: 4 levels {0, s/3, 2s/3, s}.
    const float level = y[i] / s * 3.0f;
    EXPECT_NEAR(level, std::round(level), 1e-4f);
  }
}

TEST(Quant, ActQuantizerSteMasksOutsideRange) {
  ActQuantizer aq(2);
  Tensor x({1, 3});
  x.at2(0, 0) = -0.5f;  // below 0: blocked
  x.at2(0, 1) = 0.2f;   // inside: passes
  x.at2(0, 2) = 10.0f;  // above scale after first forward: blocked
  aq.forward(x, true);
  Tensor dy({1, 3});
  dy.fill(1.0f);
  Tensor dx = aq.backward(x, dy);
  EXPECT_FLOAT_EQ(dx.at2(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(dx.at2(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(dx.at2(0, 2), 0.0f);
}

TEST(Layers, ConvShapes) {
  Rng rng(1);
  QuantConv2d conv(3, 8, 3, 2, rng);
  Tensor x({2, 3, 10, 10});
  x.randn_(rng, 1.0f);
  Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 8, 8, 8}));
  EXPECT_EQ(conv.in_channels(), 3);
  EXPECT_EQ(conv.out_channels(), 8);
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

// The model's first conv only needs its weight gradient: skipping the input
// gradient must leave dW (and db) byte-identical.
TEST(Layers, FirstLayerBackwardSkipsOnlyTheInputGradient) {
  Rng rng(21);
  Tensor x({3, 3, 12, 12});
  x.randn_(rng, 1.0f);
  Tensor w({6, 3, 3, 3});
  w.randn_(rng, 0.5f);
  Tensor dy({3, 6, 10, 10});
  dy.randn_(rng, 1.0f);
  std::vector<float> scratch;
  Tensor gi;
  Tensor gw_full(w.shape()), gw_skip(w.shape());
  Tensor gb_full({6}), gb_skip({6});
  ops::conv2d_backward(x, w, dy, gi, gw_full, gb_full, scratch);
  ops::conv2d_backward(x, w, dy, nullptr, gw_skip, gb_skip, scratch);
  EXPECT_EQ(gi.shape(), x.shape());
  EXPECT_TRUE(same_bits(gw_full, gw_skip));
  EXPECT_TRUE(same_bits(gb_full, gb_skip));

  // A conv-BN-act block: backward_params (which returns no input gradient)
  // accumulates the same parameter gradients as backward.
  Sequential block;
  block.append(std::make_unique<QuantConv2d>(3, 6, 3, 2, rng));
  block.append(std::make_unique<BatchNorm>(6));
  block.append(std::make_unique<ActQuant>(2));
  auto copy = block.clone();
  Tensor gy({3, 6, 10, 10});
  gy.randn_(rng, 1.0f);
  block.forward(x, true);
  copy->forward(x, true);
  const Tensor full_gi = block.backward(gy);
  EXPECT_EQ(full_gi.shape(), x.shape());
  copy->backward_params(gy);
  const std::vector<Param*> full = block.params();
  const std::vector<Param*> skip = copy->params();
  ASSERT_EQ(full.size(), skip.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_TRUE(same_bits(full[i]->grad, skip[i]->grad)) << "param " << i;
  }
}

TEST(Layers, BatchNormNormalizesTrainingBatch) {
  Rng rng(4);
  BatchNorm bn(3);
  Tensor x({8, 3, 4, 4});
  x.randn_(rng, 5.0f);
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] += 10.0f;
  Tensor y = bn.forward(x, true);
  // Per-channel mean ~0, var ~1 after normalization (gamma=1, beta=0).
  for (int c = 0; c < 3; ++c) {
    double sum = 0.0, sq = 0.0;
    int count = 0;
    for (int n = 0; n < 8; ++n) {
      for (int i = 0; i < 16; ++i) {
        const float v = y.at4(n, c, i / 4, i % 4);
        sum += v;
        sq += static_cast<double>(v) * v;
        ++count;
      }
    }
    EXPECT_NEAR(sum / count, 0.0, 1e-3);
    EXPECT_NEAR(sq / count, 1.0, 1e-2);
  }
}

TEST(Layers, BatchNormGradcheck) {
  Rng rng(6);
  BatchNorm bn(2);
  Tensor x({3, 2, 2, 2});
  x.randn_(rng, 1.0f);
  Tensor y = bn.forward(x, true);
  Tensor dy(y.shape());
  dy.randn_(rng, 1.0f);
  Tensor dx = bn.backward(dy);

  const float eps = 1e-3f;
  for (std::size_t i : {0ul, 5ul, 11ul, x.numel() - 1}) {
    const float orig = x[i];
    auto loss = [&]() {
      Tensor out = bn.forward(x, true);
      double l = 0.0;
      for (std::size_t j = 0; j < out.numel(); ++j) {
        l += static_cast<double>(out[j]) * dy[j];
      }
      return l;
    };
    x[i] = orig + eps;
    const double lp = loss();
    x[i] = orig - eps;
    const double lm = loss();
    x[i] = orig;
    bn.forward(x, true);  // restore caches for consistency
    EXPECT_NEAR((lp - lm) / (2 * eps), dx[i], 5e-2) << "at " << i;
  }
}

TEST(Layers, BatchNorm2dAnd1dInputs) {
  Rng rng(8);
  BatchNorm bn(4);
  Tensor x2({5, 4});
  x2.randn_(rng, 1.0f);
  Tensor y2 = bn.forward(x2, true);
  EXPECT_EQ(y2.shape(), x2.shape());
  Tensor x4({5, 4, 3, 3});
  x4.randn_(rng, 1.0f);
  Tensor y4 = bn.forward(x4, true);
  EXPECT_EQ(y4.shape(), x4.shape());
}

TEST(Layers, BatchNormSliceChannels) {
  BatchNorm bn(4);
  bn.slice_channels({1, 3});
  EXPECT_EQ(bn.channels(), 2);
  Rng rng(1);
  Tensor x({2, 2});
  x.randn_(rng, 1.0f);
  EXPECT_NO_THROW(bn.forward(x, false));
}

TEST(Layers, SequentialCloneIsDeep) {
  Rng rng(2);
  auto seq = std::make_unique<Sequential>();
  seq->append(std::make_unique<QuantLinear>(4, 3, 2, rng));
  auto cloned = seq->clone();
  auto* orig_lin = static_cast<QuantLinear*>(&seq->layer(0));
  auto* copy_lin =
      static_cast<QuantLinear*>(&static_cast<Sequential*>(cloned.get())->layer(0));
  copy_lin->weight().value[0] += 100.0f;
  EXPECT_NE(orig_lin->weight().value[0], copy_lin->weight().value[0]);
}

TEST(Branchy, ForwardOutputCountAndShapes) {
  Rng rng(3);
  CnvConfig cfg = CnvConfig{}.scaled(0.125);
  BranchyModel model = build_cnv_with_exits(cfg, paper_exits_config(false), rng);
  EXPECT_EQ(model.num_outputs(), 3u);
  Tensor x({2, 3, 32, 32});
  x.randn_(rng, 1.0f);
  auto outs = model.forward(x, false);
  ASSERT_EQ(outs.size(), 3u);
  for (const auto& o : outs) {
    EXPECT_EQ(o.shape(), (std::vector<int>{2, cfg.num_classes}));
  }
}

TEST(Branchy, ExitAfterFinalBlockRejected) {
  Rng rng(3);
  CnvConfig cfg = CnvConfig{}.scaled(0.125);
  BranchyModel model = build_cnv(cfg, rng);
  auto head = std::make_unique<Sequential>();
  head->append(std::make_unique<Flatten>());
  EXPECT_THROW(model.add_exit(2, std::move(head)), Error);
}

TEST(Branchy, BackwardAccumulatesIntoBackbone) {
  Rng rng(5);
  CnvConfig cfg = CnvConfig{}.scaled(0.125);
  BranchyModel model = build_cnv_with_exits(cfg, paper_exits_config(false), rng);
  Tensor x({2, 3, 32, 32});
  x.randn_(rng, 1.0f);
  auto outs = model.forward(x, true);
  std::vector<Tensor> grads;
  for (const auto& o : outs) {
    Tensor g(o.shape());
    g.fill(0.1f);
    grads.push_back(std::move(g));
  }
  model.backward(grads);
  // Every parameter should have received some gradient signal.
  int nonzero_params = 0;
  for (Param* p : model.params()) {
    double mag = 0.0;
    for (std::size_t i = 0; i < p->grad.numel(); ++i) {
      mag += std::abs(p->grad[i]);
    }
    if (mag > 0.0) ++nonzero_params;
  }
  EXPECT_GT(nonzero_params, 10);
}

TEST(Optim, SgdStepMovesAgainstGradient) {
  Param p;
  p.value = Tensor({2});
  p.value[0] = 1.0f;
  p.value[1] = -1.0f;
  p.ensure_grad();
  Sgd opt({&p}, {0.1, 0.0, 0.0});
  p.grad[0] = 1.0f;
  p.grad[1] = -1.0f;
  opt.step();
  EXPECT_FLOAT_EQ(p.value[0], 0.9f);
  EXPECT_FLOAT_EQ(p.value[1], -0.9f);
  // Gradients zeroed after the step.
  EXPECT_FLOAT_EQ(p.grad[0], 0.0f);
}

TEST(Optim, MomentumAccumulates) {
  Param p;
  p.value = Tensor({1});
  p.ensure_grad();
  Sgd opt({&p}, {1.0, 0.9, 0.0});
  p.grad[0] = 1.0f;
  opt.step();
  EXPECT_FLOAT_EQ(p.value[0], -1.0f);
  p.grad[0] = 1.0f;
  opt.step();  // velocity = 0.9*1 + 1 = 1.9
  EXPECT_FLOAT_EQ(p.value[0], -2.9f);
}

TEST(Trainer, ResolveExitWeightsDefaults) {
  TrainConfig cfg;
  auto w3 = resolve_exit_weights(cfg, 3);
  ASSERT_EQ(w3.size(), 3u);
  EXPECT_DOUBLE_EQ(w3[0], 1.0);
  EXPECT_DOUBLE_EQ(w3[1], 0.3);
  EXPECT_DOUBLE_EQ(w3[2], 0.3);
  auto w1 = resolve_exit_weights(cfg, 1);
  EXPECT_DOUBLE_EQ(w1[0], 1.0);
}

TEST(Trainer, ExplicitWeightsMustMatchArity) {
  TrainConfig cfg;
  cfg.exit_weights = {1.0, 0.5};
  EXPECT_THROW(resolve_exit_weights(cfg, 3), Error);
}

// Training convergence: a tiny CNV on an easy synthetic dataset must get
// well above chance within a few epochs. This is the keystone test for the
// whole QAT substrate.
TEST(Trainer, TinyCnvLearnsSyntheticData) {
  SyntheticSpec spec = cifar10_like_spec();
  spec.train_size = 200;
  spec.test_size = 100;
  spec.noise_max = 0.5;
  SyntheticDataset data = make_synthetic(spec);

  Rng rng(42);
  CnvConfig cfg = CnvConfig{}.scaled(0.125);
  cfg.num_classes = spec.num_classes;
  BranchyModel model = build_cnv_with_exits(cfg, paper_exits_config(false), rng);

  TrainConfig tc;
  tc.epochs = 10;
  tc.batch_size = 16;
  // W2A2 QAT at this reduced scale needs a higher lr than the paper's full
  // scale 1e-3 (see DESIGN.md scale calibration).
  tc.lr = 1e-2;
  auto history = train_model(model, data.train, spec.flip_symmetry, tc);
  ASSERT_EQ(history.size(), 10u);
  EXPECT_LT(history.back().joint_loss, history.front().joint_loss);

  auto eval = evaluate_exits(model, data.test);
  auto stats = apply_threshold(eval, 0.0);  // threshold 0: earliest exit wins
  auto stats_final = apply_threshold(eval, 1.01);  // impossible: final exit
  // Final exit must beat chance (10%) comfortably.
  EXPECT_GT(stats_final.accuracy, 0.35);
  // All samples exit at the first exit for threshold 0.
  EXPECT_DOUBLE_EQ(stats.exit_fraction.front(), 1.0);
  EXPECT_DOUBLE_EQ(stats_final.exit_fraction.back(), 1.0);
}

TEST(Eval, ThresholdMonotonicExitFractions) {
  // Synthetic records: 2 exits; confidence at exit0 varies.
  ExitEvaluation eval;
  for (int i = 0; i < 10; ++i) {
    eval.confidence.push_back({0.1f * i, 1.0f});
    eval.correct.push_back({1, 1});
  }
  double prev_fraction = 1.1;
  for (double t = 0.0; t <= 1.0; t += 0.1) {
    auto stats = apply_threshold(eval, t);
    EXPECT_LE(stats.exit_fraction[0], prev_fraction + 1e-12);
    prev_fraction = stats.exit_fraction[0];
  }
}

TEST(Eval, ThresholdOutOfRangeThrows) {
  ExitEvaluation eval;
  eval.confidence.push_back({0.5f, 1.0f});
  eval.correct.push_back({1, 1});
  EXPECT_THROW(apply_threshold(eval, -0.1), Error);
  // Above 1.0 is allowed: it disables early exits.
  auto stats = apply_threshold(eval, 1.5);
  EXPECT_DOUBLE_EQ(stats.exit_fraction.back(), 1.0);
}

}  // namespace
}  // namespace adapex
