// Micro-benchmarks (google-benchmark) of the hot kernels: the conv/GEMM
// training kernels, the element-wise activation-quantizer and BatchNorm
// passes, the early-exit evaluation path, the accelerator
// compile, and the event-driven pipeline simulator. These bound the cost of
// a library-generation run and catch performance regressions.

#include <benchmark/benchmark.h>

#include "core/adapex.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"

namespace {

using namespace adapex;

// Blocked kernel (routes through tensor/kernels.hpp dispatch).
void BM_GemmAccumulate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<float> a(static_cast<std::size_t>(n) * n, 1.5f);
  std::vector<float> b(static_cast<std::size_t>(n) * n, 0.5f);
  std::vector<float> c(static_cast<std::size_t>(n) * n, 0.0f);
  for (auto _ : state) {
    ops::gemm_accumulate(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2L * n * n * n);
}
BENCHMARK(BM_GemmAccumulate)->Arg(64)->Arg(128)->Arg(256);

// Retained naive i-k-j reference: the "before" baseline the blocked kernel
// is compared against (same build, same flags).
void BM_GemmRef(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<float> a(static_cast<std::size_t>(n) * n, 1.5f);
  std::vector<float> b(static_cast<std::size_t>(n) * n, 0.5f);
  std::vector<float> c(static_cast<std::size_t>(n) * n, 0.0f);
  for (auto _ : state) {
    kernels::ref::gemm_accumulate(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2L * n * n * n);
}
BENCHMARK(BM_GemmRef)->Arg(64)->Arg(128)->Arg(256);

// 85%-zero A (a pruned+quantized weight matrix): adaptive dispatch routes
// this to the scalar zero-skip path, which beats packing at this density.
void BM_GemmSparse(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(12);
  std::vector<float> a(static_cast<std::size_t>(n) * n);
  for (auto& v : a) v = rng.bernoulli(0.85) ? 0.0f : 1.5f;
  std::vector<float> b(static_cast<std::size_t>(n) * n, 0.5f);
  std::vector<float> c(static_cast<std::size_t>(n) * n, 0.0f);
  for (auto _ : state) {
    ops::gemm_accumulate(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2L * n * n * n);
}
BENCHMARK(BM_GemmSparse)->Arg(256);

void BM_GemmABt(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<float> a(static_cast<std::size_t>(n) * n, 1.5f);
  std::vector<float> b(static_cast<std::size_t>(n) * n, 0.5f);
  std::vector<float> c(static_cast<std::size_t>(n) * n, 0.0f);
  for (auto _ : state) {
    ops::gemm_a_bt_accumulate(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2L * n * n * n);
}
BENCHMARK(BM_GemmABt)->Arg(64)->Arg(256);

void BM_GemmABtRef(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<float> a(static_cast<std::size_t>(n) * n, 1.5f);
  std::vector<float> b(static_cast<std::size_t>(n) * n, 0.5f);
  std::vector<float> c(static_cast<std::size_t>(n) * n, 0.0f);
  for (auto _ : state) {
    kernels::ref::gemm_a_bt_accumulate(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2L * n * n * n);
}
BENCHMARK(BM_GemmABtRef)->Arg(64)->Arg(256);

void BM_GemmAtB(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<float> a(static_cast<std::size_t>(n) * n, 1.5f);
  std::vector<float> b(static_cast<std::size_t>(n) * n, 0.5f);
  std::vector<float> c(static_cast<std::size_t>(n) * n, 0.0f);
  for (auto _ : state) {
    ops::gemm_at_b_accumulate(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2L * n * n * n);
}
BENCHMARK(BM_GemmAtB)->Arg(64)->Arg(256);

// Conv arguments: {batch, in channels, filters, input height = width}, 3x3
// kernel. Besides a mid-size layer, the tiny-scale CNV's two extremes at its
// training batch: the 32x32 input conv and the 3x3 -> 1x1 last conv.
void conv_shape_args(benchmark::internal::Benchmark* b) {
  b->Args({8, 16, 32, 16})->Args({16, 3, 12, 32})->Args({16, 48, 48, 3});
}

void BM_Conv2dForward(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int c = static_cast<int>(state.range(1));
  const int f = static_cast<int>(state.range(2));
  const int h = static_cast<int>(state.range(3));
  Rng rng(1);
  Tensor x({n, c, h, h});
  x.randn_(rng, 1.0f);
  Tensor w({f, c, 3, 3});
  w.randn_(rng, 0.5f);
  Tensor bias;
  std::vector<float> scratch;
  for (auto _ : state) {
    Tensor y = ops::conv2d_forward(x, w, bias, scratch);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 2L * n * f * c * 9 *
                          (h - 2) * (h - 2));
}
BENCHMARK(BM_Conv2dForward)->Apply(conv_shape_args);

void BM_Conv2dBackward(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int c = static_cast<int>(state.range(1));
  const int f = static_cast<int>(state.range(2));
  const int h = static_cast<int>(state.range(3));
  Rng rng(7);
  Tensor x({n, c, h, h});
  x.randn_(rng, 1.0f);
  Tensor w({f, c, 3, 3});
  w.randn_(rng, 0.5f);
  Tensor bias;
  std::vector<float> scratch;
  Tensor y = ops::conv2d_forward(x, w, bias, scratch);
  Tensor dy(y.shape());
  dy.randn_(rng, 1.0f);
  Tensor dw(w.shape());
  Tensor db;
  for (auto _ : state) {
    Tensor dx;
    ops::conv2d_backward(x, w, dy, dx, dw, db, scratch);
    benchmark::DoNotOptimize(dx.data());
    benchmark::DoNotOptimize(dw.data());
  }
  // dW and dX GEMMs.
  state.SetItemsProcessed(state.iterations() * 4L * n * f * c * 9 * (h - 2) *
                          (h - 2));
}
BENCHMARK(BM_Conv2dBackward)->Apply(conv_shape_args);

// Element-wise layer arguments: {batch, channels, height = width} of the
// tiny-scale CNV's activations at its training batch: the widest plane
// (first conv, 30x30), a mid plane (10x10) and the 3x3 one.
void elementwise_shape_args(benchmark::internal::Benchmark* b) {
  b->Args({16, 12, 30})->Args({16, 24, 10})->Args({16, 48, 3});
}

Tensor elementwise_input(const benchmark::State& state, std::uint64_t seed) {
  Rng rng(seed);
  const int h = static_cast<int>(state.range(2));
  Tensor x({static_cast<int>(state.range(0)), static_cast<int>(state.range(1)),
            h, h});
  x.randn_(rng, 1.0f);
  return x;
}

// Training forward of a W2A2 activation quantizer: batch max, scale EMA and
// quantization.
void BM_ActQuantForward(benchmark::State& state) {
  const Tensor x = elementwise_input(state, 10);
  ActQuant act(2);
  for (auto _ : state) {
    Tensor y = act.forward(x, /*train=*/true);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(x.numel()));
}
BENCHMARK(BM_ActQuantForward)->Apply(elementwise_shape_args);

// The quantizer's straight-through backward.
void BM_ActQuantBackward(benchmark::State& state) {
  const Tensor x = elementwise_input(state, 11);
  const Tensor dy = elementwise_input(state, 12);
  ActQuant act(2);
  act.forward(x, /*train=*/true);
  for (auto _ : state) {
    Tensor dx = act.backward(dy);
    benchmark::DoNotOptimize(dx.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(x.numel()));
}
BENCHMARK(BM_ActQuantBackward)->Apply(elementwise_shape_args);

// Training forward of BatchNorm: per-channel statistics and the affine.
void BM_BatchNormForward(benchmark::State& state) {
  const Tensor x = elementwise_input(state, 13);
  BatchNorm bn(x.dim(1));
  for (auto _ : state) {
    Tensor y = bn.forward(x, /*train=*/true);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(x.numel()));
}
BENCHMARK(BM_BatchNormForward)->Apply(elementwise_shape_args);

// BatchNorm backward: gradient sums and the per-element input gradient.
void BM_BatchNormBackward(benchmark::State& state) {
  const Tensor x = elementwise_input(state, 14);
  const Tensor dy = elementwise_input(state, 15);
  BatchNorm bn(x.dim(1));
  bn.forward(x, /*train=*/true);
  for (auto _ : state) {
    Tensor dx = bn.backward(dy);
    benchmark::DoNotOptimize(dx.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(x.numel()));
}
BENCHMARK(BM_BatchNormBackward)->Apply(elementwise_shape_args);

void BM_LinearForward(benchmark::State& state) {
  Rng rng(8);
  Tensor x({32, 512});
  x.randn_(rng, 1.0f);
  Tensor w({256, 512});
  w.randn_(rng, 0.5f);
  Tensor bias({256});
  bias.randn_(rng, 0.5f);
  for (auto _ : state) {
    Tensor y = ops::linear_forward(x, w, bias);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 2L * 32 * 512 * 256);
}
BENCHMARK(BM_LinearForward);

void BM_MaxPool(benchmark::State& state) {
  Rng rng(9);
  Tensor x({8, 32, 32, 32});
  x.randn_(rng, 1.0f);
  std::vector<int> argmax;
  for (auto _ : state) {
    Tensor y = ops::maxpool_forward(x, 2, 2, argmax);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_MaxPool);

void BM_CnvInference(benchmark::State& state) {
  Rng rng(2);
  CnvConfig cfg = CnvConfig{}.scaled(0.25);
  BranchyModel model = build_cnv_with_exits(cfg, paper_exits_config(false), rng);
  Tensor x({1, 3, 32, 32});
  x.randn_(rng, 1.0f);
  for (auto _ : state) {
    auto outs = model.forward(x, false);
    benchmark::DoNotOptimize(outs.back().data());
  }
}
BENCHMARK(BM_CnvInference);

void BM_EvaluateExits(benchmark::State& state) {
  SyntheticSpec spec = cifar10_like_spec();
  spec.train_size = 8;
  spec.test_size = 256;
  SyntheticDataset data = make_synthetic(spec);
  Rng rng(5);
  CnvConfig cfg = CnvConfig{}.scaled(0.25);
  cfg.num_classes = spec.num_classes;
  BranchyModel model = build_cnv_with_exits(cfg, paper_exits_config(false), rng);
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto eval = evaluate_exits(model, data.test, 32, threads);
    benchmark::DoNotOptimize(eval.confidence.data());
  }
  state.SetItemsProcessed(state.iterations() * spec.test_size);
}
BENCHMARK(BM_EvaluateExits)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_TrainEpoch(benchmark::State& state) {
  SyntheticSpec spec = cifar10_like_spec();
  spec.train_size = 128;
  spec.test_size = 8;
  SyntheticDataset data = make_synthetic(spec);
  Rng rng(6);
  CnvConfig cfg = CnvConfig{}.scaled(0.25);
  cfg.num_classes = spec.num_classes;
  TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 32;
  for (auto _ : state) {
    state.PauseTiming();
    BranchyModel model =
        build_cnv_with_exits(cfg, paper_exits_config(false), rng);
    state.ResumeTiming();
    auto history = train_model(model, data.train, spec.flip_symmetry, tc);
    benchmark::DoNotOptimize(history.data());
  }
  state.SetItemsProcessed(state.iterations() * spec.train_size);
}
BENCHMARK(BM_TrainEpoch)->Unit(benchmark::kMillisecond);

void BM_CompileAccelerator(benchmark::State& state) {
  Rng rng(3);
  CnvConfig cfg = CnvConfig{}.scaled(0.25);
  BranchyModel model = build_cnv_with_exits(cfg, paper_exits_config(false), rng);
  auto sites = walk_compute_layers(model, cfg.in_channels, cfg.image_size);
  auto folding = styled_folding(sites);
  for (auto _ : state) {
    Accelerator acc = compile_accelerator(model, folding, AcceleratorConfig{});
    benchmark::DoNotOptimize(acc.total.lut);
  }
}
BENCHMARK(BM_CompileAccelerator);

void BM_PipelineSim(benchmark::State& state) {
  Rng rng(4);
  CnvConfig cfg = CnvConfig{}.scaled(0.25);
  BranchyModel model = build_cnv_with_exits(cfg, paper_exits_config(false), rng);
  auto sites = walk_compute_layers(model, cfg.in_channels, cfg.image_size);
  auto folding = styled_folding(sites);
  Accelerator acc = compile_accelerator(model, folding, AcceleratorConfig{});
  std::vector<int> exits(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < exits.size(); ++i) exits[i] = static_cast<int>(i % 3);
  for (auto _ : state) {
    auto result = simulate_pipeline(acc, exits);
    benchmark::DoNotOptimize(result.steady_ii_cycles);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PipelineSim)->Arg(128)->Arg(1024);

void BM_EdgeEpisode(benchmark::State& state) {
  // A synthetic two-entry library keeps this independent of training.
  Library lib;
  lib.dataset = "bench";
  lib.reference_accuracy = 0.9;
  lib.static_power_w = 0.7;
  AcceleratorRecord a0;
  a0.id = 0;
  lib.accelerators.push_back(a0);
  AcceleratorRecord a1;
  a1.id = 1;
  a1.prune_rate_pct = 50;
  lib.accelerators.push_back(a1);
  LibraryEntry e0;
  e0.accel_id = 0;
  e0.variant = ModelVariant::kNotPrunedExits;
  e0.conf_threshold_pct = 50;
  e0.accuracy = 0.9;
  e0.exit_fractions = {0.5, 0.5};
  e0.ips = 500;
  e0.latency_ms = 3.0;
  e0.peak_power_w = 1.3;
  e0.energy_per_inf_j = 0.004;
  lib.entries.push_back(e0);
  LibraryEntry e1 = e0;
  e1.accel_id = 1;
  e1.prune_rate_pct = 50;
  e1.accuracy = 0.8;
  e1.ips = 1200;
  lib.entries.push_back(e1);

  EdgeScenario sc;
  sc.cameras = 20;
  sc.ips_per_camera = 30;
  for (auto _ : state) {
    auto m = simulate_edge(lib, {AdaptPolicy::kAdaPEx, 0.10}, sc);
    benchmark::DoNotOptimize(m.qoe);
  }
}
BENCHMARK(BM_EdgeEpisode);

}  // namespace

BENCHMARK_MAIN();
