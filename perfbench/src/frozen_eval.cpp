// Workload `frozen_eval`: test-set evaluation of a trained W2A2 early-exit
// CNV, serial, exactly as generate_library calls evaluate_exits per design
// point (batch 32, one thread), on both inference paths: the default path
// (the packed popcount path for a freezable model) and PackedMode::kOff (the
// float layer graph, i.e. the training forward kernels run forward-only).
// Nothing trains inside the measured window.

#include <cstring>
#include <optional>

#include "core/adapex.hpp"
#include "harness.hpp"
#include "nn/quant.hpp"
#include "tensor/packed.hpp"

namespace perfbench {

namespace {

using namespace adapex;

constexpr int kBatch = 32;

struct FrozenInputs {
  std::optional<SyntheticDataset> data;
  std::optional<BranchyModel> model;
};

/// The quickstart dataset and a briefly trained early-exit CNV at tiny
/// scale (explicit presets; the run's seed drives initialisation and
/// training order).
FrozenInputs make_inputs(std::uint64_t seed) {
  const ExperimentScale scale = ExperimentScale::tiny();
  SyntheticSpec dataset = cifar10_like_spec();
  dataset.noise_max = 1.2;
  LibraryGenSpec spec = make_gen_spec(dataset, scale, seed);
  FrozenInputs in;
  in.data = make_synthetic(spec.dataset);
  Rng rng(spec.seed + 1);
  in.model = build_cnv_with_exits(spec.cnv, spec.exits, rng);
  TrainConfig train = spec.initial_train;
  train.epochs = 2;
  train_model(*in.model, in.data->train, spec.dataset.flip_symmetry, train);
  return in;
}

/// The early-exit decision (taken exit) per sample at confidence threshold
/// t in {0, 0.05, ..., 1.0}: 21 decisions per sample.
std::vector<int> decisions(const ExitEvaluation& eval) {
  std::vector<int> out;
  const std::size_t exits = eval.num_exits();
  for (int t = 0; t <= 100; t += 5) {
    for (std::size_t s = 0; s < eval.num_samples(); ++s) {
      std::size_t taken = exits - 1;
      for (std::size_t e = 0; e + 1 < exits; ++e) {
        if (eval.confidence[s][e] >= t / 100.0) {
          taken = e;
          break;
        }
      }
      out.push_back(static_cast<int>(taken));
    }
  }
  return out;
}

bool same_records(const ExitEvaluation& a, const ExitEvaluation& b) {
  return a.confidence == b.confidence && a.correct == b.correct;
}

/// Samples of f's wall time in milliseconds until `seconds` pass (at
/// least 3).
template <typename Fn>
std::vector<double> repeat_ms(double seconds, Fn&& fn) {
  std::vector<double> t;
  const double start = now_s();
  while (t.size() < 3 || elapsed_since(start) < seconds) {
    const double t0 = now_s();
    fn();
    t.push_back(elapsed_since(t0) * 1e3);
  }
  return t;
}

/// Packed im2col packing and popcount GEMM replays per packed conv layer
/// (every conv but the first, which the frozen model keeps in float).
void replay_packed(const std::vector<LayerSite>& convs, std::uint64_t seed,
                   Result& r) {
  for (std::size_t i = 1; i < convs.size(); ++i) {
    const LayerSite& s = convs[i];
    const int k = s.in_channels * s.kernel * s.kernel;
    Rng rng(derive_seed(seed, 0x9ACC, i));
    std::vector<std::int8_t> w(static_cast<std::size_t>(s.out_channels) * k);
    for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_index(3)) - 1;
    packed::PackedWeights weights;
    packed::pack_weights(w.data(), s.out_channels, k, weights);
    std::vector<std::uint8_t> codes(static_cast<std::size_t>(s.in_channels) *
                                    s.in_dim * s.in_dim);
    for (auto& v : codes) v = static_cast<std::uint8_t>(rng.uniform_index(4));
    packed::PackedActivations acts;
    std::vector<std::int32_t> out(static_cast<std::size_t>(s.out_channels) *
                                  s.out_dim * s.out_dim);
    packed::Epilogue ep;
    ep.s32 = out.data();
    ep.row_stride = static_cast<std::size_t>(s.out_dim) * s.out_dim;
    auto pack = [&] {
      packed::pack_activations_im2col(codes.data(), s.in_channels, s.in_dim,
                                      s.in_dim, s.kernel, acts);
    };
    pack();
    std::vector<double> pack_us, gemm_us;
    const double start = now_s();
    while (pack_us.size() < 20 ||
           (elapsed_since(start) < 0.1 && pack_us.size() < 5000)) {
      double t0 = now_s();
      pack();
      pack_us.push_back(elapsed_since(t0) * 1e6);
      t0 = now_s();
      packed::popcount_gemm(weights, acts, ep);
      gemm_us.push_back(elapsed_since(t0) * 1e6);
    }
    const std::string l = std::to_string(i) + "_us";
    r.add(std::string("packed.pack.l") + l, "us", median(pack_us));
    r.add(std::string("packed.gemm.l") + l, "us", median(gemm_us));
  }
}

}  // namespace

Result run_frozen_eval(const Options& opt) {
  Result r;
  FrozenInputs in;
  r.add_samples("setup_s", "s",
                timed_setups(3, 0.0, in, [&] { return make_inputs(opt.seed); }));
  BranchyModel& model = *in.model;
  const Dataset& test = in.data->test;

  const ExitEvaluation packed_ref =
      evaluate_exits(model, test, kBatch, 1, PackedMode::kEnv);
  const ExitEvaluation float_ref =
      evaluate_exits(model, test, kBatch, 1, PackedMode::kOff);
  r.context()["default_path"] = resolved_eval_path(model, PackedMode::kEnv);
  r.context()["test_images"] = test.size();
  r.check("default_path_is_packed",
          std::strcmp(resolved_eval_path(model, PackedMode::kEnv), "packed") == 0);

  // Packed vs float: every per-exit correct record and every one of the 21
  // threshold decisions per sample must agree (a mismatch is a failed op).
  const std::vector<int> dp = decisions(packed_ref), df = decisions(float_ref);
  long decision_mismatches = 0, record_mismatches = 0;
  Json flipped = Json::array();  // thresholds (%) where a decision differs
  for (std::size_t i = 0; i < dp.size(); ++i) {
    if (dp[i] == df[i]) continue;
    ++decision_mismatches;
    flipped.push_back(static_cast<int>(i / packed_ref.num_samples()) * 5);
  }
  for (std::size_t s = 0; s < packed_ref.num_samples(); ++s) {
    record_mismatches += packed_ref.correct[s] != float_ref.correct[s];
  }
  const long mismatches = decision_mismatches + record_mismatches;
  r.attempt(static_cast<long>(dp.size() + packed_ref.num_samples()), mismatches);
  r.context()["decision_mismatches"] = static_cast<std::int64_t>(decision_mismatches);
  r.context()["correct_record_mismatches"] = static_cast<std::int64_t>(record_mismatches);
  r.context()["mismatch_thresholds_pct"] = flipped;

  const double images = static_cast<double>(test.size());
  const double window = opt.trace ? std::min(opt.seconds, 2.0) : opt.seconds;
  std::vector<double> packed_ips, float_ips;
  bool repeat_identical = true;
  const double start = now_s();
  while (packed_ips.size() < 3 || elapsed_since(start) < window) {
    double t0 = now_s();
    const ExitEvaluation p = evaluate_exits(model, test, kBatch, 1, PackedMode::kEnv);
    packed_ips.push_back(images / elapsed_since(t0));
    t0 = now_s();
    const ExitEvaluation f = evaluate_exits(model, test, kBatch, 1, PackedMode::kOff);
    float_ips.push_back(images / elapsed_since(t0));
    repeat_identical = repeat_identical && same_records(p, packed_ref) &&
                       same_records(f, float_ref);
  }
  r.check("repeat_evaluations_identical", repeat_identical);
  if (!opt.trace) {
    auto pass_s = [images](std::vector<double> ips) {
      for (double& v : ips) v = images / v;
      return ips;
    };
    r.add_samples("op_s", "s", pass_s(packed_ips));
    r.add_samples("op2_s", "s", pass_s(float_ips));
    r.add("quality_pct", "%",
          100.0 * (1.0 - static_cast<double>(mismatches) /
                             static_cast<double>(dp.size() +
                                                 packed_ref.num_samples())));
    r.add_samples("eval_images_per_s", "images/s", packed_ips);
    r.add_samples("eval_float_images_per_s", "images/s", float_ips);
    return r;
  }

  // ---- traced run ----------------------------------------------------------
  const double untraced_float_s = images / median(float_ips);
  r.add_samples("quant.freeze_ms", "ms",
                repeat_ms(0.3, [&] { (void)freeze_packed(model); }));
  const PackedModel frozen = freeze_packed(model);
  std::vector<int> order(static_cast<std::size_t>(test.size()));
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::vector<Tensor> batches;
  for (int b = 0; b < test.size(); b += kBatch) {
    batches.push_back(test.batch_images(order.data() + b,
                                        std::min(kBatch, test.size() - b)));
  }
  PackedScratch scratch;
  r.add_samples("quant.packed_forward_ms", "ms", repeat_ms(0.5, [&] {
    for (const Tensor& batch : batches) (void)packed_forward(frozen, batch, scratch);
  }));
  r.add_samples("nn.apply_threshold_ms", "ms", repeat_ms(0.3, [&] {
    for (int t = 0; t <= 100; t += 5) (void)apply_threshold(packed_ref, t / 100.0);
  }));

  std::vector<std::vector<int>> conv_shapes;
  instrument(model, &conv_shapes);
  Tracer::set_enabled(true);
  std::vector<double> ff;
  {
    ScopedSpan s("nn.float_forward");
    ff = repeat_ms(0.5, [&] {
      ScopedSpan pass("nn.float_forward_pass");
      for (const Tensor& batch : batches) (void)model.forward(batch, false);
    });
  }
  std::vector<double> traced_eval_s;
  ExitEvaluation traced;
  for (int rep = 0; rep < 5; ++rep) {
    ScopedSpan s("nn.eval");
    const double t0 = now_s();
    traced = evaluate_exits(model, test, kBatch, 1, PackedMode::kOff);
    traced_eval_s.push_back(elapsed_since(t0));
  }
  Tracer::set_enabled(false);
  uninstrument(model);
  r.add_samples("nn.float_forward_ms", "ms", ff);
  const bool replica_identical = same_records(traced, float_ref);
  r.check("trace_replica_identical", replica_identical);
  r.add("trace.replica_identical", "bool", replica_identical ? 1.0 : 0.0);
  r.add("trace.overhead_pct", "%",
        (median(traced_eval_s) - untraced_float_s) / untraced_float_s * 100.0);
  Tracer::write_chrome_trace(opt.trace_path);

  std::vector<LayerSite> convs;
  for (const LayerSite& s : walk_compute_layers(model, 3, 32)) {
    if (s.is_conv) convs.push_back(s);
  }
  replay_conv_kernels(conv_shapes, convs, opt.seed, /*backward=*/false, r);
  replay_packed(convs, opt.seed, r);
  return r;
}

}  // namespace perfbench
