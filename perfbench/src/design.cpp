// Workload `design`: the quickstart's design-time job end to end.
//
// generate_library on the examples/quickstart.cpp spec (tiny scale,
// cifar10-like with noise_max 1.2, +6 initial epochs, rates {0,25,50,75},
// thresholds {0,25,50,75,100}) with a fresh checkpoint journal, then the
// same spec resumed from that journal with every point replayed, then the
// quickstart's edge scenario served from the generated library.
//
// The traced run replays generation outside-in: the same public calls
// generate_library makes, in the same order and on the same derive_seed
// streams, each wrapped in a span, with TimedLayer decorators around every
// train_model call. The replay's Library bytes are compared with the real
// run's (trace.replica_identical), so a generator change that the replay no
// longer mirrors voids the per-layer table visibly.

#include <filesystem>
#include <iostream>
#include <optional>

#include "analysis/lint.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/adapex.hpp"
#include "harness.hpp"
#include "library/cache.hpp"
#include "nn/quant.hpp"
#include "tensor/ops.hpp"

namespace perfbench {

namespace {

using namespace adapex;

/// The quickstart spec built from explicit presets (never from_env()).
LibraryGenSpec design_spec(std::uint64_t seed, int workers) {
  const ExperimentScale scale = ExperimentScale::tiny();
  SyntheticSpec dataset = cifar10_like_spec();
  dataset.noise_max = 1.2;
  LibraryGenSpec spec = make_gen_spec(dataset, scale, seed);
  spec.initial_train.epochs += scale.initial_epochs / 2;
  spec.prune_rates_pct = {0, 25, 50, 75};
  spec.conf_thresholds_pct = {0, 25, 50, 75, 100};
  spec.num_threads = workers;
  return spec;
}

struct DesignPoint {
  ModelVariant variant = ModelVariant::kNoExit;
  int rate_pct = 0;
  std::uint64_t retrain_seed = 0;
};

/// Sweep order and retrain streams exactly as generate_library derives
/// them (library/generator.cpp enumerate_design_points).
std::vector<DesignPoint> design_points(const LibraryGenSpec& spec) {
  std::vector<DesignPoint> points;
  for (ModelVariant variant : spec.variants) {
    for (int rate : spec.prune_rates_pct) {
      if (variant == ModelVariant::kPrunedExits && rate == 0) continue;
      points.push_back({variant, rate,
                        derive_seed(spec.seed, static_cast<std::uint64_t>(variant),
                                    static_cast<std::uint64_t>(rate))});
    }
  }
  return points;
}

void lint_base(BranchyModel& model, const LibraryGenSpec& spec) {
  auto sites = walk_compute_layers(model, spec.accel.in_channels,
                                   spec.accel.image_size);
  const FoldingConfig folding = styled_folding(sites, spec.folding_style);
  analysis::LintReport report = analysis::lint_design(model, folding, spec.accel);
  if (report.has_errors()) throw ConfigError(report.error_message());
}

/// Set-up: the spec, checked the way generate_library checks its inputs
/// before the first training epoch (gen-spec lint, the input dataset
/// synthesised, both base models built and design-linted). Only the spec
/// is kept; generate_library rebuilds the rest from it.
LibraryGenSpec make_checked_spec(const Options& opt) {
  LibraryGenSpec spec = design_spec(opt.seed, opt.workers);
  require_valid_gen_spec(spec);
  (void)make_synthetic(spec.dataset);
  Rng plain_rng(spec.seed);
  BranchyModel plain = build_cnv(spec.cnv, plain_rng);
  lint_base(plain, spec);
  Rng ee_rng(spec.seed + 1);
  BranchyModel ee = build_cnv_with_exits(spec.cnv, spec.exits, ee_rng);
  lint_base(ee, spec);
  return spec;
}

PackedMode eval_mode(const LibraryGenSpec& spec) {
  if (spec.eval_path == "float") return PackedMode::kOff;
  if (spec.eval_path == "packed") return PackedMode::kOn;
  return PackedMode::kEnv;
}

/// One design point, replayed through the public calls run_design_point
/// makes (styled folding only: the benchmark spec has no reach regimes,
/// no mitigation and no dataflow verification, which design_spec leaves at
/// their defaults).
void replay_point(const LibraryGenSpec& spec, const SyntheticDataset& data,
                  const BranchyModel& base, const DesignPoint& point,
                  int accel_id, std::vector<AcceleratorRecord>& accels,
                  std::vector<LibraryEntry>& entries) {
  const bool has_exits = point.variant != ModelVariant::kNoExit;
  BranchyModel model = base.clone();
  FoldingConfig folding;
  {
    ScopedSpan s("hls.folding");
    auto sites = walk_compute_layers(model, spec.accel.in_channels,
                                     spec.accel.image_size);
    folding = styled_folding(sites, spec.folding_style);
  }
  PruneOptions popts;
  popts.rate = point.rate_pct / 100.0;
  popts.prune_exits = point.variant == ModelVariant::kPrunedExits;
  popts.folding = folding;
  popts.in_channels = spec.accel.in_channels;
  popts.image_size = spec.accel.image_size;
  PruneReport pruned;
  {
    ScopedSpan s("pruning.prune");
    pruned = prune_model(model, popts);
  }
  if (pruned.achieved_rate > 0.0) {
    TrainConfig rt = spec.retrain;
    rt.seed = point.retrain_seed;
    instrument(model);
    {
      ScopedSpan s("nn.retrain");
      train_model(model, data.train, spec.dataset.flip_symmetry, rt);
    }
    uninstrument(model);
  }
  ExitEvaluation eval;
  {
    ScopedSpan s("nn.eval");
    eval = evaluate_exits(model, data.test, 32, 1, eval_mode(spec));
  }
  Accelerator acc;
  {
    ScopedSpan s("finn.compile");
    acc = compile_accelerator(model, folding, spec.accel);
  }
  AcceleratorRecord rec;
  rec.id = accel_id;
  rec.variant = point.variant;
  rec.prune_rate_pct = point.rate_pct;
  rec.resources = acc.total;
  rec.exit_overhead = acc.exit_overhead;
  rec.reconfig_ms = spec.reconfig.time_ms(acc);
  rec.folding_mode = "styled";
  accels.push_back(rec);

  const std::vector<int> no_exit_threshold = {-1};
  for (int ct : has_exits ? spec.conf_thresholds_pct : no_exit_threshold) {
    const EarlyExitStats stats =
        apply_threshold(eval, has_exits ? ct / 100.0 : 2.0);
    const std::vector<double> fractions =
        has_exits ? stats.exit_fraction : std::vector<double>{1.0};
    AcceleratorPerf perf;
    {
      ScopedSpan s("finn.estimate");
      perf = estimate_performance(acc, fractions, spec.power);
    }
    LibraryEntry e;
    e.accel_id = accel_id;
    e.variant = point.variant;
    e.prune_rate_pct = point.rate_pct;
    e.conf_threshold_pct = ct;
    e.accuracy = stats.accuracy;
    e.exit_fractions = fractions;
    e.ips = perf.ips;
    e.latency_ms = perf.latency_ms;
    e.peak_power_w = perf.peak_power_w;
    e.energy_per_inf_j = perf.energy_per_inf_j;
    entries.push_back(e);
  }
}

/// Outside-in replay of generate_library(spec) with spans; returns the
/// Library it assembles. `conv_shapes` receives the early-exit model's conv
/// input shapes as training saw them.
Library traced_generation(const LibraryGenSpec& spec,
                          std::vector<std::vector<int>>& conv_shapes) {
  ScopedSpan total("gen.replay");
  const std::vector<DesignPoint> points = design_points(spec);
  std::optional<SyntheticDataset> data;
  {
    ScopedSpan s("data.make_synthetic");
    data = make_synthetic(spec.dataset);
  }
  Library lib;
  lib.dataset = spec.dataset.name;
  lib.static_power_w = spec.power.static_w;
  lib.mitigation = spec.mitigation;

  auto train_base = [&](BranchyModel& model, const char* span,
                        std::vector<std::vector<int>>* shapes) {
    {
      ScopedSpan s("analysis.lint_design");
      lint_base(model, spec);
    }
    instrument(model, shapes);
    {
      ScopedSpan s(span);
      train_model(model, data->train, spec.dataset.flip_symmetry,
                  spec.initial_train);
    }
    uninstrument(model);
  };

  BranchyModel base_plain;
  {
    ScopedSpan s("model.build");
    Rng rng(spec.seed);
    base_plain = build_cnv(spec.cnv, rng);
  }
  train_base(base_plain, "nn.train_base_plain", nullptr);
  BranchyModel base_ee;
  {
    ScopedSpan s("model.build");
    Rng rng(spec.seed + 1);
    base_ee = build_cnv_with_exits(spec.cnv, spec.exits, rng);
  }
  train_base(base_ee, "nn.train_base_ee", &conv_shapes);
  {
    ScopedSpan s("nn.eval");
    const ExitEvaluation eval =
        evaluate_exits(base_plain, data->test, 32, 0, eval_mode(spec));
    lib.reference_accuracy = apply_threshold(eval, 2.0).accuracy;
  }

  std::vector<std::vector<AcceleratorRecord>> accels(points.size());
  std::vector<std::vector<LibraryEntry>> entries(points.size());
  long sweep_span = -1;
  auto run = [&](std::size_t i) {
    ScopedSpan s("gen.point", static_cast<long>(i), sweep_span);
    const BranchyModel& base =
        points[i].variant == ModelVariant::kNoExit ? base_plain : base_ee;
    replay_point(spec, *data, base, points[i], static_cast<int>(i), accels[i],
                 entries[i]);
  };
  const std::size_t threads = std::min<std::size_t>(
      static_cast<std::size_t>(spec.num_threads), points.size());
  {
    ScopedSpan s("gen.sweep");
    sweep_span = Tracer::current_span();
    if (threads <= 1) {
      for (std::size_t i = 0; i < points.size(); ++i) run(i);
    } else {
      ThreadPool pool(threads);
      for (std::size_t i = 0; i < points.size(); ++i) {
        pool.submit([&run, i] { run(i); });
      }
      pool.wait();
    }
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (auto& a : accels[i]) lib.accelerators.push_back(std::move(a));
    for (auto& e : entries[i]) lib.entries.push_back(std::move(e));
  }
  return lib;
}

struct ServeOutcome {
  double loss_pct = 0.0;
  double accuracy_pct = 0.0;
};

ServeOutcome serve(const Library& lib, AdaptPolicy policy) {
  const EdgeScenario scenario = scale_to_library(EdgeScenario{}, lib, 1.3);
  const EdgeMetrics m = simulate_edge_runs(lib, {policy, 0.10}, scenario, 10);
  return {m.inference_loss_pct, m.accuracy * 100.0};
}

}  // namespace

void replay_conv_kernels(const std::vector<std::vector<int>>& shapes,
                         const std::vector<adapex::LayerSite>& conv_sites,
                         std::uint64_t seed, bool backward, Result& r) {
  using namespace adapex;
  for (std::size_t i = 0; i < shapes.size() && i < conv_sites.size(); ++i) {
    const std::vector<int>& in_shape = shapes[i];
    if (in_shape.size() != 4) continue;
    const int n = in_shape[0], c = in_shape[1], h = in_shape[2];
    const int f = conv_sites[i].out_channels, k = conv_sites[i].kernel;
    const int oh = h - k + 1;
    Rng rng(derive_seed(seed, 0xC0DE, i));
    Tensor input(in_shape);
    input.randn_(rng, 1.0f);
    if (i > 0) {
      for (std::size_t j = 0; j < input.numel(); ++j) {
        input[j] = static_cast<float>(rng.uniform_index(4)) / 3.0f;
      }
    }
    Tensor latent({f, c, k, k});
    latent.randn_(rng, 0.1f);
    Tensor weight;
    quantize_weight_per_channel(latent, 2, weight);
    Tensor grad_out({n, f, oh, oh});
    grad_out.randn_(rng, 0.01f);
    std::vector<float> col;
    const Tensor no_bias;
    auto time_us = [](auto&& fn) {
      std::vector<double> us;
      const double start = now_s();
      while (us.size() < 5 || (elapsed_since(start) < 0.15 && us.size() < 400)) {
        const double t0 = now_s();
        fn();
        us.push_back(elapsed_since(t0) * 1e6);
      }
      return median(us);
    };
    const double fwd_us = time_us(
        [&] { (void)ops::conv2d_forward(input, weight, no_bias, col); });
    const std::string l = "l" + std::to_string(i);
    r.add("tensor.conv_fwd." + l + "_us", "us", fwd_us);
    if (!backward) continue;
    Tensor grad_in, grad_w(weight.shape()), grad_b;
    const double bwd_us = time_us([&] {
      ops::conv2d_backward(input, weight, grad_out, grad_in, grad_w, grad_b,
                           col);
    });
    // dW and dX GEMMs: 2 * (2 * N*F*C*k*k*oh*ow) flops.
    const double flops = 4.0 * n * f * c * k * k * oh * oh;
    r.add("tensor.conv_bwd." + l + "_us", "us", bwd_us);
    r.add("tensor.conv_bwd." + l + "_gflops", "GFLOP/s", flops / bwd_us * 1e-3);
  }
}

Result run_design(const Options& opt) {
  Result r;
  LibraryGenSpec spec;
  // Set-up takes tens of milliseconds, so it is repeated for >= 1 s and
  // reported as a median.
  r.add_samples("setup_s", "s", timed_setups(5, 1.0, spec, [&] {
                  return make_checked_spec(opt);
                }));
  const std::string journal = opt.workdir + "/journal";
  std::filesystem::remove_all(journal);
  spec.journal_dir = journal;
  GenerationReport report;
  spec.report = &report;

  std::cerr << "[design] generating (seed " << opt.seed << ", " << opt.workers
            << " workers)\n";
  const double t_gen = now_s();
  const Library lib = generate_library(spec);
  const double design_s = elapsed_since(t_gen);
  r.add("op_s", "s", design_s);
  r.add("design_s", "s", design_s);
  const std::string bytes = lib.to_json().dump();
  const std::size_t points = report.points.size();
  r.attempt(static_cast<long>(points), static_cast<long>(report.quarantined()));
  r.context()["generation"] = report.summary();

  // generate_library is one indivisible operation (~30-45 s on a 4-core
  // host), so a design run outlasts --seconds by that much. The repeated
  // steps after it split the window: 1/20 for the resume, 1/4 for the
  // serve tail (1 s and 5 s at 20 s). A traced run, which reports none of
  // these timings, splits at most 2 s.
  const double window = opt.trace ? std::min(opt.seconds, 2.0) : opt.seconds;

  // Resume: the identical spec against the finished journal replays every
  // point and the reference accuracy. A replay takes about a millisecond,
  // so it is repeated (>= 20 times) and reported as a median.
  std::vector<double> resume;
  bool resume_identical = true;
  const double t_resume = now_s();
  while (resume.size() < 20 ||
         (elapsed_since(t_resume) < window / 20 && resume.size() < 5000)) {
    GenerationReport replay;
    spec.report = &replay;
    const double t0 = now_s();
    const Library again = generate_library(spec);
    resume.push_back(elapsed_since(t0));
    resume_identical = resume_identical && again.to_json().dump() == bytes &&
                       replay.count(PointStatus::kReplayed) == points;
  }
  spec.report = &report;
  r.add_samples("resume_s", "s", resume);
  r.check("resume_bytes_identical", resume_identical);

  // Serving the generated library: the quickstart's AdaPEx edge episodes,
  // repeated (>= 5 times, so the median spans the host's speed swings);
  // every repetition must give the same outcome.
  const ServeOutcome adapex = serve(lib, AdaptPolicy::kAdaPEx);
  std::vector<double> serve_s;
  bool serve_repeats = true;
  const double t_serve = now_s();
  while (serve_s.size() < 5 || elapsed_since(t_serve) < window / 4) {
    const double t0 = now_s();
    const ServeOutcome again = serve(lib, AdaptPolicy::kAdaPEx);
    serve_s.push_back(elapsed_since(t0));
    serve_repeats = serve_repeats && again.loss_pct == adapex.loss_pct &&
                    again.accuracy_pct == adapex.accuracy_pct;
  }
  r.add_samples("op2_s", "s", serve_s);
  r.add_samples("serve_s", "s", serve_s);
  r.check("serve_outcome_repeats", serve_repeats);

  const ServeOutcome finn = serve(lib, AdaptPolicy::kStaticFinn);
  const ServeOutcome pronly = serve(lib, AdaptPolicy::kPrOnly);
  r.add("quality_pct", "%", adapex.accuracy_pct);
  r.add("ref_accuracy_pct", "%", lib.reference_accuracy * 100.0);
  r.add("adapex_loss_pct", "%", adapex.loss_pct);
  r.add("adapex_accuracy_pct", "%", adapex.accuracy_pct);
  Json& ctx = r.context();
  ctx["finn_loss_pct"] = finn.loss_pct;
  ctx["finn_accuracy_pct"] = finn.accuracy_pct;
  ctx["pronly_loss_pct"] = pronly.loss_pct;
  ctx["pronly_accuracy_pct"] = pronly.accuracy_pct;
  // FINN dominates when it is at least as good on both axes and strictly
  // better on one (ROADMAP item 1: true at seed 7 today).
  const bool finn_dominates =
      finn.loss_pct <= adapex.loss_pct && finn.accuracy_pct >= adapex.accuracy_pct &&
      (finn.loss_pct < adapex.loss_pct || finn.accuracy_pct > adapex.accuracy_pct);
  ctx["finn_dominates_adapex"] = finn_dominates;
  ctx["library_entries"] = lib.entries.size();
  ctx["library_accelerators"] = lib.accelerators.size();

  if (!opt.trace) return r;

  // ---- traced run: per-phase and per-layer breakdown --------------------
  r.add("library.checkpoint_s", "s", report.checkpoint_wall_s);
  {
    GenerationJournal reader(journal, library_cache_key(spec),
                             spec.checksum_mode);
    const std::vector<DesignPoint> pts = design_points(spec);
    std::vector<double> replay_s;
    bool ok = true;
    for (int rep = 0; rep < 5; ++rep) {
      const double t0 = now_s();
      double ref = 0.0;
      ok = reader.load_meta(&ref) && ok;
      for (std::size_t i = 0; i < pts.size(); ++i) {
        JournalPoint jp;
        ok = reader.load_point(i, pts[i].variant, pts[i].rate_pct,
                               pts[i].retrain_seed, &jp) && ok;
      }
      replay_s.push_back(elapsed_since(t0));
    }
    r.check("journal_points_load", ok);
    r.add_samples("library.replay_s", "s", replay_s);
  }

  std::vector<std::vector<int>> conv_shapes;
  Tracer::set_enabled(true);
  const double t_traced = now_s();
  const Library traced = traced_generation(spec, conv_shapes);
  const double traced_s = elapsed_since(t_traced);
  Tracer::set_enabled(false);
  const bool replica_identical = traced.to_json().dump() == bytes;
  r.check("trace_replica_identical", replica_identical);
  r.add("trace.replica_identical", "bool", replica_identical ? 1.0 : 0.0);
  r.add("trace.overhead_pct", "%", (traced_s - design_s) / design_s * 100.0);
  Tracer::write_chrome_trace(opt.trace_path);

  Rng ee_rng(spec.seed + 1);
  BranchyModel shape_model = build_cnv_with_exits(spec.cnv, spec.exits, ee_rng);
  std::vector<LayerSite> conv_sites;
  for (const LayerSite& s : walk_compute_layers(
           shape_model, spec.accel.in_channels, spec.accel.image_size)) {
    if (s.is_conv) conv_sites.push_back(s);
  }
  replay_conv_kernels(conv_shapes, conv_sites, opt.seed, /*backward=*/true, r);
  return r;
}

}  // namespace perfbench
