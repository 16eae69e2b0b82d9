#include "finn/accelerator.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/lint.hpp"

namespace adapex {

namespace {

struct Emitter {
  const FoldingConfig& folding;
  const AcceleratorConfig& config;
  /// The model walk (model/walk.hpp): walk-order sites — the same indexing
  /// the folding config uses, so geometry and cycle costs route through the
  /// shared site helpers (hls/folding.hpp) and cannot drift from the folding
  /// optimizers' objective — and the activation shape entering every layer.
  const ModelWalk& walk;
  std::vector<HlsModule> modules;
  std::size_t fold_index = 0;  // walk-order cursor

  /// Appends `m`, tagged with its gating metadata, to the module list and
  /// its index to `path`.
  void push(HlsModule m, int exit_level, int exit_head,
            std::vector<int>& path) {
    m.exit_level = exit_level;
    m.exit_head = exit_head;
    path.push_back(static_cast<int>(modules.size()));
    modules.push_back(std::move(m));
  }

  /// Emits all modules of one Sequential, whose per-layer input shapes the
  /// walk recorded in `shapes`; appends the emitted module indices to
  /// `path`. `stream_pe` is the parallelism (channels per cycle) of the
  /// producing stream, used to cost pool/branch units that run at line
  /// rate. `exit_level` is the number of upstream branch points;
  /// `exit_head` tags exit-head modules.
  void emit_sequential(Sequential& seq, const std::vector<ActShape>& shapes,
                       const std::string& prefix, int& stream_pe,
                       int exit_level, int exit_head, std::vector<int>& path) {
    for (std::size_t i = 0; i < seq.size(); ++i) {
      const std::string name = prefix + "." + std::to_string(i);
      const LayerKind kind = seq.layer(i).kind();
      if (kind == LayerKind::kConv || kind == LayerKind::kLinear) {
        const std::size_t idx = next_index(seq.layer(i));
        const LayerSite& site = walk.sites[idx];
        const LayerFold fold = folding.folds[idx];
        const MvtuGeometry g = site_mvtu_geometry(site);
        if (site.is_conv) {
          HlsModule swu;
          swu.kind = HlsModuleKind::kSwu;
          swu.name = name + ".swu";
          swu.cycles = swu_cycles(g, fold.simd);
          swu.resources = swu_resources(g, fold.simd, config.cost);
          swu.in_stream_elems = stream_pe;
          swu.out_stream_elems = fold.simd;
          push(std::move(swu), exit_level, exit_head, path);
        }
        HlsModule mvtu;
        mvtu.kind = HlsModuleKind::kMvtu;
        mvtu.name = name + ".mvtu";
        mvtu.cycles = site_fold_cycles(site, fold);
        mvtu.resources = mvtu_resources(g, fold.pe, fold.simd, config.cost);
        mvtu.in_stream_elems = fold.simd;
        mvtu.out_stream_elems = fold.pe;
        push(std::move(mvtu), exit_level, exit_head, path);
        stream_pe = fold.pe;
      } else if (kind == LayerKind::kMaxPool) {
        const ActShape& in = shapes[i];
        HlsModule m;
        m.kind = HlsModuleKind::kPool;
        m.name = name + ".pool";
        m.cycles = pool_cycles(in.channels, in.dim, stream_pe);
        m.resources = pool_resources(in.channels, stream_pe,
                                     preceding_act_bits(seq, i), config.cost);
        m.in_stream_elems = stream_pe;
        m.out_stream_elems = stream_pe;
        push(std::move(m), exit_level, exit_head, path);
      }
      // Flatten reshapes the stream; BatchNorm and ActQuant are absorbed
      // into MVTU thresholds.
    }
  }

  /// Advances the walk-order cursor for one compute layer, checking the
  /// emit order against the walk sites.
  std::size_t next_index(const Layer& layer) {
    ADAPEX_CHECK(fold_index < folding.folds.size(),
                 "folding config shorter than model layer list");
    ADAPEX_ASSERT(fold_index < walk.sites.size() &&
                  walk.sites[fold_index].layer == &layer);
    return fold_index++;
  }
};

}  // namespace

Accelerator compile_accelerator(BranchyModel& model,
                                const FoldingConfig& folding,
                                const AcceleratorConfig& config) {
  // Precondition: the design-level lint rules must hold. All violations are
  // reported at once in a single ConfigError (analysis/lint.hpp), replacing
  // the old first-check-wins ADAPEX_CHECK aborts.
  analysis::require_valid_design(model, folding, config);

  const ModelWalk walk =
      walk_model(model, config.in_channels, config.image_size);
  Emitter emitter{folding, config, walk, {}, 0};
  Accelerator acc;
  acc.fclk_mhz = config.fclk_mhz;
  acc.num_exits = static_cast<int>(model.num_exits());

  // Backbone blocks; record the stream parallelism at each block output and
  // the module path prefix at each exit.
  int stream_pe = 1;
  std::vector<int> backbone_path;
  std::vector<int> block_pe(model.num_blocks());
  // Exit attachment bookkeeping: exits are sorted by block; count upstream
  // branch points to set exit levels.
  std::vector<std::vector<int>> path_prefix_at_exit(model.num_exits());

  int exits_seen = 0;
  for (std::size_t b = 0; b < model.num_blocks(); ++b) {
    emitter.emit_sequential(model.block(b), walk.blocks[b],
                            "backbone.b" + std::to_string(b), stream_pe,
                            exits_seen, -1, backbone_path);
    block_pe[b] = stream_pe;
    // Insert a branch module per exit attached at this block's output.
    const ActShape& out = walk.blocks[b].back();
    for (std::size_t e = 0; e < model.num_exits(); ++e) {
      if (model.exit(e).after_block != static_cast<int>(b)) continue;
      HlsModule branch;
      branch.kind = HlsModuleKind::kBranch;
      branch.name = "branch.exit" + std::to_string(e);
      branch.cycles = branch_cycles(out.channels, out.dim, stream_pe);
      branch.resources = branch_resources(out.channels, out.dim, stream_pe, 2,
                                          config.cost);
      branch.in_stream_elems = stream_pe;
      branch.out_stream_elems = stream_pe;
      emitter.push(std::move(branch), exits_seen, -1, backbone_path);
      path_prefix_at_exit[e] = backbone_path;  // snapshot incl. the branch
      ++exits_seen;
    }
  }

  // Exit heads. The emitter's fold cursor continues in walk order (backbone
  // layers first, then exit layers), matching walk_compute_layers.
  std::vector<std::vector<int>> exit_paths(model.num_exits());
  for (std::size_t e = 0; e < model.num_exits(); ++e) {
    int head_pe = block_pe[static_cast<std::size_t>(model.exit(e).after_block)];
    std::vector<int> head_path = path_prefix_at_exit[e];
    emitter.emit_sequential(*model.exit(e).head, walk.exits[e],
                            "exit" + std::to_string(e), head_pe,
                            static_cast<int>(e), static_cast<int>(e),
                            head_path);
    exit_paths[e] = std::move(head_path);
  }

  acc.modules = std::move(emitter.modules);
  for (auto& p : exit_paths) acc.paths.push_back(std::move(p));
  acc.paths.push_back(std::move(backbone_path));

  for (const auto& m : acc.modules) {
    acc.total += m.resources;
    if (m.exit_head >= 0 || m.kind == HlsModuleKind::kBranch) {
      acc.exit_overhead += m.resources;
    }
  }
  return acc;
}

std::vector<int> module_predecessors(const Accelerator& acc) {
  std::vector<int> pred(acc.modules.size(), -1);
  for (const auto& path : acc.paths) {
    for (std::size_t i = 1; i < path.size(); ++i) {
      pred[static_cast<std::size_t>(path[i])] = path[i - 1];
    }
  }
  return pred;
}

std::vector<std::pair<int, int>> accelerator_links(const Accelerator& acc) {
  std::vector<std::pair<int, int>> links;
  for (const auto& path : acc.paths) {
    for (std::size_t i = 1; i < path.size(); ++i) {
      const std::pair<int, int> link{path[i - 1], path[i]};
      if (std::find(links.begin(), links.end(), link) == links.end()) {
        links.push_back(link);
      }
    }
  }
  return links;
}

std::vector<double> realized_fractions(const Accelerator& acc,
                                       const std::vector<int>& exit_of_image) {
  ADAPEX_CHECK(!exit_of_image.empty(), "empty stimulus");
  std::vector<double> fractions(static_cast<std::size_t>(acc.num_exits) + 1,
                                0.0);
  for (int e : exit_of_image) {
    ADAPEX_CHECK(e >= 0 && e <= acc.num_exits, "exit index out of range");
    fractions[static_cast<std::size_t>(e)] += 1.0;
  }
  for (double& f : fractions) f /= static_cast<double>(exit_of_image.size());
  return fractions;
}

double gated_steady_ii(const Accelerator& acc,
                       const std::vector<double>& exit_fractions,
                       int* bottleneck) {
  ADAPEX_CHECK(
      static_cast<int>(exit_fractions.size()) == acc.num_exits + 1,
      "exit fraction arity must equal outputs");
  const auto reach = reach_from_fractions(exit_fractions);
  double ii = 0.0;
  int binding = -1;
  for (std::size_t m = 0; m < acc.modules.size(); ++m) {
    const double gated = static_cast<double>(acc.modules[m].cycles) *
                         module_reach(acc.modules[m], reach);
    if (gated > ii) {
      ii = gated;
      binding = static_cast<int>(m);
    }
  }
  if (bottleneck != nullptr) *bottleneck = binding;
  return ii;
}

std::vector<double> reach_from_fractions(
    const std::vector<double>& fractions) {
  std::vector<double> reach(fractions.size(), 1.0);
  double survived = 1.0;
  for (std::size_t e = 0; e < fractions.size(); ++e) {
    reach[e] = survived;
    survived -= fractions[e];
  }
  return reach;
}

AcceleratorPerf estimate_performance(const Accelerator& acc,
                                     const std::vector<double>& exit_fractions,
                                     const PowerModel& power) {
  ADAPEX_CHECK(static_cast<int>(exit_fractions.size()) == acc.num_exits + 1,
               "exit fraction arity must equal outputs");
  double sum = 0.0;
  for (double f : exit_fractions) {
    ADAPEX_CHECK(f >= -1e-9, "negative exit fraction");
    sum += f;
  }
  ADAPEX_CHECK(std::abs(sum - 1.0) < 1e-6, "exit fractions must sum to 1");

  const auto reach = reach_from_fractions(exit_fractions);
  AcceleratorPerf perf;
  // Effective initiation interval: the bottleneck module's expected
  // occupancy per offered input.
  const double ii_cycles = gated_steady_ii(acc, exit_fractions);
  ADAPEX_CHECK(ii_cycles > 0.0, "degenerate accelerator (no work)");
  perf.ips = acc.fclk_hz() / ii_cycles;

  // Per-exit latency: sum of module cycles along the exit's path (FINN's
  // analytical latency convention).
  perf.latency_ms_per_exit.resize(acc.paths.size());
  perf.latency_ms = 0.0;
  for (std::size_t e = 0; e < acc.paths.size(); ++e) {
    double cycles = 0.0;
    for (int mi : acc.paths[e]) {
      cycles += static_cast<double>(acc.modules[static_cast<std::size_t>(mi)].cycles);
    }
    perf.latency_ms_per_exit[e] = cycles / acc.fclk_hz() * 1e3;
    perf.latency_ms += exit_fractions[e] * perf.latency_ms_per_exit[e];
  }

  // Energy: work actually performed per inference (gated tail), plus the
  // static share at the achieved rate; peak power at full utilization.
  double dyn_energy = 0.0;
  double dyn_power = 0.0;
  for (const auto& m : acc.modules) {
    const double peak_w = power.module_peak_w(m.resources);
    const double busy_cycles = m.cycles * module_reach(m, reach);
    dyn_energy += peak_w * busy_cycles / acc.fclk_hz();
    dyn_power += peak_w * busy_cycles / ii_cycles;
  }
  perf.peak_power_w = power.static_w + dyn_power;
  perf.energy_per_inf_j = dyn_energy + power.static_w / perf.ips;
  return perf;
}

}  // namespace adapex
