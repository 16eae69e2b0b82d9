// Structural walk over a BranchyModel — the only code that propagates
// activation geometry through a model.
//
// Produces the ordered list of compute layers (conv + fc — the layers FINN
// maps to MVTU hardware units) together with their geometry: input/output
// channels, spatial dimensions, and kernel size, plus the activation shape
// entering every layer (pool inputs and block outputs included). The walk
// order is the canonical layer order used everywhere an accelerator
// artifact is indexed per-layer (folding configs, pruning reports, resource
// breakdowns): backbone blocks first (in block order), then each exit head
// (in exit order).
//
// Shape violations are the static verifier's rule R2 (analysis/lint.hpp).
// The walk reports each one into a LintReport and recovers with the
// offending layer's declared geometry, so one run finds every inconsistent
// site; the strict entry points throw one ConfigError listing all of them.

#pragma once

#include <string>
#include <vector>

#include "nn/branchy.hpp"

namespace adapex {

namespace analysis {
struct LintReport;
}

/// Where a compute layer lives.
enum class SiteLoc { kBackbone, kExit };

/// One conv/fc layer with resolved geometry.
struct LayerSite {
  SiteLoc loc = SiteLoc::kBackbone;
  /// Block index for backbone sites; exit index for exit sites.
  int group = 0;
  /// Index of the layer inside its Sequential container.
  int layer_index = 0;
  Layer* layer = nullptr;
  /// The Sequential that owns the layer (for surgery on adjacent layers).
  Sequential* container = nullptr;
  bool is_conv = false;

  int in_channels = 0;   ///< Conv: channels. FC: input features.
  int out_channels = 0;  ///< Conv: filters. FC: output features.
  int kernel = 1;        ///< Conv kernel size (1 for FC).
  int in_dim = 1;        ///< Input feature-map side (1 for FC).
  int out_dim = 1;       ///< Output feature-map side (1 for FC).

  /// Stable human-readable identifier, e.g. "backbone.b0.conv1",
  /// "exit0.conv0", "backbone.b2.fc2".
  std::string name;
};

/// Activation geometry flowing between two layers.
struct ActShape {
  int channels = 0;
  int dim = 0;        ///< Feature-map side (0 when a window did not fit).
  int features = 0;   ///< Valid once flattened.
  bool flattened = false;
};

/// One walk of a model. Each shape list holds the activation entering
/// every layer of its Sequential, plus one trailing entry for the
/// container's output.
struct ModelWalk {
  std::vector<LayerSite> sites;
  std::vector<std::vector<ActShape>> blocks;  ///< One list per block.
  std::vector<std::vector<ActShape>> exits;   ///< One list per exit head.
};

/// Walks the model from a `in_channels` x `image_size` x `image_size`
/// input. Every R2 finding is appended to `report`; with `report` null the
/// walk throws one ConfigError listing them instead.
ModelWalk walk_model(BranchyModel& model, int in_channels, int image_size,
                     analysis::LintReport* report = nullptr);

/// The compute sites of walk_model(); throws ConfigError listing every
/// shape violation when the layers disagree with the declared input.
std::vector<LayerSite> walk_compute_layers(BranchyModel& model, int in_channels,
                                           int image_size);

}  // namespace adapex
