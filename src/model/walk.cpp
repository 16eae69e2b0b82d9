#include "model/walk.hpp"

#include "analysis/diagnostics.hpp"
#include "common/error.hpp"
#include "tensor/ops.hpp"

namespace adapex {

namespace {

using analysis::Severity;

/// Output side of a `kernel`/`stride` window over a `dim`-wide feature
/// map, or 0 when the window does not fit.
int window_out(int dim, int kernel, int stride) {
  return dim >= kernel ? ops::out_dim(dim, kernel, stride) : 0;
}

/// Walks one Sequential from `shape`, appending its conv/fc sites to
/// `sites`, the input shape of each layer (then the output) to `shapes`,
/// and every R2 violation to `report`.
void walk_sequential(Sequential& seq, SiteLoc loc, int group,
                     const std::string& prefix, ActShape shape,
                     std::vector<LayerSite>& sites,
                     std::vector<ActShape>& shapes,
                     analysis::LintReport& report) {
  auto error = [&](const std::string& site, std::string message,
                   std::string hint) {
    report.add("R2", Severity::kError, site, std::move(message),
               std::move(hint));
  };
  shapes.reserve(seq.size() + 1);
  int conv_count = 0, fc_count = 0;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    shapes.push_back(shape);
    Layer& layer = seq.layer(i);
    LayerSite site;
    site.loc = loc;
    site.group = group;
    site.layer_index = static_cast<int>(i);
    site.layer = &layer;
    site.container = &seq;
    switch (layer.kind()) {
      case LayerKind::kConv: {
        auto& conv = static_cast<QuantConv2d&>(layer);
        site.name = prefix + ".conv" + std::to_string(conv_count++);
        if (shape.flattened) {
          error(site.name, "conv applied to a flattened activation",
                "move the conv before Flatten or drop the Flatten");
        } else if (conv.in_channels() != shape.channels) {
          error(site.name,
                "conv expects " + std::to_string(conv.in_channels()) +
                    " input channels but the incoming activation has " +
                    std::to_string(shape.channels),
                "match the conv's in_channels to its producer");
        }
        const int out_dim =
            shape.flattened ? 0 : window_out(shape.dim, conv.kernel(), 1);
        if (!shape.flattened && out_dim <= 0) {
          error(site.name,
                "kernel " + std::to_string(conv.kernel()) +
                    " does not fit the " + std::to_string(shape.dim) + "x" +
                    std::to_string(shape.dim) + " feature map",
                "reduce pooling upstream or shrink the kernel");
        }
        site.is_conv = true;
        site.in_channels = conv.in_channels();
        site.out_channels = conv.out_channels();
        site.kernel = conv.kernel();
        site.in_dim = shape.dim;
        site.out_dim = out_dim;
        sites.push_back(std::move(site));
        // Recover with the layer's declared geometry.
        shape.channels = conv.out_channels();
        shape.dim = out_dim;
        break;
      }
      case LayerKind::kLinear: {
        auto& fc = static_cast<QuantLinear&>(layer);
        site.name = prefix + ".fc" + std::to_string(fc_count++);
        if (!shape.flattened) {
          error(site.name,
                "fully-connected layer fed an unflattened activation",
                "insert a Flatten before the first fc layer");
        } else if (fc.in_features() != shape.features) {
          error(site.name,
                "fc expects " + std::to_string(fc.in_features()) +
                    " input features but the incoming activation has " +
                    std::to_string(shape.features),
                "match the fc's in_features to its producer");
        }
        site.in_channels = fc.in_features();
        site.out_channels = fc.out_features();
        sites.push_back(std::move(site));
        shape.features = fc.out_features();
        shape.flattened = true;
        break;
      }
      case LayerKind::kMaxPool: {
        auto& pool = static_cast<MaxPool2d&>(layer);
        const std::string name = prefix + "." + std::to_string(i) + ".pool";
        if (shape.flattened) {
          error(name, "max-pool applied to a flattened activation",
                "move the pool before Flatten");
          break;
        }
        const int out_dim = window_out(shape.dim, pool.kernel(), pool.stride());
        if (out_dim <= 0) {
          error(name,
                "pool kernel " + std::to_string(pool.kernel()) +
                    " does not fit the " + std::to_string(shape.dim) + "x" +
                    std::to_string(shape.dim) + " feature map",
                "shrink the pool kernel or pool less upstream");
        }
        shape.dim = out_dim;
        break;
      }
      case LayerKind::kFlatten: {
        if (shape.flattened) {
          error(prefix + "." + std::to_string(i) + ".flatten",
                "activation flattened twice", "drop the second Flatten");
          break;
        }
        shape.features = shape.channels * shape.dim * shape.dim;
        shape.flattened = true;
        break;
      }
      case LayerKind::kBatchNorm:
      case LayerKind::kActQuant:
        break;  // Shape-preserving.
    }
  }
  shapes.push_back(shape);
}

}  // namespace

ModelWalk walk_model(BranchyModel& model, int in_channels, int image_size,
                     analysis::LintReport* report) {
  analysis::LintReport local;
  analysis::LintReport& sink = report != nullptr ? *report : local;
  ModelWalk walk;
  if (model.num_blocks() == 0) {
    sink.add("R2", Severity::kError, "model", "model has no backbone blocks",
             "add at least one block ending in the final classifier");
  } else {
    if (in_channels <= 0 || image_size <= 0) {
      sink.add("R2", Severity::kError, "model",
               "input image must have positive channels and size (got " +
                   std::to_string(in_channels) + "x" +
                   std::to_string(image_size) + "x" +
                   std::to_string(image_size) + ")",
               "fix AcceleratorConfig::in_channels / image_size");
    }
    ActShape shape;
    shape.channels = in_channels;
    shape.dim = image_size;
    walk.blocks.resize(model.num_blocks());
    for (std::size_t b = 0; b < model.num_blocks(); ++b) {
      walk_sequential(model.block(b), SiteLoc::kBackbone, static_cast<int>(b),
                      "backbone.b" + std::to_string(b), shape, walk.sites,
                      walk.blocks[b], sink);
      shape = walk.blocks[b].back();
    }
    // Exit heads start from their block's output (add_exit guarantees an
    // intermediate block).
    walk.exits.resize(model.num_exits());
    for (std::size_t e = 0; e < model.num_exits(); ++e) {
      const std::string name = "exit" + std::to_string(e);
      const ActShape& at =
          walk.blocks[static_cast<std::size_t>(model.exit(e).after_block)]
              .back();
      if (at.flattened) {
        sink.add("R2", Severity::kError, name,
                 "exit attaches to a flattened activation",
                 "attach the exit before the backbone flattens");
      }
      walk_sequential(*model.exit(e).head, SiteLoc::kExit, static_cast<int>(e),
                      name, at, walk.sites, walk.exits[e], sink);
    }
  }
  if (report == nullptr && local.has_errors()) {
    throw ConfigError(local.error_message());
  }
  return walk;
}

std::vector<LayerSite> walk_compute_layers(BranchyModel& model,
                                           int in_channels, int image_size) {
  return walk_model(model, in_channels, image_size).sites;
}

}  // namespace adapex
