#include "core/scale.hpp"

#include "common/env.hpp"

namespace adapex {

ExperimentScale ExperimentScale::tiny() {
  ExperimentScale s;
  s.name = "tiny";
  s.width_scale = 0.1875;
  s.train_size = 300;
  s.test_size = 150;
  s.initial_epochs = 12;
  s.retrain_epochs = 2;
  return s;
}

ExperimentScale ExperimentScale::small_scale() {
  return ExperimentScale{};  // defaults (see struct initializers)
}

ExperimentScale ExperimentScale::medium() {
  ExperimentScale s;
  s.name = "medium";
  s.width_scale = 0.5;
  s.train_size = 800;
  s.test_size = 400;
  s.initial_epochs = 16;
  s.retrain_epochs = 4;
  return s;
}

ExperimentScale ExperimentScale::paper() {
  ExperimentScale s;
  s.name = "paper";
  s.width_scale = 1.0;
  s.train_size = 50000;
  s.test_size = 10000;
  s.initial_epochs = 40;
  s.retrain_epochs = 40;  // paper: pruned models retrained for 40 epochs
  s.lr = 1e-3;            // paper recipe
  s.batch_size = 64;
  return s;
}

ExperimentScale ExperimentScale::from_env() {
  const std::string name = env_value("ADAPEX_SCALE").value_or("small");
  if (name == "tiny") return tiny();
  if (name == "small") return small_scale();
  if (name == "medium") return medium();
  if (name == "paper") return paper();
  throw ConfigError("unknown ADAPEX_SCALE: " + name +
                    " (expected tiny|small|medium|paper)");
}

LibraryGenSpec make_gen_spec(const SyntheticSpec& dataset,
                             const ExperimentScale& scale,
                             std::uint64_t seed) {
  LibraryGenSpec spec;
  spec.dataset = dataset;
  // Class-aware sizing: many-class datasets (GTSRB-like: 43) need more
  // samples per class — and more joint-loss epochs — for the early-exit
  // heads to train to the paper's proportions (EE final exit within a few
  // points of the plain model).
  const int class_factor = dataset.num_classes > 20 ? 2 : 1;
  spec.dataset.train_size = scale.train_size * class_factor;
  spec.dataset.test_size = scale.test_size * class_factor;
  const int epoch_boost = dataset.num_classes > 20 ? scale.initial_epochs / 2 : 0;

  spec.cnv = CnvConfig{}.scaled(scale.width_scale);
  spec.cnv.num_classes = dataset.num_classes;
  spec.exits = paper_exits_config(false);

  set_paper_sweeps(spec);

  spec.initial_train.epochs = scale.initial_epochs + epoch_boost;
  spec.initial_train.batch_size = scale.batch_size;
  spec.initial_train.lr = scale.lr;
  spec.initial_train.seed = seed + 11;

  spec.retrain.epochs = scale.retrain_epochs;
  spec.retrain.batch_size = scale.batch_size;
  // Retraining resumes from a trained model: use a gentler rate.
  spec.retrain.lr = scale.lr * 0.5;

  spec.seed = seed;
  return spec;
}

}  // namespace adapex
