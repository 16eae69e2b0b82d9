#include "nn/trainer.hpp"

#include <algorithm>
#include <numeric>

#include "common/thread_pool.hpp"
#include "tensor/ops.hpp"

namespace adapex {

std::vector<double> resolve_exit_weights(const TrainConfig& config,
                                         std::size_t num_outputs) {
  if (!config.exit_weights.empty()) {
    ADAPEX_CHECK(config.exit_weights.size() == num_outputs,
                 "exit_weights arity must match model outputs");
    return config.exit_weights;
  }
  std::vector<double> w(num_outputs, 0.3);
  w.front() = 1.0;
  if (num_outputs == 1) w.front() = 1.0;
  return w;
}

std::vector<EpochStats> train_model(BranchyModel& model, const Dataset& train,
                                    bool flip_symmetry,
                                    const TrainConfig& config,
                                    std::size_t team_size) {
  ADAPEX_CHECK(train.size() > 0, "empty training set");
  WorkTeam team(std::clamp<std::size_t>(
      team_size, 1, static_cast<std::size_t>(std::max(config.batch_size, 1))));
  const WorkTeam::TeamScope scope(&team);
  const auto weights = resolve_exit_weights(config, model.num_outputs());

  Sgd optimizer(model.params(),
                {config.lr, config.momentum, config.weight_decay});
  Rng rng(config.seed);
  std::vector<int> order(static_cast<std::size_t>(train.size()));
  std::iota(order.begin(), order.end(), 0);

  std::vector<EpochStats> history;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    if (epoch > 0 && config.lr_decay_epochs > 0 &&
        epoch % config.lr_decay_epochs == 0) {
      optimizer.set_lr(optimizer.lr() * config.lr_decay);
    }
    // Fisher–Yates shuffle with the deterministic generator.
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.uniform_index(i)]);
    }
    EpochStats stats;
    int seen = 0, correct = 0;
    for (int start = 0; start < train.size(); start += config.batch_size) {
      const int end = std::min(start + config.batch_size, train.size());
      const int* idx = order.data() + start;
      const int count = end - start;
      Tensor batch = train.batch_images(idx, count);
      if (config.augment) {
        const int c = train.channels(), h = train.height(), w = train.width();
        const std::size_t per_img = static_cast<std::size_t>(c) * h * w;
        // Augment straight from the source image into the image's slot in
        // the batch buffer: same rng draws and same values as the old
        // copy-out/augment/copy-back, without two heap tensors per image.
        for (int i = 0; i < count; ++i) {
          augment_image_into(train.image(idx[i]).data(),
                             batch.data() + static_cast<std::size_t>(i) * per_img,
                             c, h, w, flip_symmetry, rng);
        }
      }
      const std::vector<int> labels = train.batch_labels(idx, count);

      auto logits = model.forward(batch, /*train=*/true);
      std::vector<Tensor> grads(logits.size());
      double joint = 0.0;
      for (std::size_t e = 0; e < logits.size(); ++e) {
        Tensor g;
        const double loss = ops::cross_entropy(logits[e], labels, g);
        joint += weights[e] * loss;
        g.scale_(static_cast<float>(weights[e]));
        grads[e] = std::move(g);
      }
      model.backward(grads);
      optimizer.step();

      stats.joint_loss += joint * static_cast<double>(count);
      const Tensor& final_logits = logits.back();
      for (int i = 0; i < count; ++i) {
        int best = 0;
        for (int k = 1; k < final_logits.dim(1); ++k) {
          if (final_logits.at2(i, k) > final_logits.at2(i, best)) {
            best = k;
          }
        }
        if (best == labels[static_cast<std::size_t>(i)]) ++correct;
        ++seen;
      }
    }
    stats.joint_loss /= train.size();
    stats.final_exit_accuracy =
        static_cast<double>(correct) / std::max(seen, 1);
    history.push_back(stats);
  }
  return history;
}

}  // namespace adapex
