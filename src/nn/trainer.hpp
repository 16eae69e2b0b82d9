// Training loop for early-exit CNNs with the BranchyNet joint loss.
//
// J_loss = sum_n w_n * CE(logits_exit_n, y)  — all exits trained together
// (paper section IV-A1: first exit weighted 1.0, remaining 0.3; the "first"
// weight in the paper's convention applies to the earliest exit).

#pragma once

#include <vector>

#include "data/dataset.hpp"
#include "nn/branchy.hpp"
#include "nn/optim.hpp"

namespace adapex {

/// Training hyperparameters.
struct TrainConfig {
  int epochs = 10;
  int batch_size = 32;
  double lr = 1e-3;
  double momentum = 0.9;
  double weight_decay = 1e-4;
  /// Multiplies lr by `lr_decay` every `lr_decay_epochs` epochs.
  double lr_decay = 0.1;
  int lr_decay_epochs = 20;
  /// Loss weight per output. Must have one entry per model output (exits
  /// then final); empty means "1.0 for the earliest exit, 0.3 for the rest"
  /// per the paper, or just {1.0} for exit-less models.
  std::vector<double> exit_weights;
  bool augment = true;
  std::uint64_t seed = 99;
};

/// Per-epoch training record.
struct EpochStats {
  double joint_loss = 0.0;
  /// TOP-1 training accuracy of the final exit.
  double final_exit_accuracy = 0.0;
};

/// Resolves the effective per-output weights for a model.
std::vector<double> resolve_exit_weights(const TrainConfig& config,
                                         std::size_t num_outputs);

/// Trains `model` in place; returns one EpochStats per epoch.
///
/// `team_size` threads share each training step: the calling thread and
/// team_size - 1 helpers it starts and joins (a WorkTeam,
/// common/thread_pool.hpp, capped at the batch size), which split the conv,
/// BatchNorm and activation-quantizer passes. The trained model is
/// byte-identical at every team size; 1 (the default) trains on the calling
/// thread alone.
///
/// Thread-safety contract (relied on by the parallel library generator):
/// the only state mutated is `model` and locals — `train` and `config` are
/// accessed read-only and all randomness comes from a private Rng seeded
/// with `config.seed`. Concurrent calls on *distinct* models sharing one
/// const Dataset are safe and bit-reproducible, each with its own team.
std::vector<EpochStats> train_model(BranchyModel& model, const Dataset& train,
                                    bool flip_symmetry,
                                    const TrainConfig& config,
                                    std::size_t team_size = 1);

}  // namespace adapex
