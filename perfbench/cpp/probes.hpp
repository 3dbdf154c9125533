// Layer probes that run outside the timed end-to-end work: MLP kernel cost
// on a workload's own observation rows, and model file save/load cost.
#pragma once

#include <span>
#include <string>

#include "rl/actor_critic.hpp"

namespace perfbench {

struct MlpProbe {
  double forward_batch_ns_per_row = 0.0;
  double backward_batch_ns_per_row = 0.0;
};

/// Times Mlp::forward_batch over `rows` (row-major, net.input_size() wide)
/// in blocks of `block` rows, and backward_batch differentially (forward +
/// backward loop minus forward loop). Whole passes over all rows are timed,
/// never single calls; each figure is the median over passes.
MlpProbe mlp_probe(const si::Mlp& net, std::span<const double> rows,
                   int block, double min_seconds);

struct ModelIoProbe {
  double save_ms = 0.0;
  double load_ms = 0.0;
  bool round_trip_exact = true;  ///< loaded parameters equal the saved ones
};

/// Median save and load time of `ac` through the model_io file API at
/// `path`: checkpoint files when `checkpoint`, plain model files otherwise.
ModelIoProbe model_io_probe(const si::ActorCritic& ac, const std::string& path,
                            bool checkpoint, int reps);

}  // namespace perfbench
