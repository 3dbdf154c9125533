// Single-lane replay of evaluation windows on one SimSession, used for two
// things: the VecEnv output check (a serial scalar replay must reproduce
// evaluate()'s per-window metrics bit for bit) and the sim / features /
// forward split of the evaluation path.
//
// The split is differential and loop-level, never per call: a decision costs
// well under a microsecond in some layers, where a timer read per call would
// cost more than the work. Three loops run over the same windows:
//   1. sim alone, stepping the decisions recorded by a first full replay;
//   2. the same plus FeatureBuilder::build_row at every decision;
//   3. the same plus the scalar policy forward that makes the decision.
// sim = t1, features = t2 - t1, forward = t3 - t2; each loop time is the
// median of `reps` interleaved repetitions.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/features.hpp"
#include "core/vec_env.hpp"
#include "rl/actor_critic.hpp"
#include "sched/policy.hpp"
#include "sim/config.hpp"
#include "workload/trace.hpp"

namespace perfbench {

/// The windows evaluate() draws for (seed, count, length): the same master
/// stream, consumed in the same order.
std::vector<std::vector<si::Job>> eval_windows(const si::Trace& trace,
                                               std::uint64_t seed,
                                               std::size_t count,
                                               std::size_t length);

struct ReplayReport {
  std::size_t windows = 0;
  std::size_t decisions = 0;   ///< inspected decision points replayed
  std::size_t rejections = 0;
  double sim_s = 0.0;          ///< loop 1 over all windows
  double features_s = 0.0;     ///< loop 2 - loop 1
  double forward_s = 0.0;      ///< loop 3 - loop 2
  double base_s = 0.0;         ///< base-policy runs of the same windows
  double total_s = 0.0;        ///< the `total` callback, when given
  /// Observation rows of every decision, row-major (feature_count wide).
  std::vector<double> rows;
  /// Empty when the replay matched every reference pair bit for bit.
  std::string mismatch;
};

/// Replays `windows` greedily with `ac` on one lane. When `reference` is
/// non-null it holds evaluate()'s pair for each window, and any difference
/// in any metric field is reported in `mismatch`. `reps` = 0 skips the
/// timing loops (check only). When `total` is set, it runs once in every
/// repetition, between the loops, so that it sees the same host conditions;
/// its median time is returned in ReplayReport::total_s.
ReplayReport replay_windows(const std::vector<std::vector<si::Job>>& windows,
                            const std::vector<si::PairedRollout>* reference,
                            int total_procs, const si::SimConfig& sim,
                            const si::SchedulingPolicy& policy,
                            const si::ActorCritic& ac,
                            const si::FeatureBuilder& features, int reps,
                            const std::function<void()>& total = {});

}  // namespace perfbench
