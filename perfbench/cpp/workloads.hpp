// The benchmark workloads. Each drives the library only through its public
// entry points and fills a Result: the end-to-end metrics when untraced, the
// per-layer metrics when traced (opts.trace).
#pragma once

#include "util.hpp"

namespace perfbench {

/// Fixed seed of the synthetic SDSC-SP2 trace (the paper's log is one fixed
/// trace); --seed varies the sampled windows and the training run.
inline constexpr std::uint64_t kTraceSeed = 2022;
/// Set-ups per run: set-up takes milliseconds, so setup_s is the median of
/// many.
inline constexpr int kSetups = 15;
/// Seed of the fixed 8-32-16-8 policy net of the eval and serve workloads.
inline constexpr std::uint64_t kModelSeed = 7;

Result run_train(const Options& opts);
Result run_eval(const Options& opts);
Result run_serve(const Options& opts, double rate_per_s);

}  // namespace perfbench
