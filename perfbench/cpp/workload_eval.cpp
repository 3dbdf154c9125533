// eval-sdsc-backfill: greedy paired evaluate() over many 256-job SDSC-SP2
// test windows with EASY backfill, the default worker count and rollout
// batch, and a fixed seeded 8-32-16-8 policy net whose output bias is 0, so
// about a quarter of inspections are rejected and the retry path runs. The
// unit of work is one evaluate() call over kWindowsPerCall windows.
//
// Every run checks the VecEnv contract on a sample of windows: a serial
// single-lane SimSession replay must reproduce evaluate()'s per-window
// metrics bit for bit. The traced run adds evaluate_base on the same
// windows, the replay's sim / features / forward split, and a serial
// (one-worker) evaluate of the replayed windows as the total the split must
// add up to.
#include <cmath>
#include <memory>
#include <tuple>
#include <vector>

#include "core/evaluator.hpp"
#include "probes.hpp"
#include "replay.hpp"
#include "rl/model_io.hpp"
#include "sched/factory.hpp"
#include "workload/registry.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kWindowsPerCall = 256;
constexpr std::size_t kCheckWindows = 16;

struct EvalSetup {
  si::Trace train;
  si::Trace test;
  si::PolicyPtr policy;
  std::unique_ptr<si::FeatureBuilder> features;
  std::unique_ptr<si::ActorCritic> ac;
};

std::unique_ptr<EvalSetup> make_setup(const Options& opts) {
  auto s = std::make_unique<EvalSetup>();
  const si::Trace trace = si::make_trace("SDSC-SP2", si::kDefaultTraceJobs, kTraceSeed);
  std::tie(s->train, s->test) = trace.split(0.2);
  s->policy = si::make_policy("SJF");
  si::SimConfig sim;
  s->features = std::make_unique<si::FeatureBuilder>(
      si::FeatureMode::kManual, si::Metric::kBsld,
      si::FeatureScales::from_trace(s->train), sim.max_interval);
  const std::string path = opts.workdir + "/eval.model";
  si::ActorCritic init(s->features->feature_count(), {32, 16, 8}, kModelSeed);
  init.policy_net().set_output_bias(0.0);
  si::save_model_file(path, init);
  s->ac = std::make_unique<si::ActorCritic>(si::load_model_file(path));
  return s;
}

si::EvalConfig call_config(const Options& opts, std::uint64_t call, int windows) {
  si::EvalConfig config;
  config.sequences = windows;
  config.sequence_length = 256;
  config.sim.backfill = true;
  config.seed = opts.seed * 1000003 + call;
  return config;
}

/// Replays the first kCheckWindows windows of a call and compares.
void check_call(Result& res, const EvalSetup& s, const si::EvalConfig& config,
                const si::EvalResult& eval, const std::string& label) {
  const std::size_t n = std::min<std::size_t>(kCheckWindows, eval.pairs.size());
  const auto windows = eval_windows(s.test, config.seed, n, 256);
  const std::vector<si::PairedRollout> reference(eval.pairs.begin(), eval.pairs.begin() + n);
  const ReplayReport r = replay_windows(windows, &reference, s.test.cluster_procs(), config.sim,
                                        *s.policy, *s.ac, *s.features, 0);
  res.check(r.mismatch.empty(), "single-lane replay reproduces evaluate() on " +
                                    std::to_string(n) + " windows of " + label +
                                    (r.mismatch.empty() ? "" : ": " + r.mismatch));
}

struct CallStats {
  std::vector<double> walls;
  std::size_t windows = 0;
  std::size_t non_finite = 0;
  std::size_t inspections = 0;
  std::size_t rejections = 0;
};

void tally(CallStats& c, const si::EvalResult& eval) {
  for (const si::PairedRollout& p : eval.pairs) {
    ++c.windows;
    if (!std::isfinite(p.base.value(si::Metric::kBsld)) ||
        !std::isfinite(p.inspected.value(si::Metric::kBsld)))
      ++c.non_finite;
    c.inspections += p.inspected.inspections;
    c.rejections += p.inspected.rejections;
  }
}

}  // namespace

Result run_eval(const Options& opts) {
  Result res;
  const int per_call = opts.smoke ? 16 : kWindowsPerCall;
  std::vector<double> setups;
  std::unique_ptr<EvalSetup> s;
  for (int i = 0; i < kSetups; ++i) {
    const auto t = Clock::now();
    s = make_setup(opts);
    setups.push_back(seconds_since(t));
  }

  // Untraced calls: the whole run, or the first half of a traced run.
  CallStats calls;
  Units walls, cpus;
  const double budget = opts.trace ? opts.seconds / 2 : opts.seconds;
  std::uint64_t call = 0;
  si::EvalConfig last_config;
  si::EvalResult last_eval;
  const auto start = Clock::now();
  while (walls.values.size() < 3 ||
         (walls.clean_seconds < budget && seconds_since(start) < kMaxRunStretch * budget)) {
    last_config = call_config(opts, call, per_call);
    const StealWindow steal;
    const double cpu0 = cpu_seconds();
    const auto t = Clock::now();
    last_eval = si::evaluate(s->test, *s->policy, *s->ac, *s->features, last_config);
    const double wall = seconds_since(t);
    const Steal stolen = steal.read();
    walls.add(wall, stolen, wall);
    cpus.add(cpu_seconds() - cpu0, stolen, wall);
    tally(calls, last_eval);
    if (call == 0) check_call(res, *s, last_config, last_eval, "the first call");
    ++call;
  }
  check_call(res, *s, last_config, last_eval, "the last call");
  res.attempted = calls.windows;
  res.failed = calls.non_finite;
  const double p50 = walls.median_clean();
  const double rejected = calls.inspections > 0
                              ? static_cast<double>(calls.rejections) /
                                    static_cast<double>(calls.inspections)
                              : 0.0;
  res.note(std::to_string(walls.values.size()) + " evaluate calls of " +
           std::to_string(per_call) + " windows, " + std::to_string(walls.clean()) +
           " clean of host steal; rejections " + std::to_string(calls.rejections) + " of " +
           std::to_string(calls.inspections) + " inspections (" + num(rejected) + ")");

  if (!opts.trace) {
    res.set("setup_s", median(setups), "s");
    res.set("peak_rss_mb", peak_rss_mb(), "MB");
    res.set("p50_ms", p50 * 1e3, "ms");
    res.set("cpu_ms", cpus.median_clean() * 1e3, "ms");
    res.note("report eval_seq_per_s " + num(per_call / p50) + " 1/s");
    return res;
  }

  // --- traced half: evaluate and evaluate_base on the same windows ---
  CallStats traced;
  double eval_total = 0.0;
  double base_total = 0.0;
  bool base_covers = true;
  const auto traced_start = Clock::now();
  while (traced.walls.size() < 3 || seconds_since(traced_start) < budget) {
    const si::EvalConfig config = call_config(opts, call++, per_call);
    auto t = Clock::now();
    const si::EvalResult eval = si::evaluate(s->test, *s->policy, *s->ac, *s->features, config);
    traced.walls.push_back(seconds_since(t));
    eval_total += traced.walls.back();
    tally(traced, eval);
    t = Clock::now();
    const std::vector<double> base =
        si::evaluate_base(s->test, *s->policy, si::Metric::kBsld, config);
    base_total += seconds_since(t);
    base_covers = base_covers && base.size() == eval.pairs.size();
  }
  res.check(base_covers, "evaluate_base covers the same windows as every traced evaluate()");
  res.attempted += traced.windows;
  res.failed += traced.non_finite;

  // Single-lane split over a sample of windows, against a one-worker
  // evaluate() of exactly those windows.
  const std::size_t sample = opts.smoke ? 4 : 32;
  si::EvalConfig serial = call_config(opts, call++, static_cast<int>(sample));
  serial.max_workers = 1;
  const si::EvalResult serial_eval = si::evaluate(s->test, *s->policy, *s->ac, *s->features, serial);
  const auto windows = eval_windows(s->test, serial.seed, sample, 256);
  const int reps = opts.smoke ? 1 : 7;
  // The one-worker evaluate is timed inside the replay's repetitions, so a
  // burst of host load cannot fall on the parts and miss the total.
  const ReplayReport replay = replay_windows(
      windows, &serial_eval.pairs, s->test.cluster_procs(), serial.sim, *s->policy, *s->ac,
      *s->features, reps, [&] { si::evaluate(s->test, *s->policy, *s->ac, *s->features, serial); });
  res.check(replay.mismatch.empty(), "single-lane replay reproduces the one-worker evaluate()" +
                                         (replay.mismatch.empty() ? "" : ": " + replay.mismatch));
  const double serial_s = replay.total_s;
  const double layer_sum =
      (replay.base_s + replay.sim_s + replay.features_s + replay.forward_s) / serial_s;
  // Above 1 by design: the replay's scalar forward is slower than the
  // batched forward evaluate() uses.
  res.check(layer_sum >= 0.8 && layer_sum <= 1.3,
            "base + sim + features + forward = " + num(layer_sum) +
                " of the one-worker evaluate (bound [0.8, 1.3])");

  const MlpProbe mlp = mlp_probe(s->ac->policy_net(), replay.rows, 8, opts.smoke ? 0.0 : 0.5);
  const ModelIoProbe io = model_io_probe(*s->ac, opts.workdir + "/probe.model", false, 5);
  res.check(io.round_trip_exact, "model save/load round-trips the parameters exactly");

  const double per_decision = replay.decisions > 0 ? 1e9 / static_cast<double>(replay.decisions) : 0.0;
  res.set("mlp.forward_batch_ns_per_row", mlp.forward_batch_ns_per_row, "ns");
  res.set("mlp.backward_batch_ns_per_row", mlp.backward_batch_ns_per_row, "ns");
  res.set("mlp.forward_ns_per_row", replay.forward_s * per_decision, "ns");
  res.set("model_io.save_ms", io.save_ms, "ms");
  res.set("model_io.load_ms", io.load_ms, "ms");
  res.set("eval.base_s", base_total, "s");
  res.set("eval.inspected_s", eval_total - base_total, "s");
  res.set("eval.inspections", static_cast<double>(traced.inspections), "count");
  res.set("eval.rejections", static_cast<double>(traced.rejections), "count");
  res.set("sim.ns_per_decision", replay.sim_s * per_decision, "ns");
  res.set("sim.decisions", static_cast<double>(replay.decisions), "count");
  res.set("features.build_ns_per_row", replay.features_s * per_decision, "ns");
  res.set("trace.layer_sum_ratio", layer_sum, "ratio");
  res.set("trace.overhead_ratio", median(traced.walls) / p50 - 1.0, "ratio");
  res.note("one-worker evaluate of " + std::to_string(sample) + " windows " + num(serial_s) +
           " s; replay base " + num(replay.base_s) + " sim " + num(replay.sim_s) + " features " +
           num(replay.features_s) + " forward " + num(replay.forward_s));
  return res;
}

}  // namespace perfbench
