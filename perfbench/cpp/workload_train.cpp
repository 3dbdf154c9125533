// train-sdsc-sjf: train a paper-shaped inspector (SDSC-SP2, SJF base policy,
// bsld, no backfill; 100 trajectories of 128-job windows per epoch, a
// checkpoint per epoch), then greedily evaluate it on 50 held-out 256-job
// windows. The unit of work is one whole train-and-evaluate. A run trains
// several seeds derived from --seed (training cost depends on the sampled
// windows, so one seed per run would make the figure a property of the seed)
// and then repeats the first, which must end in the same parameters.
//
// The traced run re-trains through run_train_loop with a wrapping
// EpochDriver that times collect and update around the public calls, re-runs
// the last PPO update through the begin_update / compute_chunk /
// reduce_and_step hooks to split it, and probes the MLP kernels, model_io,
// evaluate_base and a single-lane replay after the timed work.
#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <tuple>
#include <numeric>
#include <thread>
#include <vector>

#include "core/evaluator.hpp"
#include "core/train_loop.hpp"
#include "core/trainer.hpp"
#include "probes.hpp"
#include "replay.hpp"
#include "sched/factory.hpp"
#include "workload/registry.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct TrainSetup {
  si::Trace train;
  si::Trace test;
  si::PolicyPtr policy;
  std::unique_ptr<si::Trainer> trainer;
};

struct Sizes {
  int epochs = 3;
  int trajectories = 100;
  int eval_windows = 50;
  int min_seeds = 3;
};

/// The seed of the run's i-th training: a run trains several seeds derived
/// from --seed, so its figures average over more than one training path.
std::uint64_t sub_seed(const Options& opts, int i) {
  return opts.seed * 1000 + static_cast<std::uint64_t>(i);
}

std::unique_ptr<si::Trainer> make_trainer(const TrainSetup& s, const Options& opts,
                                          const Sizes& sz, std::uint64_t seed) {
  si::TrainerConfig config;
  config.metric = si::Metric::kBsld;
  config.epochs = sz.epochs;
  config.trajectories_per_epoch = sz.trajectories;
  config.sequence_length = 128;
  config.seed = seed;
  config.checkpoint_path = opts.workdir + "/train.ckpt";
  return std::make_unique<si::Trainer>(s.train, *s.policy, config);
}

std::unique_ptr<TrainSetup> make_setup(const Options& opts, const Sizes& sz) {
  auto s = std::make_unique<TrainSetup>();
  const si::Trace trace = si::make_trace("SDSC-SP2", si::kDefaultTraceJobs, kTraceSeed);
  std::tie(s->train, s->test) = trace.split(0.2);
  s->policy = si::make_policy("SJF");
  s->trainer = make_trainer(*s, opts, sz, sub_seed(opts, 0));
  return s;
}

si::EvalConfig final_eval_config(std::uint64_t seed, const Sizes& sz) {
  si::EvalConfig config;
  config.sequences = sz.eval_windows;
  config.sequence_length = 256;
  config.seed = seed * 7919 + 1;
  return config;
}

/// Split of one PPO update, re-driven through the public hooks.
struct PpoSplit {
  double total_s = 0.0;
  double advantage_s = 0.0;
  double policy_compute_s = 0.0;
  double value_compute_s = 0.0;
  double reduce_step_s = 0.0;
  int policy_iters = 0;
  int value_iters = 0;
  std::size_t rows = 0;
};

/// Runs compute_chunk for all logical chunks with the thread layout
/// PpoUpdater::update uses (thread t takes chunks t, t+T, ...; threads only
/// for batches of 512 rows or more).
void compute_all_chunks(si::PpoUpdater& updater, si::PpoPass pass,
                        std::size_t batch_size,
                        std::array<si::PpoChunkGrads, si::kPpoLogicalChunks>& out) {
  const std::size_t threads = std::min<std::size_t>(
      std::max(1u, std::thread::hardware_concurrency()), si::kPpoLogicalChunks);
  if (threads <= 1 || batch_size < 512) {
    for (std::size_t c = 0; c < si::kPpoLogicalChunks; ++c)
      updater.compute_chunk(pass, c, out[c]);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t)
    pool.emplace_back([&, t] {
      for (std::size_t c = t; c < si::kPpoLogicalChunks; c += threads)
        updater.compute_chunk(pass, c, out[c]);
    });
  for (std::thread& th : pool) th.join();
}

PpoSplit redrive_update(si::PpoUpdater& updater, si::ActorCritic& ac,
                        const si::RolloutBatch& batch) {
  PpoSplit split;
  split.rows = batch.size();
  std::array<si::PpoChunkGrads, si::kPpoLogicalChunks> grads;
  std::array<si::PpoChunkView, si::kPpoLogicalChunks> views;
  si::PpoStats stats;
  const auto start = Clock::now();
  auto t = Clock::now();
  updater.begin_update(batch);
  split.advantage_s = seconds_since(t);
  for (const si::PpoPass pass : {si::PpoPass::kPolicy, si::PpoPass::kValue}) {
    const bool policy = pass == si::PpoPass::kPolicy;
    si::Mlp& net = policy ? ac.policy_net() : ac.value_net();
    const int iters = policy ? updater.config().policy_iters : updater.config().value_iters;
    for (int iter = 0; iter < iters; ++iter) {
      t = Clock::now();
      net.refresh_transpose();
      split.reduce_step_s += seconds_since(t);
      t = Clock::now();
      compute_all_chunks(updater, pass, batch.size(), grads);
      (policy ? split.policy_compute_s : split.value_compute_s) += seconds_since(t);
      for (std::size_t c = 0; c < si::kPpoLogicalChunks; ++c)
        views[c] = si::PpoChunkView{grads[c].grads.data(), grads[c].loss,
                                    grads[c].kl, grads[c].entropy};
      t = Clock::now();
      const bool go_on = updater.reduce_and_step(pass, views, iter, stats);
      split.reduce_step_s += seconds_since(t);
      ++(policy ? split.policy_iters : split.value_iters);
      if (!go_on) break;
    }
  }
  split.total_s = seconds_since(start);
  return split;
}

/// The thread trainer's collect/update pair, timed around the public calls.
/// On the last epoch it also re-drives the update through the hooks and
/// checks that both paths end in the same parameters.
class TimingDriver final : public si::EpochDriver {
 public:
  TimingDriver(const TrainSetup& s, const si::Agent& agent, si::ActorCritic& ac,
               si::PpoUpdater& updater)
      : collector_(s.train, s.trainer->config(), s.trainer->features(), *s.policy, &agent),
        ac_(ac),
        updater_(updater),
        last_epoch_(s.trainer->config().epochs - 1),
        indices_(static_cast<std::size_t>(s.trainer->config().trajectories_per_epoch)) {
    std::iota(indices_.begin(), indices_.end(), std::size_t{0});
  }

  void collect(int, const si::EpochInputs& inputs,
               std::vector<si::TrainingRollout>& rollouts,
               std::vector<si::BufferTracer>* traces) override {
    const auto t = Clock::now();
    collector_.collect(ac_, inputs, indices_, rollouts, traces);
    collect_s += seconds_since(t);
  }

  si::PpoStats update(int epoch, const si::RolloutBatch& batch) override {
    const bool probe = epoch == last_epoch_;
    auto t = Clock::now();
    std::vector<double> policy_before, value_before;
    si::PpoUpdater::OptimizerState opt_before;
    if (probe) {
      policy_before.assign(ac_.policy_net().params().begin(), ac_.policy_net().params().end());
      value_before.assign(ac_.value_net().params().begin(), ac_.value_net().params().end());
      opt_before = updater_.optimizer_state();
    }
    probe_s += seconds_since(t);

    t = Clock::now();
    const si::PpoStats stats = updater_.update(batch);
    update_s += seconds_since(t);
    decisions += batch.size();
    if (!probe) return stats;

    t = Clock::now();
    const std::uint64_t after = param_digest(ac_);
    std::copy(policy_before.begin(), policy_before.end(), ac_.policy_net().params().begin());
    std::copy(value_before.begin(), value_before.end(), ac_.value_net().params().begin());
    updater_.restore_optimizer_state(opt_before);
    split = redrive_update(updater_, ac_, batch);
    redrive_matches = param_digest(ac_) == after;
    redrive_iters_match = split.policy_iters == stats.policy_iters_run;
    rows.clear();
    for (const si::Step& step : batch.steps) rows.insert(rows.end(), step.obs.begin(), step.obs.end());
    probe_s += seconds_since(t);
    return stats;
  }

  double collect_s = 0.0;
  double update_s = 0.0;
  double probe_s = 0.0;  ///< snapshot + re-drive time, excluded from the wall
  std::size_t decisions = 0;
  PpoSplit split;
  bool redrive_matches = false;
  bool redrive_iters_match = false;
  std::vector<double> rows;  ///< observation rows of the last update

 private:
  si::RolloutCollector collector_;
  si::ActorCritic& ac_;
  si::PpoUpdater& updater_;
  int last_epoch_;
  std::vector<std::size_t> indices_;
};

struct Pass {
  double train_s = 0.0;
  double eval_s = 0.0;
  std::uint64_t digest = 0;
  double final_pct = 0.0;
  int invalid = 0;
  int skipped = 0;
  si::EvalResult eval;
};

Pass untraced_pass(const TrainSetup& s, si::Trainer& trainer, const si::EvalConfig& eval_config) {
  Pass p;
  si::ActorCritic ac = trainer.make_agent();
  auto t = Clock::now();
  const si::TrainResult r = trainer.train(ac);
  p.train_s = seconds_since(t);
  t = Clock::now();
  p.eval = si::evaluate(s.test, *s.policy, ac, trainer.features(), eval_config);
  p.eval_s = seconds_since(t);
  p.digest = param_digest(ac);
  p.final_pct = r.curve.back().mean_pct_improvement;
  for (const si::EpochStats& e : r.curve) {
    p.invalid += e.invalid_trajectories;
    p.skipped += e.skipped_updates;
  }
  return p;
}

}  // namespace

Result run_train(const Options& opts) {
  Result res;
  Sizes sz;
  if (opts.smoke) sz = Sizes{1, 8, 4, 1};

  std::vector<double> setups;
  std::unique_ptr<TrainSetup> s;
  for (int i = 0; i < kSetups; ++i) {
    const auto t = Clock::now();
    s = make_setup(opts, sz);
    si::ActorCritic warm = s->trainer->make_agent();
    setups.push_back(seconds_since(t));
  }
  const si::EvalConfig eval_config = final_eval_config(sub_seed(opts, 0), sz);
  const auto per_pass_attempts =
      static_cast<std::uint64_t>(sz.epochs) * (static_cast<std::uint64_t>(sz.trajectories) + 1);

  if (!opts.trace) {
    // Distinct seeds until the time is used up, then seed 0 once more: the
    // repeat must end in the same parameters and the same curve.
    Units walls, cpus;
    std::vector<Pass> passes;
    const auto start = Clock::now();
    while (static_cast<int>(passes.size()) < sz.min_seeds ||
           (walls.clean_seconds < opts.seconds &&
            seconds_since(start) < kMaxRunStretch * opts.seconds)) {
      const int i = static_cast<int>(passes.size());
      const std::unique_ptr<si::Trainer> trainer =
          i == 0 ? nullptr : make_trainer(*s, opts, sz, sub_seed(opts, i));
      const StealWindow steal;
      const double cpu0 = cpu_seconds();
      passes.push_back(untraced_pass(*s, i == 0 ? *s->trainer : *trainer,
                                     final_eval_config(sub_seed(opts, i), sz)));
      const double wall = passes.back().train_s + passes.back().eval_s;
      const Steal stolen = steal.read();
      walls.add(wall, stolen, wall);
      cpus.add(cpu_seconds() - cpu0, stolen, wall);
      res.note("seed " + std::to_string(sub_seed(opts, i)) + ": train " +
               num(passes.back().train_s) + " s, eval " + num(passes.back().eval_s) +
               " s, cpu " + num(cpus.values.back()) + " s" +
               (stolen.disturbed ? " (host steal)" : "") + ", final pct improvement " +
               num(passes.back().final_pct) + ", digest " + hex64(passes.back().digest));
    }
    const Pass repeat = untraced_pass(*s, *s->trainer, eval_config);
    passes.push_back(repeat);
    for (const Pass& p : passes) {
      res.attempted += per_pass_attempts;
      res.failed += static_cast<std::uint64_t>(p.invalid + p.skipped);
    }
    res.check(repeat.digest == passes.front().digest &&
                  std::bit_cast<std::uint64_t>(repeat.final_pct) ==
                      std::bit_cast<std::uint64_t>(passes.front().final_pct),
              "a repeat of seed " + std::to_string(sub_seed(opts, 0)) +
                  " ends in the same parameters (digest " + hex64(repeat.digest) + ")");
    res.note("digest " + hex64(passes.front().digest));
    res.set("setup_s", median(setups), "s");
    res.set("peak_rss_mb", peak_rss_mb(), "MB");
    res.set("p50_ms", walls.median_clean(2) * 1e3, "ms");
    res.set("cpu_ms", cpus.median_clean(2) * 1e3, "ms");
    res.note("report train_wall_s " + num(walls.median_clean(2)) + " s");
    res.note("report train_final_pct_improvement " + num(passes.front().final_pct) + " ratio");
    return res;
  }

  // --- traced run ---
  const Pass base = untraced_pass(*s, *s->trainer, eval_config);
  res.attempted += per_pass_attempts;
  res.failed += static_cast<std::uint64_t>(base.invalid + base.skipped);
  const double untraced_wall = base.train_s + base.eval_s;

  si::ActorCritic ac = s->trainer->make_agent();
  const si::InspectorAgent agent(s->trainer->features());
  si::PpoUpdater updater(ac, s->trainer->config().ppo, &agent.head());
  TimingDriver timed(*s, agent, ac, updater);
  const auto start = Clock::now();
  const si::TrainResult r = si::run_train_loop(s->train, s->trainer->config(), ac, updater, timed);
  const auto eval_start = Clock::now();
  const si::EvalResult eval = si::evaluate(s->test, *s->policy, ac, s->trainer->features(), eval_config);
  const double eval_s = seconds_since(eval_start);
  const double wall = seconds_since(start) - timed.probe_s;
  int invalid = 0;
  int skipped = 0;
  for (const si::EpochStats& e : r.curve) {
    invalid += e.invalid_trajectories;
    skipped += e.skipped_updates;
  }
  res.attempted += per_pass_attempts;
  res.failed += static_cast<std::uint64_t>(invalid + skipped);

  res.check(param_digest(ac) == base.digest,
            "traced final parameter digest " + hex64(param_digest(ac)) +
                " equals the untraced one " + hex64(base.digest));
  res.check(timed.redrive_matches && timed.redrive_iters_match,
            "PPO update re-driven through begin_update/compute_chunk/"
            "reduce_and_step gives the same parameters as update()");
  res.note("digest " + hex64(param_digest(ac)));

  const double other = wall - timed.collect_s - timed.update_s - eval_s;
  const double layer_sum = (timed.collect_s + timed.update_s + eval_s) / wall;
  res.check(layer_sum >= 0.9 && layer_sum <= 1.0 + 1e-9,
            "collect + update + eval = " + num(layer_sum) +
                " of the traced wall (bound [0.9, 1])");
  const PpoSplit& sp = timed.split;
  const double ppo_sum =
      (sp.advantage_s + sp.policy_compute_s + sp.value_compute_s + sp.reduce_step_s) / sp.total_s;
  res.check(ppo_sum >= 0.95 && ppo_sum <= 1.0 + 1e-9,
            "PPO phases = " + num(ppo_sum) + " of the re-driven update (bound [0.95, 1])");

  // Probes, all after the timed work.
  const auto t_base = Clock::now();
  const std::vector<double> base_values =
      si::evaluate_base(s->test, *s->policy, si::Metric::kBsld, eval_config);
  const double base_s = seconds_since(t_base);
  std::size_t inspections = 0;
  std::size_t rejections = 0;
  for (const si::PairedRollout& p : eval.pairs) {
    inspections += p.inspected.inspections;
    rejections += p.inspected.rejections;
  }
  const auto windows = eval_windows(s->test, eval_config.seed,
                                    static_cast<std::size_t>(eval_config.sequences), 256);
  const ReplayReport replay = replay_windows(windows, &eval.pairs, s->test.cluster_procs(),
                                             eval_config.sim, *s->policy, ac,
                                             s->trainer->features(), opts.smoke ? 1 : 5);
  res.check(replay.mismatch.empty(),
            "single-lane replay reproduces evaluate() per window" +
                (replay.mismatch.empty() ? std::string() : ": " + replay.mismatch));
  const int block = std::max<int>(1, static_cast<int>(sp.rows / si::kPpoLogicalChunks));
  const MlpProbe mlp = mlp_probe(ac.policy_net(), timed.rows, block, opts.smoke ? 0.0 : 0.5);
  const ModelIoProbe io = model_io_probe(ac, opts.workdir + "/probe.ckpt", true, 5);
  res.check(io.round_trip_exact, "checkpoint save/load round-trips the parameters exactly");

  const double per_decision = replay.decisions > 0 ? 1e9 / static_cast<double>(replay.decisions) : 0.0;
  res.set("train.collect_s", timed.collect_s, "s");
  res.set("train.update_s", timed.update_s, "s");
  res.set("train.loop_other_s", other, "s");
  res.set("train.eval_s", eval_s, "s");
  res.set("train.decisions", static_cast<double>(timed.decisions), "count");
  res.set("train.final_pct_improvement", r.curve.back().mean_pct_improvement, "ratio");
  res.set("ppo.advantage_share", sp.advantage_s / sp.total_s, "ratio");
  res.set("ppo.policy_compute_share", sp.policy_compute_s / sp.total_s, "ratio");
  res.set("ppo.value_compute_share", sp.value_compute_s / sp.total_s, "ratio");
  res.set("ppo.reduce_step_share", sp.reduce_step_s / sp.total_s, "ratio");
  res.set("ppo.policy_iters_run", sp.policy_iters, "count");
  res.set("ppo.ns_per_row_pass",
          (sp.policy_compute_s + sp.value_compute_s) * 1e9 /
              (static_cast<double>(sp.rows) * (sp.policy_iters + sp.value_iters)),
          "ns");
  res.set("mlp.forward_batch_ns_per_row", mlp.forward_batch_ns_per_row, "ns");
  res.set("mlp.backward_batch_ns_per_row", mlp.backward_batch_ns_per_row, "ns");
  res.set("mlp.forward_ns_per_row", replay.forward_s * per_decision, "ns");
  res.set("model_io.save_ms", io.save_ms, "ms");
  res.set("model_io.load_ms", io.load_ms, "ms");
  res.set("eval.base_s", base_s, "s");
  res.set("eval.inspected_s", eval_s - base_s, "s");
  res.set("eval.inspections", static_cast<double>(inspections), "count");
  res.set("eval.rejections", static_cast<double>(rejections), "count");
  res.set("sim.ns_per_decision", replay.sim_s * per_decision, "ns");
  res.set("sim.decisions", static_cast<double>(replay.decisions), "count");
  res.set("features.build_ns_per_row", replay.features_s * per_decision, "ns");
  res.set("trace.layer_sum_ratio", layer_sum, "ratio");
  res.set("trace.overhead_ratio", wall / untraced_wall - 1.0, "ratio");
  res.note("traced wall " + num(wall) + " s vs untraced " + num(untraced_wall) +
           " s; re-drive and snapshots " + num(timed.probe_s) + " s excluded");
  res.note("ppo re-drive " + num(sp.total_s) + " s over " + std::to_string(sp.rows) +
           " rows; phases sum to " + num(ppo_sum));
  res.note("evaluate_base " + std::to_string(base_values.size()) + " windows in " +
           num(base_s) + " s");
  return res;
}

}  // namespace perfbench
