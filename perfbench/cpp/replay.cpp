#include "replay.hpp"

#include <bit>
#include <cstdint>

#include "sim/session.hpp"
#include "sim/simulator.hpp"
#include "util.hpp"

namespace perfbench {

std::vector<std::vector<si::Job>> eval_windows(const si::Trace& trace,
                                               std::uint64_t seed,
                                               std::size_t count,
                                               std::size_t length) {
  si::Rng rng(seed);
  std::vector<std::vector<si::Job>> windows(count);
  for (auto& w : windows) w = trace.sample_window(rng, length);
  return windows;
}

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Names the first field in which `a` and `b` differ, or "".
std::string diff_metrics(const si::SequenceMetrics& a,
                         const si::SequenceMetrics& b) {
  if (a.jobs != b.jobs) return "jobs";
  if (!same_bits(a.avg_wait, b.avg_wait)) return "avg_wait";
  if (!same_bits(a.avg_bsld, b.avg_bsld)) return "avg_bsld";
  if (!same_bits(a.max_bsld, b.max_bsld)) return "max_bsld";
  if (!same_bits(a.utilization, b.utilization)) return "utilization";
  if (!same_bits(a.makespan, b.makespan)) return "makespan";
  if (a.inspections != b.inspections) return "inspections";
  if (a.rejections != b.rejections) return "rejections";
  return "";
}

}  // namespace

ReplayReport replay_windows(const std::vector<std::vector<si::Job>>& windows,
                            const std::vector<si::PairedRollout>* reference,
                            int total_procs, const si::SimConfig& sim_config,
                            const si::SchedulingPolicy& policy_proto,
                            const si::ActorCritic& ac,
                            const si::FeatureBuilder& features, int reps,
                            const std::function<void()>& total) {
  ReplayReport report;
  report.windows = windows.size();
  si::Simulator sim(total_procs, sim_config);
  const si::PolicyPtr policy = policy_proto.clone();
  const auto width = static_cast<std::size_t>(features.feature_count());
  std::vector<double> row(width);
  si::Mlp::Workspace ws;

  // Full replay: records the decisions and rows, checks the metrics.
  std::vector<std::vector<std::uint8_t>> decisions(windows.size());
  for (std::size_t w = 0; w < windows.size(); ++w) {
    si::SimSession base(sim, windows[w], *policy, /*inspect=*/false);
    const si::SequenceMetrics base_metrics = base.take_result().metrics;
    si::SimSession session(sim, windows[w], *policy);
    while (!session.done()) {
      features.build_row(session.view(), row.data());
      report.rows.insert(report.rows.end(), row.begin(), row.end());
      const int action = ac.act_greedy(row, ws);
      decisions[w].push_back(static_cast<std::uint8_t>(action));
      report.rejections += static_cast<std::size_t>(action);
      session.step(action == 1);
    }
    const si::SequenceMetrics inspected = session.take_result().metrics;
    report.decisions += decisions[w].size();
    if (reference != nullptr && report.mismatch.empty()) {
      const std::string base_diff = diff_metrics(base_metrics, (*reference)[w].base);
      const std::string insp_diff =
          diff_metrics(inspected, (*reference)[w].inspected);
      if (!base_diff.empty())
        report.mismatch = "window " + std::to_string(w) + " base " + base_diff;
      else if (!insp_diff.empty())
        report.mismatch =
            "window " + std::to_string(w) + " inspected " + insp_diff;
    }
  }
  if (reps <= 0) return report;

  double sink = 0.0;  // keeps the feature rows observable
  std::size_t action_mismatches = 0;
  std::vector<double> t_base, t1, t2, t3, t_total;
  for (int r = 0; r < reps; ++r) {
    auto start = Clock::now();
    if (total) {
      total();
      t_total.push_back(seconds_since(start));
      start = Clock::now();
    }
    for (const auto& window : windows) {
      si::SimSession base(sim, window, *policy, /*inspect=*/false);
      sink += base.take_result().metrics.avg_wait;
    }
    t_base.push_back(seconds_since(start));

    start = Clock::now();
    for (std::size_t w = 0; w < windows.size(); ++w) {
      si::SimSession session(sim, windows[w], *policy);
      std::size_t i = 0;
      while (!session.done()) session.step(decisions[w][i++] == 1);
      sink += session.take_result().metrics.avg_wait;
    }
    t1.push_back(seconds_since(start));

    start = Clock::now();
    for (std::size_t w = 0; w < windows.size(); ++w) {
      si::SimSession session(sim, windows[w], *policy);
      std::size_t i = 0;
      while (!session.done()) {
        features.build_row(session.view(), row.data());
        sink += row[0];
        session.step(decisions[w][i++] == 1);
      }
      sink += session.take_result().metrics.avg_wait;
    }
    t2.push_back(seconds_since(start));

    start = Clock::now();
    for (std::size_t w = 0; w < windows.size(); ++w) {
      si::SimSession session(sim, windows[w], *policy);
      std::size_t i = 0;
      while (!session.done()) {
        features.build_row(session.view(), row.data());
        const int action = ac.act_greedy(row, ws);
        if (action != decisions[w][i++]) ++action_mismatches;
        session.step(action == 1);
      }
      sink += session.take_result().metrics.avg_wait;
    }
    t3.push_back(seconds_since(start));
  }
  if (action_mismatches != 0 && report.mismatch.empty())
    report.mismatch = std::to_string(action_mismatches) +
                      " replayed decisions differ from the recorded ones";
  if (!(sink == sink)) report.mismatch = "non-finite replay output";
  const double m1 = median(t1);
  const double m2 = median(t2);
  const double m3 = median(t3);
  report.base_s = median(t_base);
  report.total_s = median(t_total);
  report.sim_s = m1;
  report.features_s = m2 - m1;
  report.forward_s = m3 - m2;
  return report;
}

}  // namespace perfbench
