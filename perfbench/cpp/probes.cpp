#include "probes.hpp"

#include <algorithm>
#include <vector>

#include "rl/model_io.hpp"
#include "util.hpp"

namespace perfbench {

MlpProbe mlp_probe(const si::Mlp& net, std::span<const double> rows, int block,
                   double min_seconds) {
  MlpProbe probe;
  const auto width = static_cast<std::size_t>(net.input_size());
  const std::size_t n = rows.size() / width;
  if (n == 0 || block < 1) return probe;
  net.refresh_transpose();
  si::Mlp::BatchWorkspace ws;
  const auto out_w = static_cast<std::size_t>(net.output_size());
  const std::vector<double> grad_out(static_cast<std::size_t>(block) * out_w,
                                     1.0 / static_cast<double>(n));
  std::vector<double> grads(net.param_count(), 0.0);

  const auto pass = [&](bool backward) {
    const auto start = Clock::now();
    for (std::size_t begin = 0; begin < n; begin += static_cast<std::size_t>(block)) {
      const std::size_t m = std::min<std::size_t>(static_cast<std::size_t>(block), n - begin);
      net.forward_batch(rows.subspan(begin * width, m * width), static_cast<int>(m), ws);
      if (backward)
        net.backward_batch(ws, std::span<const double>(grad_out.data(), m * out_w), grads);
    }
    return seconds_since(start);
  };

  std::vector<double> fwd, both;
  const auto start = Clock::now();
  while (fwd.size() < 3 || seconds_since(start) < min_seconds) {
    fwd.push_back(pass(false));
    both.push_back(pass(true));
  }
  const double per_row = 1e9 / static_cast<double>(n);
  probe.forward_batch_ns_per_row = median(fwd) * per_row;
  probe.backward_batch_ns_per_row = (median(both) - median(fwd)) * per_row;
  return probe;
}

ModelIoProbe model_io_probe(const si::ActorCritic& ac, const std::string& path,
                            bool checkpoint, int reps) {
  ModelIoProbe probe;
  std::vector<double> save, load;
  const std::uint64_t want = param_digest(ac);
  for (int r = 0; r < std::max(reps, 1); ++r) {
    auto start = Clock::now();
    if (checkpoint)
      si::save_checkpoint_file(path, ac, 0);
    else
      si::save_model_file(path, ac);
    save.push_back(seconds_since(start) * 1e3);
    start = Clock::now();
    const si::ActorCritic loaded =
        checkpoint ? si::load_checkpoint_file(path).model : si::load_model_file(path);
    load.push_back(seconds_since(start) * 1e3);
    if (param_digest(loaded) != want) probe.round_trip_exact = false;
  }
  probe.save_ms = median(save);
  probe.load_ms = median(load);
  return probe;
}

}  // namespace perfbench
