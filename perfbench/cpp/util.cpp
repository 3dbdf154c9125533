#include "util.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size());
  std::size_t idx = rank <= 1.0 ? 0 : static_cast<std::size_t>(rank + 0.999999) - 1;
  return v[std::min(idx, v.size() - 1)];
}

std::uint64_t param_digest(const si::ActorCritic& ac) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&](std::span<const double> values) {
    for (const double d : values) {
      std::uint64_t bits = std::bit_cast<std::uint64_t>(d);
      for (int b = 0; b < 8; ++b) {
        h ^= bits & 0xffU;
        h *= 1099511628211ULL;
        bits >>= 8;
      }
    }
  };
  mix(ac.policy_net().params());
  mix(ac.value_net().params());
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

long long steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return -1;
  long long field = 0;
  for (int i = 0; i < 8; ++i)
    if (!(in >> field)) return -1;
  return field;  // user nice system idle iowait irq softirq steal
}

Steal StealWindow::read() const {
  const long long now = steal_ticks();
  if (ticks_ < 0 || now < 0) return {};
  const double seconds = seconds_since(start_);
  const auto ticks = static_cast<double>(now - ticks_);
  return {seconds > 0.0 ? ticks / seconds : 0.0, ticks > 1.0 + kStealTicksPerSecond * seconds};
}

std::size_t Units::clean() const {
  return static_cast<std::size_t>(
      std::count_if(steal.begin(), steal.end(), [](const Steal& s) { return !s.disturbed; }));
}

double Units::median_clean(std::size_t min_clean) const {
  std::vector<std::size_t> order(values.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  // Clean units first, then by how much was stolen.
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (steal[a].disturbed != steal[b].disturbed) return !steal[a].disturbed;
    return steal[a].ticks_per_second < steal[b].ticks_per_second;
  });
  const std::size_t keep = clean() >= min_clean ? clean() : (values.size() + 1) / 2;
  std::vector<double> kept;
  for (std::size_t i = 0; i < keep; ++i) kept.push_back(values[order[i]]);
  return median(kept);
}

void Result::check(bool ok, const std::string& what) {
  notes.push_back(std::string(ok ? "check ok:     " : "check FAILED: ") + what);
  if (!ok) correct = false;
}

namespace {

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"p50_ms", "ms"},
    {"cpu_ms", "ms"},
};

constexpr MetricSpec kPerLayer[] = {
    {"train.collect_s", "s"},
    {"train.update_s", "s"},
    {"train.loop_other_s", "s"},
    {"train.eval_s", "s"},
    {"train.decisions", "count"},
    {"train.final_pct_improvement", "ratio"},
    {"ppo.advantage_share", "ratio"},
    {"ppo.policy_compute_share", "ratio"},
    {"ppo.value_compute_share", "ratio"},
    {"ppo.reduce_step_share", "ratio"},
    {"ppo.policy_iters_run", "count"},
    {"ppo.ns_per_row_pass", "ns"},
    {"mlp.forward_batch_ns_per_row", "ns"},
    {"mlp.backward_batch_ns_per_row", "ns"},
    {"mlp.forward_ns_per_row", "ns"},
    {"model_io.save_ms", "ms"},
    {"model_io.load_ms", "ms"},
    {"eval.base_s", "s"},
    {"eval.inspected_s", "s"},
    {"eval.inspections", "count"},
    {"eval.rejections", "count"},
    {"sim.ns_per_decision", "ns"},
    {"sim.decisions", "count"},
    {"features.build_ns_per_row", "ns"},
    {"serve.codec_ns_per_request", "ns"},
    {"serve.batch_rows_mean", "rows"},
    {"serve.queue_wait_p50_us", "us"},
    {"serve.infer_p50_us", "us"},
    {"serve.shed", "count"},
    {"serve.degraded", "count"},
    {"serve.gen_late_max_us", "us"},
    {"serve.p99_ms", "ms"},
    {"trace.layer_sum_ratio", "ratio"},
    {"trace.overhead_ratio", "ratio"},
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

std::span<const MetricSpec> end_to_end_metrics() { return kEndToEnd; }
std::span<const MetricSpec> per_layer_metrics() { return kPerLayer; }

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string fingerprint_json(long long steal_before, long long steal_after) {
  const char* revision = std::getenv("PERFBENCH_REVISION");
  std::ostringstream out;
  out << "{\"cpu_model\":\"" << json_escape(cpu_model()) << "\""
      << ",\"nproc\":" << std::max(1u, std::thread::hardware_concurrency())
      << ",\"compiler\":\"" << json_escape("gcc " __VERSION__) << "\""
      << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\""
      << ",\"cxx_flags\":\"" << json_escape(PERFBENCH_CXX_FLAGS) << "\""
      << ",\"revision\":\""
      << json_escape(revision != nullptr ? revision : "unknown") << "\""
      << ",\"steal_ticks\":"
      << (steal_before >= 0 && steal_after >= 0 ? steal_after - steal_before
                                                : -1)
      << "}";
  return out.str();
}

}  // namespace perfbench
