// perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--smoke] [--workdir <dir>]
//
// Runs one benchmark workload and prints, as its last stdout line, the
// result record {"correct", "attempted", "failed", "metrics"}: every
// end-to-end metric when untraced, every per-layer metric when traced (a
// layer the workload does not exercise reads 0). The line before it is the
// run fingerprint. Exits 1 when an output check failed, 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "util.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<train-sdsc-sjf|eval-sdsc-backfill|serve-open-2k|serve-open-20k> "
               "--seed <n> --seconds <s> --trace <0|1> [--smoke] [--workdir <dir>]\n",
               why);
  return 2;
}

/// Every metric a workload set must be declared for this mode, with the
/// declared unit; a stray or mistyped one would otherwise print as 0.
void check_declared(Result& res, bool trace) {
  const auto specs = trace ? per_layer_metrics() : end_to_end_metrics();
  for (const auto& [name, metric] : res.metrics) {
    bool declared = false;
    for (const MetricSpec& spec : specs)
      declared = declared || (name == spec.name && metric.unit == spec.unit);
    if (!declared) res.check(false, "metric " + name + " [" + metric.unit + "] is declared");
  }
}

void print_record(const Result& res, bool trace) {
  std::string out = "{\"correct\": ";
  out += res.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(res.attempted);
  out += ", \"failed\": " + std::to_string(res.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : trace ? per_layer_metrics() : end_to_end_metrics()) {
    const auto it = res.metrics.find(spec.name);
    const double value = it != res.metrics.end() ? it->second.value : 0.0;
    if (!first) out += ", ";
    first = false;
    out += "\"" + std::string(spec.name) + "\": {\"value\": " + num(value) +
           ", \"unit\": \"" + spec.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      opts.smoke = true;
    } else if (arg == "--workload" && has_value) {
      opts.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opts.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      opts.trace = std::strcmp(argv[++i], "1") == 0;
      have_trace = true;
    } else if (arg == "--workdir" && has_value) {
      opts.workdir = argv[++i];
    } else {
      return usage(("unknown or incomplete argument " + arg).c_str());
    }
  }
  if (opts.workload.empty() || !have_trace || opts.seconds <= 0.0)
    return usage("--workload, --seconds and --trace are required");

  const long long steal_before = steal_ticks();
  Result res;
  try {
    if (opts.workload == "train-sdsc-sjf") {
      res = run_train(opts);
    } else if (opts.workload == "eval-sdsc-backfill") {
      res = run_eval(opts);
    } else if (opts.workload == "serve-open-2k") {
      res = run_serve(opts, 2000.0);
    } else if (opts.workload == "serve-open-20k") {
      res = run_serve(opts, 20000.0);
    } else {
      return usage(("unknown workload " + opts.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  check_declared(res, opts.trace);
  for (const std::string& line : res.notes) std::printf("%s\n", line.c_str());
  std::printf("{\"fingerprint\": %s}\n", fingerprint_json(steal_before, steal_ticks()).c_str());
  print_record(res, opts.trace);
  std::fflush(stdout);
  return res.correct ? 0 : 1;
}
