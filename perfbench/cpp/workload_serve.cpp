// serve-open-2k / serve-open-20k: an in-process serve::Server with the
// default config and a fixed seeded 8-32-16-8 model, driven open-loop at a
// fixed rate from one generator thread over 4 pipelined connections.
//
// Request k is due at t0 + k / rate. The generator sleeps in ppoll() until
// the next send is due or a reply arrives (it never spins), sends every
// request that is due, and reads replies as they come. Each request's
// latency runs from when it was due, not from when it was sent, so a stall
// in the generator or the server is charged to every request it delays; how
// late the generator ran is reported as well. The feature rows are the
// observations a greedy replay of SDSC-SP2 windows produces.
//
// The output check: every kOk reply's reject bit and probability must equal
// an offline scalar ActorCritic forward on the same features, bit for bit.
// The traced run serves half its time untraced and half with the server's
// span collector on; the spans give the server-side part of each request.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>
#include <arpa/inet.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "obs/metrics_registry.hpp"
#include "probes.hpp"
#include "replay.hpp"
#include "rl/model_io.hpp"
#include "sched/factory.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "workload/registry.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using si::serve::DecisionReply;
using si::serve::DecisionRequest;
using si::serve::FrameReader;
using si::serve::ReplyStatus;

constexpr int kConnections = 4;
constexpr double kWarmupSeconds = 0.25;
/// Length of one untraced load segment (a fresh server each).
constexpr double kSegmentSeconds = 1.0;

/// A connected TCP socket, closed on destruction.
class Socket {
 public:
  explicit Socket(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect() to the in-process server failed");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~Socket() { ::close(fd_); }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }
  void send_all(const std::string& bytes) const {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
      } else if (errno != EINTR) {
        throw std::runtime_error("send() to the in-process server failed");
      }
    }
  }

 private:
  int fd_ = -1;
};

/// A started server plus its connections. Members are declared so the
/// sockets close before the server stops.
struct Serving {
  std::unique_ptr<si::serve::Server> server;
  std::vector<std::unique_ptr<Socket>> conns;
  ~Serving() {
    conns.clear();
    if (server) server->stop();
  }
};

std::unique_ptr<Serving> start_serving(const std::string& model_path,
                                       si::SpanCollector* spans) {
  auto s = std::make_unique<Serving>();
  si::serve::ServerConfig config;
  config.spans = spans;
  s->server = std::make_unique<si::serve::Server>(config);
  const si::serve::PublishResult published = s->server->publish_model(
      std::make_shared<si::serve::ServedModel>(si::load_model_file(model_path), model_path, 0));
  if (!published.ok) throw std::runtime_error("publish failed: " + published.message);
  s->server->start();
  for (int c = 0; c < kConnections; ++c)
    s->conns.push_back(std::make_unique<Socket>(s->server->port()));
  return s;
}

struct Requests {
  std::vector<double> due_us;   ///< relative to t0
  std::vector<double> sent_us;
  std::vector<double> recv_us;  ///< < 0 = no reply
  std::vector<DecisionReply> replies;
  std::size_t measured_from = 0;  ///< first request past the warm-up
  std::uint64_t batches_at_warm = 0;
  std::uint64_t rows_at_warm = 0;
  std::uint64_t shed_at_warm = 0;
  std::uint64_t degraded_at_warm = 0;
  Clock::time_point t0;
};

/// The open-loop generator: `count` requests at `rate`, cycling `rows`.
Requests generate(Serving& serving, const std::vector<std::vector<double>>& rows, double rate,
                  double seconds) {
  Requests q;
  const auto warm = static_cast<std::size_t>(kWarmupSeconds * rate);
  const auto count = warm + static_cast<std::size_t>(seconds * rate);
  q.due_us.resize(count);
  for (std::size_t k = 0; k < count; ++k) q.due_us[k] = 1e6 * static_cast<double>(k) / rate;
  q.sent_us.assign(count, -1.0);
  q.recv_us.assign(count, -1.0);
  q.replies.resize(count);
  q.measured_from = warm;

  std::vector<pollfd> fds(kConnections);
  std::vector<FrameReader> readers(kConnections);
  for (int c = 0; c < kConnections; ++c) fds[c] = pollfd{serving.conns[c]->fd(), POLLIN, 0};
  char buf[65536];
  std::size_t next = 0;
  std::size_t received = 0;
  const si::serve::ServerStats& stats = serving.server->stats();
  q.t0 = Clock::now();
  const auto now_us = [&] { return std::chrono::duration<double, std::micro>(Clock::now() - q.t0).count(); };
  double drain_deadline = -1.0;
  while (received < count) {
    double now = now_us();
    while (next < count && q.due_us[next] <= now) {
      if (next == warm) {
        q.batches_at_warm = stats.batches.load();
        q.rows_at_warm = stats.batched_rows.load();
        q.shed_at_warm = stats.shed_total.load();
        q.degraded_at_warm = stats.decisions_degraded.load();
      }
      DecisionRequest req;
      req.request_id = next + 1;
      req.features = rows[next % rows.size()];
      serving.conns[next % kConnections]->send_all(si::serve::encode_decision_request(req));
      q.sent_us[next] = now;
      ++next;
      now = now_us();
    }
    if (next == count && drain_deadline < 0) drain_deadline = now + 3e6;
    if (drain_deadline >= 0 && now > drain_deadline) break;
    const double wait_us = next < count ? q.due_us[next] - now : drain_deadline - now;
    timespec timeout{};
    const auto wait_ns = static_cast<long long>(std::max(0.0, wait_us) * 1e3);
    timeout.tv_sec = wait_ns / 1000000000LL;
    timeout.tv_nsec = wait_ns % 1000000000LL;
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready <= 0) continue;
    const double arrival = now_us();
    for (int c = 0; c < kConnections; ++c) {
      if ((fds[c].revents & POLLIN) == 0) continue;
      const ssize_t n = ::recv(fds[c].fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n == 0) fds[c].fd = -1;  // server closed it: its replies are missing
      if (n <= 0) continue;
      readers[c].feed(std::string_view(buf, static_cast<std::size_t>(n)));
      while (auto frame = readers[c].next()) {
        DecisionReply reply;
        if (frame->type != si::serve::FrameType::kDecisionReply ||
            !si::serve::decode_decision_reply(frame->payload, reply))
          continue;
        const std::size_t k = reply.request_id - 1;
        if (k >= count || q.recv_us[k] >= 0) continue;
        q.recv_us[k] = arrival;
        q.replies[k] = reply;
        ++received;
      }
    }
  }
  return q;
}

/// One load phase, summarized at once so that no per-request data outlives
/// it: the run's memory must not grow with the number of segments.
struct PhaseStats {
  std::size_t measured = 0;  ///< measured requests with a reply
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double late_p50_us = 0.0;
  double late_max_us = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;
};

PhaseStats summarize(const Requests& q, const std::vector<std::vector<double>>& rows,
                     const std::vector<double>& offline_logit) {
  PhaseStats p;
  std::vector<double> latency_us, late_us;
  p.attempted = q.due_us.size();
  for (std::size_t k = 0; k < q.due_us.size(); ++k) {
    const DecisionReply& r = q.replies[k];
    if (q.recv_us[k] < 0 || r.status != ReplyStatus::kOk) {
      ++p.failed;
      continue;
    }
    const double logit = offline_logit[k % rows.size()];
    const double prob = si::sigmoid(logit);
    if (r.reject != (logit > 0.0 ? 1 : 0) ||
        std::bit_cast<std::uint64_t>(r.prob) != std::bit_cast<std::uint64_t>(prob))
      ++p.mismatched;
    if (k < q.measured_from) continue;
    latency_us.push_back(q.recv_us[k] - q.due_us[k]);
    late_us.push_back(q.sent_us[k] - q.due_us[k]);
  }
  p.measured = latency_us.size();
  p.p50_ms = median(latency_us) / 1e3;
  p.p99_ms = quantile(latency_us, 0.99) / 1e3;
  p.late_p50_us = median(late_us);
  p.late_max_us = late_us.empty() ? 0.0 : *std::max_element(late_us.begin(), late_us.end());
  return p;
}

/// Loop-level cost of the client-side codec on this run's own frames:
/// encode every request, then parse the reply stream with a FrameReader and
/// decode each reply.
double codec_ns_per_request(const std::vector<std::vector<double>>& rows,
                            const std::vector<DecisionReply>& replies) {
  std::string stream;
  for (const DecisionReply& r : replies) stream += si::serve::encode_decision_reply(r);
  const std::size_t n = std::min(rows.size(), replies.size());
  if (n == 0) return 0.0;
  std::vector<double> passes;
  std::size_t sink = 0;
  for (int pass = 0; pass < 7; ++pass) {
    const auto start = Clock::now();
    DecisionRequest req;
    for (std::size_t i = 0; i < n; ++i) {
      req.request_id = i + 1;
      req.features = rows[i];
      sink += si::serve::encode_decision_request(req).size();
    }
    FrameReader reader;
    for (std::size_t off = 0; off < stream.size(); off += 4096) {
      reader.feed(std::string_view(stream).substr(off, 4096));
      while (auto frame = reader.next()) {
        DecisionReply out;
        sink += si::serve::decode_decision_reply(frame->payload, out) ? 1 : 0;
      }
    }
    passes.push_back(seconds_since(start));
  }
  return sink > 0 ? median(passes) * 1e9 / static_cast<double>(n) : 0.0;
}

/// What the untraced segments add up to.
struct Untraced {
  std::vector<PhaseStats> parts;
  Units p50_ms;
  Units p99_ms;
  Units cpu_ms;  ///< process CPU per request
  std::vector<double> queue_p50_us, infer_p50_us;
  std::uint64_t batches = 0, batch_rows = 0, shed = 0, degraded = 0;
  std::vector<DecisionReply> replies;  ///< the first segment's replies
};

}  // namespace

Result run_serve(const Options& opts, double rate) {
  Result res;
  // Server threads sleep on condition variables with the default timer
  // slack; only the generator's own wake-ups are tightened.
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  const std::string model_path = opts.workdir + "/serve.model";

  std::vector<double> setups;
  std::unique_ptr<Serving> serving;
  std::vector<std::vector<double>> rows;
  std::unique_ptr<si::ActorCritic> ac;
  for (int i = 0; i < kSetups; ++i) {
    serving.reset();
    const auto t = Clock::now();
    const si::Trace trace = si::make_trace("SDSC-SP2", si::kDefaultTraceJobs, kTraceSeed);
    const auto [train, test] = trace.split(0.2);
    const si::FeatureBuilder features(si::FeatureMode::kManual, si::Metric::kBsld,
                                      si::FeatureScales::from_trace(train), 600.0);
    si::ActorCritic init(features.feature_count(), {32, 16, 8}, kModelSeed);
    init.policy_net().set_output_bias(0.0);
    si::save_model_file(model_path, init);
    ac = std::make_unique<si::ActorCritic>(si::load_model_file(model_path));
    const si::PolicyPtr policy = si::make_policy("SJF");
    si::SimConfig sim;
    sim.backfill = true;
    const ReplayReport replay =
        replay_windows(eval_windows(test, opts.seed, 8, 256), nullptr, test.cluster_procs(), sim,
                       *policy, *ac, features, 0);
    rows.clear();
    const auto width = static_cast<std::size_t>(features.feature_count());
    for (std::size_t off = 0; off + width <= replay.rows.size(); off += width)
      rows.emplace_back(replay.rows.begin() + static_cast<std::ptrdiff_t>(off),
                        replay.rows.begin() + static_cast<std::ptrdiff_t>(off + width));
    serving = start_serving(model_path, nullptr);
    setups.push_back(seconds_since(t));
  }
  std::vector<double> offline_logit;
  for (const auto& row : rows) offline_logit.push_back(ac->policy_net().forward(row)[0]);

  // The untraced load runs in segments, each against a freshly started
  // server with fresh connections (the set-up's server serves the first).
  // The reported p50 is the median of the segment p50s over the segments
  // the host did not disturb, so neither the thread placement one server
  // start happens to get nor a burst of host steal decides it.
  const double budget = opts.smoke ? 0.3 : (opts.trace ? opts.seconds / 2 : opts.seconds);
  const double seconds = opts.smoke ? budget : kSegmentSeconds;
  Untraced u;
  const auto start = Clock::now();
  for (int seg = 0; seg == 0 || (u.p50_ms.clean_seconds < budget &&
                                 seconds_since(start) < kMaxRunStretch * budget);
       ++seg) {
    if (seg > 0) serving = start_serving(model_path, nullptr);
    const StealWindow steal;
    const double cpu0 = cpu_seconds();
    const Requests q = generate(*serving, rows, rate, seconds);
    const double cpu_ms = (cpu_seconds() - cpu0) * 1e3 / static_cast<double>(q.due_us.size());
    const Steal stolen = steal.read();
    u.parts.push_back(summarize(q, rows, offline_logit));
    u.p50_ms.add(u.parts.back().p50_ms, stolen, seconds);
    u.p99_ms.add(u.parts.back().p99_ms, stolen, seconds);
    u.cpu_ms.add(cpu_ms, stolen, seconds);
    const si::serve::ServerStats& st = serving->server->stats();
    u.queue_p50_us.push_back(si::histogram_quantile(st.queue_wait_us.snapshot(), 0.5));
    u.infer_p50_us.push_back(si::histogram_quantile(st.infer_us.snapshot(), 0.5));
    u.batches += st.batches.load() - q.batches_at_warm;
    u.batch_rows += st.batched_rows.load() - q.rows_at_warm;
    u.shed += st.shed_total.load() - q.shed_at_warm;
    u.degraded += st.decisions_degraded.load() - q.degraded_at_warm;
    if (seg == 0) u.replies = q.replies;
    serving.reset();
  }
  std::size_t measured = 0;
  double late_max_us = 0.0;
  std::vector<double> late_p50;
  std::uint64_t mismatched = 0;
  for (const PhaseStats& part : u.parts) {
    res.attempted += part.attempted;
    res.failed += part.failed;
    mismatched += part.mismatched;
    measured += part.measured;
    late_max_us = std::max(late_max_us, part.late_max_us);
    late_p50.push_back(part.late_p50_us);
  }
  const double p50_ms = u.p50_ms.median_clean();
  const double p99_ms = u.p99_ms.median_clean();
  res.check(mismatched == 0, "every kOk reply equals the offline forward (" +
                                 std::to_string(mismatched) + " differ)");
  std::string line = std::to_string(measured) + " measured requests at " + num(rate) +
                     "/s in " + std::to_string(u.parts.size()) + " segments, " +
                     std::to_string(u.p50_ms.clean()) + " clean of host steal; segment p50 (us):";
  for (std::size_t i = 0; i < u.parts.size(); ++i)
    line += " " + num(u.p50_ms.values[i] * 1e3) + (u.p50_ms.steal[i].disturbed ? "*" : "");
  res.note(line);
  res.note("p99 " + num(p99_ms) + " ms (median of segment p99s); generator late p50 " +
           num(median(late_p50)) + " us, max " + num(late_max_us) + " us");

  const std::string tag = rate >= 10000 ? "20k" : "2k";
  if (!opts.trace) {
    res.set("setup_s", median(setups), "s");
    res.set("peak_rss_mb", peak_rss_mb(), "MB");
    res.set("p50_ms", p50_ms, "ms");
    res.set("cpu_ms", u.cpu_ms.median_clean(), "ms");
    res.note("report serve_p50_us_" + tag + " " + num(p50_ms * 1e3) + " us");
    res.note("report serve_p99_us_" + tag + " " + num(p99_ms * 1e3) + " us");
    return res;
  }

  // --- traced half: the same load against a server with spans on ---
  si::SpanCollector spans;
  serving = start_serving(model_path, &spans);
  const Requests tq = generate(*serving, rows, rate, opts.smoke ? 0.3 : opts.seconds / 2);
  serving.reset();
  const PhaseStats tp = summarize(tq, rows, offline_logit);
  res.attempted += tp.attempted;
  res.failed += tp.failed;
  res.check(tp.mismatched == 0, "traced: every kOk reply equals the offline forward");

  // Server-side segments of each measured request still in the span ring.
  struct Segs {
    double request = -1, admit = -1, queue = -1, infer = -1, write = -1;
    std::uint64_t id = 0;
  };
  std::unordered_map<std::uint64_t, Segs> by_trace;
  for (const si::SpanEvent& e : spans.snapshot()) {
    if (e.phase != si::SpanEvent::Phase::kComplete || e.trace_id == 0) continue;
    Segs& s = by_trace[e.trace_id];
    const auto dur = static_cast<double>(e.dur_us);
    if (e.name == "serve.request") {
      s.request = dur;
      for (const auto& [key, value] : e.args)
        if (key == "request_id") s.id = std::stoull(value);
    } else if (e.name == "serve.admit") {
      s.admit = dur;
    } else if (e.name == "serve.queue_wait") {
      s.queue = dur;
    } else if (e.name == "serve.inference") {
      s.infer = dur;
    } else if (e.name == "serve.reply_write") {
      s.write = dur;
    }
  }
  double sum_latency = 0, sum_late = 0, sum_request = 0, sum_write = 0;
  std::size_t matched = 0, untiled = 0;
  for (const auto& [trace_id, s] : by_trace) {
    if (s.id == 0 || s.request < 0 || s.admit < 0 || s.queue < 0 || s.infer < 0 || s.write < 0)
      continue;
    const std::size_t k = s.id - 1;
    if (k < tq.measured_from || k >= tq.recv_us.size() || tq.recv_us[k] < 0) continue;
    if (s.admit + s.queue + s.infer != s.request) ++untiled;
    ++matched;
    sum_latency += tq.recv_us[k] - tq.due_us[k];
    sum_late += tq.sent_us[k] - tq.due_us[k];
    sum_request += s.request;
    sum_write += s.write;
  }
  res.check(untiled == 0, "admit + queue_wait + inference == serve.request on every traced request (" +
                              std::to_string(untiled) + " of " + std::to_string(matched) + " differ)");
  const double layer_sum = matched > 0 ? (sum_late + sum_request + sum_write) / sum_latency : 0.0;
  res.check(matched > 0 && layer_sum >= 0.3 && layer_sum <= 1.02,
            "generator lateness + server request + reply write = " + num(layer_sum) +
                " of the client latency over " + std::to_string(matched) +
                " requests (bound [0.3, 1.02]; the rest is loopback transit and I/O-thread wait)");

  const double mean_rows =
      u.batches > 0 ? static_cast<double>(u.batch_rows) / static_cast<double>(u.batches) : 0.0;
  std::vector<double> flat;
  for (const auto& row : rows) flat.insert(flat.end(), row.begin(), row.end());
  const MlpProbe mlp = mlp_probe(ac->policy_net(), flat,
                                 std::max(1, static_cast<int>(std::lround(mean_rows))),
                                 opts.smoke ? 0.0 : 0.3);
  const ModelIoProbe io = model_io_probe(*ac, opts.workdir + "/probe.model", false, 5);
  res.check(io.round_trip_exact, "model save/load round-trips the parameters exactly");
  std::vector<DecisionReply> codec_replies;
  for (const DecisionReply& r : u.replies)
    if (r.request_id != 0 && codec_replies.size() < rows.size()) codec_replies.push_back(r);

  const double queue_p50 = median(u.queue_p50_us);
  const double infer_p50 = median(u.infer_p50_us);
  res.set("mlp.forward_batch_ns_per_row", mlp.forward_batch_ns_per_row, "ns");
  res.set("mlp.backward_batch_ns_per_row", mlp.backward_batch_ns_per_row, "ns");
  res.set("model_io.save_ms", io.save_ms, "ms");
  res.set("model_io.load_ms", io.load_ms, "ms");
  res.set("serve.codec_ns_per_request", codec_ns_per_request(rows, codec_replies), "ns");
  res.set("serve.batch_rows_mean", mean_rows, "rows");
  res.set("serve.queue_wait_p50_us", queue_p50, "us");
  res.set("serve.infer_p50_us", infer_p50, "us");
  res.set("serve.shed", static_cast<double>(u.shed), "count");
  res.set("serve.degraded", static_cast<double>(u.degraded), "count");
  res.set("serve.gen_late_max_us", late_max_us, "us");
  res.set("serve.p99_ms", p99_ms, "ms");
  res.set("trace.layer_sum_ratio", layer_sum, "ratio");
  res.set("trace.overhead_ratio", tp.p50_ms / p50_ms - 1.0, "ratio");
  if (queue_p50 < 50.0) res.note("serve.queue_wait_p50_us unresolved: under the 50 us first bucket");
  if (infer_p50 < 50.0) res.note("serve.infer_p50_us unresolved: under the 50 us first bucket");
  if (matched > 0)
    res.note("traced requests " + std::to_string(matched) + ": mean latency " +
             num(sum_latency / matched) + " us = late " + num(sum_late / matched) +
             " + server " + num(sum_request / matched) + " + reply write " +
             num(sum_write / matched) + " + transit " +
             num((sum_latency - sum_late - sum_request - sum_write) / matched) + " us");
  res.note("traced p50 " + num(tp.p50_ms) + " ms vs untraced " + num(p50_ms) + " ms");
  return res;
}

}  // namespace perfbench
