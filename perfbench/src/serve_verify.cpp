// serve-verify: request latency and certifier throughput through the
// `ssmwn serve` daemon, driven from outside over its wire protocol.
//
// The daemon runs as a subprocess (`serve --port 0 --threads 4`). One
// generator (this process) holds 4 connections and speaks
// serve::write_frame / serve::read_frame. Every request is a verify spec:
// the six fault classes under the randomized daemon at n = 100, one
// replication, seed_base drawn from the workload seed — six
// self-stabilization trials, each played on both engines.
//
//   open loop   — Poisson arrivals at kOpenLoopRate requests/s (about
//                 half the daemon's capacity on a 4-core host), the
//                 schedule built from the seed before anything is sent;
//                 each request is timed from its due time to its E frame.
//   closed loop — all 4 connections send back to back: capacity.
//
// Gates: every transcript is byte-equal to what the in-process campaign
// runner produces for the same spec, every trial passed, and X frames or
// I/O errors count as failed requests. Connections close before SIGTERM
// (an idle connection would hold the daemon's drain open).
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "common.hpp"
#include "serve/wire.hpp"
#include "util/rng.hpp"
#include "verify/certifier.hpp"
#include "verify/trial.hpp"

extern char** environ;

namespace perfbench {
namespace {

using namespace ssmwn;

constexpr unsigned kConnections = 4;
constexpr std::size_t kTrialsPerRequest = 6;  // one per fault class
constexpr double kOpenLoopRate = 40.0;  // requests per second
// At 25 s: ~600 open-loop requests (60 beyond the p90) and ~750
// closed-loop ones.
constexpr double kOpenShare = 0.6;      // of --seconds
constexpr double kClosedShare = 0.4;    // of --seconds
constexpr std::size_t kDaemonStarts = 5;
constexpr double kWarmupSeconds = 1.0;
constexpr std::size_t kTrialSample = 60;  // in-process trials (traced)
constexpr int kStartTimeoutMs = 20000;

std::string spec_text(std::uint64_t seed_base) {
  return "name          = perfbench-verify\n"
         "topology      = uniform\n"
         "n             = 100\n"
         "radius        = 0.14\n"
         "variant       = basic\n"
         "verify_faults = true\n"
         "fault_class   = random-all, metric-skew, cluster-id-noise, "
         "stale-cache, hierarchy-loops, partial-frame\n"
         "daemon        = randomized\n"
         "steps         = 240\n"
         "replications  = 1\n"
         "seed_base     = " +
         std::to_string(seed_base) + "\n";
}

/// The daemon subprocess: spawned, parsed for its port, stopped with
/// SIGTERM and reaped by the destructor at the latest.
class Daemon {
 public:
  Daemon(const std::string& cli, unsigned threads) {
    int out[2];
    if (::pipe2(out, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
    const std::string threads_arg = std::to_string(threads);
    const char* argv[] = {cli.c_str(), "serve", "--port", "0", "--threads",
                          threads_arg.c_str(), nullptr};
    const int rc = posix_spawn(&pid_, cli.c_str(), &actions, nullptr,
                               const_cast<char* const*>(argv), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(out[1]);
    out_ = out[0];
    if (rc != 0) {
      ::close(out_);
      throw std::runtime_error("cannot spawn " + cli + ": " + std::strerror(rc));
    }
    const std::string line = read_line();
    const auto at = line.find("127.0.0.1:");
    if (at == std::string::npos) {
      stop();
      throw std::runtime_error("daemon did not report a port: '" + line + "'");
    }
    port_ = static_cast<std::uint16_t>(std::stoi(line.substr(at + 10)));
  }
  ~Daemon() {
    try {
      stop();
    } catch (...) {
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] double peak_rss_mb() const {
    return vm_hwm_mb(std::to_string(pid_));
  }

  /// SIGTERM, read the drain message, reap; true on a clean exit 0.
  bool stop() {
    if (pid_ <= 0) return exited_ok_;
    ::kill(pid_, SIGTERM);
    char buf[256];
    while (::read(out_, buf, sizeof buf) > 0) {
    }
    ::close(out_);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    exited_ok_ = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    return exited_ok_;
  }

 private:
  std::string read_line() {
    std::string line;
    char c = 0;
    for (;;) {
      pollfd pfd{out_, POLLIN, 0};
      if (::poll(&pfd, 1, kStartTimeoutMs) <= 0) break;
      if (::read(out_, &c, 1) != 1 || c == '\n') break;
      line += c;
    }
    return line;
  }

  pid_t pid_ = -1;
  int out_ = -1;
  std::uint16_t port_ = 0;
  bool exited_ok_ = false;
};

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("connect failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

struct Connections {
  std::vector<int> fds;
  ~Connections() { close_all(); }
  void close_all() {
    for (const int fd : fds) ::close(fd);
    fds.clear();
  }
};

/// What the daemon streamed for one request, with the generator's
/// timestamps (seconds since the phase started).
struct Outcome {
  bool done = false;
  bool ok = false;
  std::string error;
  double due_s = 0.0;
  double send_s = 0.0;
  double first_s = 0.0;
  double end_s = 0.0;
  std::size_t bytes = 0;
  std::string transcript;  // "<type><body>\n" per frame
};

struct Request {
  std::uint64_t seed_base = 0;
  std::string spec;
  double due_s = 0.0;
};

Request make_request(util::Rng& rng, double due_s) {
  Request r;
  r.seed_base = rng() % 1000000007ull;
  r.spec = spec_text(r.seed_base);
  r.due_s = due_s;
  return r;
}

/// `count` requests without due times (closed loop).
std::vector<Request> make_requests(util::Rng& rng, std::size_t count) {
  std::vector<Request> out;
  for (std::size_t i = 0; i < count; ++i) out.push_back(make_request(rng, 0.0));
  return out;
}

/// Poisson arrivals at `rate` per second over `duration_s` (open loop).
std::vector<Request> make_requests(util::Rng& rng, double rate,
                                   double duration_s) {
  std::vector<Request> out;
  for (double t = -std::log(1.0 - rng.uniform()) / rate; t < duration_s;
       t += -std::log(1.0 - rng.uniform()) / rate) {
    out.push_back(make_request(rng, t));
  }
  return out;
}

/// One request/response exchange on `fd`. Returns false when the
/// connection is unusable afterwards.
bool exchange(int fd, const Request& req, Outcome& o, Clock::time_point t0,
              bool quick_ack) {
  o.send_s = seconds_since(t0);
  try {
    serve::write_frame(fd, serve::FrameType::kSpec, req.spec);
    serve::Frame frame;
    bool first = true;
    for (;;) {
      if (quick_ack) {
        // Linux clears the flag on its own; re-arm it before each read.
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
      }
      if (!serve::read_frame(fd, frame)) {
        o.error = "connection closed before the E frame";
        return false;
      }
      if (first) {
        o.first_s = seconds_since(t0);
        first = false;
      }
      o.bytes += 5 + frame.body.size();
      o.transcript += static_cast<char>(frame.type);
      o.transcript += frame.body;
      o.transcript += '\n';
      if (frame.type == serve::FrameType::kError) {
        o.error = "X frame: " + frame.body;
        // A run failure keeps streaming; a spec rejection ends the reply.
        if (frame.body.rfind("run ", 0) != 0) break;
        continue;
      }
      if (frame.type == serve::FrameType::kEnd) break;
    }
  } catch (const std::exception& e) {
    o.error = std::string("I/O error: ") + e.what();
    o.end_s = seconds_since(t0);
    o.done = true;
    return false;
  }
  o.end_s = seconds_since(t0);
  o.done = true;
  o.ok = o.error.empty();
  return true;
}

/// Drives `reqs` over the connections. Open loop: each request waits
/// for its due time (and for a free connection), and the generator
/// acknowledges every segment at once (TCP_QUICKACK). Closed loop
/// (`deadline_s` > 0): requests go back to back until the deadline,
/// with the kernel's default delayed ACKs.
///
/// Why the difference: the daemon writes each result frame with its own
/// write(2) and does not set TCP_NODELAY, so Nagle holds frame 2.. of a
/// reply until frame 1 is acknowledged — up to the client's delayed-ACK
/// timeout (~40 ms). A client that replies fast enters the kernel's
/// delayed-ACK ("ping-pong") mode, a backlog makes every client reply
/// fast, and the open loop flips between a ~10 ms and a ~50 ms regime
/// run to run. The closed loop sits in the stalled regime all the time,
/// so the defect stays measured, steadily, in throughput_per_s; the
/// open loop measures queueing plus service.
std::vector<Outcome> drive(const std::vector<int>& fds,
                           const std::vector<Request>& reqs,
                           double deadline_s) {
  std::vector<Outcome> out(reqs.size());
  std::atomic<std::size_t> next{0};
  const auto t0 = Clock::now();
  {
    std::vector<std::jthread> workers;
    for (const int fd : fds) {
      workers.emplace_back([&, fd] {
        for (std::size_t i = next++; i < reqs.size(); i = next++) {
          if (deadline_s > 0.0 && seconds_since(t0) >= deadline_s) break;
          Outcome& o = out[i];
          o.due_s = deadline_s > 0.0 ? seconds_since(t0) : reqs[i].due_s;
          const double wait = o.due_s - seconds_since(t0);
          if (wait > 0) {
            std::this_thread::sleep_for(std::chrono::duration<double>(wait));
          }
          if (!exchange(fd, reqs[i], o, t0, deadline_s <= 0.0)) break;
        }
      });
    }
  }
  if (deadline_s > 0.0) {
    // Closed loop: only what was sent counts.
    std::size_t sent = 0;
    while (sent < out.size() && (out[sent].done || out[sent].send_s > 0)) ++sent;
    out.resize(sent);
  }
  return out;
}

/// The daemon's result line for plan slot `i` (its wire contract: slot,
/// grid index, replication, seed, the ten report metrics, windows).
std::string result_line(const campaign::CampaignPlan& plan, std::size_t i,
                        const campaign::RunMetrics& m) {
  const auto& entry = plan.runs[i];
  std::string line = std::to_string(i) + ',' + std::to_string(entry.grid_index) +
                     ',' + std::to_string(entry.replication) + ',' +
                     std::to_string(entry.seed);
  for (const double v : {m.stability, m.delta, m.reaffiliation, m.cluster_count,
                         m.converge_time, m.messages, m.reconverge_time,
                         m.reconverge_messages, m.sync_steps, m.sync_messages}) {
    line += ',' + campaign::format_double(v);
  }
  return line + ',' + std::to_string(m.windows);
}

/// In-process transcripts for `reqs`, computed on `threads` workers,
/// each running a one-thread campaign runner per request.
std::vector<std::string> reference_transcripts(const std::vector<Request>& reqs,
                                               std::size_t count,
                                               unsigned threads,
                                               std::vector<bool>& all_passed) {
  std::vector<std::string> out(count);
  all_passed.assign(count, true);
  std::atomic<std::size_t> next{0};
  std::vector<std::jthread> workers;
  for (unsigned w = 0; w < threads; ++w) {
    workers.emplace_back([&] {
      campaign::CampaignRunner runner(1);
      for (std::size_t i = next++; i < count; i = next++) {
        const auto plan = campaign::expand(campaign::parse_spec_text(reqs[i].spec));
        const auto results = runner.run(plan);
        std::string t;
        for (std::size_t k = 0; k < results.size(); ++k) {
          t += 'R' + result_line(plan, k, results[k]) + '\n';
          if (results[k].stability != 1.0) all_passed[i] = false;
        }
        t += 'E' + std::to_string(results.size()) + '\n';
        out[i] = std::move(t);
      }
    });
  }
  workers.clear();
  return out;
}

struct PhaseStats {
  std::vector<double> latency_ms;
  std::vector<double> first_ms;
  std::vector<double> late_ms;
  double trials_per_s = 0.0;
  std::size_t requests = 0;
  std::size_t bytes = 0;
};

/// Checks one phase's outcomes against the references and summarizes.
PhaseStats check_phase(const char* phase, const std::vector<Request>& reqs,
                       const std::vector<Outcome>& outcomes, unsigned threads,
                       Result& out) {
  std::vector<bool> passed;
  const auto expected =
      reference_transcripts(reqs, outcomes.size(), threads, passed);
  PhaseStats ps;
  double last_end = 0.0;
  std::size_t trials = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    out.attempt();
    ++ps.requests;
    const std::string where = std::string(phase) + " request " + std::to_string(i);
    if (!o.ok) {
      out.failed_op(where + ": " + (o.done ? o.error : "never completed"));
      continue;
    }
    if (o.transcript != expected[i]) {
      out.failed_op(where + ": transcript differs from the in-process runner");
      continue;
    }
    if (!passed[i]) {
      out.failed_op(where + ": a trial did not certify");
      continue;
    }
    ps.latency_ms.push_back((o.end_s - o.due_s) * 1e3);
    ps.first_ms.push_back((o.first_s - o.send_s) * 1e3);
    ps.late_ms.push_back((o.send_s - o.due_s) * 1e3);
    ps.bytes += o.bytes;
    last_end = std::max(last_end, o.end_s);
    trials += kTrialsPerRequest;
  }

  ps.trials_per_s = last_end > 0 ? static_cast<double>(trials) / last_end : 0.0;
  return ps;
}

struct Measured {
  double setup_s = 0.0;
  PhaseStats open;
  PhaseStats closed;
  double peak_rss_mb = 0.0;
};

Measured measure(const Options& opt, Result& out) {
  if (opt.cli.empty()) throw std::runtime_error("serve-verify needs --cli PATH");
  util::Rng rng(opt.seed ^ 0x7365727665ull);  // "serve"
  const double open_s = opt.seconds * kOpenShare;
  const double closed_s = opt.seconds * kClosedShare;
  // The whole schedule exists before anything is sent.
  util::Rng open_rng = rng.split();
  const auto open_reqs = make_requests(open_rng, kOpenLoopRate, open_s);
  util::Rng warm_rng = rng.split();
  const auto warm_reqs = make_requests(warm_rng, 512);
  util::Rng closed_rng = rng.split();
  const auto closed_reqs = make_requests(
      closed_rng, static_cast<std::size_t>(closed_s * 1000.0) + 64);

  Measured m;
  std::vector<double> setup;
  std::unique_ptr<Daemon> daemon;
  Connections conns;
  for (std::size_t s = 0; s < kDaemonStarts; ++s) {
    if (daemon) {
      conns.close_all();
      if (!daemon->stop()) out.fail("daemon did not drain and exit 0");
    }
    const auto t0 = Clock::now();
    daemon = std::make_unique<Daemon>(opt.cli, kThreads);
    for (unsigned c = 0; c < kConnections; ++c) {
      conns.fds.push_back(connect_to(daemon->port()));
    }
    setup.push_back(seconds_since(t0));
  }
  m.setup_s = median(setup);

  // Warm-up: the first second of a fresh daemon runs several times
  // slower (first-touch allocation in every worker); its replies are
  // checked but not timed.
  const auto warm = drive(conns.fds, warm_reqs, kWarmupSeconds);
  const auto open = drive(conns.fds, open_reqs, 0.0);
  const auto closed = drive(conns.fds, closed_reqs, closed_s);
  m.peak_rss_mb = daemon->peak_rss_mb();
  conns.close_all();
  out.attempt();
  if (!daemon->stop()) out.failed_op("daemon did not drain and exit 0");

  check_phase("warm-up", warm_reqs, warm, kThreads, out);
  m.open = check_phase("open-loop", open_reqs, open, kThreads, out);
  m.closed = check_phase("closed-loop", closed_reqs, closed, kThreads, out);
  std::printf("  open loop: %zu requests at %.0f/s over %.1f s; closed loop: "
              "%zu requests, %.1f trials/s\n",
              m.open.requests, kOpenLoopRate, open_s, m.closed.requests,
              m.closed.trials_per_s);
  return m;
}

/// End-to-end latency is the closed loop's, send to `E` frame: every
/// reply there pays the daemon's delayed-ACK stall, so it is steady run
/// to run. The open loop's latency, from due time, moved 16–29 %
/// (IQR/median over ten seeds) with the host's load and is reported in
/// the table and as per-layer metrics.
void report_end_to_end(const Measured& m, Result& out) {
  out.add("setup_s", m.setup_s, "s");
  out.add("latency_p50_ms", median(m.closed.latency_ms), "ms");
  out.add("latency_p90_ms", quantile(m.closed.latency_ms, 0.9), "ms");
  out.add("throughput_per_s", m.closed.trials_per_s, "1/s");
  out.add("peak_rss_mb", m.peak_rss_mb, "MB");
  out.add("trials_per_s", m.closed.trials_per_s, "1/s");
  out.add("open_latency_p50_ms", median(m.open.latency_ms), "ms");
  out.add("open_latency_p99_ms", quantile(m.open.latency_ms, 0.99), "ms");
}

}  // namespace

void run_serve_verify(const Options& opt, Result& out) {
  ::signal(SIGPIPE, SIG_IGN);
  const auto start = Clock::now();
  const Measured plain = measure(opt, out);
  if (!opt.trace) {
    report_end_to_end(plain, out);
    return;
  }

  // The generator's spans (first-result and send timestamps) are taken
  // in every pass, so a second pass is the traced one: the overhead is
  // its run-to-run difference.
  const Measured traced = measure(opt, out);
  Result a, b;
  report_end_to_end(plain, a);
  report_end_to_end(traced, b);
  add_overhead(a, b, out);
  out.add("serve.requests", static_cast<double>(traced.open.requests), "count");
  out.add("serve.open_latency_p50_ms", median(traced.open.latency_ms), "ms");
  out.add("serve.open_latency_p99_ms", quantile(traced.open.latency_ms, 0.99), "ms");
  out.add("serve.failed", static_cast<double>(out.failed()), "count");
  out.add("serve.first_result_ms.p50", median(traced.open.first_ms), "ms");
  out.add("serve.first_result_ms.p99", quantile(traced.open.first_ms, 0.99), "ms");
  out.add("serve.gen_late_ms.p99", quantile(traced.open.late_ms, 0.99), "ms");
  out.add("serve.bytes_per_request",
          traced.open.requests
              ? static_cast<double>(traced.open.bytes) /
                    static_cast<double>(traced.open.requests)
              : 0.0,
          "bytes");

  // verify layer: the same trial specs in process, one trial at a time.
  util::Rng rng(opt.seed ^ 0x747269616cull);  // "trial"
  const auto reqs = make_requests(rng, kTrialSample / kTrialsPerRequest);
  std::vector<double> trial_ms;
  double sync_steps = 0.0, async_messages = 0.0;
  for (const Request& r : reqs) {
    const auto plan = campaign::expand(campaign::parse_spec_text(r.spec));
    for (const auto& entry : plan.runs) {
      const auto spec = verify::trial_from_scenario(
          plan.grid[entry.grid_index].config, entry.seed);
      const auto t0 = Clock::now();
      const verify::TrialResult tr = verify::run_trial(spec);
      trial_ms.push_back(seconds_since(t0) * 1e3);
      out.attempt();
      if (!tr.passed) out.failed_op("in-process trial did not certify");
      sync_steps += static_cast<double>(tr.sync_steps);
      async_messages += static_cast<double>(tr.async_messages);
    }
  }
  out.add("verify.trial_ms.p50", median(trial_ms), "ms");
  out.add("verify.trial_ms.p99", quantile(trial_ms, 0.99), "ms");
  out.add("verify.sync_steps", sync_steps, "count");
  out.add("verify.async_messages", async_messages, "count");
  std::printf("serve-verify: %.1f s total\n", seconds_since(start));
}

}  // namespace perfbench
