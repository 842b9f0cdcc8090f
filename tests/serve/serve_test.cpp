// Serve daemon surface: wire framing, the FIFO run pool's determinism
// and ordering, and the Server end-to-end — concurrent clients receive
// byte-identical result streams for the same spec, errors keep the
// connection usable, multi-frame replies do not stall on delayed ACKs,
// and request_stop() drains gracefully even past idle connections.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "serve/worker_pool.hpp"

namespace ssmwn {
namespace {

constexpr const char* kSpecText = R"(
name         = servetest
topology     = uniform
n            = 40
radius       = 0.15
variant      = basic, improved
steps        = 4
replications = 3
seed_base    = 2025
)";

// Six runs of n = 20: service stays far below a millisecond per run
// (well under 10 ms per spec even under sanitizers), so anything a reply
// waits beyond that is waiting, not work.
constexpr const char* kTinySpecText = R"(
name         = servetiny
topology     = uniform
n            = 20
radius       = 0.3
variant      = basic, improved
steps        = 4
replications = 3
seed_base    = 7
)";

// Upper bound on any single wait in these tests. It turns a scheduling
// defect into a failure instead of a hung ctest; correct code never
// comes near it.
constexpr auto kWaitBound = std::chrono::seconds(30);

TEST(Wire, FramesRoundTripAcrossASocketPair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

  serve::write_frame(fds[0], serve::FrameType::kSpec, "hello spec");
  serve::write_frame(fds[0], serve::FrameType::kResult, "");
  std::string big(100'000, 'x');
  serve::write_frame(fds[0], serve::FrameType::kEnd, big);
  ::shutdown(fds[0], SHUT_WR);

  serve::Frame frame;
  ASSERT_TRUE(serve::read_frame(fds[1], frame));
  EXPECT_EQ(frame.type, serve::FrameType::kSpec);
  EXPECT_EQ(frame.body, "hello spec");
  ASSERT_TRUE(serve::read_frame(fds[1], frame));
  EXPECT_EQ(frame.type, serve::FrameType::kResult);
  EXPECT_EQ(frame.body, "");
  ASSERT_TRUE(serve::read_frame(fds[1], frame));
  EXPECT_EQ(frame.type, serve::FrameType::kEnd);
  EXPECT_EQ(frame.body, big);
  // Clean EOF at a frame boundary is a false return, not an exception.
  EXPECT_FALSE(serve::read_frame(fds[1], frame));
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(Wire, RejectsTornAndOversizedFrames) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Length prefix claiming 100 bytes, then EOF after 3: torn frame.
  const unsigned char torn[] = {0, 0, 0, 100, 'S', 'a', 'b'};
  ASSERT_EQ(::write(fds[0], torn, sizeof(torn)),
            static_cast<ssize_t>(sizeof(torn)));
  ::shutdown(fds[0], SHUT_WR);
  serve::Frame frame;
  EXPECT_THROW((void)serve::read_frame(fds[1], frame), std::runtime_error);
  ::close(fds[0]);
  ::close(fds[1]);

  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // A length prefix beyond kMaxFramePayload must be rejected up front,
  // before any allocation of that size.
  const unsigned char huge[] = {0xff, 0xff, 0xff, 0xff, 'S'};
  ASSERT_EQ(::write(fds[0], huge, sizeof(huge)),
            static_cast<ssize_t>(sizeof(huge)));
  EXPECT_THROW((void)serve::read_frame(fds[1], frame), std::runtime_error);
  // Zero-length frame: no type byte.
  const unsigned char empty[] = {0, 0, 0, 0};
  ASSERT_EQ(::write(fds[0], empty, sizeof(empty)),
            static_cast<ssize_t>(sizeof(empty)));
  EXPECT_THROW((void)serve::read_frame(fds[1], frame), std::runtime_error);
  ::close(fds[0]);
  ::close(fds[1]);
}

// The stop-aware read: a frame that is there is read whole even after
// a stop; with nothing buffered, a stop reads as a clean close; part of
// a frame and a stop is a torn frame. None of these blocks.
TEST(Wire, StopAwareReadNeverWaitsPastTheStopPipe) {
  int fds[2];
  int stop[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_EQ(::pipe(stop), 0);
  ASSERT_EQ(::write(stop[1], "s", 1), 1);

  serve::write_frame(fds[0], serve::FrameType::kSpec, "whole");
  serve::Frame frame;
  ASSERT_TRUE(serve::read_frame(fds[1], frame, stop[0]));
  EXPECT_EQ(frame.body, "whole");
  EXPECT_FALSE(serve::read_frame(fds[1], frame, stop[0]));
  const unsigned char partial_prefix[2] = {0, 0};
  ASSERT_EQ(::write(fds[0], partial_prefix, sizeof(partial_prefix)), 2);
  EXPECT_THROW((void)serve::read_frame(fds[1], frame, stop[0]),
               std::runtime_error);
  for (const int fd : {fds[0], fds[1], stop[0], stop[1]}) ::close(fd);
}

TEST(ServePool,SlotResultsMatchTheCampaignRunner) {
  const auto plan = campaign::expand(campaign::parse_spec_text(kSpecText));
  campaign::CampaignRunner reference(1);
  const auto want = reference.run(plan);

  serve::ServePool pool(4);
  auto job = std::make_shared<serve::ServeJob>(plan);
  pool.submit(job);
  for (std::size_t i = 0; i < plan.runs.size(); ++i) {
    job->wait_slot(i);
    EXPECT_TRUE(job->failed[i].empty());
    EXPECT_EQ(std::memcmp(&job->results[i], &want[i], sizeof(want[i])), 0)
        << "slot " << i;
  }
  pool.drain();
}

TEST(ServePool, DrainFinishesQueuedWorkBeforeJoining) {
  const auto plan = campaign::expand(campaign::parse_spec_text(kSpecText));
  serve::ServePool pool(2);
  auto job = std::make_shared<serve::ServeJob>(plan);
  pool.submit(job);
  pool.drain();  // must not strand queued runs
  for (std::size_t i = 0; i < plan.runs.size(); ++i) {
    EXPECT_NE(job->done[i], 0) << "slot " << i << " stranded by drain";
  }
}

/// Number of leading done slots if the done slots form a plan-order
/// prefix, else SIZE_MAX. Caller holds job.mutex.
std::size_t done_prefix(const serve::ServeJob& job) {
  const auto first_pending = std::find(job.done.begin(), job.done.end(), 0);
  if (std::find(first_pending, job.done.end(), 1) != job.done.end()) {
    return SIZE_MAX;
  }
  return static_cast<std::size_t>(first_pending - job.done.begin());
}

/// Waits, holding `lock` on job.mutex between wakeups, until every slot
/// of `job` is done; fails if a wakeup ever sees the done slots out of
/// plan order, or if the job stops making progress.
void expect_plan_order_completion(serve::ServeJob& job,
                                  std::unique_lock<std::mutex>& lock,
                                  const char* name) {
  const auto count = [&job] {
    return static_cast<std::size_t>(
        std::count(job.done.begin(), job.done.end(), 1));
  };
  const std::size_t total = job.done.size();
  std::size_t seen = 0;
  while (seen < total) {
    ASSERT_TRUE(job.cv.wait_for(lock, kWaitBound,
                                [&] { return count() > seen; }))
        << "job " << name << " stalled with " << seen << " of " << total
        << " slots done";
    seen = count();
    ASSERT_EQ(done_prefix(job), seen)
        << "job " << name << "'s slots finished out of plan order";
  }
}

TEST(ServePool, RunsJobsInSubmissionOrderAndSlotsInPlanOrder) {
  const auto plan = campaign::expand(campaign::parse_spec_text(kTinySpecText));
  ASSERT_GE(plan.runs.size(), 2u);
  serve::ServePool pool(1);
  auto a = std::make_shared<serve::ServeJob>(plan);
  auto b = std::make_shared<serve::ServeJob>(plan);
  // A worker publishes a result under its job's mutex, so holding a
  // job's mutex parks the worker at that job's next publication. While
  // B is held, a worker that took any B slot before finishing A parks
  // there and A never completes. (Locks are always taken B then A.)
  std::unique_lock lock_b(b->mutex);
  pool.submit(a);
  pool.submit(b);
  std::unique_lock lock_a(a->mutex);
  expect_plan_order_completion(*a, lock_a, "A");
  if (HasFatalFailure()) return;
  EXPECT_EQ(done_prefix(*b), 0u) << "a slot of B finished before A did";
  lock_a.unlock();
  expect_plan_order_completion(*b, lock_b, "B");
}

/// Client helper: a connected TCP socket with default options (Nagle
/// on, the kernel's delayed ACKs), like `ssmwn submit`.
int connect_client(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  return fd;
}

/// Sends one spec on an open connection and reads its reply through the
/// `E` frame. Returns the number of `R` frames.
std::size_t exchange(int fd, const std::string& spec) {
  serve::write_frame(fd, serve::FrameType::kSpec, spec);
  std::size_t results = 0;
  serve::Frame frame;
  while (serve::read_frame(fd, frame)) {
    if (frame.type == serve::FrameType::kResult) ++results;
    if (frame.type == serve::FrameType::kEnd) break;
    EXPECT_EQ(frame.type, serve::FrameType::kResult) << frame.body;
  }
  return results;
}

/// Client helper: connect to the server, send one spec, read frames
/// until EOF (write side shut down after the spec, like `ssmwn
/// submit`), return the concatenated transcript.
std::string submit_spec(std::uint16_t port, const std::string& spec) {
  const int fd = connect_client(port);
  serve::write_frame(fd, serve::FrameType::kSpec, spec);
  ::shutdown(fd, SHUT_WR);
  std::string transcript;
  serve::Frame frame;
  while (serve::read_frame(fd, frame)) {
    transcript += static_cast<char>(frame.type);
    transcript += frame.body;
    transcript += '\n';
  }
  ::close(fd);
  return transcript;
}

TEST(Server, ConcurrentClientsGetByteIdenticalStreamsAndDrainIsClean) {
  std::signal(SIGPIPE, SIG_IGN);
  serve::ServerOptions options;
  options.port = 0;  // ephemeral
  options.threads = 3;
  serve::Server server(options);
  ASSERT_GT(server.port(), 0);
  std::thread accept_thread([&server] { server.run(); });

  std::string t1, t2, t3;
  {
    std::thread c1([&] { t1 = submit_spec(server.port(), kSpecText); });
    std::thread c2([&] { t2 = submit_spec(server.port(), kSpecText); });
    // A malformed spec on a third connection must not disturb the others.
    std::thread c3(
        [&] { t3 = submit_spec(server.port(), "no_such_key = 1\n"); });
    c1.join();
    c2.join();
    c3.join();
  }
  // The two identical specs yield byte-identical transcripts ending in
  // an end frame, regardless of how the pool interleaved the runs.
  EXPECT_FALSE(t1.empty());
  EXPECT_EQ(t1, t2);
  const auto plan = campaign::expand(campaign::parse_spec_text(kSpecText));
  EXPECT_NE(t1.find("E" + std::to_string(plan.runs.size())),
            std::string::npos);
  // The bad spec got an error frame, nothing else.
  EXPECT_EQ(t3.substr(0, 1), "X");
  EXPECT_EQ(t3.find('R'), std::string::npos);

  // Graceful drain: request_stop from this thread (the CLI calls it
  // from a SIGTERM handler — same entry point) and run() must return.
  server.request_stop();
  accept_thread.join();
}

TEST(Server, MultiFrameRepliesDoNotWaitForDelayedAcks) {
  std::signal(SIGPIPE, SIG_IGN);
  serve::ServerOptions options;
  options.threads = 2;
  serve::Server server(options);
  std::thread accept_thread([&server] { server.run(); });

  // Sequential specs on one connection, timed send to `E` frame. If the
  // daemon let Nagle hold frame 2.. of a reply until this client's
  // delayed ACK of frame 1, every reply would take ~40 ms.
  const auto plan =
      campaign::expand(campaign::parse_spec_text(kTinySpecText));
  const int fd = connect_client(server.port());
  std::vector<double> reply_ms;
  for (int request = 0; request < 25; ++request) {
    const auto start = std::chrono::steady_clock::now();
    if (exchange(fd, kTinySpecText) != plan.runs.size()) {
      ADD_FAILURE() << "request " << request << " got a short reply";
      break;
    }
    reply_ms.push_back(std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count());
  }
  ::close(fd);
  server.request_stop();
  accept_thread.join();
  ASSERT_FALSE(reply_ms.empty());

  std::nth_element(reply_ms.begin(), reply_ms.begin() + reply_ms.size() / 2,
                   reply_ms.end());
  EXPECT_LT(reply_ms[reply_ms.size() / 2], 20.0)
      << "median reply time over " << reply_ms.size() << " requests";
}

TEST(Server, StopDrainsPastAnIdleConnection) {
  std::signal(SIGPIPE, SIG_IGN);
  serve::ServerOptions options;
  options.threads = 1;
  serve::Server server(options);
  std::promise<void> returned;
  auto run_returned = returned.get_future();
  std::thread accept_thread([&] {
    server.run();
    returned.set_value();
  });

  // One full exchange proves the connection was accepted and its thread
  // is back waiting for the next frame; then the client goes idle.
  const int fd = connect_client(server.port());
  const auto plan =
      campaign::expand(campaign::parse_spec_text(kTinySpecText));
  EXPECT_EQ(exchange(fd, kTinySpecText), plan.runs.size());

  server.request_stop();
  const bool drained = run_returned.wait_for(std::chrono::seconds(2)) ==
                       std::future_status::ready;
  // Closing the client unblocks a connection thread that missed the
  // stop, so a failure here reports instead of hanging ctest.
  ::close(fd);
  accept_thread.join();
  EXPECT_TRUE(drained) << "run() still blocked 2 s after request_stop() "
                          "with an idle client connected";
}

TEST(Server, StopDrainsPastAClientStalledMidFrame) {
  std::signal(SIGPIPE, SIG_IGN);
  serve::ServerOptions options;
  options.threads = 1;
  serve::Server server(options);
  std::promise<void> returned;
  auto run_returned = returned.get_future();
  std::thread accept_thread([&] {
    server.run();
    returned.set_value();
  });

  // A full exchange first, so the connection thread is known to be up;
  // then two bytes of a four-byte length prefix, and the client stalls.
  const int fd = connect_client(server.port());
  const auto plan =
      campaign::expand(campaign::parse_spec_text(kTinySpecText));
  EXPECT_EQ(exchange(fd, kTinySpecText), plan.runs.size());
  const unsigned char partial_prefix[2] = {0, 0};
  ASSERT_EQ(::write(fd, partial_prefix, sizeof(partial_prefix)), 2);
  // Let the connection thread wake on those bytes and start the frame,
  // so the stop arrives while it waits for the rest of it.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  server.request_stop();
  const bool drained = run_returned.wait_for(std::chrono::seconds(2)) ==
                       std::future_status::ready;
  // Closing the client tears the frame, which unblocks a connection
  // thread stuck in the read, so a failure reports instead of hanging.
  ::close(fd);
  accept_thread.join();
  EXPECT_TRUE(drained) << "run() still blocked 2 s after request_stop() "
                          "with a client stalled mid-frame";
}

TEST(Server, OversizedPlanGetsAnErrorFrameAndTheDaemonKeepsServing) {
  std::signal(SIGPIPE, SIG_IGN);
  serve::ServerOptions options;
  options.threads = 1;
  serve::Server server(options);
  std::thread accept_thread([&server] { server.run(); });

  // Parses, but no plan can hold it: the client must get an X frame
  // (not a silently dropped connection) ...
  const std::string huge =
      submit_spec(server.port(), "n = 20\nreplications = 1000000000000\n");
  EXPECT_EQ(huge.substr(0, 1), "X") << huge;
  // ... and the daemon must still serve the next client.
  const auto plan =
      campaign::expand(campaign::parse_spec_text(kTinySpecText));
  const std::string ok = submit_spec(server.port(), kTinySpecText);
  EXPECT_NE(ok.find("E" + std::to_string(plan.runs.size())),
            std::string::npos);

  server.request_stop();
  accept_thread.join();
}

TEST(Server, FinishedConnectionThreadsAreReaped) {
  std::signal(SIGPIPE, SIG_IGN);
  serve::ServerOptions options;
  options.threads = 1;
  serve::Server server(options);
  std::thread accept_thread([&server] { server.run(); });

  // Sequential clients, each done before the next connects. Without
  // reaping, every one leaves a finished thread behind until shutdown.
  constexpr int kCycles = 64;
  const auto plan =
      campaign::expand(campaign::parse_spec_text(kTinySpecText));
  for (int i = 0; i < kCycles; ++i) {
    const int fd = connect_client(server.port());
    ASSERT_EQ(exchange(fd, kTinySpecText), plan.runs.size());
    ::close(fd);
  }
  // A finished thread is joined at the next accept; the last few may
  // still be winding down, so connect a few more times (a bounded
  // number: each connection is one more thread on a daemon that leaks).
  std::size_t live = server.connection_threads();
  for (int extra = 0; extra < 20 && live > 2; ++extra) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const int fd = connect_client(server.port());
    EXPECT_EQ(exchange(fd, kTinySpecText), plan.runs.size());
    ::close(fd);
    live = server.connection_threads();
  }
  EXPECT_LE(live, 2u) << "connection threads after " << kCycles
                      << " finished clients";

  server.request_stop();
  accept_thread.join();
  EXPECT_EQ(server.connection_threads(), 0u);
}

}  // namespace
}  // namespace ssmwn
