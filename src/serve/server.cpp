#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>

#include "campaign/spec.hpp"
#include "serve/wire.hpp"

namespace ssmwn::serve {

namespace {

void close_fd(int& fd) noexcept {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// One result frame body: plan slot coordinates, the run's seed, the
/// ten metrics in aggregate.hpp report order, then the window count —
/// all numbers through the same formatting the CSV reports use, so the
/// stream is byte-deterministic.
std::string result_line(const campaign::CampaignPlan& plan, std::size_t i,
                        const campaign::RunMetrics& m) {
  const auto& entry = plan.runs[i];
  std::string line;
  line += std::to_string(i);
  line += ',';
  line += std::to_string(entry.grid_index);
  line += ',';
  line += std::to_string(entry.replication);
  line += ',';
  line += std::to_string(entry.seed);
  const double metrics[] = {m.stability,       m.delta,
                            m.reaffiliation,   m.cluster_count,
                            m.converge_time,   m.messages,
                            m.reconverge_time, m.reconverge_messages,
                            m.sync_steps,      m.sync_messages};
  for (const double value : metrics) {
    line += ',';
    line += campaign::format_double(value);
  }
  line += ',';
  line += std::to_string(m.windows);
  return line;
}

}  // namespace

Server::Server(const ServerOptions& options)
    : options_(options), pool_(options.threads, options.exec) {
  if (::pipe2(stop_pipe_, O_CLOEXEC) != 0) {
    throw std::runtime_error(std::string("serve: cannot create stop pipe: ") +
                             std::strerror(errno));
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("serve: cannot create socket: ") +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, SOMAXCONN) != 0) {
    const std::string reason = std::strerror(errno);
    close_fd(listen_fd_);
    throw std::invalid_argument("serve: cannot listen on port " +
                                std::to_string(options.port) + ": " + reason);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    const std::string reason = std::strerror(errno);
    close_fd(listen_fd_);
    throw std::runtime_error("serve: getsockname failed: " + reason);
  }
  port_ = ntohs(bound.sin_port);
}

Server::~Server() {
  request_stop();
  {
    const std::scoped_lock lock(threads_mutex_);
    for (auto& c : connections_) {
      if (c.thread.joinable()) c.thread.join();
    }
  }
  close_fd(listen_fd_);
  close_fd(stop_pipe_[0]);
  close_fd(stop_pipe_[1]);
}

void Server::request_stop() noexcept {
  // Only async-signal-safe calls past this point: this runs from the
  // SIGTERM handler. The byte's value is irrelevant; the wakeup is.
  const char byte = 's';
  [[maybe_unused]] const ssize_t rc = ::write(stop_pipe_[1], &byte, 1);
}

std::size_t Server::connection_threads() {
  const std::scoped_lock lock(threads_mutex_);
  return connections_.size();
}

void Server::run() {
  while (await_input(listen_fd_, stop_pipe_[0])) {
    const int conn = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (conn < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      throw std::runtime_error(std::string("serve: accept failed: ") +
                               std::strerror(errno));
    }
    // Frames are one write(2) each; Nagle would hold frame 2.. of every
    // reply until the client's delayed ACK of frame 1 (see server.hpp).
    const int one = 1;
    ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const std::scoped_lock lock(threads_mutex_);
    reap_finished();
    Connection& c = connections_.emplace_back();
    c.thread = std::thread(&Server::serve_connection, this, conn,
                           std::ref(c.done));
  }
  // Drain: no new connections; in-flight connections finish their
  // current spec, and every connection waiting for its next frame or for
  // the rest of one wakes on the stop pipe and closes; then the pool
  // finishes every queued run before its workers join.
  close_fd(listen_fd_);
  {
    const std::scoped_lock lock(threads_mutex_);
    for (auto& c : connections_) {
      if (c.thread.joinable()) c.thread.join();
    }
    connections_.clear();
  }
  pool_.drain();
}

void Server::reap_finished() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (it->done.load(std::memory_order_acquire)) {
      it->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::serve_connection(int fd, std::atomic<bool>& done) {
  try {
    Frame frame;
    while (await_input(fd, stop_pipe_[0]) &&
           read_frame(fd, frame, stop_pipe_[0])) {
      if (frame.type != FrameType::kSpec) {
        write_frame(fd, FrameType::kError, "expected a spec ('S') frame");
        continue;
      }
      std::shared_ptr<ServeJob> job;
      try {
        job = std::make_shared<ServeJob>(
            campaign::expand(campaign::parse_spec_text(frame.body)));
      } catch (const std::invalid_argument& e) {
        write_frame(fd, FrameType::kError, e.what());
        continue;
      }
      pool_.submit(job);
      // Stream in plan order: slot i+1 is not read before slot i, so the
      // client sees the same bytes however the pool scheduled the runs.
      for (std::size_t i = 0; i < job->plan.runs.size(); ++i) {
        job->wait_slot(i);
        if (!job->failed[i].empty()) {
          write_frame(fd, FrameType::kError,
                      "run " + std::to_string(i) + ": " + job->failed[i]);
        } else {
          write_frame(fd, FrameType::kResult, result_line(job->plan, i,
                                                          job->results[i]));
        }
      }
      write_frame(fd, FrameType::kEnd,
                  std::to_string(job->plan.runs.size()));
    }
  } catch (const std::exception&) {
    // Torn frame or dead peer: nothing to report to — drop the
    // connection and keep the daemon serving everyone else.
  }
  ::close(fd);
  done.store(true, std::memory_order_release);
}

}  // namespace ssmwn::serve
