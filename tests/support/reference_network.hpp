// The reference synchronous stepper: the differential oracle every
// engine test and the bench equivalence gates compare sim::ShardedNetwork
// against, and the engine for toy protocols without the arena extension.
//
// It is the paper's Δ(τ) step written as plainly as possible: every node
// snapshots an owning frame (all frames are built before any rule
// fires), the loss model is polled sender-major — the order that fixes a
// stateful model's RNG draw sequence — and each heard frame is delivered
// through the full `deliver` path; then every node ticks, then every node
// ages its caches. No arena, no row hints or other fast paths, no
// threads, no dirty stepping: whatever the production engine skips, this
// one does, so any byte a fast path fails to write shows up as a
// divergence.
//
// The Protocol type supplies:
//
//   struct Protocol {
//     using Frame = ...;                       // owning broadcast payload
//     Frame make_frame(graph::NodeId sender);  // read-only snapshot
//     void deliver(graph::NodeId receiver, const Frame& frame);
//     void tick(graph::NodeId node);           // run guarded rules
//     void end_step(graph::NodeId node);       // cache aging etc.
//   };
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "sim/loss.hpp"
#include "sim/scheduler.hpp"

namespace ssmwn::testsupport {

template <typename Protocol>
class ReferenceNetwork {
 public:
  /// The graph and loss model are observed, not owned.
  ReferenceNetwork(const graph::Graph& g, Protocol& protocol,
                   sim::LossModel& loss)
      : graph_(&g), protocol_(&protocol), loss_(&loss) {}

  /// Swaps the observed graph between steps (mobility rebuild mode).
  void set_graph(const graph::Graph& g) { graph_ = &g; }

  /// The observed graph was just patched with `delta`: topology-aware
  /// protocols hear about every severed link, as under the production
  /// engine. Call between steps.
  void apply_topology_delta(const graph::EdgeDelta& delta) {
    if constexpr (sim::TopologyAwareProtocol<Protocol>) {
      for (const auto& [a, b] : delta.removed) protocol_->on_edge_removed(a, b);
    }
  }

  /// One synchronous broadcast-receive-compute step.
  void step() {
    const graph::Graph& g = *graph_;
    const std::size_t n = g.node_count();
    loss_->begin_step();
    frames_.clear();
    frames_.reserve(n);
    for (graph::NodeId p = 0; p < n; ++p) {
      frames_.push_back(protocol_->make_frame(p));
    }
    for (graph::NodeId p = 0; p < n; ++p) {
      for (const graph::NodeId q : g.neighbors(p)) {
        if (loss_->delivered(p, q)) {
          protocol_->deliver(q, frames_[p]);
          ++messages_delivered_;
        }
      }
    }
    for (graph::NodeId p = 0; p < n; ++p) protocol_->tick(p);
    for (graph::NodeId p = 0; p < n; ++p) protocol_->end_step(p);
    ++steps_;
  }

  void run(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) step();
  }

  [[nodiscard]] std::size_t steps_run() const noexcept { return steps_; }

  /// Frame receptions that actually happened (post-loss) so far.
  [[nodiscard]] std::uint64_t messages_delivered() const noexcept {
    return messages_delivered_;
  }

 private:
  const graph::Graph* graph_;
  Protocol* protocol_;
  sim::LossModel* loss_;
  std::vector<typename Protocol::Frame> frames_;
  std::size_t steps_ = 0;
  std::uint64_t messages_delivered_ = 0;
};

}  // namespace ssmwn::testsupport
