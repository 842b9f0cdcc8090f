// The traced run's forwarding adapter around core::DensityProtocol.
//
// TracedProtocol implements the step engine's Arena, Redelivery,
// Quiescent and TopologyAware concepts by forwarding every call to the
// wrapped protocol unchanged, so an engine instantiated over it steps
// bit-identically to one over the protocol itself (adapter-test checks
// this in lockstep). On the way it
//   * counts every call: deliveries by path (full / payload / delta /
//     unchanged), the declines of each fast path, digests handed over;
//   * times contiguous runs of same-kind calls per thread — build
//     (digest_count + make_frame), deliver (all four paths), tick,
//     end_step — reading the clock once when a run starts (a change of
//     call kind or of shard) and once when it ends (the shard's last
//     node for that kind). Engine work between protocol calls (row
//     grading, mailbox flushes, the loss pass, barrier waits) therefore
//     lands outside every run; it is what sim.self_s reports.
//
// Per-thread slots are cache-line aligned and written only by their own
// thread; the main thread reads them between steps, after the engine's
// pool has joined the step (its completion handshake orders the reads).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "common.hpp"
#include "core/protocol.hpp"
#include "graph/graph.hpp"

namespace perfbench {

namespace graph = ssmwn::graph;

enum Kind : unsigned { kBuild = 0, kDeliver, kTick, kEndStep, kKinds, kNone = kKinds };

/// Call counts of the traced protocol (all threads, since construction).
struct CallCounts {
  std::uint64_t full = 0;       // deliver(): the full merge
  std::uint64_t payload = 0;    // deliver_payload accepted
  std::uint64_t delta = 0;      // deliver_delta accepted
  std::uint64_t unchanged = 0;  // redeliver_unchanged accepted
  std::uint64_t declined_payload = 0;
  std::uint64_t declined_delta = 0;
  std::uint64_t declined_unchanged = 0;
  std::uint64_t digests = 0;    // digests handed to any deliver path
  std::uint64_t frames = 0;     // make_frame calls
  std::uint64_t ticks = 0;      // tick / maybe_tick calls

  [[nodiscard]] std::uint64_t deliveries() const noexcept {
    return full + payload + delta + unchanged;
  }
  CallCounts& operator+=(const CallCounts& o) noexcept;
  [[nodiscard]] CallCounts operator-(const CallCounts& o) const noexcept;
};

class Tracer {
 public:
  static constexpr std::size_t kMaxSlots = 1024;

  /// `g` and `bounds` (the engine's shard cover) must outlive the tracer.
  Tracer(const graph::Graph& g, std::span<const std::size_t> bounds);

  struct alignas(64) Slot {
    CallCounts counts;
    std::array<double, kKinds> busy_s{};
    Kind kind = kNone;
    std::size_t shard = 0;
    std::size_t shard_begin = 0;
    std::size_t shard_end = 0;
    Clock::time_point start{};
    graph::NodeId receiver = ~graph::NodeId{0};
    std::size_t receiver_left = 0;
  };

  [[nodiscard]] Slot& slot() {
    thread_local const std::size_t index =
        next_index_.fetch_add(1, std::memory_order_relaxed);
    if (index >= kMaxSlots) throw std::runtime_error("tracer: too many threads");
    return slots_[index];
  }

  /// Enters (or stays in) a run of `kind` calls for `node`'s shard.
  void begin(Slot& s, Kind kind, graph::NodeId node) {
    const std::size_t p = node;
    if (s.kind == kind && p >= s.shard_begin && p < s.shard_end) return;
    const auto now = Clock::now();
    if (s.kind != kNone) s.busy_s[s.kind] += seconds_between(s.start, now);
    const auto it = std::upper_bound(bounds_.begin(), bounds_.end(), p);
    s.shard = static_cast<std::size_t>(it - bounds_.begin()) - 1;
    s.shard_begin = bounds_[s.shard];
    s.shard_end = bounds_[s.shard + 1];
    s.kind = kind;
    s.start = now;
    s.receiver = ~graph::NodeId{0};
  }

  /// Closes the current run (the shard's last call of this kind).
  void end(Slot& s) {
    s.busy_s[s.kind] += seconds_since(s.start);
    s.kind = kNone;
    s.shard_end = 0;
    s.receiver = ~graph::NodeId{0};
  }

  /// Node-ordered phases (build, tick, end_step) end at the shard's
  /// last node.
  void maybe_end(Slot& s, graph::NodeId node) {
    if (static_cast<std::size_t>(node) + 1 == s.shard_end) end(s);
  }

  /// One completed delivery (accepted fast path or full deliver) to
  /// `receiver`; the deliver run ends with the shard's last listening
  /// receiver's last edge (perfect medium: every edge completes once).
  void completed(Slot& s, graph::NodeId receiver) {
    if (s.receiver != receiver) {
      s.receiver = receiver;
      s.receiver_left = graph_->degree(receiver);
    }
    if (--s.receiver_left == 0 && receiver == last_listener_[s.shard]) end(s);
  }

  /// Sums of every slot (main thread, between steps).
  [[nodiscard]] CallCounts counts() const;
  /// Per-slot busy seconds by kind (main thread, between steps).
  [[nodiscard]] std::vector<std::array<double, kKinds>> busy() const;

 private:
  static inline std::atomic<std::size_t> next_index_{0};
  const graph::Graph* graph_;
  std::vector<std::size_t> bounds_;
  std::vector<graph::NodeId> last_listener_;  // per shard; ~0 if none
  std::vector<Slot> slots_;
};

class TracedProtocol {
 public:
  using Inner = ssmwn::core::DensityProtocol;
  using FrameHeader = Inner::FrameHeader;
  using Digest = Inner::Digest;
  using NodeId = ssmwn::graph::NodeId;

  TracedProtocol(Inner& inner, Tracer& tracer)
      : inner_(&inner), tracer_(&tracer) {}

  [[nodiscard]] Inner& inner() noexcept { return *inner_; }
  [[nodiscard]] const Inner& inner() const noexcept { return *inner_; }

  // --- arena ---------------------------------------------------------
  [[nodiscard]] std::size_t digest_count(NodeId sender) const {
    Tracer::Slot& s = tracer_->slot();
    tracer_->begin(s, kBuild, sender);
    return inner_->digest_count(sender);
  }
  void make_frame(NodeId sender, FrameHeader& header,
                  std::span<Digest> digests) const {
    Tracer::Slot& s = tracer_->slot();
    tracer_->begin(s, kBuild, sender);
    inner_->make_frame(sender, header, digests);
    ++s.counts.frames;
    tracer_->maybe_end(s, sender);
  }
  void deliver(NodeId receiver, const FrameHeader& header,
               std::span<const Digest> digests) {
    Tracer::Slot& s = tracer_->slot();
    tracer_->begin(s, kDeliver, receiver);
    inner_->deliver(receiver, header, digests);
    ++s.counts.full;
    s.counts.digests += digests.size();
    tracer_->completed(s, receiver);
  }
  void tick(NodeId node) {
    Tracer::Slot& s = tracer_->slot();
    tracer_->begin(s, kTick, node);
    inner_->tick(node);
    ++s.counts.ticks;
    tracer_->maybe_end(s, node);
  }
  void end_step(NodeId node) {
    Tracer::Slot& s = tracer_->slot();
    tracer_->begin(s, kEndStep, node);
    inner_->end_step(node);
    tracer_->maybe_end(s, node);
  }

  // --- redelivery ----------------------------------------------------
  bool redeliver_unchanged(NodeId receiver, const FrameHeader& header) {
    Tracer::Slot& s = tracer_->slot();
    tracer_->begin(s, kDeliver, receiver);
    if (!inner_->redeliver_unchanged(receiver, header)) {
      ++s.counts.declined_unchanged;
      return false;
    }
    ++s.counts.unchanged;
    tracer_->completed(s, receiver);
    return true;
  }
  bool deliver_payload(NodeId receiver, const FrameHeader& header,
                       std::span<const Digest> digests) {
    Tracer::Slot& s = tracer_->slot();
    tracer_->begin(s, kDeliver, receiver);
    s.counts.digests += digests.size();
    if (!inner_->deliver_payload(receiver, header, digests)) {
      ++s.counts.declined_payload;
      return false;
    }
    ++s.counts.payload;
    tracer_->completed(s, receiver);
    return true;
  }
  bool deliver_delta(NodeId receiver, const FrameHeader& header,
                     std::size_t row_size, std::span<const Digest> changed) {
    Tracer::Slot& s = tracer_->slot();
    tracer_->begin(s, kDeliver, receiver);
    s.counts.digests += changed.size();
    if (!inner_->deliver_delta(receiver, header, row_size, changed)) {
      ++s.counts.declined_delta;
      return false;
    }
    ++s.counts.delta;
    tracer_->completed(s, receiver);
    return true;
  }
  [[nodiscard]] static bool digest_id_equal(const Digest& a,
                                            const Digest& b) noexcept {
    return Inner::digest_id_equal(a, b);
  }
  [[nodiscard]] static bool header_bits_equal(const FrameHeader& a,
                                              const FrameHeader& b) noexcept {
    return Inner::header_bits_equal(a, b);
  }
  [[nodiscard]] static bool digest_bits_equal(const Digest& a,
                                              const Digest& b) noexcept {
    return Inner::digest_bits_equal(a, b);
  }

  // --- topology-aware --------------------------------------------------
  void on_edge_removed(NodeId a, NodeId b) { inner_->on_edge_removed(a, b); }

  // --- quiescence (forwarded for completeness; the run-end rules above
  // assume full sweeps, so timings are meaningful under full stepping
  // only, while counts hold in either mode) ----------------------------
  void set_activity_tracking(bool on) { inner_->set_activity_tracking(on); }
  [[nodiscard]] bool activity_tracking() const noexcept {
    return inner_->activity_tracking();
  }
  bool maybe_tick(NodeId node) {
    ++tracer_->slot().counts.ticks;
    return inner_->maybe_tick(node);
  }
  [[nodiscard]] Inner::Activity consume_activity(NodeId node) {
    return inner_->consume_activity(node);
  }
  [[nodiscard]] std::vector<NodeId> take_external_wakes() {
    return inner_->take_external_wakes();
  }

 private:
  Inner* inner_;
  Tracer* tracer_;
};

}  // namespace perfbench
