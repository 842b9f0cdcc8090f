// Spatially sharded synchronous step engine — sim::Network's phase
// structure, parallelized over contiguous node ranges ("shards")
// instead of raw index chunks, with all cross-shard traffic funneled
// through per-shard-pair mailboxes.
//
// Why shards instead of Network's flat for_nodes? At million-node scale
// the win is ownership: a shard owns a contiguous node range (ideally
// cell-major renumbered via graph::plan_spatial_shards, so radio
// neighbors are range-near), its own frame arena, and — in dirty mode —
// its own ActivityTracker. Every parallel phase is "one task per
// shard", each task touching only shard-owned state plus mailboxes it
// exclusively writes (keyed by source shard) or exclusively reads
// (keyed by destination shard, filled strictly before the phase
// barrier). That is the seam later multi-process / NUMA work plugs
// into: a mailbox flush is the message a process boundary would send.
//
// Determinism argument (the property the sharded differential tests
// assert): the engine runs the exact phase sequence of sim::Network —
// build frames, decide losses, deliver, tick, end-step — with a barrier
// between phases. Within a phase, each node is processed exactly once
// with inputs fixed at the barrier, and each receiver pulls its heard
// frames in ascending-sender order (its sorted CSR row), the same order
// the unsharded engine uses. Mailboxes are filled in a fixed
// (src-shard, dst-shard, admission) order — admission order is
// ascending sender id, because shard sweeps walk their range in order —
// and drained by binary search per edge, so *which* bytes a receiver
// sees never depends on shard count or thread count. Stateful loss
// models keep their serial sender-major polling pass, identical RNG
// draw sequence included. Hence: bit-identical to sim::Network at any
// shard/thread count, full or dirty stepping (docs/ARCHITECTURE.md §8).
//
// Dirty-region composition (PR 6): each shard's tracker wakes and
// drains locally; a wake that crosses a shard boundary rides a
// wake-mailbox flushed at the step's final barrier and drained at the
// next step's first phase — one step of latency is exactly what the
// unsharded stepper's double-buffered wake set gives, so the union of
// the per-shard active sets equals the global active set step for step.
// Frames a shard needs from remote senders are requested through a
// request-mailbox and answered through a frame-mailbox within the same
// step (two barriers), so quiescent shards with no requests do no work.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "sim/activity.hpp"
#include "sim/loss.hpp"
#include "sim/parallel.hpp"
#include "sim/scheduler.hpp"

namespace ssmwn::sim {

template <typename Protocol>
class ShardedNetwork {
  static_assert(ArenaProtocol<Protocol>,
                "ShardedNetwork requires the arena extension (flat "
                "headers + digest pools); the legacy owning-frame "
                "engine has no shardable storage");

 public:
  /// `bounds` carves [0, n) into shard-owned ranges (see
  /// graph::ShardPlan::bounds — front 0, back n, monotone; empty ranges
  /// allowed). Throws std::invalid_argument on a malformed cover.
  /// `threads` is the step-engine parallelism (1 = fully inline,
  /// 0 = hardware concurrency); shards and threads are independent —
  /// one worker can sweep many shards, and extra workers idle.
  ShardedNetwork(const graph::Graph& g, Protocol& protocol, LossModel& loss,
                 std::vector<std::size_t> bounds, unsigned threads = 1)
      : graph_(&g), protocol_(&protocol), loss_(&loss) {
    if (bounds.size() < 2 || bounds.front() != 0 ||
        bounds.back() != g.node_count() ||
        !std::is_sorted(bounds.begin(), bounds.end())) {
      throw std::invalid_argument(
          "ShardedNetwork: bounds must be a monotone cover of [0, "
          "node_count]");
    }
    bounds_ = std::move(bounds);
    const std::size_t S = shard_count();
    shards_.resize(S);
    for (std::size_t s = 0; s < S; ++s) {
      shards_[s].begin = bounds_[s];
      shards_[s].end = bounds_[s + 1];
      shards_[s].boundary_out.resize(S);
    }
    frame_mb_.resize(S * S);
    req_mb_.resize(S * S);
    wake_mb_.resize(S * S);
    set_threads(threads);
  }

  /// Convenience: `shards` equal contiguous chunks (clamped to
  /// [1, max(1, n)] like graph::plan_contiguous_shards). For spatial
  /// locality, build the bounds from graph::plan_spatial_shards and a
  /// permuted graph instead.
  ShardedNetwork(const graph::Graph& g, Protocol& protocol, LossModel& loss,
                 std::size_t shards, unsigned threads = 1)
      : ShardedNetwork(
            g, protocol, loss,
            graph::plan_contiguous_shards(g.node_count(), shards).bounds,
            threads) {}

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return bounds_.size() - 1;
  }
  [[nodiscard]] std::span<const std::size_t> bounds() const noexcept {
    return bounds_;
  }

  /// Swaps the observed graph (mobility rebuild mode). The node count
  /// must still match the shard bounds — a sharded run renumbers once,
  /// up front, and keeps the numbering for its lifetime.
  void set_graph(const graph::Graph& g) {
    if (g.node_count() != bounds_.back()) {
      throw std::invalid_argument(
          "ShardedNetwork::set_graph: node count must match the shard "
          "bounds the engine was built with");
    }
    graph_ = &g;
    boundaries_stale_ = true;
    invalidate_row_hints();
    if (stepping_ == Stepping::kDirty) {
      for (Shard& sh : shards_) {
        sh.tracker.reset(sh.end - sh.begin, /*all_active=*/true);
      }
    }
  }

  /// Same contract as sim::Network::set_stepping — dirty mode needs the
  /// quiescence extension and a loss-free medium; throws otherwise.
  void set_stepping(Stepping mode) {
    if (mode == stepping_) return;
    invalidate_row_hints();
    if constexpr (QuiescentProtocol<Protocol>) {
      if (mode == Stepping::kDirty) {
        if (!loss_->always_delivers()) {
          throw std::invalid_argument(
              "dirty-region stepping requires a loss-free medium "
              "(loss model must report always_delivers)");
        }
        stepping_ = Stepping::kDirty;
        protocol_->set_activity_tracking(true);
        for (Shard& sh : shards_) {
          sh.tracker.reset(sh.end - sh.begin, /*all_active=*/true);
          sh.tracker.reset_counters();
        }
        for (auto& mb : wake_mb_) mb.clear();
        stats_.reset(0, false);
        stats_.reset_counters();
        return;
      }
      stepping_ = Stepping::kFull;
      protocol_->set_activity_tracking(false);
      for (Shard& sh : shards_) sh.tracker.reset(0, false);
      stats_.reset(0, false);
      return;
    } else {
      if (mode == Stepping::kDirty) {
        throw std::invalid_argument(
            "protocol does not implement the arena + quiescence "
            "extensions dirty-region stepping needs");
      }
      stepping_ = Stepping::kFull;
    }
  }

  [[nodiscard]] Stepping stepping() const noexcept { return stepping_; }

  /// Aggregate stepped/skipped counters across all shards — same
  /// numbers sim::Network::activity() reports for the same run. The
  /// aggregate keeps no work list; per-shard lists are at
  /// `shard_activity(s)`.
  [[nodiscard]] const ActivityTracker& activity() const noexcept {
    return stats_;
  }
  [[nodiscard]] const ActivityTracker& shard_activity(
      std::size_t s) const noexcept {
    return shards_[s].tracker;
  }

  /// Wakes each listed node and its closed neighborhood (dirty mode
  /// only), crossing shard boundaries directly — callers run between
  /// steps, where every tracker is safely writable.
  void mark_dirty(std::span<const graph::NodeId> nodes) {
    if (stepping_ != Stepping::kDirty) return;
    for (const graph::NodeId p : nodes) wake_closed(p);
  }

  void set_threads(unsigned threads) {
    if (threads == 0) {
      threads = std::max(1u, std::thread::hardware_concurrency());
    }
    threads = std::min(threads,
                       std::max(64u, 4u * std::thread::hardware_concurrency()));
    if (threads == thread_count()) return;
    pool_ = threads > 1 ? std::make_unique<ThreadPool>(threads) : nullptr;
  }

  [[nodiscard]] unsigned thread_count() const noexcept {
    return pool_ ? pool_->thread_count() : 1u;
  }

  [[nodiscard]] std::size_t steps_run() const noexcept { return steps_; }

  [[nodiscard]] std::uint64_t messages_delivered() const noexcept {
    return messages_delivered_;
  }

  /// Sender rows graded delta-applicable across all steps so far —
  /// same contract as sim::Network::delta_rows_graded(): folded
  /// serially in shard order, so identical for any shard/thread count.
  [[nodiscard]] std::uint64_t delta_rows_graded() const noexcept {
    return delta_rows_graded_;
  }

  /// Receivers that took the node-level redelivery across all steps so
  /// far — same contract as sim::Network::node_redeliveries(), folded
  /// serially in shard order.
  [[nodiscard]] std::uint64_t node_redeliveries() const noexcept {
    return node_redeliveries_;
  }

  /// Same contract as sim::Network::apply_topology_delta; additionally
  /// marks the static boundary-sender lists stale (a patched edge may
  /// create or destroy a boundary crossing).
  void apply_topology_delta(const graph::EdgeDelta& delta) {
    invalidate_row_hints();
    if constexpr (TopologyAwareProtocol<Protocol>) {
      for (const auto& [a, b] : delta.removed) {
        protocol_->on_edge_removed(a, b);
      }
    }
    boundaries_stale_ = true;
    if (stepping_ == Stepping::kDirty) {
      for (const auto& [a, b] : delta.added) {
        wake_closed(a);
        wake_closed(b);
      }
      for (const auto& [a, b] : delta.removed) {
        wake_closed(a);
        wake_closed(b);
      }
    }
  }

  /// Runs one synchronous broadcast-receive-compute step.
  void step() {
    loss_->begin_step();
    if constexpr (QuiescentProtocol<Protocol>) {
      if (stepping_ == Stepping::kDirty) {
        step_dirty();
        ++steps_;
        return;
      }
    }
    step_full();
    stats_.record(graph_->node_count(), 0);
    ++steps_;
  }

  void run(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) step();
  }

 private:
  /// One (src-shard, dst-shard) mailbox: the src shard's boundary
  /// frames, admitted in ascending sender id. `offsets` is CSR-style
  /// over `senders`; the sorted sender list is what the destination's
  /// delivery loop binary-searches per cross-shard edge.
  struct FrameMailbox {
    std::vector<graph::NodeId> senders;
    std::vector<typename Protocol::FrameHeader> headers;
    std::vector<typename Protocol::Digest> pool;
    std::vector<std::size_t> offsets;
    // Delta rows riding along with the full rows (redelivery protocols,
    // full stepping): for every sender graded kRowDeltaApplicable, the
    // digests whose bits moved since last step — the payload a
    // cross-process frame format would put on the wire, with the full
    // row kept as the fallback for receivers that decline the patch.
    // delta_offsets is CSR over mailbox slots (senders + 1 entries);
    // rows of senders without the grade are empty. Maintained only by
    // the full stepper's flush; the dirty stepper always grades 0, so
    // these are never read there.
    std::vector<typename Protocol::Digest> delta_pool;
    std::vector<std::size_t> delta_offsets;
  };

  struct Shard {
    std::size_t begin = 0;
    std::size_t end = 0;
    // Frame arena. Full stepping: one row per owned node (local index).
    // Dirty stepping: one row per entry of `sender_list` (compact).
    std::vector<typename Protocol::FrameHeader> headers;
    std::vector<typename Protocol::Digest> pool;
    std::vector<std::size_t> offsets;
    // Last full step's arena (redelivery protocols only): swapped with
    // the live buffers at the top of phase 1, so the freshly built rows
    // can be bit-compared against what every listener consumed last
    // step. Meaningful only while the engine-level validity flags hold.
    std::vector<typename Protocol::FrameHeader> prev_headers;
    std::vector<typename Protocol::Digest> prev_pool;
    std::vector<std::size_t> prev_offsets;
    // This step's delta rows (redelivery protocols, full stepping): the
    // changed digests of every delta-graded owned sender, ascending id,
    // CSR over local sender index — the shard-local mirror of
    // sim::Network's DeltaStorage. delta_rows counts the senders graded
    // delta-applicable this step (folded serially into the engine
    // total, so the aggregate is thread-count invariant).
    std::vector<typename Protocol::Digest> delta_pool;
    std::vector<std::size_t> delta_offsets;
    std::vector<std::uint32_t> delta_counts;
    std::uint64_t delta_rows = 0;
    // Receivers that took the node-level redelivery this step (folded
    // serially, in shard order, into node_redeliveries_).
    std::uint64_t node_redeliveries = 0;
    // Full stepping: for each destination shard, the owned nodes with at
    // least one neighbor there (ascending). Rebuilt after topology
    // changes; copied into the frame mailboxes every step.
    std::vector<std::vector<graph::NodeId>> boundary_out;
    // Dirty stepping (all indices local unless noted).
    ActivityTracker tracker;
    std::vector<std::uint8_t> sender_mark;
    std::vector<std::size_t> sender_slot;
    std::vector<graph::NodeId> sender_list;  // global ids
    std::uint64_t delivered = 0;             // this step's reception count
  };

  [[nodiscard]] std::size_t shard_of(graph::NodeId p) const noexcept {
    const auto it = std::upper_bound(bounds_.begin(), bounds_.end(),
                                     static_cast<std::size_t>(p));
    return static_cast<std::size_t>(it - bounds_.begin()) - 1;
  }

  /// Maps `body(shard_index)` over all shards, inline or across the
  /// pool (one chunk per shard: shard tasks are coarse by design).
  /// Phases must write only shard-owned state and mailboxes keyed by
  /// the acting shard.
  template <typename F>
  void for_shards(F&& body) {
    const std::size_t S = shard_count();
    if (!pool_ || S < 2) {
      for (std::size_t s = 0; s < S; ++s) body(s);
      return;
    }
    pool_->parallel_for(
        S, 1,
        [](void* ctx, std::size_t begin, std::size_t end) {
          auto& f = *static_cast<std::remove_reference_t<F>*>(ctx);
          for (std::size_t s = begin; s < end; ++s) f(s);
        },
        &body);
  }

  /// Copies row `slot` of `src`'s arena to the back of `mb`.
  static void append_frame(FrameMailbox& mb, const Shard& src,
                           std::size_t slot) {
    mb.headers.push_back(src.headers[slot]);
    const std::size_t len = src.offsets[slot + 1] - src.offsets[slot];
    mb.offsets.push_back(mb.offsets.back() + len);
    mb.pool.insert(mb.pool.end(), src.pool.begin() + src.offsets[slot],
                   src.pool.begin() + src.offsets[slot] + len);
  }

  static void deliver_from(Protocol& protocol, graph::NodeId q,
                           const FrameMailbox& mb, graph::NodeId sender,
                           unsigned char grade = 0) {
    const auto it =
        std::lower_bound(mb.senders.begin(), mb.senders.end(), sender);
    // A miss here means the graph changed without set_graph /
    // apply_topology_delta — the boundary lists no longer cover it.
    assert(it != mb.senders.end() && *it == sender);
    const auto k = static_cast<std::size_t>(it - mb.senders.begin());
    const auto digests = std::span(mb.pool.data() + mb.offsets[k],
                                   mb.offsets[k + 1] - mb.offsets[k]);
    if constexpr (RedeliveryProtocol<Protocol>) {
      // The mailbox rows are byte copies of the sender shard's arena and
      // delta rows, so the sender-side grade covers them too. Callers
      // strip kRowDeltaApplicable from the grade when the delta rows'
      // base generation doesn't name the rows every listener consumed.
      if (grade != 0) {
        if ((grade & kRowBitsEqual) &&
            protocol.redeliver_unchanged(q, mb.headers[k])) {
          return;
        }
        if ((grade & kRowDeltaApplicable) &&
            protocol.deliver_delta(
                q, mb.headers[k], digests.size(),
                std::span(mb.delta_pool.data() + mb.delta_offsets[k],
                          mb.delta_offsets[k + 1] - mb.delta_offsets[k]))) {
          return;
        }
        if (protocol.deliver_payload(q, mb.headers[k], digests)) return;
      }
    }
    protocol.deliver(q, mb.headers[k], digests);
  }

  /// Recomputes the static boundary-sender lists (full stepping) after
  /// a topology or graph change. Parallel by shard; each shard scans
  /// its own CSR rows, so admission order is ascending sender id.
  void rebuild_boundaries() {
    const graph::Graph& g = *graph_;
    const std::size_t S = shard_count();
    for_shards([this, &g, S](std::size_t s) {
      Shard& sh = shards_[s];
      for (auto& list : sh.boundary_out) list.clear();
      for (std::size_t p = sh.begin; p < sh.end; ++p) {
        for (const graph::NodeId r :
             g.neighbors(static_cast<graph::NodeId>(p))) {
          const std::size_t t = shard_of(r);
          if (t == s) continue;
          auto& list = sh.boundary_out[t];
          if (list.empty() || list.back() != static_cast<graph::NodeId>(p)) {
            list.push_back(static_cast<graph::NodeId>(p));
          }
        }
      }
      (void)S;
    });
    boundaries_stale_ = false;
  }

  void step_full() {
    const graph::Graph& g = *graph_;
    const std::size_t n = g.node_count();
    const std::size_t S = shard_count();
    auto* protocol = protocol_;
    if (boundaries_stale_) rebuild_boundaries();

    // Phase 1 (parallel by source shard): snapshot all owned frames
    // into the shard arena, then flush every boundary frame into the
    // (src, dst) mailboxes — fixed admission order because the
    // boundary lists are ascending. Redelivery protocols double-buffer
    // the arena: last step's rows move to prev_* before the build, then
    // each fresh row is bit-compared against its predecessor so phase 3
    // can skip the full delivery of provably unchanged frames.
    if constexpr (RedeliveryProtocol<Protocol>) {
      row_unchanged_.resize(n);
      // One arena build per step, stamped serially. The delta rows this
      // build produces patch against the previous build's rows, so
      // their base-generation tag is generation_ - 1 — valid only when
      // those rows exist (and actually reached every listener, which
      // phase 3's hints flag checks on top).
      ++generation_;
      delta_base_generation_ =
          prev_rows_built_ ? generation_ - 1 : kNoGeneration;
    }
    for_shards([this, protocol, S](std::size_t s) {
      Shard& sh = shards_[s];
      const std::size_t local_n = sh.end - sh.begin;
      if constexpr (RedeliveryProtocol<Protocol>) {
        std::swap(sh.headers, sh.prev_headers);
        std::swap(sh.pool, sh.prev_pool);
        std::swap(sh.offsets, sh.prev_offsets);
      }
      sh.offsets.resize(local_n + 1);
      sh.offsets[0] = 0;
      for (std::size_t i = 0; i < local_n; ++i) {
        sh.offsets[i + 1] =
            sh.offsets[i] + protocol->digest_count(static_cast<graph::NodeId>(
                                sh.begin + i));
      }
      sh.pool.resize(sh.offsets[local_n]);
      sh.headers.resize(local_n);
      for (std::size_t i = 0; i < local_n; ++i) {
        protocol->make_frame(
            static_cast<graph::NodeId>(sh.begin + i), sh.headers[i],
            std::span(sh.pool.data() + sh.offsets[i],
                      sh.offsets[i + 1] - sh.offsets[i]));
      }
      if constexpr (RedeliveryProtocol<Protocol>) {
        // Each shard writes only its owned slice of the global bitmap.
        // Same grades as sim::Network's phase 1b: id sequence held
        // (payload overwrite suffices), whole row bit-equal (age reset
        // suffices), or ids held with at most half the digests moved
        // (delta patch suffices — the changed digests are extracted
        // into the shard's delta arena below).
        const bool cmp =
            prev_rows_built_ && sh.prev_offsets.size() == local_n + 1;
        sh.delta_counts.assign(local_n, 0);
        sh.delta_rows = 0;
        for (std::size_t i = 0; i < local_n; ++i) {
          unsigned char grade = 0;
          const std::size_t len = sh.offsets[i + 1] - sh.offsets[i];
          if (cmp && sh.prev_offsets[i + 1] - sh.prev_offsets[i] == len) {
            const auto* a = sh.pool.data() + sh.offsets[i];
            const auto* b = sh.prev_pool.data() + sh.prev_offsets[i];
            const bool header_bits = Protocol::header_bits_equal(
                sh.headers[i], sh.prev_headers[i]);
            // Same early-exit as the flat engine: past the delta
            // threshold only the id compares still matter, so the
            // wider payload compares stop — heavy-churn rows cost
            // about what the old first-mismatch exit did.
            const std::size_t cap = len * kRowDeltaNumerator /
                                    kRowDeltaDenominator;
            bool ids = true;
            std::size_t changed = 0;
            std::size_t k = 0;
            for (; k < len && ids; ++k) {
              ids = Protocol::digest_id_equal(a[k], b[k]);
              changed += !Protocol::digest_bits_equal(a[k], b[k]);
              if (changed > cap) break;
            }
            for (; k < len && ids; ++k) {
              ids = Protocol::digest_id_equal(a[k], b[k]);
            }
            if (ids) {
              grade = kRowIdsEqual;
              if (header_bits && changed == 0) {
                grade |= kRowBitsEqual;
              } else if (changed * kRowDeltaDenominator <=
                         len * kRowDeltaNumerator) {
                grade |= kRowDeltaApplicable;
                sh.delta_counts[i] = static_cast<std::uint32_t>(changed);
                ++sh.delta_rows;
              }
            }
          }
          row_unchanged_[sh.begin + i] = grade;
        }
        // Shard-local delta arena: prefix-sum the per-sender changed
        // counts (each shard sums only its own slice, so the build is
        // parallel by shard), then extract the changed digests.
        sh.delta_offsets.resize(local_n + 1);
        sh.delta_offsets[0] = 0;
        for (std::size_t i = 0; i < local_n; ++i) {
          sh.delta_offsets[i + 1] = sh.delta_offsets[i] + sh.delta_counts[i];
        }
        // changed <= len/2 per applicable row, so half the shard's
        // digest count bounds the pool; reserving it pins the
        // high-water mark at the first delta build.
        sh.delta_pool.reserve(sh.offsets[local_n] / 2);
        sh.delta_pool.resize(sh.delta_offsets[local_n]);
        for (std::size_t i = 0; i < local_n; ++i) {
          if (sh.delta_counts[i] == 0) continue;
          const auto* a = sh.pool.data() + sh.offsets[i];
          const auto* b = sh.prev_pool.data() + sh.prev_offsets[i];
          const std::size_t len = sh.offsets[i + 1] - sh.offsets[i];
          auto* out = sh.delta_pool.data() + sh.delta_offsets[i];
          for (std::size_t k = 0; k < len; ++k) {
            if (!Protocol::digest_bits_equal(a[k], b[k])) *out++ = a[k];
          }
        }
      }
      for (std::size_t t = 0; t < S; ++t) {
        if (t == s) continue;
        FrameMailbox& mb = frame_mb_[s * S + t];
        mb.senders.assign(sh.boundary_out[t].begin(),
                          sh.boundary_out[t].end());
        mb.headers.clear();
        mb.pool.clear();
        mb.offsets.assign(1, 0);
        if constexpr (RedeliveryProtocol<Protocol>) {
          mb.delta_pool.clear();
          mb.delta_offsets.assign(1, 0);
        }
        for (const graph::NodeId p : mb.senders) {
          const std::size_t slot = static_cast<std::size_t>(p) - sh.begin;
          append_frame(mb, sh, slot);
          if constexpr (RedeliveryProtocol<Protocol>) {
            if (row_unchanged_[p] & kRowDeltaApplicable) {
              mb.delta_pool.insert(
                  mb.delta_pool.end(),
                  sh.delta_pool.begin() + sh.delta_offsets[slot],
                  sh.delta_pool.begin() + sh.delta_offsets[slot + 1]);
            }
            mb.delta_offsets.push_back(mb.delta_pool.size());
          }
        }
      }
    });

    // Phase 2 (serial unless τ = 1): identical to Network::step_arena —
    // per-edge loss decisions polled sender-major so stateful loss
    // models draw the exact same RNG sequence, stored at the
    // receiver's incoming CSR slot via the mirror index.
    const auto offsets = g.csr_offsets();
    const auto flat = g.csr_neighbors();
    const bool hear_all = loss_->always_delivers();
    if (!hear_all) {
      incoming_.resize(flat.size());
      for (std::size_t p = 0; p < n; ++p) {
        for (std::size_t e = offsets[p]; e < offsets[p + 1]; ++e) {
          const bool heard =
              loss_->delivered(static_cast<graph::NodeId>(p), flat[e]);
          incoming_[g.mirror_edge(e)] = heard;
          messages_delivered_ += heard;
        }
      }
    } else {
      messages_delivered_ += flat.size();
    }

    // Phase 3 (parallel by destination shard): each owned receiver
    // pulls its heard frames in ascending-sender order — local senders
    // from the shard arena, remote senders from the (src, dst) mailbox.
    // With valid row hints (previous step built rows AND was loss-free,
    // so every listener consumed exactly those rows), an unchanged
    // sender's delivery collapses to the protocol's redelivery
    // bookkeeping — the receiver's cache entry already holds the bytes.
    const bool hints = row_hints_valid_ && hear_all;
    // Delta patches additionally require the delta rows' base-generation
    // tag to name the arena build every listener consumed; when it
    // doesn't, the delta bit is masked out of every grade and those rows
    // fall through to the payload/full paths.
    unsigned char gmask = 0;
    if constexpr (RedeliveryProtocol<Protocol>) {
      const bool deltas_ok =
          hints && delta_base_generation_ + 1 == generation_;
      gmask = deltas_ok ? static_cast<unsigned char>(0xFF)
                        : static_cast<unsigned char>(~kRowDeltaApplicable);
    }
    // A receiver whose every heard row is bit-equal is first offered
    // whole, as in sim::Network (NodeRedeliveryProtocol).
    for_shards([this, protocol, offsets, flat, hear_all, hints, gmask,
                S](std::size_t t) {
      Shard& sh = shards_[t];
      sh.node_redeliveries = 0;
      for (std::size_t q = sh.begin; q < sh.end; ++q) {
        if (hints && offer_node_redelivery(
                         *protocol, static_cast<graph::NodeId>(q),
                         flat.subspan(offsets[q], offsets[q + 1] - offsets[q]),
                         row_unchanged_.data())) {
          ++sh.node_redeliveries;
          continue;
        }
        for (std::size_t e = offsets[q]; e < offsets[q + 1]; ++e) {
          if (!hear_all && !incoming_[e]) continue;
          const graph::NodeId p = flat[e];
          if (p >= sh.begin && p < sh.end) {
            const std::size_t slot = static_cast<std::size_t>(p) - sh.begin;
            const auto digests =
                std::span(sh.pool.data() + sh.offsets[slot],
                          sh.offsets[slot + 1] - sh.offsets[slot]);
            if constexpr (RedeliveryProtocol<Protocol>) {
              const unsigned char grade =
                  hints ? static_cast<unsigned char>(row_unchanged_[p] & gmask)
                        : static_cast<unsigned char>(0);
              if (grade) {
                if ((grade & kRowBitsEqual) &&
                    protocol->redeliver_unchanged(
                        static_cast<graph::NodeId>(q), sh.headers[slot])) {
                  continue;
                }
                if ((grade & kRowDeltaApplicable) &&
                    protocol->deliver_delta(
                        static_cast<graph::NodeId>(q), sh.headers[slot],
                        digests.size(),
                        std::span(
                            sh.delta_pool.data() + sh.delta_offsets[slot],
                            sh.delta_offsets[slot + 1] -
                                sh.delta_offsets[slot]))) {
                  continue;
                }
                if (protocol->deliver_payload(static_cast<graph::NodeId>(q),
                                              sh.headers[slot], digests)) {
                  continue;
                }
              }
            }
            protocol->deliver(static_cast<graph::NodeId>(q), sh.headers[slot],
                              digests);
          } else {
            deliver_from(*protocol, static_cast<graph::NodeId>(q),
                         frame_mb_[shard_of(p) * S + t], p,
                         hints ? static_cast<unsigned char>(
                                     row_unchanged_[p] & gmask)
                               : static_cast<unsigned char>(0));
          }
        }
      }
    });

    // Phases 4 + 5 (parallel by shard): guarded rules, then cache aging.
    for_shards([this, protocol](std::size_t s) {
      for (std::size_t p = shards_[s].begin; p < shards_[s].end; ++p) {
        protocol->tick(static_cast<graph::NodeId>(p));
      }
    });
    for_shards([this, protocol](std::size_t s) {
      for (std::size_t p = shards_[s].begin; p < shards_[s].end; ++p) {
        protocol->end_step(static_cast<graph::NodeId>(p));
      }
    });

    if constexpr (RedeliveryProtocol<Protocol>) {
      // Serial fold of the per-shard delta tallies (shard order), so the
      // aggregate is identical for any thread count.
      for (const Shard& sh : shards_) {
        delta_rows_graded_ += sh.delta_rows;
        node_redeliveries_ += sh.node_redeliveries;
      }
      prev_rows_built_ = true;
      // Hints are trustworthy next step only if *this* step delivered
      // every row to every listener (loss would leave some caches
      // behind the rows the compare runs against).
      row_hints_valid_ = hear_all;
    }
  }

  /// Drops the double-buffered row state (redelivery protocols): the
  /// next full step runs every delivery through the full compare path,
  /// and any banked delta rows are orphaned (their base generation no
  /// longer names rows every listener consumed).
  void invalidate_row_hints() noexcept {
    prev_rows_built_ = false;
    row_hints_valid_ = false;
    delta_base_generation_ = kNoGeneration;
  }

  /// Wakes `p` and its neighbors across whichever shards own them.
  /// Serial contexts only (between steps / serial prologue).
  void wake_closed(graph::NodeId p) {
    wake_owned(p);
    for (const graph::NodeId r : graph_->neighbors(p)) wake_owned(r);
  }

  void wake_owned(graph::NodeId p) {
    Shard& sh = shards_[shard_of(p)];
    sh.tracker.wake(static_cast<graph::NodeId>(p - sh.begin));
  }

  /// The quiescence-aware sharded step. Same induction as the
  /// unsharded stepper (docs/ARCHITECTURE.md §7): the union of the
  /// per-shard active sets equals the global stepper's active set every
  /// step, because intra-shard wakes land directly and cross-shard
  /// wakes ride the wake mailboxes flushed at this step's end and
  /// drained before the next begin_step — the same one-step latency the
  /// double-buffered wake set already has.
  void step_dirty() {
    // Dirty mode reuses the shard arenas in compact (sender-list) form,
    // clobbering the per-node rows the redelivery compare needs.
    invalidate_row_hints();
    const graph::Graph& g = *graph_;
    const std::size_t n = g.node_count();
    const std::size_t S = shard_count();
    auto* protocol = protocol_;

    // Serial prologue: externally mutated nodes wake their closed
    // neighborhood, crossing shard boundaries directly.
    for (const graph::NodeId p : protocol_->take_external_wakes()) {
      wake_closed(p);
    }

    // Phase 0 (parallel by shard): drain inbound wake mailboxes, then
    // promote the accumulated wake set to this step's work list.
    for_shards([this, S](std::size_t t) {
      Shard& sh = shards_[t];
      for (std::size_t s = 0; s < S; ++s) {
        auto& mb = wake_mb_[s * S + t];
        for (const graph::NodeId p : mb) {
          sh.tracker.wake(static_cast<graph::NodeId>(p - sh.begin));
        }
        mb.clear();
      }
      sh.tracker.begin_step();
    });

    std::size_t total_active = 0;
    for (const Shard& sh : shards_) total_active += sh.tracker.active().size();
    if (total_active == 0) {
      for (Shard& sh : shards_) sh.tracker.record(0, sh.end - sh.begin);
      stats_.record(0, n);
      return;
    }

    // Phase 1 (parallel by destination shard): discover the sender set.
    // Local senders go straight into the compact list; remote senders
    // are requested from their owning shard via the request mailboxes
    // (sorted + deduplicated, so the owner admits them in ascending
    // order).
    for_shards([this, &g, S](std::size_t t) {
      Shard& sh = shards_[t];
      const std::size_t local_n = sh.end - sh.begin;
      sh.sender_mark.assign(local_n, 0);
      sh.sender_slot.resize(local_n);
      sh.sender_list.clear();
      sh.delivered = 0;
      for (std::size_t s = 0; s < S; ++s) {
        if (s != t) req_mb_[t * S + s].clear();
      }
      for (const graph::NodeId lq : sh.tracker.active()) {
        const auto q = static_cast<graph::NodeId>(sh.begin + lq);
        sh.delivered += g.degree(q);
        for (const graph::NodeId r : g.neighbors(q)) {
          if (r >= sh.begin && r < sh.end) {
            const std::size_t lr = static_cast<std::size_t>(r) - sh.begin;
            if (!sh.sender_mark[lr]) {
              sh.sender_mark[lr] = 1;
              sh.sender_list.push_back(r);
            }
          } else {
            req_mb_[t * S + shard_of(r)].push_back(r);
          }
        }
      }
      for (std::size_t s = 0; s < S; ++s) {
        if (s == t) continue;
        auto& req = req_mb_[t * S + s];
        std::sort(req.begin(), req.end());
        req.erase(std::unique(req.begin(), req.end()), req.end());
      }
    });

    // Phase 2 (parallel by source shard): merge remote requests into
    // the local sender set, build every needed frame once, then answer
    // each request list through the frame mailboxes.
    for_shards([this, protocol, S](std::size_t s) {
      Shard& sh = shards_[s];
      for (std::size_t t = 0; t < S; ++t) {
        if (t == s) continue;
        for (const graph::NodeId p : req_mb_[t * S + s]) {
          const std::size_t lp = static_cast<std::size_t>(p) - sh.begin;
          if (!sh.sender_mark[lp]) {
            sh.sender_mark[lp] = 1;
            sh.sender_list.push_back(p);
          }
        }
      }
      const std::size_t senders = sh.sender_list.size();
      sh.offsets.resize(senders + 1);
      sh.offsets[0] = 0;
      for (std::size_t i = 0; i < senders; ++i) {
        sh.offsets[i + 1] =
            sh.offsets[i] + protocol->digest_count(sh.sender_list[i]);
      }
      sh.pool.resize(sh.offsets[senders]);
      sh.headers.resize(senders);
      for (std::size_t i = 0; i < senders; ++i) {
        sh.sender_slot[static_cast<std::size_t>(sh.sender_list[i]) -
                       sh.begin] = i;
        protocol->make_frame(
            sh.sender_list[i], sh.headers[i],
            std::span(sh.pool.data() + sh.offsets[i],
                      sh.offsets[i + 1] - sh.offsets[i]));
      }
      for (std::size_t t = 0; t < S; ++t) {
        if (t == s) continue;
        const auto& req = req_mb_[t * S + s];
        FrameMailbox& mb = frame_mb_[s * S + t];
        mb.senders.assign(req.begin(), req.end());
        mb.headers.clear();
        mb.pool.clear();
        mb.offsets.assign(1, 0);
        for (const graph::NodeId p : req) {
          append_frame(mb, sh,
                       sh.sender_slot[static_cast<std::size_t>(p) - sh.begin]);
        }
      }
    });

    // Phase 3 (parallel by destination shard): every active node pulls
    // every neighbor's frame, ascending-sender order as always.
    for_shards([this, protocol, &g, S](std::size_t t) {
      Shard& sh = shards_[t];
      for (const graph::NodeId lq : sh.tracker.active()) {
        const auto q = static_cast<graph::NodeId>(sh.begin + lq);
        for (const graph::NodeId r : g.neighbors(q)) {
          if (r >= sh.begin && r < sh.end) {
            const std::size_t slot =
                sh.sender_slot[static_cast<std::size_t>(r) - sh.begin];
            protocol->deliver(
                q, sh.headers[slot],
                std::span(sh.pool.data() + sh.offsets[slot],
                          sh.offsets[slot + 1] - sh.offsets[slot]));
          } else {
            deliver_from(*protocol, q, frame_mb_[shard_of(r) * S + t], r);
          }
        }
      }
    });

    // Phases 4 + 5 (parallel by shard): guarded rules, cache aging —
    // active nodes only.
    for_shards([this, protocol](std::size_t t) {
      Shard& sh = shards_[t];
      for (const graph::NodeId lq : sh.tracker.active()) {
        protocol->tick(static_cast<graph::NodeId>(sh.begin + lq));
      }
    });
    for_shards([this, protocol](std::size_t t) {
      Shard& sh = shards_[t];
      for (const graph::NodeId lq : sh.tracker.active()) {
        protocol->end_step(static_cast<graph::NodeId>(sh.begin + lq));
      }
    });

    // Phase 6 (parallel by shard): one-hop activity propagation. Local
    // wakes land in the shard's own tracker; wakes for remote nodes
    // ride the wake mailboxes, drained at the next step's phase 0.
    for_shards([this, protocol, &g, S](std::size_t t) {
      Shard& sh = shards_[t];
      for (std::size_t s = 0; s < S; ++s) {
        if (s != t) wake_mb_[t * S + s].clear();
      }
      for (const graph::NodeId lq : sh.tracker.active()) {
        const auto q = static_cast<graph::NodeId>(sh.begin + lq);
        const auto a = protocol->consume_activity(q);
        if (a.state_changed) sh.tracker.wake(lq);
        if (!a.frame_changed) continue;
        for (const graph::NodeId r : g.neighbors(q)) {
          if (r >= sh.begin && r < sh.end) {
            sh.tracker.wake(static_cast<graph::NodeId>(r - sh.begin));
          } else {
            wake_mb_[t * S + shard_of(r)].push_back(r);
          }
        }
      }
    });

    // Serial epilogue: fold the per-shard tallies in shard order.
    for (Shard& sh : shards_) {
      messages_delivered_ += sh.delivered;
      const std::size_t stepped = sh.tracker.active().size();
      sh.tracker.record(stepped, (sh.end - sh.begin) - stepped);
    }
    stats_.record(total_active, n - total_active);
  }

  const graph::Graph* graph_;
  Protocol* protocol_;
  LossModel* loss_;
  std::vector<std::size_t> bounds_;
  std::vector<Shard> shards_;
  std::size_t steps_ = 0;
  std::uint64_t messages_delivered_ = 0;
  Stepping stepping_ = Stepping::kFull;
  bool boundaries_stale_ = true;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<unsigned char> incoming_;  // per-edge decisions (lossy full)
  // Redelivery (full stepping): global per-node bitmap of "this step's
  // row is bit-identical to last step's", each shard writing only its
  // owned slice; the flags gate whether prev_* rows exist and whether
  // every listener actually consumed them (loss-free previous step).
  std::vector<unsigned char> row_unchanged_;
  std::uint64_t generation_ = 0;  // arena builds since construction
  std::uint64_t delta_base_generation_ = kNoGeneration;
  std::uint64_t delta_rows_graded_ = 0;
  std::uint64_t node_redeliveries_ = 0;
  bool prev_rows_built_ = false;
  bool row_hints_valid_ = false;
  ActivityTracker stats_;                // aggregate counters only
  // Mailboxes, all indexed [writer_shard * S + reader_shard] so every
  // parallel phase writes only its own row. frame_mb_ and wake_mb_ are
  // written by the frame/wake *source* shard; req_mb_ is written by the
  // *requesting* (destination) shard, so req_mb_[t * S + s] holds the
  // senders shard t wants from shard s.
  std::vector<FrameMailbox> frame_mb_;
  std::vector<std::vector<graph::NodeId>> req_mb_;
  std::vector<std::vector<graph::NodeId>> wake_mb_;  // cross-shard wakes
};

}  // namespace ssmwn::sim
