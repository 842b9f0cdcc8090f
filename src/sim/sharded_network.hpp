// The synchronous-step engine — the lockstep instance of the Scheduler
// seam (sim/scheduler.hpp; the event-driven instance is
// sim/async_network.hpp).
//
// One `step()` realizes the paper's Δ(τ) time unit: every node builds a
// frame from its shared variables and locally broadcasts it; the loss
// model decides per receiver whether the frame is heard; then every node
// atomically executes its guarded rules against its (possibly stale)
// caches. Reception is double-buffered — all frames of a step are built
// from the state *before* any rule of that step fires, exactly matching
// the synchronous semantics the paper's step-count arguments use.
//
// The Protocol type supplies the node behavior through the arena
// extension (sim/scheduler.hpp's ArenaProtocol): fixed-size frame
// headers plus variable-length digest lists written into flat,
// engine-owned buffers, so a steady-state step performs zero heap
// allocations. It also provides `tick(node)` (run the guarded rules)
// and `end_step(node)` (cache aging); redelivery, node-level
// redelivery, topology-awareness and quiescence are optional
// extensions detected with `if constexpr`.
//
// Shards. The node range [0, n) is carved into S contiguous,
// shard-owned ranges (S = 1 is the plain unsharded engine). In full
// stepping a shard owns its frame arena, whose offset and delta prefix
// sums run one task per shard; at million-node scale, cell-major
// renumbering via graph::plan_spatial_shards keeps radio neighbors
// range-near, so most of a receiver's rows sit in its own shard's
// arena. All shards share one address space: a receiver reads a remote
// sender's row in place, from the sender shard's arena.
//
// Threads. Shards and threads are independent. Per-node phases (frame
// build, row grading and delta extraction, and the fused
// receive → sweep → age pass) map over node ranges clipped to shard
// bounds — one range per shard when S >= threads, pool-sized sub-ranges
// otherwise — and write only the state of the node they are indexed
// by.
//
// Held steps. In full stepping, when row hints are valid on a
// loss-free medium and every node is frame_held, the step is provably
// the identity (step_held), so it is skipped outright: every shard
// books the counters that step would have booked and nothing else
// happens — no protocol call, no arena work, no pool round trip. At a
// full hold a step costs one byte scan over the hold flags.
//
// Determinism argument (the property the differential tests assert
// against the reference oracle in tests/support): every full step runs
// the phase sequence build frames, decide losses, then one fused
// receive → sweep → age pass per receiver, with a barrier between
// phases. Receive, sweep and age of a receiver touch only that
// receiver's state and read only rows fixed at the build barrier, so
// fusing them computes what three barrier-separated passes would.
// Within a phase each node is processed exactly once with inputs fixed
// at the barrier, and each receiver pulls its heard frames in
// ascending-sender order (its sorted CSR row). Arena rows are written
// only by the build phase and read only after its barrier, local or
// remote alike, so *which* bytes a receiver sees never depends on shard
// count or thread count. Stateful loss models are polled in one serial
// sender-major pass, so their RNG draw sequence is fixed too. Per-range
// tallies are summed and a held step's booked serially, so every
// counter is identical at any thread count and — shards_skipped()
// aside — at any shard count, full or dirty stepping
// (docs/ARCHITECTURE.md §8).
//
// Dirty-region stepping ignores the shard split: one engine-wide
// ActivityTracker holds the active set, and one compact arena holds
// the frames of its senders. A dirty step gathers the senders (every
// neighbor of an active receiver) serially, builds their frames by
// range, runs the fused deliver → tick → end_step pass over the active
// receivers by range, and propagates wakes serially, so a quiet
// network does O(active region) work whatever S is.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>
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
                "headers + digest pools)");

 public:
  /// `bounds` carves [0, n) into shard-owned ranges (see
  /// graph::ShardPlan::bounds — front 0, back n, monotone; empty ranges
  /// allowed). Throws std::invalid_argument on a malformed cover.
  /// The graph reference is observed, not owned; it may be swapped
  /// between steps via `set_graph`. `threads` is the step-engine
  /// parallelism (1 = fully inline, 0 = hardware concurrency); shards
  /// and threads are independent — one worker can sweep many shards,
  /// and fewer shards than workers split into sub-ranges.
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
    }
    set_threads(threads);
  }

  /// Convenience: `shards` equal contiguous chunks (clamped to
  /// [1, max(1, n)] like graph::plan_contiguous_shards, so 0 and 1 both
  /// mean the unsharded engine). For spatial locality, build the bounds
  /// from graph::plan_spatial_shards and a permuted graph instead.
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
  /// up front, and keeps the numbering for its lifetime. A wholesale
  /// swap invalidates every adjacency assumption the activity sets
  /// encode, so dirty mode wakes everyone.
  void set_graph(const graph::Graph& g) {
    if (g.node_count() != bounds_.back()) {
      throw std::invalid_argument(
          "ShardedNetwork::set_graph: node count must match the shard "
          "bounds the engine was built with");
    }
    graph_ = &g;
    invalidate_row_hints();
    if (stepping_ == Stepping::kDirty) {
      activity_.reset(g.node_count(), /*all_active=*/true);
    }
  }

  /// Selects the stepper. Dirty-region stepping requires the
  /// quiescence extension and a loss model that always delivers
  /// (skipping a node is only provably a no-op when its inputs are
  /// deterministic; a lossy medium re-randomizes them — and skipped
  /// deliveries would desynchronize the loss model's RNG draw sequence
  /// from the full stepper's). Throws std::invalid_argument otherwise.
  /// Entering dirty mode arms the protocol's change detector and wakes
  /// every node; leaving it disarms the detector.
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
        activity_.reset(graph_->node_count(), /*all_active=*/true);
        activity_.reset_counters();
        return;
      }
      stepping_ = Stepping::kFull;
      protocol_->set_activity_tracking(false);
      activity_.reset(0, false);
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

  /// Stepped/skipped counters and, in dirty mode, the active set:
  /// `activity().last_nodes_stepped() == 0` after a step is the
  /// quiescence property the tests assert, and `activity().active()` is
  /// the last dirty step's work list (global ids, ascending).
  [[nodiscard]] const ActivityTracker& activity() const noexcept {
    return activity_;
  }

  /// Seeds the activity set from outside knowledge — e.g.
  /// `graph::DynamicGraph::dirty_nodes()` after a live patch: wakes each
  /// listed node and its closed neighborhood (dirty mode only). Call
  /// between steps.
  void mark_dirty(std::span<const graph::NodeId> nodes) {
    if (stepping_ != Stepping::kDirty) return;
    for (const graph::NodeId p : nodes) wake_closed(p);
  }

  /// Rebuilds the worker pool synchronously; steps use the new size
  /// from the next call. 0 = hardware concurrency; absurd counts (e.g.
  /// an unsigned-cast -1) are clamped. `thread_count()` reports the
  /// effective size after clamping.
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

  /// Frame receptions that actually happened (post-loss) across all
  /// steps so far. Counted in serial phases or folded per shard, so
  /// identical for any shard/thread count and full or dirty stepping.
  [[nodiscard]] std::uint64_t messages_delivered() const noexcept {
    return messages_delivered_;
  }

  /// Sender rows graded delta-applicable (id sequence held, a sparse
  /// subset of digest payloads changed) across all steps so far —
  /// folded serially in shard order, so identical for any shard/thread
  /// count. Zero for protocols without the redelivery extension and
  /// under the dirty stepper.
  [[nodiscard]] std::uint64_t delta_rows_graded() const noexcept {
    return delta_rows_graded_;
  }

  /// Receivers whose whole delivery phase collapsed to one node-level
  /// redelivery (NodeRedeliveryProtocol) across all steps so far — in
  /// the steady regime, n per step. A sum of per-receiver decisions, so
  /// identical for any shard/thread count. Zero for protocols without
  /// the extension and under the dirty stepper.
  [[nodiscard]] std::uint64_t node_redeliveries() const noexcept {
    return node_redeliveries_;
  }

  /// Rule sweeps the full stepper skipped as provably no-ops (a
  /// node-level-accepted receiver whose previous sweep was a fixpoint;
  /// see NodeRedeliveryProtocol) across all steps so far — n per step at
  /// a full hold. Same folding and invariance as node_redeliveries().
  [[nodiscard]] std::uint64_t sweeps_skipped() const noexcept {
    return sweeps_skipped_;
  }

  /// Frame rows the full stepper copied from last step's arena instead
  /// of building and grading (the sender's whole previous step was held,
  /// NodeRedeliveryProtocol::frame_held) across all steps so far — n per
  /// step at a full hold. Same folding and invariance as
  /// node_redeliveries().
  [[nodiscard]] std::uint64_t rows_reused() const noexcept {
    return rows_reused_;
  }

  /// Shard steps the full stepper skipped outright because the whole
  /// step was held (every node frame_held; see step_held) across all
  /// steps so far — S per held step. A held step still counts every
  /// node into node_redeliveries(), sweeps_skipped() and rows_reused(),
  /// so those read as if it had run. Decided serially from protocol
  /// state alone, so identical for any thread count.
  [[nodiscard]] std::uint64_t shards_skipped() const noexcept {
    return shards_skipped_;
  }

  /// Notifies the engine that the observed graph was just patched with
  /// `delta` (dynamic-topology runs; the owner mutates the graph via
  /// graph::DynamicGraph, then calls this). Topology-aware protocols
  /// are told about every severed link so stale neighbor caches die now
  /// rather than by aging; dirty mode wakes the closed neighborhoods of
  /// both endpoints of every patched edge. An empty delta changed
  /// nothing and is a no-op. Call between steps.
  void apply_topology_delta(const graph::EdgeDelta& delta) {
    if (delta.empty()) return;
    invalidate_row_hints();
    if constexpr (TopologyAwareProtocol<Protocol>) {
      for (const auto& [a, b] : delta.removed) {
        protocol_->on_edge_removed(a, b);
      }
    }
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
    activity_.record(graph_->node_count(), 0);
    ++steps_;
  }

  void run(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) step();
  }

 private:
  /// A shard's node range and frame arena: in full stepping one row per
  /// owned node (local index), read in place by every listener, local
  /// or remote. The dirty stepper's compact arena (`dirty_rows_`) is a
  /// Shard too, one row per sender slot, with an empty range.
  struct Shard {
    std::size_t begin = 0;
    std::size_t end = 0;
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
    // CSR over local sender index; rows of senders without the grade are
    // empty. delta_rows counts the senders graded delta-applicable this
    // step (folded serially into the engine total, so the aggregate is
    // thread-count invariant).
    std::vector<typename Protocol::Digest> delta_pool;
    std::vector<std::size_t> delta_offsets;
    std::vector<std::uint32_t> delta_counts;
    std::uint64_t delta_rows = 0;
    // Phase 1a's verdict: this step's offsets equal those of the rows
    // this buffer already holds (built two arena builds ago).
    bool rows_in_place = false;
  };

  [[nodiscard]] std::size_t shard_of(graph::NodeId p) const noexcept {
    const auto it = std::upper_bound(bounds_.begin(), bounds_.end(),
                                     static_cast<std::size_t>(p));
    return static_cast<std::size_t>(it - bounds_.begin()) - 1;
  }

  /// Maps `body(shard_index)` over all shards, inline or across the
  /// pool (one chunk per shard: per-shard serial work). Phases must
  /// write only shard-owned state.
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

  /// Maps `body(begin, end)` over [0, count) in pool-sized chunks, or
  /// inline without a pool. `body` must write only the state of the
  /// items it is handed.
  template <typename F>
  void for_ranges(std::size_t count, F&& body) {
    if (!pool_) {
      body(std::size_t{0}, count);
      return;
    }
    pool_->parallel_for(
        count, 0,
        [](void* ctx, std::size_t begin, std::size_t end) {
          (*static_cast<std::remove_reference_t<F>*>(ctx))(begin, end);
        },
        &body);
  }

  /// Maps `body(s, begin, end)` over every shard's owned local index
  /// space [0, end - begin). One range per shard when there are at
  /// least as many shards as threads; otherwise the concatenated index
  /// spaces are cut into pool-sized chunks, clipped at shard bounds. For
  /// per-node phases: `body` must write only the state of the nodes it
  /// is handed.
  template <typename F>
  void for_shard_ranges(F&& body) {
    const std::size_t S = shard_count();
    if (!pool_ || S >= pool_->thread_count()) {
      for_shards([&](std::size_t s) {
        body(s, std::size_t{0}, shards_[s].end - shards_[s].begin);
      });
      return;
    }
    // Shard s's local index i is global node bounds_[s] + i, so the
    // concatenated index space is [0, n) and bounds_ its cut points.
    for_ranges(bounds_.back(), [this, &body](std::size_t begin,
                                             std::size_t end) {
      auto s = static_cast<std::size_t>(
          std::upper_bound(bounds_.begin(), bounds_.end(), begin) -
          bounds_.begin()) - 1;
      for (; begin < end; ++s) {
        const std::size_t stop = std::min(end, bounds_[s + 1]);
        if (begin < stop) body(s, begin - bounds_[s], stop - bounds_[s]);
        begin = stop;
      }
    });
  }

  /// Delivers row `slot` of `rows` — the sender's shard arena, or the
  /// dirty stepper's compact arena with grade 0 — to receiver `q`
  /// through the strongest fast path `grade` allows. Callers strip
  /// kRowDeltaApplicable from the grade when the delta rows' base
  /// generation doesn't name the rows every listener consumed.
  static void deliver_row(Protocol& protocol, graph::NodeId q,
                          const Shard& rows, std::size_t slot,
                          unsigned char grade) {
    const auto digests = std::span(rows.pool.data() + rows.offsets[slot],
                                   rows.offsets[slot + 1] - rows.offsets[slot]);
    if constexpr (RedeliveryProtocol<Protocol>) {
      if (grade != 0) {
        if ((grade & kRowBitsEqual) &&
            protocol.redeliver_unchanged(q, rows.headers[slot])) {
          return;
        }
        if ((grade & kRowDeltaApplicable) &&
            protocol.deliver_delta(
                q, rows.headers[slot], digests.size(),
                std::span(rows.delta_pool.data() + rows.delta_offsets[slot],
                          rows.delta_offsets[slot + 1] -
                              rows.delta_offsets[slot]))) {
          return;
        }
        if (protocol.deliver_payload(q, rows.headers[slot], digests)) return;
      }
    }
    protocol.deliver(q, rows.headers[slot], digests);
  }

  /// Whether the full stepper may skip held work: node-level holds
  /// (NodeRedeliveryProtocol) plus maybe_tick (QuiescentProtocol).
  /// Perfbench's TracedProtocol, for one, forwards neither hold query.
  static constexpr bool kHoldAware =
      NodeRedeliveryProtocol<Protocol> && QuiescentProtocol<Protocol>;

  void step_full() {
    const bool hear_all = loss_->always_delivers();
    if (step_held(hear_all)) {
      book_held_step();
      return;
    }
    if constexpr (RedeliveryProtocol<Protocol>) {
      row_unchanged_.resize(graph_->node_count());
      // One arena build per step, stamped serially. The delta rows this
      // build produces patch against the previous build's rows, so
      // their base-generation tag is generation_ - 1 — valid only when
      // those rows exist (and actually reached every listener, which
      // phase 3's hints flag checks on top).
      ++generation_;
      delta_base_generation_ =
          prev_rows_built_ ? generation_ - 1 : kNoGeneration;
    }
    build_rows();
    poll_losses(hear_all);
    receive_sweep_age(hear_all);

    if constexpr (RedeliveryProtocol<Protocol>) {
      // Serial fold of the per-shard delta tallies (shard order), so the
      // aggregate is identical for any thread count.
      for (const Shard& sh : shards_) delta_rows_graded_ += sh.delta_rows;
      prev_rows_built_ = true;
      // Hints are trustworthy next step only if *this* step delivered
      // every row to every listener (loss would leave some caches
      // behind the rows the compare runs against).
      row_hints_valid_ = hear_all;
    }
  }

  /// Whether this full step is provably the identity: row hints are
  /// valid on a loss-free medium and every node is frame_held. Then
  /// every row is reused (bit-equal), every receiver would be offered
  /// whole and accept, skip its sweep (its last one was a fixpoint) and
  /// have its end_step turn kFrameHeld back into kFrameHeld — ages
  /// included, nothing changes (book_held_step). The scan reads two
  /// bytes per node, stops at the first node not held, and sees every
  /// mutation made between steps because each one clears frame_held.
  [[nodiscard]] bool step_held(bool hear_all) const {
    if (!kHoldAware || !row_hints_valid_ || !hear_all) return false;
    const std::size_t n = graph_->node_count();
    for (std::size_t p = 0; p < n; ++p) {
      if (!frame_held(*protocol_, static_cast<graph::NodeId>(p))) {
        return false;
      }
    }
    return true;
  }

  /// Books a held step: the counters the identity step would have added
  /// (every receiver node-level, every sweep skipped, every row reused,
  /// every frame delivered, no delta row) and S skipped shards. Nothing
  /// else is written, and nothing else needs to be: the live buffers
  /// already hold this step's rows, and the grades the last arena build
  /// wrote still describe them. The next build swaps
  /// buffers exactly as if it followed that build directly, so the
  /// in-place reuse stays sound (reuse_row). Leaving the grades alone
  /// matters: a row nobody hears (an isolated sender) may differ
  /// between the buffers, and only its stale grade, not bit-equal, tells
  /// reuse_row to copy it.
  void book_held_step() {
    const std::size_t n = graph_->node_count();
    node_redeliveries_ += n;
    sweeps_skipped_ += n;
    rows_reused_ += n;
    messages_delivered_ += graph_->csr_neighbors().size();
    shards_skipped_ += shard_count();
  }

  /// Phase 1 (by source shard, per-node work by range): snapshot all
  /// owned frames into the shard arena, which every listener then reads
  /// in place. Redelivery protocols double-buffer the arena: last step's
  /// rows move to prev_* before the build, then each fresh row is
  /// bit-compared against its predecessor so phase 3 can skip the full
  /// delivery of provably unchanged frames.
  void build_rows() {
    auto* protocol = protocol_;
    // 1a (per shard, serial): swap the double buffer, size the arena.
    // Row i of the pool is [offsets[i], offsets[i+1]), mirroring the
    // CSR layout of the graph. The swapped-in buffer still holds the
    // rows of two arena builds ago; when every offset comes out as it
    // was, those rows are still in place (reuse_row).
    for_shards([this, protocol](std::size_t s) {
      Shard& sh = shards_[s];
      const std::size_t local_n = sh.end - sh.begin;
      if constexpr (RedeliveryProtocol<Protocol>) {
        std::swap(sh.headers, sh.prev_headers);
        std::swap(sh.pool, sh.prev_pool);
        std::swap(sh.offsets, sh.prev_offsets);
        sh.delta_counts.assign(local_n, 0);
      }
      bool in_place = sh.offsets.size() == local_n + 1;
      sh.offsets.resize(local_n + 1);
      sh.offsets[0] = 0;
      for (std::size_t i = 0; i < local_n; ++i) {
        const std::size_t len = protocol->digest_count(
            static_cast<graph::NodeId>(sh.begin + i));
        in_place = in_place && sh.offsets[i + 1] == sh.offsets[i] + len;
        sh.offsets[i + 1] = sh.offsets[i] + len;
      }
      sh.rows_in_place = in_place;
      sh.pool.resize(sh.offsets[local_n]);
      sh.headers.resize(local_n);
    });
    // 1b (by range): build, then grade each row against last step's.
    // One streaming pass over two sequential buffers here saves a
    // gathered per-edge compare in phase 3 — each row is compared once
    // instead of once per listener. Grades: kRowIdsEqual (the id
    // sequence held; payloads may churn — the common active regime),
    // additionally kRowBitsEqual (the whole row, header included, is
    // bit-identical — the quiescent regime), or additionally
    // kRowDeltaApplicable (ids held and at most half the digests moved
    // — the late-recovery regime, worth delta-encoding). A sender the
    // protocol proved held (reuse_row) skips both: its row is last
    // step's, copied, and grades bit-equal by construction. Each range
    // writes only its own slice of the global grade bitmap.
    std::atomic<std::uint64_t> rows_reused{0};
    for_shard_ranges([&, protocol](std::size_t s, std::size_t lo,
                                   std::size_t hi) {
      Shard& sh = shards_[s];
      [[maybe_unused]] bool cmp = false;
      if constexpr (RedeliveryProtocol<Protocol>) {
        cmp = prev_rows_built_ && sh.prev_offsets.size() == sh.offsets.size();
      }
      std::uint64_t reused = 0;
      for (std::size_t i = lo; i < hi; ++i) {
        if (cmp && reuse_row(*protocol, sh, i)) {
          ++reused;
          continue;
        }
        protocol->make_frame(
            static_cast<graph::NodeId>(sh.begin + i), sh.headers[i],
            std::span(sh.pool.data() + sh.offsets[i],
                      sh.offsets[i + 1] - sh.offsets[i]));
        if constexpr (RedeliveryProtocol<Protocol>) {
          row_unchanged_[sh.begin + i] = cmp ? grade_row(sh, i) : 0;
        }
      }
      rows_reused.fetch_add(reused, std::memory_order_relaxed);
    });
    rows_reused_ += rows_reused.load(std::memory_order_relaxed);
    if constexpr (RedeliveryProtocol<Protocol>) {
      // 1c (per shard, serial): CSR offsets for the delta rows. changed
      // <= len/2 per applicable row, so half the shard's digest count
      // bounds the pool; reserving it pins the high-water mark at the
      // first delta build instead of letting the pool grow step by step
      // through a recovery window that must stay allocation-free.
      for_shards([this](std::size_t s) {
        Shard& sh = shards_[s];
        const std::size_t local_n = sh.end - sh.begin;
        sh.delta_offsets.resize(local_n + 1);
        sh.delta_offsets[0] = 0;
        sh.delta_rows = 0;
        for (std::size_t i = 0; i < local_n; ++i) {
          sh.delta_offsets[i + 1] = sh.delta_offsets[i] + sh.delta_counts[i];
          sh.delta_rows +=
              (row_unchanged_[sh.begin + i] & kRowDeltaApplicable) != 0;
        }
        sh.delta_pool.reserve(sh.offsets[local_n] / 2);
        sh.delta_pool.resize(sh.delta_offsets[local_n]);
      });
      // 1d (by range): extract the changed digests — a second compare
      // pass, but only over delta-graded rows, and shared by every
      // listener of each sender.
      bool any_delta = false;
      for (const Shard& sh : shards_) any_delta |= !sh.delta_pool.empty();
      if (any_delta) {
        for_shard_ranges([this](std::size_t s, std::size_t lo,
                                std::size_t hi) {
          Shard& sh = shards_[s];
          for (std::size_t i = lo; i < hi; ++i) {
            if (sh.delta_counts[i] == 0) continue;
            const auto* a = sh.pool.data() + sh.offsets[i];
            const auto* b = sh.prev_pool.data() + sh.prev_offsets[i];
            const std::size_t len = sh.offsets[i + 1] - sh.offsets[i];
            auto* out = sh.delta_pool.data() + sh.delta_offsets[i];
            for (std::size_t k = 0; k < len; ++k) {
              if (!Protocol::digest_bits_equal(a[k], b[k])) *out++ = a[k];
            }
          }
        });
      }
    }
  }

  /// Phase 2 (serial unless τ = 1): per-edge delivery decisions, polled
  /// sender-major so stateful loss models draw the exact same RNG
  /// sequence at any shard/thread count, stored at the receiver's
  /// incoming CSR slot via the mirror index.
  void poll_losses(bool hear_all) {
    const graph::Graph& g = *graph_;
    const auto offsets = g.csr_offsets();
    const auto flat = g.csr_neighbors();
    if (hear_all) {
      messages_delivered_ += flat.size();
      return;
    }
    incoming_.resize(flat.size());
    for (std::size_t p = 0; p < g.node_count(); ++p) {
      for (std::size_t e = offsets[p]; e < offsets[p + 1]; ++e) {
        const bool heard =
            loss_->delivered(static_cast<graph::NodeId>(p), flat[e]);
        incoming_[g.mirror_edge(e)] = heard;
        messages_delivered_ += heard;
      }
    }
  }

  /// Phase 3 (by range of receivers): one fused
  /// pass per receiver — receive, sweep, age. Receive, sweep and age of
  /// a receiver touch only its own state and read only the rows fixed
  /// in phase 1, so running them back to back per receiver computes
  /// what three barrier-separated passes would.
  ///
  /// Receive: the receiver pulls its heard frames in ascending-sender
  /// order, each read in place from its sender's shard arena: local or
  /// remote, a row is written only in phase 1 and read only after its
  /// barrier (a held step writes nothing). With valid row hints
  /// (previous step built rows AND was loss-free, so every listener
  /// consumed exactly those rows), an unchanged sender's delivery
  /// collapses to the protocol's fast paths, attempted strongest first:
  /// bit-equal rows to an age reset, delta-applicable rows to an
  /// in-place patch of the changed digests, rows with a held id sequence
  /// to a straight payload overwrite. Every skip is bit-identical by
  /// induction on the rows a receiver has consumed; the protocol
  /// declines them all for receivers whose cache was externally mutated
  /// since the last sweep, falling through to the next-fuller path. A
  /// receiver whose every heard row is bit-equal is first offered whole
  /// (NodeRedeliveryProtocol): when the protocol accepts, its per-edge
  /// age resets and its aging are skipped together.
  ///
  /// Sweep and age: guarded rules, then cache aging. Hold-aware
  /// protocols sweep through maybe_tick, which skips a node-level
  /// accepted receiver's sweep when its previous one was a fixpoint
  /// (scheduler.hpp).
  void receive_sweep_age(bool hear_all) {
    const graph::Graph& g = *graph_;
    auto* protocol = protocol_;
    const auto offsets = g.csr_offsets();
    const auto flat = g.csr_neighbors();
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
    std::atomic<std::uint64_t> node_redeliveries{0};
    std::atomic<std::uint64_t> sweeps_skipped{0};
    for_shard_ranges([&, protocol, offsets, flat, hear_all, hints, gmask](
                         std::size_t t, std::size_t lo, std::size_t hi) {
      const Shard& sh = shards_[t];
      std::uint64_t taken = 0;
      std::uint64_t skipped = 0;
      for (std::size_t q = sh.begin + lo; q < sh.begin + hi; ++q) {
        const auto node = static_cast<graph::NodeId>(q);
        if (hints && offer_node_redelivery(
                         *protocol, node,
                         flat.subspan(offsets[q], offsets[q + 1] - offsets[q]),
                         row_unchanged_.data())) {
          ++taken;
        } else {
          for (std::size_t e = offsets[q]; e < offsets[q + 1]; ++e) {
            if (!hear_all && !incoming_[e]) continue;
            const graph::NodeId p = flat[e];
            const unsigned char grade =
                hints ? static_cast<unsigned char>(row_unchanged_[p] & gmask)
                      : static_cast<unsigned char>(0);
            const Shard& src =
                p >= sh.begin && p < sh.end ? sh : shards_[shard_of(p)];
            deliver_row(*protocol, node, src,
                        static_cast<std::size_t>(p) - src.begin, grade);
          }
        }
        if constexpr (kHoldAware) {
          skipped += !protocol->maybe_tick(node);
        } else {
          protocol->tick(node);
        }
        protocol->end_step(node);
      }
      node_redeliveries.fetch_add(taken, std::memory_order_relaxed);
      sweeps_skipped.fetch_add(skipped, std::memory_order_relaxed);
    });
    node_redeliveries_ += node_redeliveries.load(std::memory_order_relaxed);
    sweeps_skipped_ += sweeps_skipped.load(std::memory_order_relaxed);
  }

  /// NodeRedeliveryProtocol::frame_held, or false for protocols without
  /// the extension.
  static bool frame_held(const Protocol& protocol, graph::NodeId p) {
    if constexpr (NodeRedeliveryProtocol<Protocol>) {
      return protocol.frame_held(p);
    } else {
      return false;
    }
  }

  /// Reuses last step's owned row `i` as this step's when the protocol
  /// proved its sender held (frame_held) and the row kept last step's
  /// length: the row make_frame would write is then bit-identical to
  /// last step's, so it grades kRowIdsEqual | kRowBitsEqual. The bytes
  /// are copied from prev_* unless they are already here: the row
  /// graded bit-equal at the last arena build (so both buffers hold it;
  /// a held step builds and grades nothing, see book_held_step) and no
  /// offset of the shard moved. Callers first check that last step's
  /// rows exist. Returns whether the row was reused.
  bool reuse_row(const Protocol& protocol, Shard& sh, std::size_t i) {
    const std::size_t p = sh.begin + i;
    const std::size_t len = sh.offsets[i + 1] - sh.offsets[i];
    if (!frame_held(protocol, static_cast<graph::NodeId>(p)) ||
        sh.prev_offsets[i + 1] - sh.prev_offsets[i] != len) {
      return false;
    }
    if (!sh.rows_in_place || (row_unchanged_[p] & kRowBitsEqual) == 0) {
      sh.headers[i] = sh.prev_headers[i];
      std::copy_n(sh.prev_pool.data() + sh.prev_offsets[i], len,
                  sh.pool.data() + sh.offsets[i]);
    }
    row_unchanged_[p] = kRowIdsEqual | kRowBitsEqual;
    return true;
  }

  /// Grades owned row `i` of `sh` against the same row of last step's
  /// arena (redelivery protocols): 0, or kRowIdsEqual plus at most one
  /// of kRowBitsEqual / kRowDeltaApplicable (scheduler.hpp). A
  /// delta-applicable row's changed-digest count lands in
  /// `sh.delta_counts[i]`.
  static unsigned char grade_row(Shard& sh, std::size_t i) {
    const std::size_t len = sh.offsets[i + 1] - sh.offsets[i];
    if (sh.prev_offsets[i + 1] - sh.prev_offsets[i] != len) return 0;
    const auto* a = sh.pool.data() + sh.offsets[i];
    const auto* b = sh.prev_pool.data() + sh.prev_offsets[i];
    // Once `changed` blows the delta threshold the row can only grade
    // kRowIdsEqual, so the (wider) payload compares stop; the id
    // compares must still cover the whole row — the ids-equal gate is
    // what makes redelivery sound. Heavy-churn rows (the active
    // regime) cost about what a first-mismatch exit would.
    const std::size_t cap = len * kRowDeltaNumerator / kRowDeltaDenominator;
    std::size_t changed = 0;
    std::size_t k = 0;
    for (; k < len; ++k) {
      if (!Protocol::digest_id_equal(a[k], b[k])) return 0;
      changed += !Protocol::digest_bits_equal(a[k], b[k]);
      if (changed > cap) {
        ++k;
        break;
      }
    }
    for (; k < len; ++k) {
      if (!Protocol::digest_id_equal(a[k], b[k])) return 0;
    }
    unsigned char grade = kRowIdsEqual;
    if (changed == 0 &&
        Protocol::header_bits_equal(sh.headers[i], sh.prev_headers[i])) {
      grade |= kRowBitsEqual;
    } else if (changed * kRowDeltaDenominator <= len * kRowDeltaNumerator) {
      grade |= kRowDeltaApplicable;
      sh.delta_counts[i] = static_cast<std::uint32_t>(changed);
    }
    return grade;
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

  /// Wakes `p` and its neighbors (dirty mode; serial contexts only).
  void wake_closed(graph::NodeId p) {
    activity_.wake(p);
    for (const graph::NodeId r : graph_->neighbors(p)) activity_.wake(r);
  }

  /// The quiescence-aware step: only active nodes (those whose closed
  /// neighborhood changed last step) receive, tick and age; everyone
  /// else is left untouched — bit-identical to full stepping because a
  /// skipped node is at a boundary-state fixpoint with unchanged inputs
  /// (docs/ARCHITECTURE.md §7 for the induction). Shards play no part:
  /// the active set, the sender set and the compact arena are
  /// engine-wide.
  void step_dirty() {
    // Dirty steps change node state without an arena build, so last
    // step's rows no longer name what every listener consumed.
    invalidate_row_hints();
    const graph::Graph& g = *graph_;
    const std::size_t n = g.node_count();
    auto* protocol = protocol_;

    // Externally mutated nodes wake their closed neighborhood; then the
    // accumulated wake set becomes this step's work list.
    for (const graph::NodeId p : protocol_->take_external_wakes()) {
      wake_closed(p);
    }
    activity_.begin_step();
    const auto active = activity_.active();
    if (active.empty()) {
      activity_.record(0, n);
      return;
    }

    // Phase 1 (serial): the sender set — every neighbor of an active
    // receiver, slotted once, in discovery order, into the compact
    // arena, sized by a prefix sum over the slots.
    sender_slot_.resize(n, kNoSlot);
    senders_.clear();
    for (const graph::NodeId q : active) {
      messages_delivered_ += g.degree(q);
      for (const graph::NodeId r : g.neighbors(q)) {
        if (sender_slot_[r] == kNoSlot) {
          sender_slot_[r] = senders_.size();
          senders_.push_back(r);
        }
      }
    }
    Shard& rows = dirty_rows_;
    rows.offsets.resize(senders_.size() + 1);
    rows.offsets[0] = 0;
    for (std::size_t i = 0; i < senders_.size(); ++i) {
      rows.offsets[i + 1] =
          rows.offsets[i] + protocol->digest_count(senders_[i]);
    }
    rows.pool.resize(rows.offsets.back());
    rows.headers.resize(senders_.size());

    // Phase 2 (by range): build each sender's frame once. Quiescent
    // senders' frames are built on demand too (make_frame is const), so
    // cache ages and contents evolve exactly as under the full stepper.
    for_ranges(senders_.size(), [this, protocol, &rows](std::size_t lo,
                                                        std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        protocol->make_frame(
            senders_[i], rows.headers[i],
            std::span(rows.pool.data() + rows.offsets[i],
                      rows.offsets[i + 1] - rows.offsets[i]));
      }
    });

    // Phase 3 (by range of active receivers): one fused pass per
    // receiver — every neighbor's frame in ascending-sender order, then
    // the guarded rules, then cache aging — as in full stepping.
    for_ranges(active.size(), [this, protocol, &g, &rows, active](
                                  std::size_t lo, std::size_t hi) {
      for (const graph::NodeId q : active.subspan(lo, hi - lo)) {
        for (const graph::NodeId r : g.neighbors(q)) {
          deliver_row(*protocol, q, rows, sender_slot_[r], 0);
        }
        protocol->tick(q);
        protocol->end_step(q);
      }
    });

    // Phase 4 (serial): one-hop activity propagation into next step's
    // set, then the sender slots are cleared for the next step.
    for (const graph::NodeId q : active) {
      const auto a = protocol->consume_activity(q);
      if (a.state_changed) activity_.wake(q);
      if (!a.frame_changed) continue;
      for (const graph::NodeId r : g.neighbors(q)) activity_.wake(r);
    }
    for (const graph::NodeId p : senders_) sender_slot_[p] = kNoSlot;
    activity_.record(active.size(), n - active.size());
  }

  const graph::Graph* graph_;
  Protocol* protocol_;
  LossModel* loss_;
  std::vector<std::size_t> bounds_;
  std::vector<Shard> shards_;
  std::size_t steps_ = 0;
  std::uint64_t messages_delivered_ = 0;
  Stepping stepping_ = Stepping::kFull;
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
  std::uint64_t sweeps_skipped_ = 0;
  std::uint64_t rows_reused_ = 0;
  std::uint64_t shards_skipped_ = 0;
  bool prev_rows_built_ = false;
  bool row_hints_valid_ = false;
  // Dirty stepping: the stepped/skipped counters (both steppers) and
  // the active set; the compact arena, one row per sender slot; the
  // senders in slot order (global ids); and each node's slot, kNoSlot
  // outside a step's sender set.
  ActivityTracker activity_;
  Shard dirty_rows_;
  std::vector<graph::NodeId> senders_;
  std::vector<std::size_t> sender_slot_;
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
};

}  // namespace ssmwn::sim
