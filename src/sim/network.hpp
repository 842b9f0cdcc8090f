// Synchronous-step network runtime — the lockstep instance of the
// Scheduler seam (sim/scheduler.hpp; the event-driven instance is
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
// The Protocol type supplies the node behavior:
//
//   struct Protocol {
//     using Frame = ...;                       // broadcast payload
//     Frame make_frame(graph::NodeId sender);  // read-only snapshot
//     void deliver(graph::NodeId receiver, const Frame& frame);
//     void tick(graph::NodeId node);           // run guarded rules
//     void end_step(graph::NodeId node);       // cache aging etc. (optional hook)
//   };
//
// Protocols may additionally implement the *arena* extension (see
// ArenaProtocol below): fixed-size frame headers plus variable-length
// digest lists written into flat, engine-owned buffers keyed by per-step
// CSR-style offsets. The engine then reuses those buffers across steps,
// so a steady-state step performs zero heap allocations, and all four
// phases (build, deliver, tick, end-step) run data-parallel on a worker
// pool. Every phase writes only the state of the node it is indexed by
// and each node's inputs are fixed before the phase starts, so results
// are bit-identical for any thread count (asserted by the sim tests);
// stateful loss models are always polled serially in sender-major order
// to keep their RNG draw sequence identical to the classic engine.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "graph/graph.hpp"
#include "sim/activity.hpp"
#include "sim/loss.hpp"
#include "sim/parallel.hpp"
#include "sim/scheduler.hpp"

namespace ssmwn::sim {

// This class is the *synchronous* instance of the Scheduler seam
// (sim/scheduler.hpp); the event-driven instance is sim::AsyncNetwork.
// The ArenaProtocol concept it detects lives in scheduler.hpp, shared
// with the async engine.

namespace detail {

/// Reusable flat frame storage; empty for protocols without the arena
/// extension (the legacy engine keeps a vector of owning frames instead).
template <typename Protocol, bool = ArenaProtocol<Protocol>>
struct ArenaStorage {};

template <typename Protocol>
struct ArenaStorage<Protocol, true> {
  std::vector<typename Protocol::FrameHeader> headers;  // one per node
  std::vector<typename Protocol::Digest> pool;          // all digests, flat
  std::vector<std::size_t> offsets;                     // n + 1 row offsets
};

/// Delta rows for the current step: for every sender graded
/// kRowDeltaApplicable, the digests whose bits moved since the previous
/// arena build (ascending id, CSR-indexed like the main pool). The
/// base_generation tag names the arena build the deltas were diffed
/// against — the wire-shape element a cross-process frame format would
/// carry — and is poisoned to kNoGeneration whenever the consumed-rows
/// induction breaks. Empty for protocols without the redelivery
/// extension.
template <typename Protocol, bool = RedeliveryProtocol<Protocol>>
struct DeltaStorage {};

template <typename Protocol>
struct DeltaStorage<Protocol, true> {
  std::vector<typename Protocol::Digest> pool;  // changed digests, flat
  std::vector<std::size_t> offsets;             // n + 1 row offsets
  std::vector<std::uint32_t> counts;            // per-sender changed count
  std::uint64_t base_generation = kNoGeneration;
};

}  // namespace detail

template <typename Protocol>
class Network {
 public:
  /// The graph reference is observed, not owned; it may be swapped between
  /// steps (mobility) via `set_graph`. `threads` is the step-engine
  /// parallelism (1 = fully inline, 0 = hardware concurrency).
  Network(const graph::Graph& g, Protocol& protocol, LossModel& loss,
          unsigned threads = 1)
      : graph_(&g), protocol_(&protocol), loss_(&loss) {
    set_threads(threads);
  }

  void set_graph(const graph::Graph& g) {
    graph_ = &g;
    // A wholesale graph swap (mobility rebuild mode) invalidates every
    // adjacency assumption the activity set encodes: wake everyone.
    if (stepping_ == Stepping::kDirty) {
      tracker_.reset(g.node_count(), /*all_active=*/true);
    }
    invalidate_row_hints();  // adjacency defines who consumed which row
  }

  /// Selects the stepper. Dirty-region stepping requires a protocol with
  /// both the arena and quiescence extensions and a loss model that
  /// always delivers (skipping a node is only provably a no-op when its
  /// inputs are deterministic; a lossy medium re-randomizes them — and
  /// skipped deliveries would desynchronize the loss model's RNG draw
  /// sequence from the full stepper's). Throws std::invalid_argument
  /// when those preconditions fail. Entering dirty mode arms the
  /// protocol's change detector and wakes every node; leaving it
  /// disarms the detector, restoring the classic byte-for-byte paths.
  void set_stepping(Stepping mode) {
    if (mode == stepping_) return;
    invalidate_row_hints();
    if constexpr (ArenaProtocol<Protocol> && QuiescentProtocol<Protocol>) {
      if (mode == Stepping::kDirty) {
        if (!loss_->always_delivers()) {
          throw std::invalid_argument(
              "dirty-region stepping requires a loss-free medium "
              "(loss model must report always_delivers)");
        }
        stepping_ = Stepping::kDirty;
        protocol_->set_activity_tracking(true);
        tracker_.reset(graph_->node_count(), /*all_active=*/true);
        tracker_.reset_counters();
        return;
      }
      stepping_ = Stepping::kFull;
      protocol_->set_activity_tracking(false);
      tracker_.reset(0, false);
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

  /// Activity counters (and, in dirty mode, the current step's work
  /// list): `activity().last_nodes_stepped() == 0` after a step is the
  /// quiescence property the tests assert.
  [[nodiscard]] const ActivityTracker& activity() const noexcept {
    return tracker_;
  }

  /// Seeds the activity set from outside knowledge — e.g.
  /// `graph::DynamicGraph::dirty_nodes()` after a live patch: wakes each
  /// listed node and its closed neighborhood (their next frames and
  /// heard frames may both have changed). No-op in full stepping.
  void mark_dirty(std::span<const graph::NodeId> nodes) {
    if (stepping_ != Stepping::kDirty) return;
    for (const graph::NodeId p : nodes) wake_closed(p);
  }

  /// Rebuilds the worker pool synchronously (joins the old workers,
  /// spawns the new ones); steps use the new size from the next call.
  /// 0 = hardware concurrency; absurd counts (e.g. an unsigned-cast -1)
  /// are clamped — more workers than cores can ever help is waste.
  /// `thread_count()` reports the effective size after clamping.
  void set_threads(unsigned threads) {
    if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
    threads = std::min(threads,
                       std::max(64u, 4u * std::thread::hardware_concurrency()));
    if (threads == thread_count()) return;
    pool_ = threads > 1 ? std::make_unique<ThreadPool>(threads) : nullptr;
  }

  [[nodiscard]] unsigned thread_count() const noexcept {
    return pool_ ? pool_->thread_count() : 1u;
  }

  /// Forces the pre-arena engine (per-step owning frames) even when the
  /// protocol supports the arena extension. Exists so benchmarks can
  /// compare against the seed behavior; never faster.
  void set_legacy_engine(bool on) noexcept {
    legacy_engine_ = on;
    invalidate_row_hints();
  }
  [[nodiscard]] bool legacy_engine() const noexcept { return legacy_engine_; }

  [[nodiscard]] std::size_t steps_run() const noexcept { return steps_; }

  /// Frame receptions that actually happened (post-loss) across all
  /// steps so far. Counted in the serial phases only, so the value is
  /// identical for any thread count and for the legacy vs arena engine.
  [[nodiscard]] std::uint64_t messages_delivered() const noexcept {
    return messages_delivered_;
  }

  /// Sender rows graded delta-applicable (id sequence held, a sparse
  /// subset of digest payloads changed) across all steps so far. Counted
  /// in the serial phase-1c prefix sum, so the value is identical for
  /// any thread count. Zero for protocols without the redelivery
  /// extension and under the legacy/dirty steppers.
  [[nodiscard]] std::uint64_t delta_rows_graded() const noexcept {
    return delta_rows_graded_;
  }

  /// Receivers whose whole delivery phase collapsed to one node-level
  /// redelivery (NodeRedeliveryProtocol) across all steps so far — in
  /// the steady regime, n per step. A sum of per-receiver decisions, so
  /// identical for any thread count. Zero for protocols without the
  /// extension and under the legacy/dirty steppers.
  [[nodiscard]] std::uint64_t node_redeliveries() const noexcept {
    return node_redeliveries_;
  }

  /// Notifies the runtime that the observed graph was just patched with
  /// `delta` (dynamic-topology runs; the owner mutates the graph via
  /// graph::DynamicGraph, then calls this). The engine itself holds no
  /// per-topology state — its next step simply walks the new CSR — but
  /// topology-aware protocols get told about every severed link so the
  /// stale neighbor caches die now rather than by aging. Call between
  /// steps.
  void apply_topology_delta(const graph::EdgeDelta& delta) {
    invalidate_row_hints();
    if constexpr (TopologyAwareProtocol<Protocol>) {
      for (const auto& [a, b] : delta.removed) {
        protocol_->on_edge_removed(a, b);
      }
    }
    // Dirty stepping: a patched edge changes the inputs of exactly the
    // closed neighborhoods of its endpoints — the endpoints see a
    // different adjacency row (and, for removals, a pruned cache), their
    // neighbors must hear the endpoints' changed frames this very step.
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
    if constexpr (ArenaProtocol<Protocol> && QuiescentProtocol<Protocol>) {
      if (stepping_ == Stepping::kDirty) {
        step_dirty();
        ++steps_;
        return;
      }
    }
    if constexpr (ArenaProtocol<Protocol>) {
      if (!legacy_engine_) {
        step_arena();
        tracker_.record(graph_->node_count(), 0);
        ++steps_;
        return;
      }
    }
    step_legacy();
    tracker_.record(graph_->node_count(), 0);
    ++steps_;
  }

  /// Runs `count` steps.
  void run(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) step();
  }

 private:
  /// Maps `body(node)` over [0, n), inline or across the pool. Phases
  /// must write only state owned by `node`.
  template <typename F>
  void for_nodes(std::size_t n, F&& body) {
    for_node_ranges(n, [&body](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) body(i);
    });
  }

  /// Maps `body(begin, end)` over chunks of [0, n) — one chunk inline,
  /// pool-sized chunks otherwise. For phases that fold a per-chunk tally.
  template <typename F>
  void for_node_ranges(std::size_t n, F&& body) {
    if (!pool_) {
      body(std::size_t{0}, n);
      return;
    }
    pool_->parallel_for(
        n, 0,
        [](void* ctx, std::size_t begin, std::size_t end) {
          (*static_cast<std::remove_reference_t<F>*>(ctx))(begin, end);
        },
        &body);
  }

  /// Forgets the previous step's frame rows. Called whenever the "every
  /// listener consumed exactly these rows" induction breaks: graph
  /// swaps or patches, stepping-mode or engine switches, or a stepper
  /// (legacy, dirty) that doesn't maintain the double buffer.
  void invalidate_row_hints() noexcept {
    prev_rows_built_ = false;
    row_hints_valid_ = false;
    if constexpr (RedeliveryProtocol<Protocol>) {
      delta_.base_generation = kNoGeneration;
    }
  }

  void step_legacy() {
    const graph::Graph& g = *graph_;
    const std::size_t n = g.node_count();
    invalidate_row_hints();  // owning-frame path, no row double buffer

    // Broadcast phase: snapshot every node's frame first (synchronous
    // semantics), then deliver.
    frames_.clear();
    frames_.reserve(n);
    for (graph::NodeId p = 0; p < n; ++p) {
      frames_.push_back(protocol_->make_frame(p));
    }
    for (graph::NodeId p = 0; p < n; ++p) {
      for (graph::NodeId q : g.neighbors(p)) {
        if (loss_->delivered(p, q)) {
          protocol_->deliver(q, frames_[p]);
          ++messages_delivered_;
        }
      }
    }

    // Compute phase: every node runs all of its enabled guarded rules.
    for (graph::NodeId p = 0; p < n; ++p) {
      protocol_->tick(p);
    }
    for (graph::NodeId p = 0; p < n; ++p) {
      protocol_->end_step(p);
    }
  }

  void step_arena() {
    const graph::Graph& g = *graph_;
    const std::size_t n = g.node_count();
    auto& arena = arena_;

    // Phase 0 (serial, O(n)): size the digest pool. Row p of the pool is
    // [offsets[p], offsets[p+1]), mirroring the CSR layout of the graph.
    arena.offsets.resize(n + 1);
    arena.offsets[0] = 0;
    for (std::size_t p = 0; p < n; ++p) {
      arena.offsets[p + 1] =
          arena.offsets[p] +
          protocol_->digest_count(static_cast<graph::NodeId>(p));
    }
    arena.pool.resize(arena.offsets[n]);
    arena.headers.resize(n);

    // Phase 1 (parallel by sender): snapshot all frames into the arena.
    auto* protocol = protocol_;
    for_nodes(n, [protocol, &arena](std::size_t p) {
      protocol->make_frame(
          static_cast<graph::NodeId>(p), arena.headers[p],
          std::span(arena.pool.data() + arena.offsets[p],
                    arena.offsets[p + 1] - arena.offsets[p]));
    });

    // Phase 1b (parallel by sender): grade each row against last
    // step's. One streaming pass over two sequential buffers here saves
    // a gathered per-edge compare in phase 3 — each row is compared
    // once instead of once per listener. Three grades, same bitwise
    // field equality contract as the protocol's own change detection:
    // kRowIdsEqual (the id sequence held; payloads may churn — the
    // common active regime), additionally kRowBitsEqual (the whole row,
    // header included, is bit-identical — the quiescent regime), or
    // additionally kRowDeltaApplicable (ids held and at most half the
    // digests moved — the late-recovery regime, worth delta-encoding).
    if constexpr (RedeliveryProtocol<Protocol>) {
      ++generation_;
      row_unchanged_.assign(n, 0);
      delta_.counts.assign(n, 0);
      delta_.base_generation = kNoGeneration;
      if (prev_rows_built_ && prev_arena_.headers.size() == n) {
        const auto& prev = prev_arena_;
        auto* unchanged = row_unchanged_.data();
        auto* counts = delta_.counts.data();
        for_nodes(n, [&arena, &prev, unchanged, counts](std::size_t p) {
          const std::size_t len = arena.offsets[p + 1] - arena.offsets[p];
          if (prev.offsets[p + 1] - prev.offsets[p] != len) return;
          const auto* a = arena.pool.data() + arena.offsets[p];
          const auto* b = prev.pool.data() + prev.offsets[p];
          const bool header_bits =
              Protocol::header_bits_equal(arena.headers[p], prev.headers[p]);
          // Once `changed` blows the delta threshold the row can only
          // grade kRowIdsEqual, so the (wider) payload compares stop;
          // the id compares must still cover the whole row — the
          // ids-equal gate is what makes redelivery sound. This keeps
          // heavy-churn rows (the active regime) near the old
          // first-mismatch early-exit cost.
          const std::size_t cap = len * kRowDeltaNumerator /
                                  kRowDeltaDenominator;
          std::size_t changed = 0;
          std::size_t k = 0;
          for (; k < len; ++k) {
            if (!Protocol::digest_id_equal(a[k], b[k])) return;
            changed += !Protocol::digest_bits_equal(a[k], b[k]);
            if (changed > cap) {
              ++k;
              break;
            }
          }
          for (; k < len; ++k) {
            if (!Protocol::digest_id_equal(a[k], b[k])) return;
          }
          unsigned char grade = kRowIdsEqual;
          if (header_bits && changed == 0) {
            grade |= kRowBitsEqual;
          } else if (changed * kRowDeltaDenominator <=
                     len * kRowDeltaNumerator) {
            grade |= kRowDeltaApplicable;
            counts[p] = static_cast<std::uint32_t>(changed);
          }
          unchanged[p] = grade;
        });

        // Phase 1c (serial, O(n)): CSR offsets for the delta rows; then
        // (parallel) extract the changed digests — a second compare
        // pass, but only over delta-graded rows, and shared by every
        // listener of each sender. The extracted rows are what a
        // delta-encoded wire frame would carry: base-generation tag,
        // full header, changed digests ascending by id.
        delta_.offsets.resize(n + 1);
        delta_.offsets[0] = 0;
        std::size_t delta_rows = 0;
        for (std::size_t p = 0; p < n; ++p) {
          delta_.offsets[p + 1] = delta_.offsets[p] + delta_.counts[p];
          delta_rows += (row_unchanged_[p] & kRowDeltaApplicable) != 0;
        }
        delta_rows_graded_ += delta_rows;
        // A row only grades delta-applicable when changed <= len/2, so
        // the pool can never exceed half the arena's digest count.
        // Reserving that bound up front pins the high-water mark at the
        // first delta build instead of letting the pool grow step by
        // step through a recovery window that must stay allocation-free.
        delta_.pool.reserve(arena.offsets[n] / 2);
        delta_.pool.resize(delta_.offsets[n]);
        delta_.base_generation = generation_ - 1;
        if (delta_.offsets[n] != 0) {
          auto& delta = delta_;
          for_nodes(n, [&arena, &prev, &delta, unchanged,
                        counts](std::size_t p) {
            if ((unchanged[p] & kRowDeltaApplicable) == 0 || counts[p] == 0) {
              return;
            }
            const auto* a = arena.pool.data() + arena.offsets[p];
            const auto* b = prev.pool.data() + prev.offsets[p];
            const std::size_t len = arena.offsets[p + 1] - arena.offsets[p];
            auto* out = delta.pool.data() + delta.offsets[p];
            for (std::size_t k = 0; k < len; ++k) {
              if (!Protocol::digest_bits_equal(a[k], b[k])) *out++ = a[k];
            }
          });
        }
      }
    }

    // Phase 2 (serial unless τ = 1): per-edge delivery decisions, polled
    // in the classic sender-major order so stateful loss models draw the
    // same RNG sequence as the legacy engine. The decision for p → q is
    // stored at q's incoming CSR slot via the mirror index.
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

    // Phase 3 (parallel by receiver): each node pulls the heard frames
    // from its sorted neighbor row — the same ascending-sender order the
    // legacy sender-major loops produce. Rows graded unchanged in phase
    // 1b (and heard by everyone last step — perfect medium) collapse to
    // the protocol's fast paths, attempted strongest first: bit-equal
    // rows to an age reset, delta-applicable rows to an in-place patch
    // of the changed digests (gated on the base-generation tag naming
    // the rows every listener consumed), rows with a held id sequence to
    // a straight payload overwrite. Every skip is bit-identical by
    // induction on the rows a receiver has consumed; the protocol
    // declines them all for receivers whose cache was externally mutated
    // since the last sweep, falling through to the next-fuller path.
    // A receiver whose every heard row is bit-equal is first offered
    // whole (NodeRedeliveryProtocol): when the protocol accepts, its
    // per-edge age resets and its end_step are skipped together.
    const bool hints = row_hints_valid_ && hear_all;
    bool deltas_ok = false;
    if constexpr (RedeliveryProtocol<Protocol>) {
      deltas_ok = hints && delta_.base_generation + 1 == generation_;
    }
    const auto deliver_row = [protocol, &arena, offsets, flat, hear_all,
                              hints, deltas_ok, this](std::size_t q) {
      for (std::size_t e = offsets[q]; e < offsets[q + 1]; ++e) {
        if (!hear_all && !incoming_[e]) continue;
        const graph::NodeId p = flat[e];
        if constexpr (RedeliveryProtocol<Protocol>) {
          if (hints && row_unchanged_[p]) {
            if ((row_unchanged_[p] & kRowBitsEqual) &&
                protocol->redeliver_unchanged(static_cast<graph::NodeId>(q),
                                              arena.headers[p])) {
              continue;
            }
            if ((row_unchanged_[p] & kRowDeltaApplicable) && deltas_ok &&
                protocol->deliver_delta(
                    static_cast<graph::NodeId>(q), arena.headers[p],
                    arena.offsets[p + 1] - arena.offsets[p],
                    std::span(delta_.pool.data() + delta_.offsets[p],
                              delta_.offsets[p + 1] - delta_.offsets[p]))) {
              continue;
            }
            if (protocol->deliver_payload(
                    static_cast<graph::NodeId>(q), arena.headers[p],
                    std::span(arena.pool.data() + arena.offsets[p],
                              arena.offsets[p + 1] - arena.offsets[p]))) {
              continue;
            }
          }
        }
        protocol->deliver(
            static_cast<graph::NodeId>(q), arena.headers[p],
            std::span(arena.pool.data() + arena.offsets[p],
                      arena.offsets[p + 1] - arena.offsets[p]));
      }
    };
    std::atomic<std::uint64_t> node_redeliveries{0};
    for_node_ranges(n, [&](std::size_t begin, std::size_t end) {
      std::uint64_t taken = 0;
      for (std::size_t q = begin; q < end; ++q) {
        if (hints && offer_node_redelivery(
                         *protocol, static_cast<graph::NodeId>(q),
                         flat.subspan(offsets[q], offsets[q + 1] - offsets[q]),
                         row_unchanged_.data())) {
          ++taken;
          continue;
        }
        deliver_row(q);
      }
      node_redeliveries.fetch_add(taken, std::memory_order_relaxed);
    });
    node_redeliveries_ += node_redeliveries.load(std::memory_order_relaxed);

    // Phase 4 + 5 (parallel): guarded rules, then cache aging.
    for_nodes(n, [protocol](std::size_t p) {
      protocol->tick(static_cast<graph::NodeId>(p));
    });
    for_nodes(n, [protocol](std::size_t p) {
      protocol->end_step(static_cast<graph::NodeId>(p));
    });

    // This step's rows become the redelivery reference: buffers swap
    // (pointer swap, no copy), and hints arm only when this sweep
    // actually put the rows in every listener's cache (loss-free
    // medium). Anything that breaks that guarantee — graph changes,
    // engine or stepping switches — calls invalidate_row_hints().
    if constexpr (RedeliveryProtocol<Protocol>) {
      std::swap(arena_, prev_arena_);
      prev_rows_built_ = true;
      row_hints_valid_ = hear_all;
    }
  }

  /// Wakes `p` and its (current-graph) neighbors for the next step.
  void wake_closed(graph::NodeId p) {
    tracker_.wake(p);
    for (const graph::NodeId r : graph_->neighbors(p)) tracker_.wake(r);
  }

  /// The quiescence-aware step: only active nodes (those whose closed
  /// neighborhood changed last step) receive, tick and age; everyone
  /// else is left untouched — which is bit-identical to full stepping
  /// because a skipped node is at a boundary-state fixpoint with
  /// unchanged inputs (see docs/ARCHITECTURE.md §7 for the induction).
  /// Active receivers hear *all* their neighbors — quiescent senders'
  /// frames are built on demand (make_frame is const) — so cache ages
  /// and contents evolve exactly as under the full stepper.
  void step_dirty() {
    const graph::Graph& g = *graph_;
    const std::size_t n = g.node_count();
    auto& arena = arena_;
    auto* protocol = protocol_;
    invalidate_row_hints();  // compact pools clobber the row buffers

    // Nodes mutated outside the step loop (fault injection, severed
    // links) wake their closed neighborhood: under full stepping their
    // neighbors would hear the mutated frame this very step.
    for (const graph::NodeId p : protocol_->take_external_wakes()) {
      wake_closed(p);
    }

    tracker_.begin_step();
    const std::span<const graph::NodeId> active = tracker_.active();
    if (active.empty()) {
      tracker_.record(0, n);
      return;
    }

    // Phase 0 (serial): the sender set — every neighbor of an active
    // node broadcasts (quiescent senders included; their frames are
    // pure reads). Row i of the compact pool belongs to sender_list_[i].
    sender_mark_.assign(n, 0);
    sender_slot_.resize(n);
    sender_list_.clear();
    for (const graph::NodeId q : active) {
      messages_delivered_ += g.degree(q);
      for (const graph::NodeId r : g.neighbors(q)) {
        if (!sender_mark_[r]) {
          sender_mark_[r] = 1;
          sender_slot_[r] = sender_list_.size();
          sender_list_.push_back(r);
        }
      }
    }
    const std::size_t senders = sender_list_.size();
    dirty_offsets_.resize(senders + 1);
    dirty_offsets_[0] = 0;
    for (std::size_t i = 0; i < senders; ++i) {
      dirty_offsets_[i + 1] =
          dirty_offsets_[i] + protocol_->digest_count(sender_list_[i]);
    }
    arena.pool.resize(dirty_offsets_[senders]);
    arena.headers.resize(senders);

    // Phase 1 (parallel by sender): snapshot the needed frames.
    for_nodes(senders, [protocol, &arena, this](std::size_t i) {
      protocol->make_frame(
          sender_list_[i], arena.headers[i],
          std::span(arena.pool.data() + dirty_offsets_[i],
                    dirty_offsets_[i + 1] - dirty_offsets_[i]));
    });

    // Phase 2 (parallel by active receiver): every active node pulls
    // every neighbor's frame, ascending-sender order as always.
    for_nodes(active.size(), [protocol, &arena, active, &g,
                              this](std::size_t i) {
      const graph::NodeId q = active[i];
      for (const graph::NodeId r : g.neighbors(q)) {
        const std::size_t slot = sender_slot_[r];
        protocol->deliver(
            q, arena.headers[slot],
            std::span(arena.pool.data() + dirty_offsets_[slot],
                      dirty_offsets_[slot + 1] - dirty_offsets_[slot]));
      }
    });

    // Phases 3 + 4 (parallel by active node): guarded rules, cache aging.
    for_nodes(active.size(), [protocol, active](std::size_t i) {
      protocol->tick(active[i]);
    });
    for_nodes(active.size(), [protocol, active](std::size_t i) {
      protocol->end_step(active[i]);
    });

    // Phase 5 (serial): one-hop activity propagation. A node whose own
    // state moved steps again; a node whose *frame-visible* state moved
    // additionally wakes its neighbors — knowledge travels one hop per
    // step, so one hop of wake-up is exactly enough.
    for (const graph::NodeId q : active) {
      const auto a = protocol_->consume_activity(q);
      if (a.state_changed) tracker_.wake(q);
      if (a.frame_changed) {
        for (const graph::NodeId r : g.neighbors(q)) tracker_.wake(r);
      }
    }
    tracker_.record(active.size(), n - active.size());
  }

  const graph::Graph* graph_;
  Protocol* protocol_;
  LossModel* loss_;
  std::size_t steps_ = 0;
  std::uint64_t messages_delivered_ = 0;
  bool legacy_engine_ = false;
  Stepping stepping_ = Stepping::kFull;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<typename Protocol::Frame> frames_;       // legacy engine
  detail::ArenaStorage<Protocol> arena_;               // arena engine
  detail::ArenaStorage<Protocol> prev_arena_;          // last step's rows
  std::vector<unsigned char> incoming_;                // per-edge decisions
  std::vector<unsigned char> row_unchanged_;           // per-sender hint bits
  detail::DeltaStorage<Protocol> delta_;               // this step's delta rows
  std::uint64_t generation_ = 0;       // arena builds since construction
  std::uint64_t delta_rows_graded_ = 0;
  std::uint64_t node_redeliveries_ = 0;
  bool prev_rows_built_ = false;   // prev_arena_ holds last step's rows
  bool row_hints_valid_ = false;   // ...and last step delivered them all
  ActivityTracker tracker_;                            // dirty stepping
  std::vector<std::uint8_t> sender_mark_;
  std::vector<std::size_t> sender_slot_;
  std::vector<graph::NodeId> sender_list_;
  std::vector<std::size_t> dirty_offsets_;
};

}  // namespace ssmwn::sim
