// Incremental unit-disk topology: edge deltas instead of graph rebuilds.
//
// The paper's headline property is re-convergence after topology
// *change*; this module makes change itself a first-class, cheap
// operation. `IncrementalUdg` is a persistent spatial index over the
// node positions that, given the positions after a mobility tick, emits
// the exact `graph::EdgeDelta` between the previous and the new
// unit-disk graph — the edge set is provably identical to what a fresh
// `unit_disk_graph` rebuild over the new positions would produce
// (asserted tick-for-tick by tests/topology/incremental_delta_test.cpp).
//
// The index is a Verlet/skin candidate list, the standard structure of
// molecular-dynamics neighbor maintenance: every unordered pair whose
// distance at *anchor* time was at most `radius * (1 + skin)` is a
// candidate, stored exactly once (in the row of whichever endpoint the
// half-stencil cell sweep discovered it from) with an `adjacent` flag
// (distance ≤ radius right now). As long as no node
// has strayed more than `radius * skin / 2` from its anchor, the
// candidate set still covers every pair that can possibly be within
// `radius`, so one flat, allocation-free scan of the candidate rows —
// compare squared distance against radius², emit a delta entry on every
// flag flip — is a complete update. When some node exceeds the safety
// margin the candidates are rebuilt from a fresh uniform cell grid
// (cells of side `radius * (1 + skin)`, counting-sorted, 3×3 scan — the
// same bucketing `unit_disk_graph` uses) and the delta comes from a
// merge-diff of the old and new flagged rows. Rapid rebuilds grow the
// skin geometrically (bounded), trading per-tick scan width for rebuild
// frequency, so vehicular speeds degrade gracefully instead of
// thrashing. Everything is a pure function of the position history —
// no randomness, no pointers — so deltas are deterministic and
// identical on every platform and thread count.
//
// `LiveTopology` layers node churn on top: it maintains the geometric
// graph and, when an alive mask is in play, the *effective* graph
// (edges with both endpoints up), composing the geometric delta with
// mask transitions into a single per-tick delta over the effective
// graph — the delta stream the live engines consume.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/dynamic.hpp"
#include "graph/graph.hpp"
#include "topology/point.hpp"

namespace ssmwn::topology {

class IncrementalUdg {
 public:
  struct Config {
    /// Candidate horizon = radius * (1 + skin_fraction).
    double skin_fraction = 0.5;
    /// Adaptive growth cap (see class comment).
    double max_skin_fraction = 2.0;
  };

  /// Indexes the initial positions. `radius` must be positive.
  IncrementalUdg(std::span<const Point> points, double radius, Config config);
  IncrementalUdg(std::span<const Point> points, double radius)
      : IncrementalUdg(points, radius, Config{}) {}

  /// The unit-disk graph of the current positions, materialized.
  [[nodiscard]] graph::Graph current_graph() const;

  /// Moves every node to `new_points` (same node count) and returns the
  /// exact edge delta between the previous and the new unit-disk graph,
  /// sorted and disjoint. The reference is valid until the next call.
  const graph::EdgeDelta& update(std::span<const Point> new_points);

  [[nodiscard]] std::size_t node_count() const noexcept {
    return positions_.size();
  }
  [[nodiscard]] double radius() const noexcept { return radius_; }
  /// Candidate rebuilds performed so far (observability; the bench
  /// reports it next to throughput).
  [[nodiscard]] std::uint64_t rebuilds() const noexcept { return rebuilds_; }
  [[nodiscard]] double skin_fraction() const noexcept {
    return config_.skin_fraction;
  }

 private:
  struct Candidate {
    graph::NodeId other = 0;
    std::uint8_t adjacent = 0;
  };

  /// Rebuilds the candidate rows from `positions_` (new anchors). Flags
  /// are recomputed from current distances.
  void build_candidates(std::vector<std::size_t>& offsets,
                        std::vector<Candidate>& rows);
  void scan_update();
  void rebuild_update();

  double radius_ = 0.0;
  double r2_ = 0.0;
  Config config_;
  double safety2_ = 0.0;  // (radius * skin / 2)², the scan-validity bound
  std::vector<Point> positions_;  // current
  std::vector<Point> anchors_;    // positions at last candidate build
  std::vector<std::size_t> cand_offsets_;  // n + 1; row p holds pairs (p, q>p)
  std::vector<Candidate> cand_;
  graph::EdgeDelta delta_;
  std::uint64_t rebuilds_ = 0;
  std::uint64_t updates_since_rebuild_ = 0;
  // Rebuild scratch, reused.
  std::vector<std::size_t> old_offsets_;
  std::vector<Candidate> old_cand_;
  std::vector<std::uint32_t> cell_start_;
  std::vector<graph::NodeId> by_cell_;
  std::vector<Point> sorted_pos_;           // positions in cell order
  std::vector<std::size_t> slack_offsets_;  // over-allocated row starts
  std::vector<std::size_t> row_size_;       // actual row sizes, by node
  std::vector<Candidate> fill_;             // over-allocated fill buffer
  std::vector<std::uint64_t> stamp_;        // rebuild diff marks, per node
  std::uint64_t stamp_base_ = 0;
};

/// The composed live topology the engines observe: geometry (mobility)
/// plus an optional alive mask (churn). `graph()` is stable in memory
/// across updates, so `sim::ShardedNetwork` / `sim::AsyncNetwork` can hold
/// the reference for the whole run.
class LiveTopology {
 public:
  /// `alive` enables masked mode (it must then always be passed to
  /// `update` too); empty means pure mobility.
  LiveTopology(std::span<const Point> points, double radius,
               std::span<const char> alive,
               IncrementalUdg::Config config);
  LiveTopology(std::span<const Point> points, double radius,
               std::span<const char> alive = {})
      : LiveTopology(points, radius, alive, IncrementalUdg::Config{}) {}

  /// The current effective graph (masked when churn is in play).
  [[nodiscard]] const graph::Graph& graph() const noexcept {
    return masked_ ? effective_.view() : geometric_.view();
  }

  /// Applies one tick: new positions and, in masked mode, the new alive
  /// mask. Returns the delta just applied to `graph()`.
  const graph::EdgeDelta& update(std::span<const Point> new_points,
                                 std::span<const char> alive = {});

  /// Nodes whose effective adjacency changed in the last update.
  [[nodiscard]] std::span<const graph::NodeId> dirty_nodes() const noexcept {
    return masked_ ? effective_.dirty_nodes() : geometric_.dirty_nodes();
  }

  [[nodiscard]] const IncrementalUdg& index() const noexcept { return udg_; }

 private:
  IncrementalUdg udg_;
  graph::DynamicGraph geometric_;
  bool masked_ = false;
  std::vector<char> alive_;
  graph::DynamicGraph effective_;
  graph::EdgeDelta effective_delta_;
};

}  // namespace ssmwn::topology
