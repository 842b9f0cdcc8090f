// Undirected graph substrate.
//
// The paper's model is a set V of nodes where N_p is the radio
// neighborhood of p (bidirectional links, p not in N_p). This module gives
// that model a concrete representation: nodes are dense indices 0..n-1 and
// adjacency is stored in CSR (compressed sparse row) form — one flat,
// cache-contiguous array of neighbor indices plus per-node offsets — so
// that the simulation hot path (`sim::ShardedNetwork::step` touching every
// directed edge every step) streams memory instead of chasing one heap
// allocation per node. Edges are staged in per-node vectors during
// construction; `finalize()` sorts them, packs the CSR arrays, and
// releases the staging memory. All higher layers (density metric,
// clustering, the radio simulator) consume the graph read-only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace ssmwn::graph {

/// Dense node index. Protocol identifiers (the paper's unique node Ids)
/// are kept separately (see `topology::IdAssignment`); the graph itself
/// only knows positions.
using NodeId = std::uint32_t;

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// One tick's worth of topology change: the edges that appeared and the
/// edges that vanished, each as (low, high) pairs in ascending
/// lexicographic order, with `added` and `removed` disjoint. This is the
/// currency of the dynamic-topology runtime: `topology::IncrementalUdg`
/// emits one per mobility tick, `DynamicGraph::apply_delta` patches the
/// CSR arrays with it, and both engines' `apply_topology_delta` /
/// `schedule_topology_update` use it to invalidate protocol state for
/// severed links.
struct EdgeDelta {
  std::vector<std::pair<NodeId, NodeId>> added;
  std::vector<std::pair<NodeId, NodeId>> removed;

  [[nodiscard]] bool empty() const noexcept {
    return added.empty() && removed.empty();
  }
  /// Keeps capacity, so a reused delta allocates nothing in steady state.
  void clear() noexcept {
    added.clear();
    removed.clear();
  }
};

/// Immutable-after-build undirected graph with sorted CSR adjacency.
class Graph {
 public:
  Graph() = default;
  explicit Graph(std::size_t node_count)
      : node_count_(node_count),
        staging_(node_count),
        offsets_(node_count + 1, 0) {}

  [[nodiscard]] std::size_t node_count() const noexcept { return node_count_; }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edge_count_; }

  /// Adds the undirected edge {a, b}. Self-loops and duplicates are
  /// rejected (the radio model never produces them). Queries reflect the
  /// state as of the last `finalize()`: edges staged since then are
  /// invisible to `neighbors()`/`degree()`/`adjacent()`/`edges()` until
  /// `finalize()` runs again (only `edge_count()` updates immediately).
  void add_edge(NodeId a, NodeId b);

  /// Sorts adjacency, packs the CSR arrays (including the mirror-edge
  /// index used by the parallel step engine), and frees the staging
  /// lists; must be called once after the last `add_edge` and before any
  /// query. Idempotent.
  void finalize();

  /// N_p: the 1-neighborhood of `node` (sorted, never contains `node`),
  /// as a view into the flat CSR neighbor array.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId node) const noexcept {
    return {flat_.data() + offsets_[node], offsets_[node + 1] - offsets_[node]};
  }

  [[nodiscard]] std::size_t degree(NodeId node) const noexcept {
    return offsets_[node + 1] - offsets_[node];
  }

  /// Maximum degree δ over all nodes (the paper's sparseness constant).
  [[nodiscard]] std::size_t max_degree() const noexcept;

  /// O(log deg) adjacency test on the sorted list.
  [[nodiscard]] bool adjacent(NodeId a, NodeId b) const noexcept;

  /// All edges as (low, high) pairs, each once.
  [[nodiscard]] std::vector<std::pair<NodeId, NodeId>> edges() const;

  // --- CSR access (engine hot paths) ----------------------------------

  /// Per-node offsets into `csr_neighbors()`; size `node_count() + 1`.
  /// `offsets[p]..offsets[p+1]` is p's directed out-edge range.
  [[nodiscard]] std::span<const std::size_t> csr_offsets() const noexcept {
    return offsets_;
  }

  /// Flat neighbor array; size `2 * edge_count()` (each undirected edge
  /// appears once per direction).
  [[nodiscard]] std::span<const NodeId> csr_neighbors() const noexcept {
    return flat_;
  }

  /// For the directed edge at CSR position `e` (some p → q), the CSR
  /// position of its mirror q → p. Lets per-receiver loops reuse
  /// decisions made in sender-major order without any searching. Built
  /// lazily on first use (only the lossy-delivery phase of the arena
  /// engine needs it); the first call must not race — the engine's only
  /// call site is its serial decision pass.
  [[nodiscard]] std::size_t mirror_edge(std::size_t e) const {
    if (mirror_.size() != flat_.size()) build_mirror();
    return mirror_[e];
  }

 private:
  void build_mirror() const;

  /// DynamicGraph patches offsets_/flat_ in place (live topology); it
  /// preserves every Graph invariant (sorted rows, edge_count_, cleared
  /// mirror) without routing each tick through staging + finalize().
  friend class DynamicGraph;

  std::size_t node_count_ = 0;
  std::size_t edge_count_ = 0;
  /// Build-time per-node edge lists; emptied by `finalize()`.
  std::vector<std::vector<NodeId>> staging_;
  std::vector<std::size_t> offsets_{0};  // CSR row offsets, n + 1 entries
  std::vector<NodeId> flat_;             // CSR neighbor array, 2|E| entries
  /// Reverse directed-edge index; lazily derived from the CSR arrays
  /// (hence mutable), sized `flat_.size()` once built.
  mutable std::vector<std::size_t> mirror_;
  bool finalized_ = true;  // an edgeless graph is trivially finalized
};

/// Builds a graph from an explicit edge list over `node_count` nodes.
/// Convenient for tests and the paper's worked example.
[[nodiscard]] Graph from_edges(
    std::size_t node_count,
    std::initializer_list<std::pair<NodeId, NodeId>> edges);

}  // namespace ssmwn::graph
