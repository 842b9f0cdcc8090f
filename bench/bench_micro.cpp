// Kernel-level micro-benchmarks for the protocol's hot paths: the
// density computation, the branchless intersection kernels under the
// balanced and skewed shapes the density rule produces, the SoA compare
// scans the differential harness runs every step, and the per-step cost
// of incremental density maintenance against the full-recompute oracle.
// Self-contained timing (no external benchmark framework); emits
// BENCH_micro.json via bench_support::JsonReport so the numbers join
// the tracked baseline trajectory in bench/baselines/.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "core/density.hpp"
#include "core/protocol.hpp"
#include "core/rank.hpp"
#include "core/soa_state.hpp"
#include "sim/sharded_network.hpp"
#include "util/merge.hpp"
#include "util/rng.hpp"

namespace {

using namespace ssmwn;
using Clock = std::chrono::steady_clock;

/// Calibrated timing: runs `op` in growing batches until the measured
/// window exceeds ~40ms, then reports seconds per call. Deterministic
/// work only — `op` must not depend on how often it runs.
template <typename Op>
double seconds_per_call(Op&& op) {
  std::size_t reps = 1;
  for (;;) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < reps; ++i) op();
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (elapsed > 0.04) return elapsed / static_cast<double>(reps);
    reps *= 4;
  }
}

/// Sorted unique ascending keys with pseudo-random gaps.
std::vector<std::uint64_t> sorted_keys(std::size_t n, util::Rng& rng) {
  std::vector<std::uint64_t> keys(n);
  std::uint64_t v = 0;
  for (auto& k : keys) {
    v += 1 + rng.below(16);
    k = v;
  }
  return keys;
}

volatile std::size_t sink;  // keeps the optimizer honest

}  // namespace

int main() {
  bench::print_header(
      "Micro — hot-path kernels",
      "Density computation, branchless intersection kernels (balanced "
      "and skewed), the SoA divergence scans, and a full protocol step "
      "under incremental vs recompute density maintenance",
      1);

  util::Rng root(util::bench_seed());
  bench::JsonReport json("micro");
  util::Table table("Kernel throughput (higher is better)");
  table.header({"kernel", "shape", "rate"});

  // --- intersection kernels -------------------------------------------
  // Balanced (radio-degree lists) and skewed (a short delta against a
  // long cache) — the two shapes intersect_count dispatches between.
  {
    util::Rng rng = root.split();
    struct Shape {
      const char* name;
      std::size_t na, nb;
    };
    const Shape shapes[] = {{"8x8", 8, 8},
                            {"64x64", 64, 64},
                            {"8x1024", 8, 1024}};
    for (const auto& s : shapes) {
      const auto a = sorted_keys(s.na, rng);
      const auto b = sorted_keys(s.nb, rng);
      const double linear = seconds_per_call([&] {
        sink = util::intersect_count_linear(a.data(), a.size(), b.data(),
                                            b.size());
      });
      const double gallop = seconds_per_call([&] {
        sink = util::intersect_count_gallop(a.data(), a.size(), b.data(),
                                            b.size());
      });
      const double elems =
          static_cast<double>(s.na + s.nb);
      table.row({"intersect_linear", s.name,
                 util::Table::num(elems / linear / 1e6, 1) + " Melem/s"});
      table.row({"intersect_gallop", s.name,
                 util::Table::num(elems / gallop / 1e6, 1) + " Melem/s"});
      json.add(std::string("intersect/linear/") + s.name, s.na + s.nb, 1,
               "elem/s", elems / linear);
      json.add(std::string("intersect/gallop/") + s.name, s.na + s.nb, 1,
               "elem/s", elems / gallop);
    }
  }

  // --- first_mismatch_index -------------------------------------------
  // The block-scan primitive under the SoA column compares: an all-equal
  // prefix at memory bandwidth, divergence in the last block.
  {
    util::Rng rng = root.split();
    const std::size_t n = 1 << 20;
    auto a = sorted_keys(n, rng);
    auto b = a;
    b[n - 3] ^= 1;
    const double t = seconds_per_call(
        [&] { sink = util::first_mismatch_index(a.data(), b.data(), n); });
    table.row({"first_mismatch", "1M u64",
               util::Table::num(static_cast<double>(n) / t / 1e9, 2) +
                   " Gelem/s"});
    json.add("mismatch/u64", n, 1, "elem/s", static_cast<double>(n) / t);
  }

  // --- SoA divergence scans -------------------------------------------
  {
    util::Rng rng = root.split();
    const std::size_t n = 100000;
    core::NodeScalars a;
    a.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      a.dag_id[i] = rng();
      a.metric[i] = rng.uniform();
      a.head[i] = static_cast<topology::ProtocolId>(rng() % n);
      a.parent[i] = static_cast<topology::ProtocolId>(rng() % n);
      a.metric_valid[i] = 1;
      a.head_valid[i] = static_cast<std::uint8_t>(rng() % 2);
      a.parent_valid[i] = a.head_valid[i];
    }
    core::NodeScalars b = a;
    b.head[n - 5] ^= 1;
    const double t_first = seconds_per_call(
        [&] { sink = core::first_divergent_row(a, b); });
    const double t_count = seconds_per_call(
        [&] { sink = core::count_divergent_rows(a, b); });
    table.row({"soa_first_divergent", "100k rows",
               util::Table::num(static_cast<double>(n) / t_first / 1e6, 1) +
                   " Mrow/s"});
    table.row({"soa_count_divergent", "100k rows",
               util::Table::num(static_cast<double>(n) / t_count / 1e6, 1) +
                   " Mrow/s"});
    json.add("soa/first_divergent_row", n, 1, "row/s",
             static_cast<double>(n) / t_first);
    json.add("soa/count_divergent_rows", n, 1, "row/s",
             static_cast<double>(n) / t_count);
  }

  // --- rank election: packed keys vs field-by-field scan ---------------
  // The R2 election kernel at cache/neighborhood sizes. The scalar
  // baseline is the original three-field ≺ comparison chain; the packed
  // kernel is the branchless argmax over a prepacked key column — the
  // steady-state shape, where keys are maintained incrementally on
  // cache writes (docs/ARCHITECTURE.md §9).
  {
    // Independent stream: drawing root.split() here would shift every
    // later section's instances and orphan their tracked rate series.
    util::Rng rng(util::bench_seed() ^ 0x72616e6b);  // "rank"
    for (const std::size_t n : {std::size_t{16}, std::size_t{256},
                                std::size_t{4096}}) {
      std::vector<core::NodeRank> ranks(n);
      for (std::size_t i = 0; i < n; ++i) {
        // Coarse metric grid: ties are common, so the deeper fields of
        // the comparison chain actually execute in the scalar scan.
        ranks[i].metric = static_cast<double>(rng.index(64)) / 8.0;
        ranks[i].incumbent = rng.chance(0.1);
        ranks[i].tie_id = rng.below(1 << 20);
        ranks[i].uid = i;
      }
      const core::RankKeyColumn keys = core::pack_rank_column(ranks, true);
      const double scalar = seconds_per_call([&] {
        // Transliterated original comparison chain (incumbency on).
        std::size_t best = 0;
        for (std::size_t i = 1; i < n; ++i) {
          const core::NodeRank& p = ranks[best];
          const core::NodeRank& q = ranks[i];
          bool prec;
          if (p.metric != q.metric) {
            prec = p.metric < q.metric;
          } else if (p.incumbent != q.incumbent) {
            prec = q.incumbent;
          } else if (p.tie_id != q.tie_id) {
            prec = q.tie_id < p.tie_id;
          } else {
            prec = q.uid < p.uid;
          }
          if (prec) best = i;
        }
        sink = best;
      });
      const double packed = seconds_per_call(
          [&] { sink = core::max_rank_key_index(keys); });
      const std::string shape = std::to_string(n);
      table.row({"election_scalar", shape,
                 util::Table::num(static_cast<double>(n) / scalar / 1e6, 1) +
                     " Melem/s"});
      table.row({"election_packed", shape,
                 util::Table::num(static_cast<double>(n) / packed / 1e6, 1) +
                     " Melem/s"});
      json.add("rank/election_scalar/" + shape, n, 1, "elem/s",
               static_cast<double>(n) / scalar);
      json.add("rank/election_packed/" + shape, n, 1, "elem/s",
               static_cast<double>(n) / packed);
    }
  }

  // --- delta frames: encode + sparse patch vs full-row rewrite ---------
  // One sender row in the late-recovery regime: `len` digests, `changed`
  // of them moved since last step. Encode is the engine's per-row
  // extract pass; apply is the receiver's gallop patch; full_copy is
  // what deliver_payload does instead — the cost the delta path avoids
  // once per listener while encode is paid once per sender.
  {
    // Independent stream, same reason as the election section above.
    util::Rng rng(util::bench_seed() ^ 0x64656c7461);  // "delta"
    struct Shape {
      const char* name;
      std::size_t len, changed;
    };
    const Shape shapes[] = {{"8x2", 8, 2}, {"64x8", 64, 8},
                            {"256x16", 256, 16}};
    const auto digest_id = [](const core::NeighborDigest& d) { return d.id; };
    for (const auto& s : shapes) {
      std::vector<core::NeighborDigest> base(s.len);
      std::uint64_t id = 0;
      for (auto& d : base) {
        id += 1 + rng.below(8);
        d.id = id;
        d.dag_id = rng();
        d.metric = rng.uniform();
        d.metric_valid = true;
        d.is_head = rng.chance(0.1);
      }
      auto next = base;
      for (std::size_t k = 0; k < s.changed; ++k) {
        next[(k * s.len) / s.changed].dag_id ^= 0x9e3779b97f4a7c15ULL;
      }
      std::vector<core::NeighborDigest> delta(s.changed);
      const double encode = seconds_per_call([&] {
        std::size_t m = 0;
        for (std::size_t k = 0; k < s.len; ++k) {
          if (!core::digest_bits_equal(base[k], next[k])) delta[m++] = next[k];
        }
        sink = m;
      });
      auto dest = base;
      const double apply = seconds_per_call([&] {
        sink = util::patch_sorted(dest.data(), dest.size(), delta.data(),
                                  delta.size(), digest_id);
      });
      const double full = seconds_per_call([&] {
        std::copy(next.begin(), next.end(), dest.begin());
        sink = dest.size();
      });
      table.row({"delta_encode", s.name,
                 util::Table::num(1.0 / encode / 1e6, 1) + " Mrow/s"});
      table.row({"delta_apply", s.name,
                 util::Table::num(1.0 / apply / 1e6, 1) + " Mrow/s"});
      table.row({"full_copy", s.name,
                 util::Table::num(1.0 / full / 1e6, 1) + " Mrow/s"});
      json.add(std::string("delta/encode/") + s.name, s.len, 1, "row/s",
               1.0 / encode);
      json.add(std::string("delta/apply/") + s.name, s.len, 1, "row/s",
               1.0 / apply);
      json.add(std::string("delta/full_copy/") + s.name, s.len, 1, "row/s",
               1.0 / full);
    }
  }

  // --- density ---------------------------------------------------------
  {
    util::Rng rng = root.split();
    const auto inst = bench::poisson_instance(
        4000.0, std::sqrt(8.0 / (3.14159 * 4000.0)), rng);
    const std::size_t nodes = inst.graph.node_count();
    const double t = seconds_per_call([&] {
      const auto d = core::compute_densities(inst.graph);
      sink = d.size();
    });
    table.row({"compute_densities", "poisson 4k deg8",
               util::Table::num(static_cast<double>(nodes) / t / 1e6, 2) +
                   " Mnode/s"});
    json.add("density/compute", nodes, 1, "node/s",
             static_cast<double>(nodes) / t);
  }

  // --- protocol step: incremental vs recompute ------------------------
  // The tentpole's cost model in one number pair: identical worlds, one
  // protocol maintaining e(N_p) by delta, one recomputing per R1 firing.
  // Both are timed over steps 3..5 of a fresh world, repeated until the
  // window passes ~40ms: caches full, payloads still churning. Stepping
  // one world on would soon time held steps, which do no density work.
  {
    const util::Rng step_rng = root.split();
    for (const auto maintenance : {core::DensityMaintenance::kIncremental,
                                   core::DensityMaintenance::kRecompute}) {
      util::Rng rng = step_rng;  // identical world + protocol state
      const auto inst = bench::poisson_instance(
          4000.0, std::sqrt(8.0 / (3.14159 * 4000.0)), rng);
      core::ProtocolConfig config;
      config.cluster.use_dag_ids = true;
      config.cluster.fusion = true;
      config.delta_hint =
          std::max<std::uint64_t>(2, inst.graph.max_degree());
      config.density_maintenance = maintenance;
      const util::Rng protocol_rng = rng.split();
      double elapsed = 0.0;
      std::size_t steps = 0;
      while (elapsed <= 0.04) {
        auto protocol = core::DensityProtocol(inst.ids, config, protocol_rng);
        sim::PerfectDelivery loss;
        sim::ShardedNetwork network(inst.graph, protocol, loss, 1, 1);
        network.run(3);
        const auto start = Clock::now();
        network.run(3);
        elapsed +=
            std::chrono::duration<double>(Clock::now() - start).count();
        steps += 3;
      }
      const double t = elapsed / static_cast<double>(steps);
      const bool inc = maintenance == core::DensityMaintenance::kIncremental;
      table.row({inc ? "step_incremental" : "step_recompute",
                 "poisson 4k deg8",
                 util::Table::num(1.0 / t, 1) + " steps/s"});
      json.add(inc ? "step/incremental" : "step/recompute",
               inst.graph.node_count(), 1, "steps/s", 1.0 / t);
    }
  }

  bench::print(table);
  json.write();
  return 0;
}
