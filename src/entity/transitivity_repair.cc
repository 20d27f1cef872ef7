#include "entity/transitivity_repair.h"

#include <cassert>
#include <cstdint>
#include <map>
#include <numeric>
#include <utility>

#include "common/random.h"
#include "common/thread_pool.h"

namespace humo::entity {
namespace {

/// Local-search sweeps per conflict component before giving up on further
/// improvement (each sweep visits every component record once).
constexpr size_t kMaxSweeps = 8;
/// Seed of the per-component Rng::Stream that randomizes the sweep visit
/// order. A fixed seed gives a deterministic, thread-count-invariant repair.
constexpr uint64_t kRepairSeed = 0x5EEDC0DEULL;

/// One observed edge inside a conflict component, in component-local record
/// indices (positions within the component's member list).
struct LocalEdge {
  uint32_t a = 0;
  uint32_t b = 0;
  uint8_t match = 0;
};

struct ComponentOutcome {
  /// Sub-cluster id per local record (dense, but not canonical — the final
  /// clustering pass canonicalizes globally).
  std::vector<uint32_t> assignment;
  size_t moves = 0;
  size_t sweeps = 0;
};

/// Correlation-clustering local search over one conflict component. Starts
/// from the single-cluster state (the component itself, i.e. the pre-repair
/// clustering restricted to it) and only ever applies strictly improving
/// single-record moves, so the component's disagreement count is
/// non-increasing by construction. Deterministic: the visit order comes
/// from the caller-provided stream, candidate clusters are scanned in
/// ascending id order, and ties keep the current assignment.
ComponentOutcome SolveComponent(size_t num_nodes,
                                const std::vector<LocalEdge>& edges, Rng rng) {
  ComponentOutcome out;
  out.assignment.assign(num_nodes, 0);
  if (num_nodes == 0) return out;

  // Adjacency (duplicate edges kept: each one contributes to the objective).
  std::vector<std::vector<std::pair<uint32_t, uint8_t>>> adj(num_nodes);
  for (const LocalEdge& e : edges) {
    adj[e.a].emplace_back(e.b, e.match);
    adj[e.b].emplace_back(e.a, e.match);
  }

  uint32_t next_cluster = 1;
  std::vector<uint32_t> order(num_nodes);
  std::iota(order.begin(), order.end(), 0);

  for (size_t sweep = 0; sweep < kMaxSweeps; ++sweep) {
    ++out.sweeps;
    rng.Shuffle(&order);
    bool improved = false;
    for (const uint32_t r : order) {
      if (adj[r].empty()) continue;
      // Per-neighbor-cluster match / non-match edge counts. An ordered map
      // keeps candidate iteration deterministic; components are small, so
      // the log factor is irrelevant.
      std::map<uint32_t, std::pair<uint32_t, uint32_t>> by_cluster;
      uint32_t total_match = 0;
      for (const auto& [nbr, match] : adj[r]) {
        auto& [pos, neg] = by_cluster[out.assignment[nbr]];
        if (match) {
          ++pos;
          ++total_match;
        } else {
          ++neg;
        }
      }
      // Cost of r sitting in cluster c: match edges leaving c plus
      // non-match edges inside c.
      const auto cost_in = [&](uint32_t c) -> uint32_t {
        const auto it = by_cluster.find(c);
        const uint32_t pos = it == by_cluster.end() ? 0 : it->second.first;
        const uint32_t neg = it == by_cluster.end() ? 0 : it->second.second;
        return (total_match - pos) + neg;
      };
      const uint32_t current = out.assignment[r];
      const uint32_t current_cost = cost_in(current);
      uint32_t best = current;
      uint32_t best_cost = current_cost;
      for (const auto& [cid, counts] : by_cluster) {
        (void)counts;
        const uint32_t cost = cost_in(cid);
        if (cost < best_cost) {
          best = cid;
          best_cost = cost;
        }
      }
      // Splitting off as a fresh singleton costs every match edge.
      if (total_match < best_cost) {
        best = next_cluster;
        best_cost = total_match;
      }
      if (best != current && best_cost < current_cost) {
        if (best == next_cluster) ++next_cluster;
        out.assignment[r] = best;
        ++out.moves;
        improved = true;
      }
    }
    if (!improved) break;
  }
  return out;
}

}  // namespace

size_t CountDisagreements(const data::Workload& workload,
                          const std::vector<int>& labels,
                          const EntityClustering& clustering,
                          const ClusteringOptions& options) {
  const size_t n = workload.size();
  assert(labels.size() == n);
  const uint32_t* left = workload.left_id_data();
  const uint32_t* right = workload.right_id_data();
  size_t disagreements = 0;
  for (size_t i = 0; i < n; ++i) {
    const auto ea = clustering.EntityOf({options.left_source, left[i]});
    const auto eb = clustering.EntityOf({options.right_source, right[i]});
    if (!ea.has_value() || !eb.has_value()) continue;
    const bool same = *ea == *eb;
    if ((labels[i] == 1) != same) ++disagreements;
  }
  return disagreements;
}

RepairResult RepairTransitivity(const data::Workload& workload,
                                const std::vector<int>& labels,
                                const ClusteringOptions& cluster_options) {
  const size_t n = workload.size();
  assert(labels.size() == n);
  RepairResult out;
  out.labels = labels;

  // One record universe serves the initial and the repaired clustering.
  const RecordUniverse universe = IndexRecords(workload, cluster_options);
  const EntityClustering initial =
      EntityClustering::FromUniverse(universe, labels);
  const size_t num_entities = initial.num_entities();
  const std::vector<uint32_t>& left_idx = universe.left;
  const std::vector<uint32_t>& right_idx = universe.right;
  const std::vector<uint32_t>& entity_of = initial.entity_of_record();

  // Pass 1: count pre-repair disagreements and mark conflict entities.
  // Match edges never cross components by construction, so the only
  // disagreements here are negative intra edges (self-pairs included).
  std::vector<uint8_t> conflict(num_entities, 0);
  for (size_t i = 0; i < n; ++i) {
    if (left_idx[i] == right_idx[i]) {
      if (out.labels[i] != 1) {
        ++out.stats.disagreements_before;
        ++out.stats.self_conflicts;
      }
      continue;
    }
    const uint32_t ea = entity_of[left_idx[i]];
    const uint32_t eb = entity_of[right_idx[i]];
    if (ea == eb && out.labels[i] != 1) {
      ++out.stats.disagreements_before;
      conflict[ea] = 1;
    }
  }

  // Conflict components, ascending entity id — the canonical order both the
  // per-component streams and the serial fold below key off.
  std::vector<uint32_t> component_entity;
  std::vector<uint32_t> component_of_entity(num_entities, UINT32_MAX);
  for (uint32_t e = 0; e < num_entities; ++e) {
    if (conflict[e]) {
      component_of_entity[e] = static_cast<uint32_t>(component_entity.size());
      component_entity.push_back(e);
    }
  }
  out.stats.conflict_components = component_entity.size();

  if (!component_entity.empty()) {
    // Component-local record numbering: position within the entity's
    // ascending member order, derivable from one ascending record scan.
    std::vector<uint32_t> local_of(initial.num_records(), 0);
    std::vector<uint32_t> entity_fill(num_entities, 0);
    for (size_t r = 0; r < initial.num_records(); ++r) {
      local_of[r] = entity_fill[entity_of[r]]++;
    }

    // Distribute the intra edges of conflict entities onto their components.
    std::vector<std::vector<LocalEdge>> component_edges(
        component_entity.size());
    for (size_t i = 0; i < n; ++i) {
      if (left_idx[i] == right_idx[i]) continue;
      const uint32_t ea = entity_of[left_idx[i]];
      if (ea != entity_of[right_idx[i]]) continue;
      const uint32_t c = component_of_entity[ea];
      if (c == UINT32_MAX) continue;
      component_edges[c].push_back({local_of[left_idx[i]],
                                    local_of[right_idx[i]],
                                    static_cast<uint8_t>(out.labels[i] == 1)});
    }

    // Independent local searches, fanned out over the pool. Each outcome is
    // a pure function of (component edges, Rng::Stream(seed, c)), and lands
    // in its own index-addressed slot — bit-identical at any thread count.
    std::vector<ComponentOutcome> outcomes(component_entity.size());
    ThreadPool::Global()->ParallelFor(
        component_entity.size(), 1, [&](size_t b, size_t e) {
          for (size_t c = b; c < e; ++c) {
            outcomes[c] = SolveComponent(
                initial.EntitySize(component_entity[c]), component_edges[c],
                Rng::Stream(kRepairSeed, c));
          }
        });
    for (const ComponentOutcome& o : outcomes) {
      out.stats.moves_applied += o.moves;
      out.stats.sweeps_run += o.sweeps;
    }

    // Rewrite labels of pairs inside conflict components: match iff the two
    // records share a sub-cluster now. Everything else keeps its component
    // relation (same component = match), which the pre-repair labels already
    // agree with except for the counted self-pairs.
    for (size_t i = 0; i < n; ++i) {
      if (left_idx[i] == right_idx[i]) {
        out.labels[i] = 1;  // a record always matches itself
        continue;
      }
      const uint32_t ea = entity_of[left_idx[i]];
      const uint32_t eb = entity_of[right_idx[i]];
      if (ea != eb) {
        out.labels[i] = 0;
        continue;
      }
      const uint32_t c = component_of_entity[ea];
      if (c == UINT32_MAX) {
        out.labels[i] = 1;
        continue;
      }
      const std::vector<uint32_t>& assign = outcomes[c].assignment;
      out.labels[i] =
          assign[local_of[left_idx[i]]] == assign[local_of[right_idx[i]]] ? 1
                                                                          : 0;
    }
  } else {
    // No repairable conflicts; still normalize self-pairs to match.
    for (size_t i = 0; i < n; ++i) {
      if (left_idx[i] == right_idx[i]) out.labels[i] = 1;
    }
  }

  out.clustering = EntityClustering::FromUniverse(universe, out.labels);
  out.stats.disagreements_after =
      CountDisagreements(workload, labels, out.clustering, cluster_options);
  return out;
}

}  // namespace humo::entity
