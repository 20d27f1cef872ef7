#pragma once

#include <cstddef>
#include <vector>

#include "data/workload.h"
#include "entity/entity_clustering.h"

namespace humo::entity {

struct RepairStats {
  /// Observed labels disagreeing with the pre-repair clustering (negative
  /// intra-cluster edges, incl. negative self-pairs).
  size_t disagreements_before = 0;
  /// Observed labels disagreeing with the repaired clustering. Never above
  /// disagreements_before: local search only applies strictly improving
  /// moves from the pre-repair state.
  size_t disagreements_after = 0;
  /// Connected components containing at least one repairable conflict.
  size_t conflict_components = 0;
  /// Record moves the local search applied across all components.
  size_t moves_applied = 0;
  /// Sweeps run, summed over components.
  size_t sweeps_run = 0;
  /// Negative self-pairs (a != a): permanently inconsistent — no clustering
  /// can satisfy them, so they stay counted in disagreements_after.
  size_t self_conflicts = 0;
};

struct RepairResult {
  /// Transitively consistent labels parallel to the workload: labels[i] = 1
  /// iff both endpoints of pair i share a repaired entity. Feeding these
  /// back through RepairTransitivity is a no-op (idempotence).
  std::vector<int> labels;
  /// Clustering of the repaired labels.
  EntityClustering clustering;
  RepairStats stats;
};

/// Repairs a pairwise labeling to transitive consistency by
/// correlation-clustering local search, resolving a=b and b=c and a!=c
/// conflicts with minimum-disagreement edits.
///
/// The match-edge connected components are the starting clusters. Every
/// component containing a negative intra edge runs an independent local
/// search: records move between sub-clusters (or split off as singletons)
/// whenever the move strictly reduces the number of observed edges whose
/// label disagrees with the sub-clustering, visiting records in a
/// per-component Rng::Stream order with deterministic tie-breaking (keep
/// the current cluster on ties, else the smallest improving cluster id).
/// Components are processed in parallel over the ThreadPool; each
/// component's result is a pure function of its edges and its stream, so
/// the repair is bit-identical at any thread count and invariant under
/// input pair permutation.
RepairResult RepairTransitivity(const data::Workload& workload,
                                const std::vector<int>& labels,
                                const ClusteringOptions& cluster_options = {});

/// Observed labels that disagree with `clustering`: pairs labeled match
/// whose endpoints sit in different entities, plus pairs labeled non-match
/// whose endpoints share one (negative self-pairs always disagree). The
/// objective RepairTransitivity minimizes.
size_t CountDisagreements(const data::Workload& workload,
                          const std::vector<int>& labels,
                          const EntityClustering& clustering,
                          const ClusteringOptions& options = {});

}  // namespace humo::entity
