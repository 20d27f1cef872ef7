#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "data/workload.h"

namespace humo::data {

/// Deterministic synthesis of pairwise workloads with LATENT ENTITY
/// structure — clusters of 1..max_entity_size records per real-world
/// entity, connected by intra-entity match pairs and confounded by
/// cross-entity non-match pairs. Every existing generator emits degree-1
/// records (each record appears in exactly one pair), which makes every
/// cluster trivially a pair; this one is what the entity layer's
/// clustering and set-based metrics are exercised against.
///
/// The realization is a pure function of the config: entity sizes come
/// from Rng::Stream(seed, entity * 4), edges from
/// Rng::Stream(seed, entity * 4 + 2), and per-entity pair counts are
/// deterministic in the sizes alone — so generation parallelizes over
/// entities into disjoint column slots and is bit-identical at any thread
/// count.
struct EntityGraphConfig {
  size_t num_entities = 10'000;
  /// Entity sizes are uniform in [min_entity_size, max_entity_size].
  size_t min_entity_size = 1;
  size_t max_entity_size = 6;
  /// Extra random intra-entity match pairs per entity, as a fraction of the
  /// entity size, on top of the spanning path that keeps it connected.
  double extra_intra_fraction = 0.5;
  /// Cross-entity candidate pairs per record (Bresenham-rounded so the
  /// aggregate count is exact). At least one per record, so every record —
  /// singletons included — is mentioned by the workload.
  double cross_pairs_per_record = 1.5;
  /// Similarity supports for ground-truth matches / non-matches. The
  /// default ranges overlap, as post-blocking similarity distributions do.
  double match_sim_lo = 0.55;
  double match_sim_hi = 1.0;
  double nonmatch_sim_lo = 0.05;
  double nonmatch_sim_hi = 0.65;
  uint64_t seed = 20260808;
  /// All records live in ONE table (dedup-style workload): cluster it with
  /// entity::ClusteringOptions{source, source}.
  uint32_t source = 0;
};

struct EntityGraph {
  /// Sorted pairwise workload. Ground-truth pair labels are derived from
  /// the latent partition (label = both endpoints share an entity), so the
  /// truth is transitively consistent by construction.
  Workload workload;
  /// Latent entity per record id — record r belongs to entity_of_record[r].
  /// Entity numbering here is generation order, NOT the canonical numbering
  /// EntityClustering assigns; compare partitions, not ids.
  std::vector<uint32_t> entity_of_record;
  size_t num_records = 0;
  size_t num_entities = 0;
};

EntityGraph GenerateEntityGraph(const EntityGraphConfig& config);

/// Pair count the config will realize, without generating (exact).
size_t EntityGraphPairCount(const EntityGraphConfig& config);

/// Scales `num_entities` of a default config so the realized workload has
/// at least `target_pairs` pairs (the 1M-pair bench preset path).
EntityGraphConfig EntityGraphConfigForPairs(size_t target_pairs,
                                            uint64_t seed = 20260808);

/// Ground-truth labels with a `flip_fraction` of independent per-pair flips
/// (Rng::Stream(seed, pair index) — deterministic, order-independent).
/// Flipping breaks transitive consistency: a flipped non-match can merge two
/// entities, and a flipped match splits one only where no other match edge
/// connects it.
std::vector<int> NoisyLabels(const Workload& workload, double flip_fraction,
                             uint64_t seed);

}  // namespace humo::data
