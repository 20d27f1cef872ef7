#pragma once

#include <cstdint>
#include <vector>

#include "data/perturbation.h"
#include "data/record.h"
#include "data/workload.h"

namespace humo::data {

/// Deterministic synthesis of MILLION-pair workloads — the Fig. 12
/// scalability regime. Two entry points:
///
///  * GenerateScaleWorkload: a DS-shaped candidate-pair workload of any
///    size, written straight into Workload columns (no AoS detour). Every
///    pair's (similarity, label) is a pure function of (config, index)
///    through Rng::Stream, so the realization is bit-identical at any
///    thread count and any scale can be regenerated from the config alone.
///
///  * GenerateScaleTables: a pair of record tables engineered for token
///    blocking. Records are organized in groups that share one blocking
///    token, so TokenBlock yields exactly
///    groups * left_per_group * right_per_group candidate pairs — the knob
///    that lets the record benches (bench_records_scale, humo-e2e's
///    records-1m) size the blocking stage with a predictable candidate
///    count.
struct ScaleWorkloadConfig {
  size_t num_pairs = 1'000'000;
  /// Fraction of pairs that are ground-truth matches (DS sits at ~5%).
  double match_fraction = 0.05;
  /// Similarity support [lo, hi] — the post-blocking range.
  double lo = 0.2;
  double hi = 1.0;
  uint64_t seed = 20260728;
};

/// Draws the configured workload (sorted, SoA). Parallel over the thread
/// pool with one Rng::Stream per pair.
Workload GenerateScaleWorkload(const ScaleWorkloadConfig& config);

/// The same realization as unsorted columns — the zero-copy handoff the
/// scale pipeline actually uses (generators write columns, the Workload
/// radix-sorts them in place).
struct ScaleColumns {
  std::vector<uint32_t> left_ids, right_ids;
  std::vector<double> similarities;
  std::vector<uint8_t> labels;
};
ScaleColumns GenerateScaleColumns(const ScaleWorkloadConfig& config);

/// The half-open pair range [begin, end) of the SAME realization as
/// GenerateScaleColumns — bit-identical to slicing the full output, because
/// every pair is its own Rng::Stream(seed, i). The out-of-core writer uses
/// this to stream 10M+ pair workloads to disk chunk by chunk without ever
/// holding the full columns in RAM.
ScaleColumns GenerateScaleColumnsRange(const ScaleWorkloadConfig& config,
                                       size_t begin, size_t end);

struct ScaleTablesConfig {
  /// Blocking groups; every record in group g carries token "gN" in its
  /// blocking attribute, so TokenBlock emits the full cross product within
  /// each group and nothing across groups.
  size_t groups = 1024;
  size_t left_per_group = 8;
  size_t right_per_group = 8;
  /// Fraction of (left, right) in-group record pairs that refer to the same
  /// entity. Matching records share a perturbed name, so a token/name
  /// scorer separates them from in-group non-matches.
  double match_fraction = 0.05;
  uint64_t seed = 777;
  /// When true, a matched right record's name is derived from its left
  /// partner's name through the PerturbString model below (typos, token
  /// drops, abbreviations, swaps) instead of the legacy "append one extra
  /// pseudo word" — realistic dirty duplicates for blocking-recall studies.
  /// Default false keeps the legacy realization, which
  /// ScaleGeneratorTest.PerturbedTablesDeterministicAndDistinctFromLegacy
  /// compares against. Deterministic either way (the same per-record
  /// Rng::Stream drives the perturbation draws).
  bool perturb_names = false;
  PerturbationOptions perturbation = LightPerturbation();
};

/// Schema: {block_key, name}. Candidate pairs under TokenBlock on attribute
/// 0: groups * left_per_group * right_per_group.
struct ScaleTables {
  RecordTable left;
  RecordTable right;
};

ScaleTables GenerateScaleTables(const ScaleTablesConfig& config);

}  // namespace humo::data
