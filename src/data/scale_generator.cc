#include "data/scale_generator.h"

#include <cassert>
#include <cmath>

#include "common/random.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "data/perturbation.h"
#include "stats/sampling.h"

namespace humo::data {
namespace {

/// Pairs per generation task; one task is one contiguous block of
/// independent per-pair RNG streams.
constexpr size_t kScaleGrain = 16384;

/// DS-shaped similarity mixtures (see DsConfig in pair_simulator.cc): a
/// dominant high-similarity mode plus a mid tail for matches, a decaying
/// low bulk plus thin mid/high noise for non-matches.
double SampleMatchSimilarity(Rng* rng) {
  return rng->NextDouble() < 0.85 ? stats::SampleBeta(rng, 8.0, 1.7)
                                  : stats::SampleBeta(rng, 3.0, 3.0);
}

double SampleUnmatchSimilarity(Rng* rng) {
  return rng->NextDouble() < 0.97 ? stats::SampleBeta(rng, 1.1, 9.0)
                                  : stats::SampleBeta(rng, 4.0, 3.5);
}

/// Short pseudo-word from a stream draw, e.g. "qixo" — cheap attribute
/// filler whose content is a pure function of the draw.
std::string PseudoWord(Rng* rng, size_t min_len = 3, size_t max_len = 8) {
  const size_t len =
      min_len + static_cast<size_t>(rng->NextBelow(
                    static_cast<uint64_t>(max_len - min_len + 1)));
  std::string w;
  w.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    w.push_back(static_cast<char>('a' + rng->NextBelow(26)));
  }
  return w;
}

}  // namespace

ScaleColumns GenerateScaleColumnsRange(const ScaleWorkloadConfig& config,
                                       size_t begin, size_t end) {
  assert(config.hi > config.lo);
  assert(config.match_fraction >= 0.0 && config.match_fraction <= 1.0);
  assert(begin <= end && end <= config.num_pairs);
  // num_matches is computed from the FULL configured size, so a chunk's
  // labels agree with the full generation no matter how the range is cut.
  const size_t num_matches = static_cast<size_t>(std::llround(
      static_cast<double>(config.num_pairs) * config.match_fraction));
  const double span = config.hi - config.lo;
  const size_t n = end - begin;
  // Columns filled directly — the 10M-scale path never materializes an
  // AoS struct per pair.
  ScaleColumns c;
  c.similarities.resize(n);
  c.left_ids.resize(n);
  c.right_ids.resize(n);
  c.labels.resize(n);
  ThreadPool::Global()->ParallelFor(n, kScaleGrain, [&](size_t lo,
                                                        size_t hi) {
    for (size_t k = lo; k < hi; ++k) {
      const size_t i = begin + k;
      Rng rng = Rng::Stream(config.seed, static_cast<uint64_t>(i));
      c.left_ids[k] = static_cast<uint32_t>(i);
      c.right_ids[k] = static_cast<uint32_t>(i);
      const bool match = i < num_matches;
      c.labels[k] = match ? 1 : 0;
      const double b =
          match ? SampleMatchSimilarity(&rng) : SampleUnmatchSimilarity(&rng);
      c.similarities[k] = config.lo + span * b;
    }
  });
  return c;
}

ScaleColumns GenerateScaleColumns(const ScaleWorkloadConfig& config) {
  return GenerateScaleColumnsRange(config, 0, config.num_pairs);
}

Workload GenerateScaleWorkload(const ScaleWorkloadConfig& config) {
  ScaleColumns c = GenerateScaleColumns(config);
  return Workload::FromColumns(std::move(c.left_ids), std::move(c.right_ids),
                               std::move(c.similarities),
                               std::move(c.labels));
}

ScaleTables GenerateScaleTables(const ScaleTablesConfig& config) {
  assert(config.groups > 0);
  assert(config.left_per_group > 0 && config.right_per_group > 0);
  const size_t L = config.left_per_group, R = config.right_per_group;
  // Each matched right record pairs with exactly one left record of its
  // group, so P(match | right record) = match_fraction * L keeps the
  // PAIR-level match fraction at the configured value.
  const double p_match =
      std::min(1.0, config.match_fraction * static_cast<double>(L));

  ScaleTables t;
  t.left = RecordTable({"block_key", "name"});
  t.right = RecordTable({"block_key", "name"});

  // Entity ids: left record (g, k) owns entity g*L + k; unmatched right
  // records take unique ids above every left entity.
  const uint32_t unmatched_base =
      static_cast<uint32_t>(config.groups * L);

  for (size_t g = 0; g < config.groups; ++g) {
    const std::string key = StrFormat("g%zu", g);
    for (size_t k = 0; k < L; ++k) {
      Rng rng = Rng::Stream(config.seed, (g * L + k) * 2);
      Record rec;
      rec.id = static_cast<uint32_t>(g * L + k);
      rec.entity_id = static_cast<uint32_t>(g * L + k);
      rec.attributes = {key,
                        PseudoWord(&rng) + " " + PseudoWord(&rng) + " " +
                            PseudoWord(&rng)};
      (void)t.left.Add(std::move(rec));
    }
    for (size_t k = 0; k < R; ++k) {
      const size_t global = g * R + k;
      Rng rng = Rng::Stream(config.seed, global * 2 + 1);
      Record rec;
      rec.id = static_cast<uint32_t>(global);
      if (rng.NextDouble() < p_match) {
        // Same entity as one in-group left record; the name is the left
        // name with one perturbed word, so a name scorer sees high but
        // not perfect similarity.
        const size_t partner = static_cast<size_t>(rng.NextBelow(L));
        const Record& left_rec = t.left[g * L + partner];
        rec.entity_id = left_rec.entity_id;
        std::string name;
        if (config.perturb_names) {
          name = PerturbString(left_rec.attributes[1], config.perturbation,
                               &rng);
        } else {
          name = left_rec.attributes[1];
          name += " " + PseudoWord(&rng, 2, 4);
        }
        rec.attributes = {key, std::move(name)};
      } else {
        rec.entity_id = unmatched_base + static_cast<uint32_t>(global);
        rec.attributes = {key,
                          PseudoWord(&rng) + " " + PseudoWord(&rng) + " " +
                              PseudoWord(&rng)};
      }
      (void)t.right.Add(std::move(rec));
    }
  }
  return t;
}

}  // namespace humo::data
