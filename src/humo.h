#pragma once

/// \file humo.h
/// Umbrella header for the HUMO library — a human and machine cooperation
/// framework for entity resolution with quality guarantees (reproduction of
/// Chen et al., ICDE 2018).
///
/// Typical usage:
///
///   #include "humo.h"
///   using namespace humo;
///
///   data::Workload w = data::SimulatePairs(data::DsConfig());
///   core::SubsetPartition partition(&w, /*subset_size=*/200);
///   core::Oracle oracle(&w);
///   core::QualityRequirement req{/*alpha=*/0.9, /*beta=*/0.9,
///                                /*theta=*/0.9};
///   core::HybridOptimizer optimizer;
///   auto solution = optimizer.Optimize(partition, req, &oracle);
///   auto result = core::ApplySolution(partition, *solution, &oracle);
///   // result.labels now meets precision >= 0.9 and recall >= 0.9 with
///   // confidence 0.9; result.human_cost pairs were inspected manually.
///
/// To run several optimizers over the same workload without paying for the
/// same human labels twice, share one estimation context between them:
///
///   core::EstimationContext ctx(&partition, &oracle);
///   core::PartialSamplingOptimizer samp;
///   auto s0 = samp.Optimize(&ctx, req);
///   core::HybridOptimizer hybr;
///   auto s1 = hybr.Optimize(&ctx, req);  // reuses SAMP's labels, strata,
///                                        // and GP model: zero duplicate
///                                        // oracle inspections
///   // ctx.stats() reports cache hits and the oracle traffic saved.
///
/// To spend strictly less human effort than full DH verification, the
/// risk-aware optimizer (core/risk_aware_optimizer.h) inspects DH pairs in
/// decreasing misclassification-risk order and stops as soon as the
/// quality requirement certifies, machine-labeling the low-risk remainder:
///
///   core::RiskAwareOptimizer risk;
///   auto outcome = risk.Resolve(&ctx, req);   // final labels included —
///                                             // do NOT ApplySolution after
///   // outcome->resolution.labels, outcome->inspection.pairs_machine_labeled
///
/// When the workload ARRIVES over time instead of sitting in one file, the
/// streaming resolver (core/streaming_resolver.h) ingests it in epochs —
/// merge, partition upkeep, and the provisional labels (served from the last
/// certificate's subset model) are all incremental and oracle-free — and
/// certifies lazily on demand, reusing every answer earlier epochs paid
/// for:
///
///   data::WorkloadStream stream(&w, {/*num_shards=*/8});
///   core::StreamingResolver streaming({}, req);
///   data::Shard shard;
///   while (stream.Next(&shard)) streaming.Ingest(std::move(shard));
///   auto cert = streaming.Certify();  // == the one-shot result, bit for bit
///
/// To SERVE lookups while that stream is still arriving, wrap the resolver
/// in the resolution service (core/resolution_service.h): every mutation
/// publishes an immutable snapshot readers access wait-free through an
/// atomic shared_ptr, certification runs on a background thread, human
/// review verdicts arrive out of band and fold in at epoch boundaries, and
/// draining to quiescence reproduces the synchronous resolver bit for bit:
///
///   core::ResolutionService service({/*streaming=*/{}}, req);
///   while (stream.Next(&shard)) service.Ingest(std::move(shard));
///   service.RequestCertification();        // returns immediately
///   auto label = service.snapshot()->LabelOf(i);  // wait-free, any thread
///   auto cert = service.DrainToQuiescence();  // == streaming.Certify()
///
/// Pair labels are only half the story: downstream consumers want ENTITIES.
/// The entity layer (entity/) folds any pair labeling into a deterministic
/// clustering over the underlying records, repairs transitivity conflicts
/// with a minimum-disagreement local search, and scores cluster quality
/// (eval/entity_metrics.h). Snapshots published by the resolution service
/// carry the same view wait-free:
///
///   auto clusters = entity::EntityClustering::FromLabels(w, labels);
///   auto repaired = entity::RepairTransitivity(w, labels);
///   auto quality = eval::EntityQualityOf(eval::TruthClustering(w),
///                                        repaired.clustering);
///   auto who = service.snapshot()->EntityOf({/*source=*/0, /*id=*/42});
///
/// When the "oracle" is a CROWD rather than a single expert, the crowd task
/// layer (core/crowd_tasks.h, core/crowd_oracle.h) packs pair inspections
/// into cluster-based HITs, infers extra labels through transitivity, and
/// aggregates redundant noisy votes with Dawid–Skene (stats/dawid_skene.h)
/// before they reach the resolver:
///
///   core::CrowdOracle crowd(&w, {/*workers_per_pair=*/5,
///                                 /*worker_error_rate=*/0.2});
///   core::CrowdTaskBroker broker(&w, &crowd);  // HIT packing + inference
///   oracle.SetAnswerProvider(broker.Provider());
///   // broker.stats(): tasks issued, votes bought, answers inferred free
///
/// Machine-side heavy paths (GP kernel matrices, Cholesky factorization,
/// workload simulation) run on a thread pool sized by the HUMO_NUM_THREADS
/// environment variable (default: hardware concurrency; at most 256);
/// results are bit-identical at any thread count.

#include "actl/active_learning.h"
#include "common/env.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/baseline_optimizer.h"
#include "core/crowd_oracle.h"
#include "core/crowd_tasks.h"
#include "core/estimation_engine.h"
#include "core/gp_subset_model.h"
#include "core/hybrid_optimizer.h"
#include "core/oracle.h"
#include "core/paged_bitmap.h"
#include "core/partial_sampling_optimizer.h"
#include "core/partition.h"
#include "core/resolution_service.h"
#include "core/risk_aware_optimizer.h"
#include "core/risk_model.h"
#include "core/solution.h"
#include "core/streaming_resolver.h"
#include "data/blocking.h"
#include "data/entity_graph_generator.h"
#include "data/logistic_generator.h"
#include "data/mmap_columns.h"
#include "data/pair_simulator.h"
#include "data/perturbation.h"
#include "data/product_generator.h"
#include "data/publication_generator.h"
#include "data/record.h"
#include "data/record_columns.h"
#include "data/scale_generator.h"
#include "data/workload.h"
#include "data/workload_stream.h"
#include "entity/entity_clustering.h"
#include "entity/transitivity_repair.h"
#include "eval/entity_metrics.h"
#include "eval/evaluation.h"
#include "eval/experiment.h"
#include "eval/report.h"
#include "gp/gp_regression.h"
#include "gp/kernel.h"
#include "linalg/cholesky.h"
#include "linalg/matrix.h"
#include "ml/dataset.h"
#include "ml/linear_svm.h"
#include "ml/metrics.h"
#include "stats/dawid_skene.h"
#include "stats/distributions.h"
#include "stats/proportion.h"
#include "stats/sampling.h"
#include "stats/stratified.h"
#include "text/attribute_similarity.h"
#include "text/jaro.h"
#include "text/simd_similarity.h"
#include "text/tfidf.h"
#include "text/token_dictionary.h"
#include "text/token_similarity.h"
#include "text/tokenizer.h"
