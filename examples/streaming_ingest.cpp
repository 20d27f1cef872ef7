// Streaming ingest walkthrough: a workload arrives in shards, the resolver
// keeps the machine-side state current for free, and human work happens only
// when a certificate is requested — never twice for the same pair.
//
//   build/examples/example_streaming_ingest
//
// The demo streams the simulated DBLP-Scholar workload in 6 shards:
// certify after the first half, keep ingesting with provisional (oracle-free)
// quality estimates — the first certificate's subset model conditioned on
// the carried answers, no new GP fit — then re-certify at the end and show
// that the second certificate reused every answer the first one paid for.
// Exits nonzero if the stream issued a duplicate oracle request or the
// final certificate's labels differ from a one-shot run's.

#include <cstdio>

#include "humo.h"

using namespace humo;

int main() {
  const data::Workload base =
      data::SimulatePairs(data::DsConfigSmall(555, 20000));
  std::printf("base workload: %zu pairs, %zu true matches\n\n", base.size(),
              base.CountMatches());

  data::WorkloadStreamOptions stream_options;
  stream_options.num_shards = 6;
  stream_options.order = data::ArrivalOrder::kShuffled;
  data::WorkloadStream stream(&base, stream_options);

  core::StreamingOptions options;  // SAMP certifier, subset size 200
  const core::QualityRequirement req{0.9, 0.9, 0.9};
  core::StreamingResolver resolver(options, req);

  auto print_certificate = [&](const core::StreamingCertificate& cert) {
    const auto quality =
        eval::QualityOf(resolver.cumulative(), cert.resolution.labels);
    std::printf(
        "  certificate @ epoch %zu: %s\n"
        "    precision %.4f, recall %.4f (targets %.2f/%.2f @ theta %.2f)\n"
        "    fresh inspections %zu, reused answers %zu, lifetime %zu\n",
        cert.epoch,
        core::DescribeSolution(resolver.partition(), cert.solution).c_str(),
        quality.precision, quality.recall, req.alpha, req.beta, req.theta,
        cert.fresh_inspections, cert.reused_answers, cert.total_inspections);
  };

  data::Shard shard;
  size_t ingested = 0;
  while (stream.Next(&shard)) {
    const core::EpochReport& report = resolver.Ingest(std::move(shard));
    std::printf("epoch %zu: +%zu pairs -> %zu total, %zu subsets (%s merge)",
                report.epoch, report.pairs_arrived, report.pairs_total,
                report.num_subsets,
                report.pure_append ? "tail-append" : "interior");
    if (report.has_estimate) {
      std::printf(", provisional precision ~%.3f recall ~%.3f",
                  report.est_precision, report.est_recall);
    }
    std::printf("\n");
    ++ingested;

    if (ingested == 3) {
      std::printf("\n-- certifying mid-stream (human work happens now) --\n");
      auto cert = resolver.Certify();
      if (!cert.ok()) {
        std::fprintf(stderr, "certify failed: %s\n",
                     cert.status().message().c_str());
        return 1;
      }
      print_certificate(*cert);
      std::printf("\n");
    }
  }

  std::printf("\n-- re-certifying on the full workload --\n");
  auto final_cert = resolver.Certify();
  if (!final_cert.ok()) {
    std::fprintf(stderr, "certify failed: %s\n",
                 final_cert.status().message().c_str());
    return 1;
  }
  print_certificate(*final_cert);

  const bool no_duplicates = resolver.total_duplicate_requests() == 0;
  std::printf(
      "\nzero duplicate oracle requests across the whole stream: %s\n",
      no_duplicates ? "yes" : "NO (bug!)");

  // The one-shot comparison: the same optimizer on the same (complete)
  // workload from scratch.
  core::SubsetPartition partition(&base, 200);
  core::Oracle oracle(&base);
  auto sol = core::PartialSamplingOptimizer(options.sampling)
                 .Optimize(partition, req, &oracle);
  if (!sol.ok()) return 1;
  const auto oneshot = core::ApplySolution(partition, *sol, &oracle);
  const bool identical = final_cert->resolution.labels == oneshot.labels;
  std::printf(
      "one-shot SAMP on the full workload: %zu inspections; the streaming\n"
      "final certificate matched its labeling %s and paid %zu fresh\n"
      "(%zu reused from the mid-stream certificate).\n",
      oracle.cost(), identical ? "exactly" : "DIFFERENTLY (bug?)",
      final_cert->fresh_inspections, final_cert->reused_answers);
  return no_duplicates && identical ? 0 : 1;
}
