#!/usr/bin/env python3
"""Lists the library code that no binary links.

  python3 tools/check_unlinked_objects.py <libhumo.a> <binary>...
  python3 tools/check_unlinked_objects.py --functions <libhumo.a> [<obj.o>...]
      <binary>...

By default, a member of the static library counts as linked when at least
one of its global text symbols (nm type T) is defined in some binary. Prints
every unlinked member and exits 1 if one of them is not allowlisted. Needs
no special build flags.

With --functions, every text symbol of the scanned files (the leading
arguments ending in .a or .o) whose demangled name starts with `humo::`
(lambdas and compiler clones excluded) must be defined in some binary,
unless it sits in an allowlisted member or is named in FUNCTIONS below.
Prints every unreached function and exits 1 if one of them is not
allowlisted, or if a FUNCTIONS entry names no unreached function: an entry
whose function was deleted or gained a caller is stale. This mode needs the
library and the binaries built at -O0 with -ffunction-sections and linked
with -Wl,--gc-sections: at -O0 every called function keeps an out-of-line
copy, and --gc-sections drops the ones nothing reaches. An optimized build
inlines some functions at every call site, and they would read as
unreached.

A header-inline function reaches libhumo.a only when a library .cc calls
it, so the same mode also scans, next to the archive, the object of
tools/keep_inline_members.cc compiled with -O0 -fkeep-inline-functions: it
defines every inline humo:: function of the umbrella header. Scan both in
one invocation: each holds only some of FUNCTIONS' names, so the stale-entry
check is only sound over the two together.
"""
import subprocess
import sys

# Library members no binary needs to link. Empty: a module only tests reach
# is deleted or given a caller.
ALLOWED = set()

# Functions no binary reaches that the library keeps because a test uses
# them as the reference for, or the observation of, a live path, or to
# build a live path's input. Keyed by the demangled name without its
# parameter list (all overloads) or with it (that overload only). Header
# inline functions are listed too: they reach the scan through
# tools/keep_inline_members.cc (see --functions below).
FUNCTIONS = {
    # common
    "humo::ThreadPool::RetiredGlobalPools":
        "observes that SetGlobalThreads retires the outgoing pool",
    "humo::Status::code":
        "observes which error a failing call returned",
    "humo::Status::operator==":
        "compares statuses in the Status tests",
    # core
    "humo::core::CrowdOracle::worker_error_estimates":
        "observes the Dawid-Skene worker error estimates",
    "humo::core::CrowdOracle::options":
        "observes the crowd options the oracle clamped",
    "humo::core::CrowdTaskBroker::inference":
        "observes the broker's transitive-inference counters",
    "humo::core::TransitiveInference::conflicts_dropped":
        "observes transitive inference dropping a conflicting answer",
    "humo::core::TransitiveInference::merges":
        "observes transitive inference merging records",
    "humo::core::TransitiveInference::negative_edges":
        "observes transitive inference recording non-matches",
    "humo::core::TransitiveInference::num_records":
        "observes the records transitive inference has seen",
    "humo::core::GpRangeAccumulator::a":
        "observes the accumulator's range against a rebuilt one",
    "humo::core::GpRangeAccumulator::b":
        "observes the accumulator's range against a rebuilt one",
    "humo::core::GpSubsetModel::AvgSimilarity":
        "reads the inputs the subset model's GP reference predicts at",
    "humo::core::Oracle::AnswerMemoryBytes":
        "bounds the oracle's two answer bitsets at two bits per pair",
    "humo::core::PartialSamplingOptimizer::options":
        "reads the sampling budget a test bounds SAMP's cost by",
    "humo::core::ResolutionSnapshot::MembersOf":
        "observes a snapshot's entity members",
    "humo::core::ResolutionSnapshot::epochs_ingested":
        "observes which epochs a snapshot covers",
    "humo::core::ResolutionSnapshot::quality":
        "observes a snapshot's certified flag",
    # data
    "humo::data::MinHashLshBlock(humo::data::RecordTable const&, "
    "humo::data::RecordTable const&, unsigned long, "
    "humo::data::MinHashLshOptions const&, double)":
        "tokenizes both tables and blocks: the LSH tests' input path",
    "humo::data::Workload::Add":
        "builds a test workload pair by pair",
    "humo::data::Workload::MaterializePairs":
        "turns a workload into a shard and compares pair lists",
    "humo::data::Workload::left_ids":
        "compares a workload's columns with a reference build",
    "humo::data::Workload::right_ids":
        "compares a workload's columns with a reference build",
    "humo::data::Workload::similarities":
        "compares a workload's columns with a reference build",
    "humo::data::Workload::match_labels":
        "compares a workload's columns with a reference build",
    "humo::data::WorkloadStream::Reset":
        "replays a stream to check shards are deterministic",
    "humo::data::WorkloadStream::num_shards":
        "drives a test's ingest loop over every shard",
    "humo::data::RecordColumns::offsets":
        "compares built record columns with a reference build",
    "humo::data::RecordColumns::token_ids":
        "compares built record columns with a reference build",
    "humo::data::RecordColumns::term_freq":
        "compares built record columns with a reference build",
    "humo::data::RecordColumns::weights":
        "compares built record columns with a reference build",
    "humo::data::RecordTable::schema[abi:cxx11]":
        "observes the attribute schema a generator emits",
    # entity
    "humo::entity::EntityClustering::MemberRange::Contains":
        "observes the members of a live clustering",
    "humo::entity::EntityClustering::MemberRange::empty":
        "observes the members of a live clustering",
    "humo::entity::EntityClustering::MemberRange::size":
        "observes the members of a live clustering",
    "humo::entity::EntityClustering::MemberRange::operator[]":
        "observes the members of a live clustering",
    "humo::entity::UnpackRecord":
        "observes the members of a live clustering",
    "humo::entity::EntityClustering::num_multi_record_entities":
        "observes the entity-size split of a live clustering",
    "humo::entity::operator==":
        "compares a clustering or record with a reference",
    "humo::entity::operator!=":
        "compares a clustering with a reference",
    # gp
    "humo::gp::GpRegression::jitter_used":
        "observes the jitter grid selection's rescue needed",
    "humo::gp::Kernel::family":
        "observes which kernel family a fit selected",
    "humo::gp::GpRegression::PredictJoint":
        "reference for PredictBatch and the Eq. 20 range accumulator",
    "humo::gp::GpRegression::WhitenedCross":
        "reference for PredictBatch's whitened cross vectors",
    "humo::gp::JointPrediction::JointPrediction":
        "implicit member of PredictJoint's result",
    "humo::gp::JointPrediction::~JointPrediction":
        "implicit member of PredictJoint's result",
    "humo::gp::JointPrediction::WeightedTotalStdDev":
        "Eq. 20 reference the range accumulator's std-dev is checked against",
    # linalg
    "humo::linalg::Cholesky::jitter_used":
        "observes the jitter a factorization needed",
    "humo::linalg::Matrix::FromRows":
        "builds the matrices the Cholesky tests factor",
    "humo::linalg::Matrix::Identity":
        "builds the matrices the Cholesky tests factor",
    "humo::linalg::Matrix::Transpose":
        "rebuilds A = L L^T in the Cholesky tests",
    "humo::linalg::Matrix::operator*":
        "rebuilds A = L L^T and checks A x = b in the Cholesky tests",
    "humo::linalg::Matrix::MaxAbsDiff":
        "compares a rebuilt A with the factored one",
    "humo::linalg::internal::FactorLanesPortable":
        "scalar reference the AVX2 lane factorization is checked against",
    "humo::linalg::internal::SolveLanesPortable":
        "scalar reference the AVX2 lane solve is checked against",
    # ml
    "humo::ml::LinearSvm::bias":
        "checks training is deterministic under one seed",
    "humo::ml::LinearSvm::weights":
        "checks training is deterministic under one seed",
    # text
    "humo::text::TfIdfModel::num_documents":
        "string TF-IDF: reference for the id-path weights",
    "humo::text::TfIdfModel::Fit":
        "string TF-IDF: reference for the id-path cosine",
    "humo::text::TfIdfModel::Transform":
        "string TF-IDF: reference for the id-path cosine",
    "humo::text::TfIdfModel::Cosine":
        "string TF-IDF: reference for the id-path cosine",
    "humo::text::TfIdfModel::Idf":
        "string TF-IDF: reference for the id-path weights",
    "humo::text::TokenDictionary::IdOf":
        "looks up interned ids to check the dictionary and the columns",
}


def nm(path):
    out = subprocess.run(["nm", "--defined-only", "-A", path], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return [line.rsplit(" ", 2) for line in out.splitlines()]


def demangle(names, *flags):
    out = subprocess.run(["c++filt", *flags], input="\n".join(names),
                         check=True, stdout=subprocess.PIPE, text=True).stdout
    return out.splitlines()


def unlinked_members(archive, binaries):
    members = {}
    for where, kind, name in nm(archive):
        member = where.split(":")[-2]
        members.setdefault(member, set())
        if kind == "T":
            members[member].add(name)
    linked = {name for binary in binaries for _, _, name in nm(binary)}
    unlinked = sorted(m for m, syms in members.items() if not syms & linked)
    for member in unlinked:
        print(member + ("  (allowlisted)" if member in ALLOWED else ""))
    return 1 if set(unlinked) - ALLOWED else 0


def unreached_functions(scanned, binaries):
    symbols = [(where.split(":")[-2], name) for path in scanned
               for where, kind, name in nm(path) if kind in "TtWi"]
    mangled = [name for _, name in symbols]
    full = demangle(mangled)
    short = demangle(mangled, "-p")
    linked = {name for binary in binaries for _, _, name in nm(binary)}
    unreached = set()
    for (member, name), signature, bare in zip(symbols, full, short):
        if (not signature.startswith("humo::") or "{lambda" in signature or
                "[clone" in signature or member in ALLOWED or name in linked):
            continue
        unreached.add((signature, bare))
    failed = 0
    for signature, bare in sorted(unreached):
        allowed = signature in FUNCTIONS or bare in FUNCTIONS
        failed += not allowed
        print(signature + ("  (allowlisted)" if allowed else ""))
    used = {name for pair in unreached for name in pair}
    for entry in sorted(set(FUNCTIONS) - used):
        failed += 1
        print("stale allowlist entry (no unreached function): " + entry)
    return 1 if failed else 0


def main(argv):
    if argv[1] == "--functions":
        args = argv[2:]
        split = next((i for i, a in enumerate(args)
                      if not a.endswith((".a", ".o"))), len(args))
        return unreached_functions(args[:split], args[split:])
    return unlinked_members(argv[1], argv[2:])


if __name__ == "__main__":
    if len(sys.argv) < 3 or (sys.argv[1] == "--functions" and
                             len(sys.argv) < 4):
        sys.exit(__doc__)
    sys.exit(main(sys.argv))
