#!/usr/bin/env python3
"""Lists the library code that no binary links.

  python3 tools/check_unlinked_objects.py <libhumo.a> <binary>...
  python3 tools/check_unlinked_objects.py --functions <libhumo.a> <binary>...

By default, a member of the static library counts as linked when at least
one of its global text symbols (nm type T) is defined in some binary. Prints
every unlinked member and exits 1 if one of them is not allowlisted. Needs
no special build flags.

With --functions, every text symbol of the library whose demangled name
starts with `humo::` (lambdas and compiler clones excluded) must be defined
in some binary, unless it sits in an allowlisted member or is named in
FUNCTIONS below. Prints every unreached function and exits 1 if one of them
is not allowlisted. This mode needs the library and the binaries built at
-O0 with -ffunction-sections and linked with -Wl,--gc-sections: at -O0 every
called function keeps an out-of-line copy, and --gc-sections drops the ones
nothing reaches. An optimized build inlines some functions at every call
site, and they would read as unreached.
"""
import subprocess
import sys

# data/persistence and common/csv are the library's only text import path
# for an external labelled workload, with the NaN and partial-field
# rejection it needs; no binary in this repository imports one.
ALLOWED = {"persistence.cc.o", "csv.cc.o"}

# Functions no binary reaches that the library keeps because a test uses
# them as the reference for, or the observation of, a live path, or to
# build a live path's input. Keyed by the demangled name without its
# parameter list (all overloads) or with it (that overload only).
FUNCTIONS = {
    # common
    "humo::ThreadPool::RetiredGlobalPools":
        "observes that SetGlobalThreads retires the outgoing pool",
    # data
    "humo::data::MinHashLshBlock(humo::data::RecordTable const&, "
    "humo::data::RecordTable const&, unsigned long, "
    "humo::data::MinHashLshOptions const&, double)":
        "tokenizes both tables and blocks: the LSH tests' input path",
    "humo::data::Workload::Add":
        "builds a test workload pair by pair",
    "humo::data::Workload::MaterializePairs":
        "turns a workload into a shard and compares pair lists",
    # entity
    "humo::entity::EntityClustering::MemberRange::Contains":
        "observes the members of a live clustering",
    # gp
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
    # text
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


def unreached_functions(archive, binaries):
    symbols = [(where.split(":")[-2], name) for where, kind, name in nm(archive)
               if kind in "TtWi"]
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
    return 1 if failed else 0


def main(argv):
    if argv[1] == "--functions":
        return unreached_functions(argv[2], argv[3:])
    return unlinked_members(argv[1], argv[2:])


if __name__ == "__main__":
    if len(sys.argv) < 3 or (sys.argv[1] == "--functions" and
                             len(sys.argv) < 4):
        sys.exit(__doc__)
    sys.exit(main(sys.argv))
