#!/usr/bin/env python3
"""Lists the members of a static library that no binary links.

  python3 tools/check_unlinked_objects.py <libhumo.a> <binary>...

A member counts as linked when at least one of its global text symbols
(nm type T) is defined in some binary. Prints every unlinked member and
exits 1 if one of them is not allowlisted. Needs no special build flags.
"""
import subprocess
import sys

# data/persistence and common/csv are the library's only text import path
# for an external labelled workload, with the NaN and partial-field
# rejection it needs; no binary in this repository imports one.
ALLOWED = {"persistence.cc.o", "csv.cc.o"}


def nm(path):
    out = subprocess.run(["nm", "--defined-only", "-A", path], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return [line.rsplit(" ", 2) for line in out.splitlines()]


def main(argv):
    members = {}
    for where, kind, name in nm(argv[1]):
        member = where.split(":")[-2]
        members.setdefault(member, set())
        if kind == "T":
            members[member].add(name)
    linked = {name for binary in argv[2:] for _, _, name in nm(binary)}
    unlinked = sorted(m for m, syms in members.items() if not syms & linked)
    for member in unlinked:
        print(member + ("  (allowlisted)" if member in ALLOWED else ""))
    return 1 if set(unlinked) - ALLOWED else 0


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv))
