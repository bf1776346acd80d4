#!/usr/bin/env python3
"""Compare two perfbench virtual-result files over their common prefix.

perfbench keeps the virtual results of a workload's first run in
.bench_build/run/virtual/<workload>-seed<n>.txt: one line per step, holding
both passes' virtual makespans as hex floats and the cumulative SimFs
counters. Two builds whose engine, simulator and protocol agree write
identical lines for the same workload and seed; a run that lasted longer
only has more lines. This script checks two such files against each other,
for example one from the parent commit and one from a change that must not
move virtual time.

Usage: virtual_diff.py A B

Exits 0 when the first min(len(A), len(B)) lines are identical and there are
at least MIN_COMMON_LINES of them (perfbench times at least that many
steps, so a shorter prefix means a truncated or foreign file). Otherwise it
prints the first differing line of each file and exits 1; a file that
cannot be read exits 2.
"""

import sys

MIN_COMMON_LINES = 21


def read_lines(path):
    with open(path, encoding="utf-8") as f:
        return f.read().splitlines()


def compare(a_lines, b_lines):
    """Returns None when the common prefix matches, else a message."""
    common = min(len(a_lines), len(b_lines))
    for i in range(common):
        if a_lines[i] != b_lines[i]:
            return (f"line {i + 1} differs:\n"
                    f"  a: {a_lines[i]}\n"
                    f"  b: {b_lines[i]}")
    if common < MIN_COMMON_LINES:
        return (f"common prefix is {common} lines, "
                f"fewer than {MIN_COMMON_LINES}")
    return None


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().split("\n\n")[2], file=sys.stderr)
        return 2
    try:
        a_lines = read_lines(argv[1])
        b_lines = read_lines(argv[2])
    except OSError as err:
        print(f"virtual_diff: {err}", file=sys.stderr)
        return 2
    problem = compare(a_lines, b_lines)
    if problem is not None:
        print(f"virtual_diff: {argv[1]} vs {argv[2]}: {problem}")
        return 1
    common = min(len(a_lines), len(b_lines))
    print(f"virtual_diff: identical over {common} common lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
