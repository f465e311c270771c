"""Calibration task: fixed, stdlib-only work timed next to every workload child.

The benchmark divides each workload child's times by the mean time of the
calibration tasks run just before and just after it, which cancels the
machine's own speed (see README.md).  The work is
a mix of what the workloads spend their time on: big-integer products,
schoolbook convolutions of short integer lists, Fraction arithmetic, and
decimal rendering of integers.  It never imports qpositivity, so a change to
the package cannot move it.

Prints one checksum line, which the benchmark compares with CHECKSUM.
"""

import json
from fractions import Fraction

CHECKSUM = "calibrate 50002 9152 13086021 3000000"


def big_products() -> int:
    x = (1 << 150_000) // 7 + 12_345
    y = (1 << 130_000) // 11 + 6_789
    acc = 0
    for i in range(12):
        acc ^= (x + i) * (y - i)
    return acc.bit_length() % 100_000


def convolutions() -> int:
    a = list(range(1, 33))
    b = list(range(7, 39))
    total = 0
    for _ in range(1_000):
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        total = out[len(out) // 2]
    return total


def fractions() -> int:
    seen = set()
    smaller = 0
    for p in range(1, 180):
        for q in range(1, 120):
            f = Fraction(p, q)
            seen.add(f)
            smaller += f < Fraction(q, p)
    return len(seen) * 1000 + smaller % 1000


def rendering() -> int:
    return len(json.dumps([str(v) for v in range(10**20, 10**20 + 120_000)]))


def main() -> None:
    print("calibrate", big_products(), convolutions(), fractions(), rendering())


if __name__ == "__main__":
    main()
