"""The calibration kernel that the benchmark's timings are divided by.

It imports only what `latfix` itself imports, so a fresh interpreter
that has just imported `latfix` can run it without loading anything new.
"""
import random
from fractions import Fraction
from time import perf_counter


def calibrate() -> float:
    """Wall time of a fixed kernel of the kind latfix spends its time on:
    Gauss-Jordan elimination of a 7x8 matrix of small Fractions."""
    start = perf_counter()
    rng = random.Random(12345)
    rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(8)] for _ in range(7)]
    for c in range(7):
        p = next(i for i in range(c, 7) if rows[i][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for i in range(7):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return perf_counter() - start
