"""Positionwise distance between frequency matrices.

The distance between two columns (distributions over rank positions) is
the earth mover's distance on the line, computed exactly by prefix sums.
The distance between two matrices is the cheapest way to match their
columns, found by an exact assignment solver.  Both matrices are brought
to the least common multiple of their denominators, so the prefix sums
and the cost matrix are integers (int64 when they fit, Python integers
otherwise) and the result is an exact rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

import numpy as np

from .core import Election, FrequencyMatrix, frequency_matrix


@dataclass(frozen=True)
class DistanceRecord:
    """Distance value plus the column matching that attains it.

    ``column_permutation[i]`` is the column of the second matrix matched to
    column i of the first.  Among all optimal matchings it is the
    lexicographically smallest, which makes results reproducible.
    """

    value: Fraction
    column_permutation: tuple[int, ...]


def emd(x: Sequence[Fraction | int], y: Sequence[Fraction | int]) -> Fraction:
    """Earth mover's distance between two distributions over positions
    0..m-1 with unit spacing: sum of |prefix(x) - prefix(y)|."""
    xs = [Fraction(v) for v in x]
    ys = [Fraction(v) for v in y]
    if len(xs) != len(ys):
        raise ValueError("vectors must have equal length")
    if not xs:
        raise ValueError("vectors must be nonempty")
    if any(v < 0 for v in xs) or any(v < 0 for v in ys):
        raise ValueError("distributions must be nonnegative")
    if sum(xs) != 1 or sum(ys) != 1:
        raise ValueError("distributions must sum to 1")
    total = Fraction(0)
    cx = Fraction(0)
    cy = Fraction(0)
    for a, b in zip(xs, ys):
        cx += a
        cy += b
        total += abs(cx - cy)
    return total


def _assignment_lex(cost: list[list[int]]) -> tuple[int, list[int]]:
    """Minimum-cost assignment over an integer cost matrix.

    Returns (total cost, assignment) where assignment[i] is the column
    given to row i.  Ties are broken toward the lexicographically smallest
    assignment vector by folding a positional tiebreak into the costs:
    with digit base C > m, no sum of tiebreak digits can reach B = C**m,
    so dividing the optimal composite total by B recovers the true cost.
    """
    m = len(cost)
    if m == 1:
        return cost[0][0], [0]
    base = max(m, 2)
    big = base**m
    weights = [base ** (m - 1 - i) for i in range(m)]
    a = [[cost[i][j] * big + j * weights[i] for j in range(m)] for i in range(m)]

    inf = float("inf")
    u = [0] * (m + 1)
    v = [0] * (m + 1)
    matched = [0] * (m + 1)  # matched[j] = row (1-based) holding column j
    way = [0] * (m + 1)
    for i in range(1, m + 1):
        matched[0] = i
        j0 = 0
        minv: list[float | int] = [inf] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = matched[j0]
            delta = inf
            j1 = 0
            row = a[i0 - 1]
            for j in range(1, m + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[matched[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if matched[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            matched[j0] = matched[j1]
            j0 = j1

    assignment = [0] * m
    for j in range(1, m + 1):
        if matched[j]:
            assignment[matched[j] - 1] = j - 1
    composite = sum(a[i][assignment[i]] for i in range(m))
    return composite // big, assignment


def positionwise(x: FrequencyMatrix, y: FrequencyMatrix) -> DistanceRecord:
    """Positionwise distance: minimum over column matchings of the summed
    per-column earth mover's distances."""
    if x.m != y.m:
        raise ValueError(f"matrix sizes differ: {x.m} vs {y.m}")
    m = x.m
    scale = lcm(x.denominator, y.denominator)
    # Prefix sums lie in [0, scale], so a cost entry is at most m * scale;
    # past int64 the arithmetic moves to Python integers.
    dtype = np.int64 if m * scale < 2**62 else object
    # columns of scale * matrix, prefix-summed down the positions
    px, py = (
        np.cumsum(np.array(z.counts, dtype=dtype) * (scale // z.denominator), axis=0)
        for z in (x, y)
    )
    # cost[i][j] = sum over positions of |px[:, i] - py[:, j]|
    cost = np.abs(px[:, :, None] - py[:, None, :]).sum(axis=0)
    # _assignment_lex scales costs by base**m, beyond int64 from m ~ 20 on
    total, assignment = _assignment_lex(cost.tolist())
    return DistanceRecord(Fraction(total, scale), tuple(assignment))


def positionwise_elections(e: Election, f: Election) -> DistanceRecord:
    """Positionwise distance between two elections' frequency matrices.
    The elections may have different voter counts but must share m."""
    return positionwise(frequency_matrix(e), frequency_matrix(f))


def distance_matrix(items: Sequence[FrequencyMatrix]) -> list[list[Fraction]]:
    """Symmetric matrix of pairwise positionwise distances.

    Pairs are independent of one another, so evaluation order (or a
    parallel map) cannot change the result.
    """
    k = len(items)
    out = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            d = positionwise(items[i], items[j]).value
            out[i][j] = d
            out[j][i] = d
    return out


def normalization_constant(m: int) -> Fraction:
    """Scale factor (m*m - 1) / 3 used to map distances into [0, 1]."""
    if m < 1:
        raise ValueError("m must be positive")
    return Fraction(m * m - 1, 3)


def normalized(value: Fraction, m: int) -> Fraction:
    """Distance divided by the normalization constant for m candidates."""
    if m < 2:
        raise ValueError("normalization needs at least two candidates")
    return Fraction(value) / normalization_constant(m)
