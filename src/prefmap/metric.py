"""Positionwise distance between frequency matrices.

The distance between two columns (distributions over rank positions) is
the earth mover's distance on the line, computed exactly by prefix sums.
The distance between two matrices is the cheapest way to match their
columns.  Both matrices are brought to the least common multiple of their
denominators, so the prefix sums and the cost matrix are integers (int64
when they fit, Python integers otherwise) and the result is an exact
rational.  The assignment solver works on those integers as they are: a
Hungarian method finds the optimal cost and duals, and a pass over the
edges of reduced cost 0 then picks the lexicographically smallest optimal
column matching.  ``distance_matrix`` prefix-sums each matrix once.
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
    """Minimum-cost assignment over an integer cost matrix, exactly.

    Returns (total cost, assignment) where assignment[i] is the column
    given to row i: among all optimal assignments, the lexicographically
    smallest.  All arithmetic is on the costs as given, in Python integers.

    The solve is the Hungarian method with duals u (rows) and v (columns)
    that keep every reduced cost ``cost[i][j] - u[i] - v[j]`` nonnegative.
    They start from a row reduction followed by a column reduction, as in
    Jonker & Volgenant (1987), and each row greedily takes its first free
    column of reduced cost 0.  A shortest augmenting path, in the form of
    Crouse (2016), then places every row left over.  With the final duals,
    the optimal assignments are exactly the perfect matchings on the tight
    edges (reduced cost 0).  The tie-break fixes rows in order: a row keeps
    its column or swaps, along one alternating cycle of tight edges among
    the rows after it, to the smallest tight column such a cycle reaches.
    One backward search from the row's column finds them all, so the pass
    is O(m^3), like the solve.
    """
    m = len(cost)
    u = [min(row) for row in cost]
    v = [min(cost[i][j] - u[i] for i in range(m)) for j in range(m)]
    # col_of[i] is the column of row i and row_of[j] the row of column j,
    # or -1.  Each row first takes its first free column of reduced cost 0.
    col_of = [-1] * m
    row_of = [-1] * m
    for i, row in enumerate(cost):
        for j in range(m):
            if row_of[j] < 0 and row[j] - u[i] == v[j]:
                col_of[i], row_of[j] = j, i
                break

    inf = float("inf")
    for free in range(m):
        if col_of[free] >= 0:
            continue
        # Dijkstra over reduced costs from row `free` to the nearest free
        # column: dist[j] is the shortest path length to column j, pred[j]
        # the row before it on that path.
        dist: list[float | int] = [inf] * m
        pred = [-1] * m
        unseen = list(range(m))
        rows_seen = []
        cols_seen = []
        reach: float | int = 0
        i = free
        while True:
            rows_seen.append(i)
            row, base = cost[i], reach - u[i]
            low: float | int = inf
            at = -1
            for k, j in enumerate(unseen):
                d = base + row[j] - v[j]
                if d < dist[j]:
                    dist[j], pred[j] = d, i
                else:
                    d = dist[j]
                # on a tie, a free column ends the search sooner
                if d < low or (d == low and row_of[j] < 0):
                    low, at = d, k
            reach = low
            j = unseen[at]
            unseen[at] = unseen[-1]
            unseen.pop()
            cols_seen.append(j)
            if row_of[j] < 0:
                break
            i = row_of[j]
        # Move the duals so that the path is tight and no reduced cost
        # turns negative, then flip the path.
        u[free] += reach
        for i in rows_seen[1:]:
            u[i] += reach - dist[col_of[i]]
        for c in cols_seen:
            v[c] -= reach - dist[c]
        while True:
            i = pred[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == free:
                break

    tight = [[j for j in range(m) if cost[i][j] - u[i] == v[j]] for i in range(m)]
    tight_rows: list[list[int]] = [[] for _ in range(m)]
    for i in range(m):
        for j in tight[i]:
            tight_rows[j].append(i)
    for r in range(m):
        home = col_of[r]
        # rows before r keep their columns
        first = next(j for j in tight[r] if row_of[j] >= r)
        if first == home:
            continue
        # Search backward from home: step[c] is the column, one step nearer
        # home, that the row holding c moves to if r takes c.
        step = {home: home}
        stack = [home]
        while stack and first not in step:
            c = stack.pop()
            for i in tight_rows[c]:
                if i > r and col_of[i] not in step:
                    step[col_of[i]] = c
                    stack.append(col_of[i])
        j = min(c for c in tight[r] if c in step)
        moves = [(r, j)]
        while j != home:
            moves.append((row_of[j], step[j]))
            j = step[j]
        for i, c in moves:
            col_of[i] = c
            row_of[c] = i
    return sum(cost[i][col_of[i]] for i in range(m)), col_of


def _prefix_sums(x: FrequencyMatrix) -> np.ndarray:
    """Columns of ``x.counts`` prefix-summed down the positions.  They lie
    in [0, x.denominator]: int64 while that fits, Python integers beyond."""
    dtype = np.int64 if x.denominator < 2**62 else object
    return np.cumsum(np.array(x.counts, dtype=dtype), axis=0)


def _prefixed_distance(
    x: FrequencyMatrix, px: np.ndarray, y: FrequencyMatrix, py: np.ndarray
) -> DistanceRecord:
    """``positionwise(x, y)`` given both matrices' ``_prefix_sums``."""
    if x.m != y.m:
        raise ValueError(f"matrix sizes differ: {x.m} vs {y.m}")
    m = x.m
    scale = lcm(x.denominator, y.denominator)
    # Scaled prefix sums lie in [0, scale], so a cost entry is at most
    # m * scale; past int64 the arithmetic moves to Python integers.
    dtype = np.int64 if m * scale < 2**62 else object
    px = px.astype(dtype, copy=False) * (scale // x.denominator)
    py = py.astype(dtype, copy=False) * (scale // y.denominator)
    # cost[i][j] = sum over positions p of |px[p, i] - py[p, j]|, summed in
    # blocks of positions that keep the temporary under 2**16 entries
    step = max(1, 2**16 // (m * m))
    cost = sum(
        np.abs(px[p : p + step, :, None] - py[p : p + step, None, :]).sum(axis=0)
        for p in range(0, m, step)
    )
    total, assignment = _assignment_lex(cost.tolist())
    return DistanceRecord(Fraction(total, scale), tuple(assignment))


def positionwise(x: FrequencyMatrix, y: FrequencyMatrix) -> DistanceRecord:
    """Positionwise distance: minimum over column matchings of the summed
    per-column earth mover's distances."""
    return _prefixed_distance(x, _prefix_sums(x), y, _prefix_sums(y))


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
    prefixes = [_prefix_sums(x) for x in items]
    out = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            d = _prefixed_distance(items[i], prefixes[i], items[j], prefixes[j]).value
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
