"""Positionwise distance between frequency matrices.

The distance between two columns (distributions over rank positions) is
the earth mover's distance on the line, computed exactly by prefix sums.
The distance between two matrices is the cheapest way to match their
columns.  Both matrices are brought to the least common multiple of their
denominators, so the prefix sums and the cost matrix are integers (int64
when they fit, Python integers otherwise) and the result is an exact
rational.

The assignment solver works on those integers as they are.  For a block
of pairs at once, numpy builds the cost matrices and the starting duals,
and each row greedily takes a free column of reduced cost 0.  Only the
rows left free go to a shortest augmenting path search in Python.  The
batch callers, ``cross_distances`` and ``distance_matrix``, stop there:
every optimal matching has the same total, so their values need no
tie-break.  Only ``positionwise`` returns a permutation, and it runs one
more pass over the edges of reduced cost 0 to pick the lexicographically
smallest optimal column matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

import numpy as np

from .core import Election, FrequencyMatrix, frequency_matrix

# entries allowed in one temporary array of the batched solve
_BLOCK = 2**16


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


def _start(cost: np.ndarray) -> list[tuple[list[int], list[int], list[int]]]:
    """Starting duals and a partial matching for each pair of a block.

    ``cost[b]`` is the cost matrix of pair b (int64, or ``object`` for
    Python integers).  For each pair this returns (u, v, col_of).  The
    duals u (rows) and v (columns) come from a row reduction followed by a
    column reduction, as in Jonker & Volgenant (1987), so every reduced
    cost ``cost[b, i, j] - u[i] - v[j]`` is nonnegative.  Then each row, in
    order, takes its first free column of reduced cost 0: ``col_of[i]`` is
    that column, or -1 if none is left.
    """
    pairs, m, _ = cost.shape
    u = cost.min(axis=2)
    reduced = cost - u[:, :, None]
    v = reduced.min(axis=1)
    # each row's columns of reduced cost 0 as the bits of one Python integer
    packed = np.packbits(reduced == v[:, None, :], axis=2, bitorder="little")
    width = packed.shape[2]
    raw = packed.tobytes()
    matchings = []
    for b in range(pairs):
        taken = 0
        col_of = []
        for at in range(b * m * width, (b + 1) * m * width, width):
            free = int.from_bytes(raw[at : at + width], "little") & ~taken
            low = free & -free
            taken |= low
            col_of.append(low.bit_length() - 1)
        matchings.append(col_of)
    return list(zip(u.tolist(), v.tolist(), matchings))


def _augment(cost: list[list[int]], u: list[int], v: list[int], col_of: list[int]) -> list[int]:
    """Complete a partial matching of one cost matrix to an optimal one.

    ``u``, ``v`` and ``col_of`` are as ``_start`` gives them, and are
    updated in place.  Each row left free is placed by a shortest
    augmenting path over the reduced costs, in the form of Crouse (2016)
    that scipy's ``linear_sum_assignment`` also uses: it scans only
    unscanned columns, prefers a free column on a tie, and moves the duals
    once per augmentation.  Returns ``row_of``, the row of each column.
    """
    m = len(cost)
    row_of = [-1] * m
    for i, j in enumerate(col_of):
        if j >= 0:
            row_of[j] = i
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
    return row_of


def _assignment_lex(cost: np.ndarray) -> tuple[int, list[int]]:
    """Minimum-cost assignment over one integer cost matrix, exactly.

    Returns (total cost, assignment) where assignment[i] is the column
    given to row i: among all optimal assignments, the lexicographically
    smallest.  ``cost`` is a square int64 or ``object`` array.

    ``_start`` and ``_augment`` find one optimal assignment.  With the
    final duals, the optimal assignments are exactly the perfect matchings
    on the tight edges (reduced cost 0).  The tie-break fixes rows in
    order: a row keeps its column or swaps, along one alternating cycle of
    tight edges among the rows after it, to the smallest tight column such
    a cycle reaches.  One backward search from the row's column finds them
    all, so the pass is O(m^3), like the solve.
    """
    ((u, v, col_of),) = _start(cost[None])
    rows = cost.tolist()
    row_of = _augment(rows, u, v, col_of)
    m = len(rows)
    tight = [[j for j in range(m) if rows[i][j] - u[i] == v[j]] for i in range(m)]
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
    return sum(rows[i][j] for i, j in enumerate(col_of)), col_of


def _totals(cost: np.ndarray) -> list[int]:
    """Optimal assignment totals of a block of cost matrices.

    Where ``_start`` matches every row, the matching is tight under
    feasible duals and so optimal, and its total is the dual objective.
    Only the other pairs go through ``_augment``.  No tie-break is needed:
    every optimal matching has the same total.
    """
    totals = []
    for b, (u, v, col_of) in enumerate(_start(cost)):
        if -1 in col_of:
            rows = cost[b].tolist()
            _augment(rows, u, v, col_of)
            totals.append(sum(rows[i][j] for i, j in enumerate(col_of)))
        else:
            totals.append(sum(u) + sum(v))
    return totals


def _prefix_sums(x: FrequencyMatrix) -> np.ndarray:
    """Columns of ``x.counts`` prefix-summed down the positions.  They lie
    in [0, x.denominator]: int64 while that fits, Python integers beyond."""
    dtype = np.int64 if x.denominator < 2**62 else object
    return np.cumsum(np.array(x.counts, dtype=dtype), axis=0)


def _costs(px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Cost matrices of a block of pairs from their scaled prefix sums:
    ``cost[b, i, j]`` is the sum over positions p of
    ``|px[b, p, i] - py[b, p, j]|``.  Positions are summed in chunks that
    keep the reused temporary under ``_BLOCK`` entries.  The last position
    adds nothing: there every column's prefix sum is the whole scale."""
    pairs, m, _ = px.shape
    step = max(1, min(m - 1, _BLOCK // (pairs * m * m)))
    cost = np.zeros((pairs, m, m), dtype=px.dtype)
    diff = np.empty((pairs, step, m, m), dtype=px.dtype)
    for p in range(0, m - 1, step):
        q = min(p + step, m - 1)
        d = diff[:, : q - p]
        np.subtract(px[:, p:q, :, None], py[:, p:q, None, :], out=d)
        cost += np.abs(d, out=d).sum(axis=1)
    return cost


def _dtype(m: int, scale: int) -> type:
    """Scaled prefix sums lie in [0, scale], so a cost entry is at most
    m * scale: int64 below 2**62, Python integers from there on."""
    return np.int64 if m * scale < 2**62 else object


def _common_size(items: Sequence[FrequencyMatrix]) -> int:
    m = items[0].m
    for z in items:
        if z.m != m:
            raise ValueError(f"matrix sizes differ: {m} vs {z.m}")
    return m


def _values(
    xs: Sequence[FrequencyMatrix],
    ys: Sequence[FrequencyMatrix],
    pairs: Sequence[tuple[int, int]],
) -> list[Fraction]:
    """Exact distance of ``xs[i]`` and ``ys[j]`` for each pair (i, j)."""
    if not pairs:
        return []
    m = _common_size([*xs, *ys])
    sx = np.stack([_prefix_sums(x) for x in xs])
    sy = sx if ys is xs else np.stack([_prefix_sums(y) for y in ys])
    scales = [lcm(xs[i].denominator, ys[j].denominator) for i, j in pairs]
    out = [Fraction(0)] * len(pairs)
    size = max(1, _BLOCK // m**3)
    dtypes = [_dtype(m, s) for s in scales]
    for dtype in (np.int64, object):
        todo = [k for k, d in enumerate(dtypes) if d is dtype]
        for at in range(0, len(todo), size):
            block = todo[at : at + size]
            ii = [pairs[k][0] for k in block]
            jj = [pairs[k][1] for k in block]
            ax = np.array([scales[k] // xs[i].denominator for k, i in zip(block, ii)], dtype=dtype)
            ay = np.array([scales[k] // ys[j].denominator for k, j in zip(block, jj)], dtype=dtype)
            px = sx[ii].astype(dtype, copy=False) * ax[:, None, None]
            py = sy[jj].astype(dtype, copy=False) * ay[:, None, None]
            for k, total in zip(block, _totals(_costs(px, py))):
                out[k] = Fraction(total, scales[k])
    return out


def positionwise(x: FrequencyMatrix, y: FrequencyMatrix) -> DistanceRecord:
    """Positionwise distance: minimum over column matchings of the summed
    per-column earth mover's distances."""
    m = _common_size([x, y])
    scale = lcm(x.denominator, y.denominator)
    dtype = _dtype(m, scale)
    pxy = np.cumsum(np.array([x.counts, y.counts], dtype=dtype), axis=1)
    pxy *= np.array([scale // x.denominator, scale // y.denominator], dtype=dtype)[:, None, None]
    total, assignment = _assignment_lex(_costs(pxy[:1], pxy[1:])[0])
    return DistanceRecord(Fraction(total, scale), tuple(assignment))


def positionwise_elections(e: Election, f: Election) -> DistanceRecord:
    """Positionwise distance between two elections' frequency matrices.
    The elections may have different voter counts but must share m."""
    return positionwise(frequency_matrix(e), frequency_matrix(f))


def cross_distances(
    xs: Sequence[FrequencyMatrix], ys: Sequence[FrequencyMatrix]
) -> list[list[Fraction]]:
    """Positionwise distance values of every x in ``xs`` to every y in
    ``ys``: row i holds ``positionwise(xs[i], y).value`` for each y.

    All matrices must share m.  Pairs are solved in blocks, without the
    tie-break that only ``positionwise`` needs for its permutation.
    """
    pairs = [(i, j) for i in range(len(xs)) for j in range(len(ys))]
    values = _values(xs, ys, pairs)
    k = len(ys)
    return [values[i * k : (i + 1) * k] for i in range(len(xs))]


def distance_matrix(items: Sequence[FrequencyMatrix]) -> list[list[Fraction]]:
    """Symmetric matrix of pairwise positionwise distance values, solved
    like ``cross_distances`` over the pairs above the diagonal.

    Pairs are independent of one another, so evaluation order (or a
    parallel map) cannot change the result.
    """
    k = len(items)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    out = [[Fraction(0)] * k for _ in range(k)]
    for (i, j), d in zip(pairs, _values(items, items, pairs)):
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
