"""Positionwise distance between frequency matrices.

The distance between two columns (distributions over rank positions) is
the earth mover's distance on the line, computed exactly by prefix sums.
The distance between two matrices is the cheapest way to match their
columns.  Both matrices are brought to the least common multiple of their
denominators, so the prefix sums and the cost matrix are integers (int64
when they fit, Python integers otherwise) and the result is an exact
rational.

The assignment solver works on those integers as they are.  Pairs are
solved in blocks that hold ``_BLOCK`` cost entries.  For a block at
once, numpy builds the cost matrices and the starting duals, and each
row greedily takes a free column of reduced cost 0.  Only the rows left
free go on to a shortest augmenting path search, in one of two numpy
loops that ``_complete`` picks: ``_lockstep`` runs the pairs of a block
together if at least ``_LOCKSTEP`` have a free row, which only blocks at
m <= 45 can hold, and ``_augment_wide`` completes fewer one pair at a
time.  Both run on int64 keys while ``_key_top`` bounds them below 2**63,
and on ``object`` costs and duals (Python integers) otherwise.  Every
matching is then tight under feasible duals, so a pair's total is the
sum of its duals.  The batch callers, ``cross_distances`` and
``distance_matrix``, stop there: every optimal matching has the same
total.  Only ``positionwise`` returns a permutation, and it runs one more
pass over the edges of reduced cost 0 to pick the lexicographically
smallest optimal column matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Iterator, Sequence

import numpy as np

from .core import FrequencyMatrix

# cost entries per block of pairs in the batched solve
_BLOCK = 2**16
# Pairs with a free row from which _lockstep runs; _augment_wide takes fewer
# one at a time.  Completing k such pairs of paper-style blocks (compass
# anchors, IC, urn and normalized-Mallows elections, n = 100; 2-vCPU machine)
# both ways, the loops break even near 12 pairs at m = 10 and 22-26 at m =
# 20-40; at 32, lockstep is 2.1x, 1.3x, 1.2x, 1.2x faster at m = 10, 20, 30,
# 40; at 8, 0.8x, 0.5x, 0.5x, 0.4x as fast.  A block holds _BLOCK // m**2
# pairs, 32 at m = 45, so _lockstep runs only for m <= 45.
_LOCKSTEP = 32


@dataclass(frozen=True)
class DistanceRecord:
    """Distance value plus the column matching that attains it.

    ``column_permutation[i]`` is the column of the second matrix matched to
    column i of the first.  Among all optimal matchings it is the
    lexicographically smallest, which makes results reproducible.
    """

    value: Fraction
    column_permutation: tuple[int, ...]


def _start(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Starting duals and a partial matching for a block of pairs.

    ``cost[b]`` is the cost matrix of pair b (int64, or ``object`` for
    Python integers).  This returns the arrays (u, v, col_of), each of
    shape (pairs, m).  The duals u (rows) and v (columns) come from a row
    reduction followed by a column reduction, as in Jonker & Volgenant
    (1987), so every reduced cost ``cost[b, i, j] - u[b, i] - v[b, j]`` is
    nonnegative.  Then each row, in order, takes its first free column of
    reduced cost 0: ``col_of[b, i]`` is that column, or -1 if none is
    left.  Row i is placed in all pairs at once, so the block takes m
    numpy steps.
    """
    pairs, m, _ = cost.shape
    u = cost.min(axis=2)
    reduced = cost - u[:, :, None]
    v = reduced.min(axis=1)
    tight = reduced == v[:, None, :]
    # untaken columns of every pair, flat: pair b's column j is at b * m + j
    untaken = np.ones(pairs * m, dtype=bool)
    first = np.arange(0, pairs * m, m)
    col_of = np.empty((pairs, m), dtype=np.int64)
    for i in range(m):
        free = tight[:, i] & untaken.reshape(pairs, m)
        j = free.argmax(axis=1)
        at = first + j
        # argmax of a row with no free column is 0, so check that column
        hit = free.take(at)
        untaken[at] &= ~hit
        col_of[:, i] = np.where(hit, j, -1)
    return u, v, col_of


def _key_top(cost: np.ndarray) -> int:
    """The initial key of the searches over ``cost``, the m x m costs in
    [0, c] of one pair or a block: every key lies below it.  c bounds the
    start duals.  Feasible duals sum to at most m * c and each
    augmentation adds its reach, so all reaches sum to at most m * c.  u only
    rises, v only falls, by a reach at most: u in [0, (m + 1) c], v in [-m c,
    c], a dist (reach plus reduced cost) in [0, (2m + 1) c].  With 2**b >= m,
    keys and partial sums lie in +-2**(b + 1) ((2m + 1) c + 1), keys strictly:
    int64 holds them if that bound is below 2**63."""
    m = cost.shape[-1]
    return ((2 * m + 1) * int(cost.max()) + 1) << ((m - 1).bit_length() + 1)


def _nearest(key: np.ndarray, top: int):
    """The argmin over the unscanned keys of ``key`` (along an axis, if
    given), bound once per loop.  An int64 scanned key ~k is negative, so
    read as unsigned it lies past every unscanned one; an ``object`` one is
    masked to ``top``."""
    if key.dtype == np.int64:
        return key.view(np.uint64).argmin
    return lambda axis=None: np.where(key < 0, top, key).argmin(axis)


def _augment_wide(cost: np.ndarray, u: np.ndarray, v: np.ndarray, col_of: np.ndarray) -> None:
    """Complete a partial matching of one cost matrix to an optimal one.

    ``u``, ``v`` and ``col_of`` are as ``_start`` gives them, int64 if
    ``_key_top`` fits int64 or else ``object``, and are updated in place.
    Each row left free is placed by a shortest augmenting path over the
    reduced costs, in the form of Crouse (2016) that scipy's
    ``linear_sum_assignment`` also uses: it scans only unscanned columns,
    prefers a free column on a tie, and moves the duals once per
    augmentation.  A Dijkstra step is a few numpy steps over the m columns,
    whose state is one key each, as in ``_lockstep``.  Each augmentation
    first shifts the reduced costs but for u into keys, so that relaxing
    row i is one addition to row i."""
    m = len(cost)
    b = (m - 1).bit_length()
    top = _key_top(cost)
    rows = cost << (b + 1)
    row_of = np.full(m, -1)
    row_of[col_of[col_of >= 0]] = np.flatnonzero(col_of >= 0)
    taken = (row_of >= 0) << b  # the matched bit of the keys
    row_of = row_of.tolist()
    keyed, key, relaxed = np.empty_like(rows), *np.empty((2, m), cost.dtype)
    nearest = _nearest(key, top)
    for free in np.flatnonzero(col_of < 0).tolist():
        np.subtract(rows, (v << (b + 1)) - taken, out=keyed)
        uk = ((u << (b + 1)) - np.arange(m)).tolist()  # reach - uk[i] adds pred i
        key.fill(top)
        i, reach = free, 0  # reach shifted as the keys
        while i >= 0:
            np.add(keyed[i], reach - uk[i], out=relaxed)
            np.minimum(key, relaxed, out=key)
            j = int(nearest())
            reach = int(key[j])
            key[j] = ~reach
            reach = reach >> (b + 1) << (b + 1)
            i = row_of[j]
        reach >>= b + 1
        delta = np.where(key < 0, reach - (~key >> (b + 1)), 0)
        v -= delta
        u += np.where(col_of >= 0, delta[col_of], 0)
        u[free] += reach
        taken[j] = 1 << b
        pred = (~key & ((1 << b) - 1)).tolist()
        while True:
            i = pred[j]
            row_of[j] = i
            col_of[i], j = j, int(col_of[i])
            if i == free:
                break


def _assignment_lex(cost: np.ndarray) -> tuple[int, list[int]]:
    """Minimum-cost assignment over one integer cost matrix, exactly.

    Returns (total cost, assignment) where assignment[i] is the column
    given to row i: among all optimal assignments, the lexicographically
    smallest.  ``cost`` is a square int64 or ``object`` array.

    ``_start`` and ``_complete`` find one optimal assignment.  The final
    duals sum to the optimal total, and the optimal assignments are
    exactly the perfect matchings on the tight edges (reduced cost 0) of
    any optimal duals, whichever loop gave them.
    The tie-break fixes rows in order: a row keeps its column or swaps,
    along one alternating cycle of tight edges among the rows after it,
    to the smallest tight column such a cycle reaches.  One backward
    search from the row's column finds them all, so the pass is O(m^3),
    like the solve.  It is skipped when ``_start`` matches every row, each
    to its smallest tight column left free.
    """
    m = len(cost)
    u, v, col_of = _start(cost[None])
    if (col_of >= 0).all():
        return sum(u[0].tolist()) + sum(v[0].tolist()), col_of[0].tolist()
    u, v = _complete(cost[None], u, v, col_of)
    u, v, col_of = u[0].tolist(), v[0].tolist(), col_of[0].tolist()
    row_of = np.argsort(col_of).tolist()
    rows = cost.tolist()
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
    return sum(u) + sum(v), col_of


def _lockstep(
    cost: np.ndarray, u: np.ndarray, v: np.ndarray, col_of: np.ndarray, live: np.ndarray
) -> None:
    """Complete in place the partial matchings of the pairs ``live`` of a
    block by the augmentations of ``_augment_wide``, in lockstep: each
    round, every live pair augments once from its first free row, with one
    numpy step per Dijkstra step for all of them, until no pair has a free
    row.  A column's state is one key: ((2 * dist + matched) << b) + pred
    while unscanned, so a minimum relaxes dist and pred together and an
    argmin takes the nearest column, a free one on a tie; ~key once
    scanned.  Relaxations are nonnegative, so a minimum never touches a
    scanned key, and ``_nearest`` never takes one.
    """
    m = cost.shape[1]
    b = (m - 1).bit_length()
    top = _key_top(cost)
    rows = (cost << (b + 1)).reshape(-1, m)
    cu, cv, cc = u[live], v[live], col_of[live]
    cr = np.full_like(cc, -1)
    k, i = np.nonzero(cc >= 0)
    cr[k, cc[k, i]] = i
    while live.size:  # a round places one free row of every live pair
        at = np.arange(live.size)
        base, uk, vk = live * m, cu << (b + 1), (cv << (b + 1)) - ((cr >= 0) << b)
        i = free = (cc < 0).argmax(axis=1)
        reach, end = np.zeros((2, live.size), cost.dtype)  # reach shifted as the keys
        key, going = np.full((live.size, m), top, cost.dtype), np.ones(live.size, bool)
        nearest = _nearest(key, top)
        for _ in range(m):  # a step scans a column, and a free one is left
            relaxed = np.take(rows, base + i, axis=0)
            relaxed -= vk
            relaxed += (reach - uk[at, i] + i)[:, None]
            np.minimum(key, relaxed, out=key)
            j = nearest(1)
            kj = key[at, j]
            key[at, j] = np.where(going, ~kj, kj)
            reach = np.where(going, kj >> (b + 1) << (b + 1), reach)
            end = np.where(going, j, end)
            nxt = cr[at, j]
            going &= nxt >= 0
            if not going.any():
                break
            i = np.where(going, nxt, i)
        reach >>= b + 1
        delta = np.where(key < 0, reach[:, None] - (~key >> (b + 1)), 0)
        cv -= delta
        cu += np.where(cc >= 0, np.take_along_axis(delta, cc, axis=1), 0)
        cu[at, free] += reach
        # indices, int64 also when the keys are object
        pred, j = (~key & ((1 << b) - 1)).astype(np.int64), end.astype(np.int64)
        for _ in range(m):  # a path holds at most m rows
            i = pred[at, j]
            back = cc[at, i]
            cr[at, j] = i
            cc[at, i] = j
            on = i != free[at]
            at, j = at[on], back[on]
            if not at.size:
                break
        u[live], v[live], col_of[live] = cu, cv, cc
        left = (cc < 0).any(axis=1)
        live, cu, cv, cc, cr = live[left], cu[left], cv[left], cc[left], cr[left]


def _complete(
    cost: np.ndarray, u: np.ndarray, v: np.ndarray, col_of: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Complete in place the matchings that ``_start`` left partial, by the
    loop the module docstring names, and return the final duals (u, v).
    They are ``object`` arrays for an ``object`` block and for an int64
    block whose keys would pass int64, which runs on ``object`` costs."""
    todo = np.flatnonzero((col_of < 0).any(axis=1))
    if cost.dtype == np.int64 and len(todo) and _key_top(cost) >= 2**63:
        cost, u, v = cost.astype(object), u.astype(object), v.astype(object)
    if len(todo) >= _LOCKSTEP:
        _lockstep(cost, u, v, col_of, todo)
    else:
        for b in todo.tolist():
            _augment_wide(cost[b], u[b], v[b], col_of[b])
    return u, v


def _totals(cost: np.ndarray) -> list[int]:
    """Optimal assignment totals of a block of cost matrices.

    Only the pairs left with a free row by ``_start`` go through
    ``_complete``.  Every matching is then tight under feasible duals and
    so optimal; its total is the dual objective, the same for every
    optimal matching, so no tie-break is needed.  Totals are Python
    integers: a total can reach m times the largest cost, past int64.
    """
    u, v, col_of = _start(cost)
    u, v = _complete(cost, u, v, col_of)
    return (u.sum(axis=1, dtype=object) + v.sum(axis=1, dtype=object)).tolist()


def _costs(px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Cost matrices of a block of pairs from their scaled prefix sums, in
    their dtype: ``cost[b, i, j]`` is the sum over positions p of
    ``|px[b, p, i] - py[b, p, j]|``.  Each position is added through one
    reused temporary of the cost's shape.  The last position adds nothing:
    every column's prefix sum is the whole scale there."""
    pairs, m, _ = px.shape
    cost = np.zeros((pairs, m, m), dtype=px.dtype)
    diff = np.empty_like(cost)
    for p in range(m - 1):
        np.subtract(px[:, p, :, None], py[:, p, None, :], out=diff)
        cost += np.abs(diff, out=diff)
    return cost


def _block_pairs(m: int) -> int:
    return max(1, _BLOCK // (m * m))  # as many pairs as fit _BLOCK cost entries


def _cost_blocks(
    xs: Sequence[FrequencyMatrix],
    ys: Sequence[FrequencyMatrix],
    pairs: Sequence[tuple[int, int]],
) -> Iterator[tuple[list[int], list[int], np.ndarray]]:
    """Cost tensors of ``xs[i]`` against ``ys[j]`` for the pairs (i, j), in
    blocks: yields the block's indices into ``pairs``, their scales and the
    ``_costs`` of their prefix sums multiplied up to the scale lcm(Dx, Dy).
    Those, their differences and every partial cost lie in [-m * scale,
    m * scale]: int64 for pairs below 2**62, Python integers for the others.
    An int64 block is built in int16, int32 or int64, the narrowest that
    holds its largest m * scale (more numpy lanes per step), then cast to int64."""
    if not pairs:
        return
    zs, off = (xs, 0) if ys is xs else ([*xs, *ys], len(xs))  # each matrix once
    m = zs[0].m
    for z in zs:
        if z.m != m:
            raise ValueError(f"matrix sizes differ: {m} vs {z.m}")
    # column prefix sums lie in [0, denominator]; fromiter over the flat
    # counts is faster than np.array on nested tuples
    kind = np.int64 if max(z.denominator for z in zs) < 2**62 else object
    flat = chain.from_iterable(chain.from_iterable(z.counts for z in zs))
    sums = np.add.accumulate(np.fromiter(flat, kind, len(zs) * m * m).reshape(-1, m, m), axis=1)
    scales = [lcm(xs[i].denominator, ys[j].denominator) for i, j in pairs]
    size = _block_pairs(m)
    for wide in (np.int64, object):
        todo = [k for k, s in enumerate(scales) if (m * s < 2**62) == (wide is np.int64)]
        for at in range(0, len(todo), size):
            block = todo[at : at + size]
            top = m * max(scales[k] for k in block)
            dtype = np.int16 if top < 2**15 else np.int32 if top < 2**31 else wide
            picks = [(k, pairs[k][0]) for k in block] + [(k, off + pairs[k][1]) for k in block]
            up = np.array([scales[k] // zs[z].denominator for k, z in picks], dtype=dtype)
            p = sums.take([z for _, z in picks], axis=0).astype(dtype, copy=False)
            p *= up[:, None, None]
            cost = _costs(p[: len(block)], p[len(block) :])
            yield block, [scales[k] for k in block], cost.astype(wide, copy=False)


def _values(
    xs: Sequence[FrequencyMatrix],
    ys: Sequence[FrequencyMatrix],
    pairs: Sequence[tuple[int, int]],
) -> list[Fraction]:
    """Exact distance of ``xs[i]`` and ``ys[j]`` for each pair (i, j)."""
    out = [Fraction(0)] * len(pairs)
    for block, scales, cost in _cost_blocks(xs, ys, pairs):
        for k, scale, total in zip(block, scales, _totals(cost)):
            out[k] = Fraction(total, scale)
    return out


def positionwise(x: FrequencyMatrix, y: FrequencyMatrix) -> DistanceRecord:
    """Positionwise distance: minimum over column matchings of the summed
    per-column earth mover's distances."""
    ((_, (scale,), cost),) = _cost_blocks([x], [y], [(0, 0)])
    total, assignment = _assignment_lex(cost[0])
    return DistanceRecord(Fraction(total, scale), tuple(assignment))


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
