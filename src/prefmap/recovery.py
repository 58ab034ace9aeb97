"""Recovering elections from position and frequency matrices.

A position matrix decomposes into a weighted sum of permutation matrices
(Birkhoff-von Neumann, integer flavor): repeatedly find a perfect matching
on the nonzero entries, read it as a vote, subtract the largest multiple
that keeps entries nonnegative.  Each round zeroes at least one entry, so
at most m*m - m + 1 distinct votes appear.

A frequency matrix x first becomes a position matrix for a requested
voter count n: p = floor(n*x) plus a 0/1 matrix chosen by a min-cost flow
so that line sums come out right and the total deviation |n*x - p| is
minimal (every entry stays within 1 of n*x).  The flow runs on 2m + 2
nodes, a source, one node per row, one per column and a sink, by
successive shortest paths.  Among paths of equal cost it picks the one
that a network with a chain of m nodes per row (m*m + m + 2 nodes) would
pick: a row remembers every entry that reaches its final distance, and a
path leaving into column j came in through the entry at the largest
position <= j, else the smallest (see ``_place_units``).
"""

from __future__ import annotations

import heapq

from .core import Election, FrequencyMatrix, PositionMatrix, _integers


def _perfect_matching(counts: list[list[int]]) -> list[int]:
    """Perfect matching of rows to columns on the positive entries of ``counts``.

    Kuhn's augmenting paths, scanning columns in ascending order so the
    result is deterministic.  The depth-first search keeps its path on an
    explicit stack, since a path can pass through every row.  Raises if
    no perfect matching exists, which for a positive-line-sum position
    matrix cannot happen.
    """
    m = len(counts)
    match_col = [-1] * m  # column -> row
    for i in range(m):
        seen = [False] * m
        rows = [i]  # the search path; cols[k] leads from rows[k] to rows[k + 1]
        cols: list[int] = []
        scan = [0]  # next column each row on the path tries
        while rows:
            r = rows[-1]
            j = scan[-1]
            while j < m and (counts[r][j] <= 0 or seen[j]):
                j += 1
            if j == m:  # dead end: back to the row before, past its column
                rows.pop()
                scan.pop()
                if cols:
                    cols.pop()
                continue
            seen[j] = True
            scan[-1] = j + 1
            cols.append(j)
            if match_col[j] < 0:
                for row, col in zip(rows, cols):
                    match_col[col] = row
                break
            rows.append(match_col[j])
            scan.append(0)
        else:
            raise RuntimeError("support admits no perfect matching")
    row_to_col = [-1] * m
    for j, i in enumerate(match_col):
        row_to_col[i] = j
    return row_to_col


def election_from_position_matrix(pos: PositionMatrix) -> Election:
    """Some election whose position matrix is exactly ``pos``.

    The election has at most m*m - m + 1 distinct votes.  Which valid
    election comes back is unspecified but deterministic.
    """
    m = pos.m
    work = [list(row) for row in pos.entries]
    votes: list[list[int]] = []
    mults: list[int] = []
    remaining = pos.n
    max_rounds = m * m - m + 1
    for _ in range(max_rounds):
        if remaining == 0:
            break
        matching = _perfect_matching(work)
        weight = min(work[i][matching[i]] for i in range(m))
        # vote[i] = candidate at rank i, straight off the matching
        votes.append(matching)
        mults.append(weight)
        for i in range(m):
            work[i][matching[i]] -= weight
        remaining -= weight
    if remaining != 0:
        raise RuntimeError("decomposition failed to exhaust the matrix")
    return Election(
        candidates=tuple(range(m)),
        votes=votes,
        multiplicities=mults,
    )


def _place_units(
    cost: list[list[int]], row_need: list[int], col_need: list[int]
) -> list[list[int]]:
    """0/1 matrix with row_need[i] units in row i and col_need[j] in column
    j, of least total cost: successive shortest paths, Dijkstra with
    potentials, one unit per path.

    The network has one node per row and one per column: source 0, rows
    1..m, columns m+1..2m, sink 2m+1.  The source feeds row i up to
    row_need[i], row i reaches column j at cost[i][j] while (i, j) is
    empty, column j gives its units back to their rows at -cost[i][j], and
    column j feeds the sink up to col_need[j].  Costs must be nonnegative.

    The choices are those of a network in which row i is a chain of m
    nodes, entered at position 0 from the source or at position c from
    column c through a placed unit (i, c), and left at position j into
    column j.  A chain row is one node for distances, since all its
    positions are reachable at cost 0, but its heap sweeps the positions
    in a fixed order: down from the smallest entry, then up.  So a row
    records every entry that reaches its final distance before it is
    popped (at position 0 the source comes first), and a path that leaves
    into column j came in through the largest entry position <= j, or,
    if there is none, the smallest.  Heap ties on (dist, id) put rows
    before columns before the sink, as the chain ids do, and every
    Dijkstra runs to exhaustion, since the potentials of all reached
    nodes steer later ties.
    """
    m = len(cost)
    sink = 2 * m + 1
    inf = float("inf")
    src_left = list(row_need)
    sink_left = list(col_need)
    placed = [[0] * m for _ in range(m)]
    potential = [0] * (sink + 1)
    for _ in range(sum(row_need)):
        dist: list[float | int] = [inf] * (sink + 1)
        dist[0] = 0
        prev = [0] * (sink + 1)  # column: the row or sink before it; sink: its column
        entries: list[list[int]] = [[] for _ in range(m)]  # -1 for the source, c for column c
        popped = [False] * (sink + 1)
        heap: list[tuple[int, int]] = [(0, 0)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            popped[u] = True
            base = d + potential[u]
            if u == 0:
                for i in range(m):
                    if src_left[i] > 0:
                        dist[i + 1] = base - potential[i + 1]
                        entries[i] = [-1]
                        heapq.heappush(heap, (dist[i + 1], i + 1))
            elif u <= m:
                row_cost, row_placed = cost[u - 1], placed[u - 1]
                for j in range(m):
                    if not row_placed[j]:
                        v = m + 1 + j
                        nd = base + row_cost[j] - potential[v]
                        if nd < dist[v]:
                            dist[v] = nd
                            prev[v] = u
                            heapq.heappush(heap, (nd, v))
            elif u < sink:
                j = u - m - 1
                for i in range(m):
                    if placed[i][j]:
                        nd = base - cost[i][j] - potential[i + 1]
                        if nd < dist[i + 1]:
                            dist[i + 1] = nd
                            entries[i] = [j]
                            heapq.heappush(heap, (nd, i + 1))
                        elif nd == dist[i + 1] and not popped[i + 1] and (j or entries[i][0] != -1):
                            entries[i].append(j)
                if sink_left[j] > 0:
                    nd = base - potential[sink]
                    if nd < dist[sink]:
                        dist[sink] = nd
                        prev[sink] = u
                        heapq.heappush(heap, (nd, sink))
            else:
                for j in range(m):
                    if sink_left[j] < col_need[j]:
                        v = m + 1 + j
                        nd = base - potential[v]
                        if nd < dist[v]:
                            dist[v] = nd
                            prev[v] = sink
                            heapq.heappush(heap, (nd, v))
        if dist[sink] == inf:
            raise RuntimeError("rounding flow did not saturate")
        for v in range(sink + 1):
            if dist[v] < inf:
                potential[v] += dist[v]
        v = prev[sink]
        sink_left[v - m - 1] -= 1
        while True:
            i, j = prev[v] - 1, v - m - 1
            placed[i][j] = 1
            e = max((e for e in entries[i] if e <= j), default=min(entries[i]))
            if e < 0:
                src_left[i] -= 1
                break
            placed[i][e] = 0
            v = m + 1 + e
    return placed


def round_position_matrix(x: FrequencyMatrix, n: int) -> PositionMatrix:
    """Position matrix for n voters closest to n * x.

    Every entry of the result is within 1 of n * x(i, j), line sums equal
    n, and the total deviation sum |n*x - p| is minimal among all such
    matrices.  Deterministic for fixed input.

    The missing units go where ``_place_units`` puts them: a min-cost flow
    on 2m + 2 nodes, one per row and column, whose entry rule keeps the
    choices of the m*m + m + 2 node network with a chain of m nodes per
    row that it replaced.
    """
    (n,) = _integers((n,), "voter counts")
    if n < 1:
        raise ValueError("voter count must be positive")
    d = x.denominator
    floor = [[n * c // d for c in row] for row in x.counts]
    # d times the fractional part of n * x(i, j)
    frac = [[n * c % d for c in row] for row in x.counts]

    # Missing mass per row/column is integral because lines of n*x sum to n.
    row_need = [sum(row) // d for row in frac]
    col_need = [sum(col) // d for col in zip(*frac)]
    if sum(row_need) == 0:
        return PositionMatrix(tuple(tuple(row) for row in floor))

    # Choosing entry (i, j) changes the deviation by (1 - y) - y for
    # fractional part y.  Scaled by d and shifted by +d per unit (every
    # solution places the same number of units) the costs become
    # nonnegative: 2*d - 2*d*y.
    cost = [[2 * d - 2 * f for f in row] for row in frac]
    placed = _place_units(cost, row_need, col_need)
    return PositionMatrix(
        tuple(tuple(f + u for f, u in zip(fr, ur)) for fr, ur in zip(floor, placed))
    )


def election_from_frequency_matrix(x: FrequencyMatrix, n: int) -> Election:
    """An n-voter election whose frequency matrix best approximates x.

    Exact whenever n * x is integral; otherwise every position count is
    within 1 of n * x and the total rounding deviation is minimal.
    """
    return election_from_position_matrix(round_position_matrix(x, n))
