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

Both loops run on integer bitmasks.  The decomposition keeps each row's
support, the columns where it is still positive, as one integer.  The flow
keeps, per row, its empty columns, per column, the rows that hold a unit
there, and the arcs of reduced cost 0.  Each path takes one Dijkstra whose
first phase pops the zero layer, the nodes those arcs reach, on bitmasks in
the heap's order.  Almost every path after the first ends there; the heap
phase runs only when the layer misses the sink or an arc leaves it.
"""

from __future__ import annotations

import heapq

from .core import Election, FrequencyMatrix, PositionMatrix, _integers


def _perfect_matching(support: list[int]) -> list[int]:
    """Perfect matching of rows to columns, where bit j of ``support[r]``
    marks a positive entry (r, j).

    Kuhn's augmenting paths, each row trying its columns in ascending
    order, so the result is deterministic.  Every column a row has tried is
    marked seen, so the next one it tries is the lowest support column not
    yet seen.  The depth-first search keeps its path on an explicit stack,
    since a path can pass through every row.  Raises if no perfect matching
    exists, which for a positive-line-sum position matrix cannot happen.
    """
    m = len(support)
    match_col = [-1] * m  # column -> row
    for i in range(m):
        seen = 0
        rows = [i]  # the search path; cols[k] leads from rows[k] to rows[k + 1]
        cols: list[int] = []
        while rows:
            free = support[rows[-1]] & ~seen
            if not free:  # dead end: back to the row before, past its column
                rows.pop()
                if cols:
                    cols.pop()
                continue
            low = free & -free
            seen |= low
            j = low.bit_length() - 1
            cols.append(j)
            if match_col[j] < 0:
                for row, col in zip(rows, cols):
                    match_col[col] = row
                break
            rows.append(match_col[j])
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
    support = [sum(1 << j for j, c in enumerate(row) if c) for row in work]
    votes: list[list[int]] = []
    mults: list[int] = []
    remaining = pos.n
    max_rounds = m * m - m + 1
    for _ in range(max_rounds):
        if remaining == 0:
            break
        matching = _perfect_matching(support)
        weight = min(work[i][matching[i]] for i in range(m))
        # vote[i] = candidate at rank i, straight off the matching
        votes.append(matching)
        mults.append(weight)
        for i, j in enumerate(matching):
            work[i][j] -= weight
            if not work[i][j]:
                support[i] ^= 1 << j
        remaining -= weight
    if remaining != 0:
        raise RuntimeError("decomposition failed to exhaust the matrix")
    return Election(
        candidates=tuple(range(m)),
        votes=votes,
        multiplicities=mults,
    )


def _bits(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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

    Each path takes one Dijkstra (``_search``).  Its first phase pops the
    zero layer, the nodes that arcs of reduced cost 0 reach from the
    source.  When that layer holds the sink and no residual arc leaves it,
    Dijkstra reaches exactly the layer, at distance 0, so the search ends
    there and the potentials stay.  Otherwise, when the layer misses the
    sink or an arc leaves it, a heap phase goes on from the layer and moves
    the potentials.  Rounding's costs are all positive, so its first path
    always takes the heap phase; later ones almost never do.
    """
    m = len(cost)
    sink = 2 * m + 1
    src_left = list(row_need)
    sink_left = list(col_need)
    empty = [(1 << m) - 1] * m  # row i: the columns j with (i, j) empty
    holders = [0] * m  # column j: the rows i with a unit at (i, j)
    fed = sum(1 << i for i, k in enumerate(row_need) if k)  # rows the source feeds
    feeding = sum(1 << j for j, k in enumerate(col_need) if k)  # columns that feed the sink
    returned = 0  # columns the sink can give a unit back to
    potential = [0] * (sink + 1)
    zero = _zero_arcs(cost, potential)
    for _ in range(sum(row_need)):
        prev, entries, zero = _search(cost, potential, zero, empty, holders, fed, feeding, returned)
        v = prev[sink]
        j = v - m - 1
        sink_left[j] -= 1
        returned |= 1 << j
        if not sink_left[j]:
            feeding ^= 1 << j
        while True:
            i, j = prev[v] - 1, v - m - 1
            empty[i] ^= 1 << j
            holders[j] |= 1 << i
            e = max((e for e in entries[i] if e <= j), default=min(entries[i]))
            if e < 0:
                src_left[i] -= 1
                if not src_left[i]:
                    fed ^= 1 << i
                break
            empty[i] |= 1 << e
            holders[e] ^= 1 << i
            v = m + 1 + e
    return [[h >> i & 1 for h in holders] for i in range(m)]


def _zero_arcs(cost: list[list[int]], potential: list[int]) -> tuple[list[int], list[int], int]:
    """The arcs of reduced cost 0 under ``potential``, as bitmasks: per row
    i, the columns j with cost[i][j] + potential(i) == potential(j), which
    makes both the arc i -> j and its reverse cost 0; per column, the same
    cells by row; and the columns at the sink's potential."""
    m = len(cost)
    col_potential = potential[m + 1 : 2 * m + 1]
    tight_row = [0] * m
    tight_col = [0] * m
    for i, row in enumerate(cost):
        p = potential[i + 1]
        for j, q in enumerate(col_potential):
            if row[j] + p == q:
                tight_row[i] |= 1 << j
                tight_col[j] |= 1 << i
    at_sink = sum(1 << j for j, q in enumerate(col_potential) if q == potential[-1])
    return tight_row, tight_col, at_sink


def _search(
    cost: list[list[int]],
    potential: list[int],
    zero: tuple[list[int], list[int], int],
    empty: list[int],
    holders: list[int],
    fed: int,
    feeding: int,
    returned: int,
) -> tuple[list[int], list[list[int]], tuple[list[int], list[int], int]]:
    """``prev``, ``entries`` and the zero arcs after one Dijkstra over the
    residual network, run to exhaustion.

    Its first phase pops the zero layer, the nodes at distance 0, on
    bitmasks in the heap's (0, id) order: the lowest row waiting, else the
    lowest column, else the sink.  It starts from the fed rows, each with
    entry -1: they sit at potential 0, so the source reaches them at
    distance 0 and is no node of the search.  Rows come before columns, so
    every row pops before the next column does and has exactly one entry:
    the source, or the column that first reached it.  A node's ``prev`` is
    likewise the first node that reached it.  When the layer holds the sink
    and no residual arc leaves it, Dijkstra reaches exactly the layer, so
    the search ends there and the potentials and zero arcs stay.

    Otherwise, when the layer misses the sink or an arc leaves it, the heap
    phase relaxes the arcs of the layer's nodes in the order they popped,
    pops the other nodes from a heap, adds every reached node's distance to
    its potential and rebuilds the zero arcs.
    """
    tight_row, tight_col, at_sink = zero
    m = len(empty)
    sink = 2 * m + 1
    prev = [0] * (sink + 1)  # column: the row or sink before it; sink: its column
    entries = [[-1]] * m  # -1 for the source, c for column c; the shared [-1] is never appended to
    order: list[int] = []  # the layer's nodes as they pop
    rows = seen_rows = fed  # reached; rows and cols hold those not yet popped
    cols = seen_cols = 0
    heads_rows = heads_cols = 0  # where the arcs out of popped nodes lead
    sink_seen = sink_popped = False
    while True:
        if rows:
            i = (rows & -rows).bit_length() - 1
            rows &= rows - 1
            order.append(i + 1)
            heads_cols |= empty[i]
            new = empty[i] & tight_row[i] & ~seen_cols
            seen_cols |= new
            cols |= new
            for j in _bits(new) if new else ():
                prev[m + 1 + j] = i + 1
        elif cols:
            j = (cols & -cols).bit_length() - 1
            cols &= cols - 1
            order.append(m + 1 + j)
            heads_rows |= holders[j]
            new = holders[j] & tight_col[j] & ~seen_rows
            seen_rows |= new
            rows |= new
            for i in _bits(new) if new else ():
                entries[i] = [j]
            if not sink_seen and (feeding & at_sink) >> j & 1:
                sink_seen = True
                prev[sink] = m + 1 + j
        elif sink_seen and not sink_popped:
            sink_popped = True
            order.append(sink)
            heads_cols |= returned
            new = returned & at_sink & ~seen_cols
            seen_cols |= new
            cols |= new
            for j in _bits(new) if new else ():
                prev[m + 1 + j] = sink
        else:
            break
    if sink_seen and not (heads_rows & ~seen_rows or heads_cols & ~seen_cols):
        return prev, entries, zero

    inf = float("inf")
    dist: list[float | int] = [inf] * (sink + 1)
    for u in order:
        dist[u] = 0
    heap: list[tuple[int, int]] = []

    def relax(u: int, d: int) -> None:
        """The arcs out of node u, popped at distance d."""
        base = d + potential[u]
        if u <= m:
            for j in _bits(empty[u - 1]):
                v = m + 1 + j
                nd = base + cost[u - 1][j] - potential[v]
                if nd < dist[v]:
                    dist[v] = nd
                    prev[v] = u
                    heapq.heappush(heap, (nd, v))
        elif u < sink:
            j = u - m - 1
            for i in _bits(holders[j]):  # order is free: each row once, entries read by max/min
                nd = base - cost[i][j] - potential[i + 1]
                if nd < dist[i + 1]:
                    dist[i + 1] = nd
                    entries[i] = [j]
                    heapq.heappush(heap, (nd, i + 1))
                elif d < nd == dist[i + 1]:  # not popped: rows at distance d pop before u
                    entries[i].append(j)
            if feeding >> j & 1:
                nd = base - potential[sink]
                if nd < dist[sink]:
                    dist[sink] = nd
                    prev[sink] = u
                    heapq.heappush(heap, (nd, sink))
        else:
            for j in _bits(returned):
                v = m + 1 + j
                nd = base - potential[v]
                if nd < dist[v]:
                    dist[v] = nd
                    prev[v] = sink
                    heapq.heappush(heap, (nd, v))

    for u in order:
        relax(u, 0)
    while heap:
        d, u = heapq.heappop(heap)
        if d == dist[u]:
            relax(u, d)
    if dist[sink] == inf:
        raise RuntimeError("rounding flow did not saturate")
    for v in range(sink + 1):
        if dist[v] < inf:
            potential[v] += dist[v]
    return prev, entries, _zero_arcs(cost, potential)


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
