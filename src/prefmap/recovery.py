"""Recovering elections from position and frequency matrices.

A position matrix decomposes into a weighted sum of permutation matrices
(Birkhoff-von Neumann, integer flavor): repeatedly find a perfect matching
on the nonzero entries, read it as a vote, subtract the largest multiple
that keeps entries nonnegative.  Each round zeroes at least one entry, so
at most m*m - m + 1 distinct votes appear.

A frequency matrix x first becomes a position matrix for a requested
voter count n: p = floor(n*x) plus a 0/1 matrix chosen by a min-cost flow
so that line sums come out right and the total deviation |n*x - p| is
minimal (every entry stays within 1 of n*x).
"""

from __future__ import annotations

import heapq

from .core import Election, FrequencyMatrix, PositionMatrix


def _perfect_matching(support: list[list[int]]) -> list[int]:
    """Perfect matching of rows to columns on a 0/1 support matrix.

    Kuhn's augmenting paths, scanning columns in ascending order so the
    result is deterministic.  Raises if no perfect matching exists, which
    for a positive-line-sum position matrix cannot happen.
    """
    m = len(support)
    match_col = [-1] * m  # column -> row
    for i in range(m):
        seen = [False] * m

        def try_row(r: int) -> bool:
            for j in range(m):
                if support[r][j] and not seen[j]:
                    seen[j] = True
                    if match_col[j] < 0 or try_row(match_col[j]):
                        match_col[j] = r
                        return True
            return False

        if not try_row(i):
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
    votes: list[tuple[int, ...]] = []
    mults: list[int] = []
    remaining = pos.n
    max_rounds = m * m - m + 1
    for _ in range(max_rounds):
        if remaining == 0:
            break
        support = [[1 if x > 0 else 0 for x in row] for row in work]
        matching = _perfect_matching(support)
        weight = min(work[i][matching[i]] for i in range(m))
        # vote[i] = candidate at rank i, straight off the matching
        votes.append(tuple(matching))
        mults.append(weight)
        for i in range(m):
            work[i][matching[i]] -= weight
        remaining -= weight
    if remaining != 0:
        raise RuntimeError("decomposition failed to exhaust the matrix")
    return Election(
        candidates=tuple(range(m)),
        votes=tuple(votes),
        multiplicities=tuple(mults),
    )


class _MinCostFlow:
    """Successive shortest paths with Dijkstra and potentials.

    Arc costs must be nonnegative; capacities integral.  Parallel arcs are
    fine.  ``flow_on`` reads how much ended up on a given arc.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []
        self.cost: list[int] = []

    def add_edge(self, u: int, v: int, cap: int, cost: int) -> int:
        idx = len(self.to)
        self.head[u].append(idx)
        self.to.append(v)
        self.cap.append(cap)
        self.cost.append(cost)
        self.head[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(0)
        self.cost.append(-cost)
        return idx

    def flow_on(self, edge_index: int) -> int:
        return self.cap[edge_index ^ 1]

    def run(self, s: int, t: int) -> tuple[int, int]:
        """Push the maximum flow from s to t at minimum cost."""
        n = self.n
        potential = [0] * n
        total_flow = 0
        total_cost = 0
        while True:
            dist: list[float | int] = [float("inf")] * n
            dist[s] = 0
            prev_edge = [-1] * n
            heap: list[tuple[int, int]] = [(0, s)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist[u]:
                    continue
                for idx in self.head[u]:
                    if self.cap[idx] <= 0:
                        continue
                    v = self.to[idx]
                    nd = d + self.cost[idx] + potential[u] - potential[v]
                    if nd < dist[v]:
                        dist[v] = nd
                        prev_edge[v] = idx
                        heapq.heappush(heap, (nd, v))
            if prev_edge[t] < 0:
                return total_flow, total_cost
            for v in range(n):
                if dist[v] < float("inf"):
                    potential[v] += dist[v]
            bottleneck = None
            v = t
            while v != s:
                idx = prev_edge[v]
                if bottleneck is None or self.cap[idx] < bottleneck:
                    bottleneck = self.cap[idx]
                v = self.to[idx ^ 1]
            assert bottleneck is not None and bottleneck > 0
            v = t
            while v != s:
                idx = prev_edge[v]
                self.cap[idx] -= bottleneck
                self.cap[idx ^ 1] += bottleneck
                total_cost += bottleneck * self.cost[idx]
                v = self.to[idx ^ 1]
            total_flow += bottleneck


def round_position_matrix(x: FrequencyMatrix, n: int) -> PositionMatrix:
    """Position matrix for n voters closest to n * x.

    Every entry of the result is within 1 of n * x(i, j), line sums equal
    n, and the total deviation sum |n*x - p| is minimal among all such
    matrices.  Deterministic for fixed input.
    """
    if n < 1:
        raise ValueError("voter count must be positive")
    m = x.m
    d = x.denominator
    floor = [[n * c // d for c in row] for row in x.counts]
    # d times the fractional part of n * x(i, j)
    frac = [[n * c % d for c in row] for row in x.counts]

    # Missing mass per row/column is integral because lines of n*x sum to n.
    row_need = [sum(row) // d for row in frac]
    col_need = [sum(col) // d for col in zip(*frac)]
    total_need = sum(row_need)
    if total_need == 0:
        return PositionMatrix(tuple(tuple(row) for row in floor))

    # Choosing entry (i, j) changes the deviation by (1 - y) - y for
    # fractional part y.  Scaled by d and shifted by +d per unit (each
    # unit crosses exactly one entry arc) the costs become nonnegative:
    # 2*d - 2*d*y.
    src = 0
    chain = lambda i, j: 1 + i * m + j
    col_node = lambda j: 1 + m * m + j
    sink = 1 + m * m + m
    net = _MinCostFlow(sink + 1)
    entry_edges: dict[tuple[int, int], int] = {}
    for i in range(m):
        if row_need[i] > 0:
            net.add_edge(src, chain(i, 0), row_need[i], 0)
        for j in range(m):
            if j + 1 < m:
                net.add_edge(chain(i, j), chain(i, j + 1), row_need[i], 0)
            entry_edges[(i, j)] = net.add_edge(
                chain(i, j), col_node(j), 1, 2 * d - 2 * frac[i][j]
            )
    for j in range(m):
        if col_need[j] > 0:
            net.add_edge(col_node(j), sink, col_need[j], 0)

    flow, _ = net.run(src, sink)
    if flow != total_need:
        raise RuntimeError("rounding flow did not saturate")

    entries = tuple(
        tuple(floor[i][j] + net.flow_on(entry_edges[(i, j)]) for j in range(m))
        for i in range(m)
    )
    return PositionMatrix(entries)


def election_from_frequency_matrix(x: FrequencyMatrix, n: int) -> Election:
    """An n-voter election whose frequency matrix best approximates x.

    Exact whenever n * x is integral; otherwise every position count is
    within 1 of n * x and the total rounding deviation is minimal.
    """
    return election_from_position_matrix(round_position_matrix(x, n))
