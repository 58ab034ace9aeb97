"""Elections over ranked ballots and their position/frequency matrices.

An election is a multiset of strict rankings over a common candidate set.
Its position matrix counts, for every rank position, how many voters put
each candidate there; dividing by the number of voters gives the
bistochastic frequency matrix that the rest of the package works with.
Both are integer matrices: a frequency matrix keeps its counts over one
common denominator in lowest terms, so all matrix arithmetic is exact
integer arithmetic and `fractions.Fraction` appears only at the edges.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Hashable, Iterable, Mapping, Sequence

Candidate = Hashable
# A vote is a permutation of candidate indices: vote[i] is the candidate
# placed at rank i (rank 0 is the top).
Vote = tuple[int, ...]
IntRows = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Election:
    """Immutable election: candidates, votes, and optional multiplicities.

    Votes are stored index-based; ``candidates`` maps index to an opaque
    identifier (int, str, ...).  ``multiplicities`` runs parallel to
    ``votes`` and defaults to all ones.  ``meta`` carries provenance
    (culture tag, parameters, source file) and is ignored by equality.
    """

    candidates: tuple[Candidate, ...]
    votes: tuple[Vote, ...]
    multiplicities: tuple[int, ...] | None = None
    meta: Mapping[str, object] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "candidates", tuple(self.candidates))
        votes = tuple(tuple(v) for v in self.votes)
        object.__setattr__(self, "votes", votes)
        if self.multiplicities is None:
            mult = (1,) * len(votes)
        else:
            mult = tuple(int(k) for k in self.multiplicities)
        object.__setattr__(self, "multiplicities", mult)

        m = len(self.candidates)
        if m < 1:
            raise ValueError("election needs at least one candidate")
        if len(set(self.candidates)) != m:
            raise ValueError("candidate identifiers must be distinct")
        if not votes:
            raise ValueError("election needs at least one vote")
        if len(mult) != len(votes):
            raise ValueError("multiplicities must run parallel to votes")
        expected = tuple(range(m))
        for v in votes:
            if tuple(sorted(v)) != expected:
                raise ValueError(f"vote {v!r} is not a permutation of 0..{m - 1}")
        for k in mult:
            if k < 1:
                raise ValueError("multiplicities must be positive")

    @property
    def m(self) -> int:
        return len(self.candidates)

    @property
    def n(self) -> int:
        return sum(self.multiplicities)

    def voter_votes(self) -> list[Vote]:
        """All votes expanded by multiplicity, one entry per voter."""
        out: list[Vote] = []
        for v, k in zip(self.votes, self.multiplicities):
            out.extend([v] * k)
        return out

    def vote_counter(self) -> Counter[Vote]:
        c: Counter[Vote] = Counter()
        for v, k in zip(self.votes, self.multiplicities):
            c[v] += k
        return c


def _line_total(
    entries: Iterable[Iterable[int]], what: str, unit: int = 1
) -> tuple[IntRows, int]:
    """Validate a nonempty square matrix of nonnegative integers whose rows
    and columns all share one positive sum; return the rows and that sum.
    Messages report sums divided by ``unit``, the matrix's denominator."""
    rows = tuple(tuple(int(x) for x in row) for row in entries)
    m = len(rows)
    if m < 1:
        raise ValueError(f"{what} must be nonempty")
    for row in rows:
        if len(row) != m:
            raise ValueError(f"{what} must be square")
        if min(row) < 0:
            raise ValueError(f"{what} entries must be nonnegative")
    total = sum(rows[0])
    for i, row in enumerate(rows):
        if sum(row) != total:
            raise ValueError(
                f"{what} row {i} sums to {Fraction(sum(row), unit)}, "
                f"expected {Fraction(total, unit)}"
            )
    for j, col in enumerate(zip(*rows)):
        if sum(col) != total:
            raise ValueError(
                f"{what} column {j} sums to {Fraction(sum(col), unit)}, "
                f"expected {Fraction(total, unit)}"
            )
    if total < 1:
        raise ValueError(f"{what} lines must have a positive sum")
    return rows, total


@dataclass(frozen=True)
class PositionMatrix:
    """Square integer matrix: entry (i, j) counts voters ranking candidate j
    at position i.  Every row and every column sums to the voter count n."""

    entries: IntRows
    m: int = field(init=False)
    n: int = field(init=False)

    def __post_init__(self) -> None:
        rows, n = _line_total(self.entries, "position matrix")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "m", len(rows))
        object.__setattr__(self, "n", n)


@dataclass(frozen=True, init=False)
class FrequencyMatrix:
    """Square bistochastic matrix of exact rationals: entry (i, j) is the
    fraction of voters ranking candidate j at position i.

    Stored as ``counts[i][j] / denominator`` in lowest terms: the counts
    are nonnegative integers whose rows and columns all sum to the
    denominator, and no integer above 1 divides all of them and the
    denominator.  The form is canonical, so equality and hashing compare
    the stored integers.
    """

    counts: IntRows
    denominator: int

    def __init__(self, entries: Iterable[Iterable[Fraction | int]]) -> None:
        """Build from rows of exact rationals; every line must sum to 1."""
        rows = [[Fraction(x) for x in row] for row in entries]
        d = lcm(*(x.denominator for row in rows for x in row))
        counts = ([x.numerator * (d // x.denominator) for x in row] for row in rows)
        counts, total = _line_total(counts, "frequency matrix", d)
        if total != d:
            raise ValueError("frequency matrix lines must sum to 1 exactly")
        vars(self).update(vars(_frequency(counts, d)))

    @property
    def m(self) -> int:
        return len(self.counts)

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        d = self.denominator
        return tuple(tuple(Fraction(c, d) for c in row) for row in self.counts)


def _frequency(counts: IntRows, denominator: int) -> FrequencyMatrix:
    """``counts / denominator`` in lowest terms, for valid counts whose lines sum to it."""
    g = gcd(denominator, *chain.from_iterable(counts))
    if g > 1:
        counts = [[c // g for c in row] for row in counts]
    freq = object.__new__(FrequencyMatrix)
    object.__setattr__(freq, "counts", tuple(map(tuple, counts)))
    object.__setattr__(freq, "denominator", denominator // g)
    return freq


def position_matrix(election: Election) -> PositionMatrix:
    """Tally the election into its position matrix."""
    m = election.m
    counts = [[0] * m for _ in range(m)]
    for vote, mult in zip(election.votes, election.multiplicities):
        for i, c in enumerate(vote):
            counts[i][c] += mult
    return PositionMatrix(tuple(tuple(row) for row in counts))


def frequency_matrix(election: Election) -> FrequencyMatrix:
    """Position matrix divided by the voter count, exactly."""
    return frequency_from_position(position_matrix(election))


def frequency_from_position(pos: PositionMatrix) -> FrequencyMatrix:
    """``pos / pos.n`` in lowest terms.  Any validated position matrix, of
    voters or of cleared denominators, gives a frequency matrix this way."""
    return _frequency(pos.entries, pos.n)


def borda_scores(election: Election) -> dict[Candidate, int]:
    """Borda score per candidate: a candidate at rank i among m earns m-1-i
    points from each voter."""
    m = election.m
    scores = [0] * m
    for vote, mult in zip(election.votes, election.multiplicities):
        for i, c in enumerate(vote):
            scores[c] += (m - 1 - i) * mult
    return {election.candidates[c]: scores[c] for c in range(m)}


def restrict_to_candidates(election: Election, keep: Iterable[Candidate]) -> Election:
    """Project every vote onto the kept candidates, preserving order.

    ``keep`` must be a nonempty subset of the election's candidates.
    Relative order within each vote and vote multiplicities are unchanged.
    """
    keep_set = set(keep)
    if not keep_set:
        raise ValueError("cannot restrict to an empty candidate set")
    index_of = {c: i for i, c in enumerate(election.candidates)}
    unknown = keep_set - set(index_of)
    if unknown:
        raise ValueError(f"unknown candidates in keep set: {sorted(map(str, unknown))}")

    kept_old = [i for i, c in enumerate(election.candidates) if c in keep_set]
    new_index = {old: new for new, old in enumerate(kept_old)}
    new_candidates = tuple(election.candidates[i] for i in kept_old)
    new_votes = tuple(
        tuple(new_index[c] for c in vote if c in new_index) for vote in election.votes
    )
    return Election(
        candidates=new_candidates,
        votes=new_votes,
        multiplicities=election.multiplicities,
        meta=dict(election.meta),
    )
