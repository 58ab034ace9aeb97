"""Elections over ranked ballots and their position/frequency matrices.

An election is a multiset of strict rankings over a common candidate set,
held as one read-only (rows, m) int64 array of candidate indices, best
first, plus a multiplicity per row.  The array is checked once, when the
election is built; tallies are array steps over it.  Its position matrix
counts, for every rank position, how many voters put each candidate there;
dividing by the number of voters gives the bistochastic frequency matrix
that the rest of the package works with.
Both are integer matrices: a frequency matrix keeps its counts over one
common denominator in lowest terms, so all matrix arithmetic is exact
integer arithmetic and `fractions.Fraction` appears only at the edges.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

Candidate = Hashable
# A vote is a permutation of candidate indices: vote[i] is the candidate
# placed at rank i (rank 0 is the top).
Vote = tuple[int, ...]
IntRows = tuple[tuple[int, ...], ...]


def _vote_array(votes: Sequence[Sequence[int]] | np.ndarray, m: int) -> np.ndarray:
    """The votes as a read-only (rows, m) int64 array, each row checked to
    be a permutation of 0..m-1 in one sort.  An integer array is taken as
    it is; other votes pass through int64 only if each has m entries and
    each entry equals its integer, so 0.5 or '0' is refused, not truncated
    or parsed.  Raises for the first vote that is not a permutation, named
    by its entries as given."""
    if isinstance(votes, np.ndarray) and votes.ndim == 2 and votes.dtype.kind in "biu":
        rows = votes.astype(np.int64)
        fits = votes.shape[1] == m
    else:
        votes = votes.tolist() if isinstance(votes, np.ndarray) else votes
        entries = [*chain.from_iterable(votes)]
        rows = np.zeros(0, np.int64)  # stays empty if an entry has no int64 value
        with suppress(TypeError, ValueError, OverflowError):
            rows = np.fromiter(entries, np.int64, len(entries))
        fits = rows.tolist() == entries and set(map(len, votes)) == {m}
    if fits:
        rows = rows.reshape(-1, m)
        if (np.sort(rows, axis=1) == np.arange(m)).all():
            rows.flags.writeable = False
            return rows
    given = votes.tolist() if isinstance(votes, np.ndarray) else votes
    vote = next(tuple(vote) for vote in given if not _sorts_to_ranks(vote, m))
    raise ValueError(f"vote {vote!r} is not a permutation of 0..{m - 1}")


def _sorts_to_ranks(vote: Sequence[int], m: int) -> bool:
    """Whether the entries, as given, sort to 0..m-1."""
    try:
        return sorted(vote) == list(range(m))
    except TypeError:  # entries that do not compare, such as '0' and 1
        return False


@dataclass(frozen=True, init=False, eq=False)
class Election:
    """Immutable election: candidates, votes, and optional multiplicities.

    Votes (rows of ints or a 2-D int array) are stored index-based, as a
    read-only int64 copy ``vote_array``; ``candidates`` maps index to an
    opaque identifier (int, str, ...).  ``multiplicities`` runs parallel
    to ``votes`` and defaults to all ones.  ``meta`` carries provenance
    (culture tag, parameters, source file) and is ignored by equality.
    """

    candidates: tuple[Candidate, ...]
    vote_array: np.ndarray
    multiplicities: tuple[int, ...]
    meta: Mapping[str, object]

    def __init__(
        self,
        candidates: Iterable[Candidate],
        votes: Sequence[Sequence[int]] | np.ndarray,
        multiplicities: Iterable[int] | None = None,
        meta: Mapping[str, object] | None = None,
    ) -> None:
        candidates = tuple(candidates)
        m = len(candidates)
        if m < 1:
            raise ValueError("election needs at least one candidate")
        if len(set(candidates)) != m:
            raise ValueError("candidate identifiers must be distinct")
        if not len(votes):
            raise ValueError("election needs at least one vote")
        ones = (1,) * len(votes)
        mult = _integers(ones if multiplicities is None else multiplicities, "multiplicities")
        if len(mult) != len(votes):
            raise ValueError("multiplicities must run parallel to votes")
        array = _vote_array(votes, m)
        if min(mult) < 1:
            raise ValueError("multiplicities must be positive")
        vars(self).update(
            candidates=candidates,
            vote_array=array,
            multiplicities=mult,
            meta={} if meta is None else meta,
        )

    def _key(self) -> tuple:
        return self.candidates, self.vote_array.tobytes(), self.multiplicities

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Election) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def votes(self) -> tuple[Vote, ...]:
        return tuple(map(tuple, self.vote_array.tolist()))

    @property
    def m(self) -> int:
        return len(self.candidates)

    @property
    def n(self) -> int:
        return sum(self.multiplicities)

    def vote_counter(self) -> Counter[Vote]:
        """Voters per distinct vote, the votes in ascending order."""
        # rows of nonnegative entries sort as the bytes of their big-endian form
        keys = self.vote_array.astype(">i8").view(np.dtype((np.void, 8 * self.m))).ravel()
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        counts = _voters_in(self, inverse, len(first)).tolist()
        return Counter(dict(zip(map(tuple, self.vote_array[first].tolist()), counts)))


def _voters_in(election: Election, cells: np.ndarray, size: int) -> np.ndarray:
    """Voters per cell 0..size-1, where ``cells`` holds one row of cells
    per vote: int64 while n < 2**63, Python integers from there on."""
    weights = np.array(election.multiplicities, np.int64 if election.n < 2**63 else object)
    counts = np.zeros(size, weights.dtype)
    np.add.at(counts, cells.ravel(), np.repeat(weights, cells.size // len(weights)))
    return counts


def _tally(election: Election) -> np.ndarray:
    """The (m, m) position counts: entry (i, c) counts the voters who put
    candidate c at rank i."""
    m = election.m
    return _voters_in(election, election.vote_array + np.arange(0, m * m, m), m * m).reshape(m, m)


def _integers(values: Iterable[object], what: str, number: type = int) -> tuple:
    """``values`` as Python ints, or as Fractions with ``number=Fraction``.
    Each must equal what ``number`` makes of it, so 1.5, "2", None or inf
    fail as ints and "1/2" as a Fraction; the first to fail is named."""
    raw = tuple(values)
    with suppress(TypeError, ValueError, OverflowError):
        exact = tuple(map(number, raw))
        if exact == raw:
            return exact
    for x in raw:
        with suppress(TypeError, ValueError, OverflowError):
            if number(x) == x:
                continue
        raise ValueError(f"{what} must be {'integers' if number is int else 'numbers'}, got {x!r}")


@contextmanager
def _in_file(path: object) -> Iterator[None]:
    """Start the message of every ValueError raised inside, UnicodeDecodeError
    included, with ``PATH: ``: the one place an input fault names its file."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _line_total(rows: Sequence[Sequence[int]], what: str, unit: int = 1) -> int:
    """Validate a nonempty square matrix of nonnegative Python integers, as
    given (outside entries pass ``_integers`` first), whose rows and columns
    share one positive sum; return that sum.  Messages report sums divided
    by ``unit``, the matrix's denominator."""
    m = len(rows)
    if m < 1:
        raise ValueError(f"{what} must be nonempty")
    for row in rows:
        if len(row) != m:
            raise ValueError(f"{what} must be square")
        if min(row) < 0:
            raise ValueError(f"{what} entries must be nonnegative")
    total = sum(rows[0])
    for kind, lines in (("row", rows), ("column", zip(*rows))):
        for i, line in enumerate(lines):
            if sum(line) != total:
                raise ValueError(
                    f"{what} {kind} {i} sums to {Fraction(sum(line), unit)}, "
                    f"expected {Fraction(total, unit)}"
                )
    if total < 1:
        raise ValueError(f"{what} lines must have a positive sum")
    return total


@dataclass(frozen=True)
class PositionMatrix:
    """Square integer matrix: entry (i, j) counts voters ranking candidate j
    at position i.  Every row and every column sums to the voter count n.
    Each row passes ``_integers``."""

    entries: IntRows
    m: int = field(init=False)
    n: int = field(init=False)

    def __post_init__(self) -> None:
        rows = tuple(_integers(row, "position matrix entries") for row in self.entries)
        object.__setattr__(self, "n", _line_total(rows, "position matrix"))
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "m", len(rows))


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
        """Build from rows that pass ``_integers`` as Fractions; every line must sum to 1."""
        rows = [_integers(row, "frequency matrix entries", Fraction) for row in entries]
        d = lcm(*(x.denominator for row in rows for x in row))
        counts = [[x.numerator * (d // x.denominator) for x in row] for row in rows]
        if _line_total(counts, "frequency matrix", d) != d:
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
    return PositionMatrix(_tally(election).tolist())


def frequency_matrix(election: Election) -> FrequencyMatrix:
    """Position matrix divided by the voter count, exactly."""
    return _frequency(_tally(election).tolist(), election.n)


def frequency_from_position(pos: PositionMatrix) -> FrequencyMatrix:
    """``pos / pos.n`` in lowest terms.  Any validated position matrix, of
    voters or of cleared denominators, gives a frequency matrix this way."""
    return _frequency(pos.entries, pos.n)
