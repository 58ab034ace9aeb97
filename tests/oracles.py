"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written along a different algorithmic
route than the library: greedy transport instead of prefix sums,
exhaustive search instead of combinatorial optimization, full enumeration
instead of recurrences.  Some are helpers that only the tests need: the
Fraction ``emd`` of one column pair, ``swap_distance`` and the
single-peakedness checks.  Others are the library's earlier code,
kept as references for what replaced it: ``fraction_positionwise``, the
positionwise distance over tuples of ``Fraction``s,
``composite_assignment_lex``, the assignment solver that broke ties by
folding a positional digit into every cost, ``pairwise_fit_mallows``, the
dispersion fit that compared one pair at a time, ``gradient_embed``, the
map layout by gradient descent from seeded random points, and
``fraction_read_matrix_csv``, the matrix reader that parsed every entry
into a ``Fraction``, ``loop_write_matrix_csv``, the writer that formatted
every cell on its own, ``loop_line_total``, the line-sum check that
converted every cell by ``int`` and so truncated non-integer entries,
``support_compass_matrix`` and ``validated_convex_combination``, the
compass corner and path point built cell by cell and validated again as a
position matrix, ``charwise_parse_vote_line``, the ballot parser that
read one character at a time, ``scan_prune_to_coverage``, the
coverage prune that scanned candidates and votes separately,
``mahonian_table``, the inversion counts built as a table of every row up
to m, and ``unscaled_float_inversion_row``, the Mahonian row converted to
floats as it is, which overflows from m = 172 on, and
``recursive_perfect_matching``, the Kuhn search of the decomposition with
one recursive call per row on its path, which exceeds Python's default
recursion limit once a path runs through about 1,000 rows, and
``chain_round_position_matrix``, the rounding flow on the general
``_MinCostFlow`` with a chain of m nodes per row, m*m + m + 2 nodes in
all, whose tie choices the 2m + 2 node flow of the library reproduces.
``exact_relative_expected_swaps`` is the relative swap share on exact
integers, rounded once, and ``reversed_identity`` is the one-vote matrix
that reverses the identity, which the compass itself no longer builds.
``loop_mallows_votes`` is the Mallows sampler that inserted one candidate
of one vote at a time into a list, which ``loop_mallows_norm_votes`` and
``pairwise_fit_mallows`` sample through, and ``loop_expected_swaps`` is
the swap expectation summed one count at a time.  ``bitloop_start`` is
the greedy start of the assignment solve that packed each row's tight
columns into the bits of a Python integer and placed one row of one pair
at a time, and ``python_augment`` the shortest augmenting path search that
completed one pair at a time in Python lists, the third loop of the
solve; ``partial_load_election`` read a strict file through the tie
groups of ``parse_preflib``; ``loop_serialize_election`` wrote one cell
of one vote at a time; ``rank_by_distance`` ranked one hypercube voter at
a time, as ``loop_hypercube_votes`` does for a whole sample.
``tuple_election`` is the election check that sorted every vote as a
tuple, and ``loop_position_matrix``, ``loop_borda_scores``,
``loop_restrict``, ``loop_vote_counter`` and ``loop_sample_dataset`` are
the tally, the scores, the restriction, the counter and the resampling
that walked those tuples one vote at a time.  ``fastpath_split`` is the
token parser that tried plain ASCII digits through ``int`` before its
regular expression, ``walk_load_election`` the strict reader that walked
its ballots a second time to name an unknown or repeated candidate, and
``support_election_from_position_matrix`` the decomposition that built a
0/1 support copy of the working counts in every round.
``window_mahonian_row`` is the Mahonian row built in full, one running sum
over a window of m entries per row, with no use of the rows' symmetry.
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
import random
import re
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Hashable, Iterator, Sequence

import numpy as np

from prefmap.core import (
    Election,
    FrequencyMatrix,
    PositionMatrix,
    frequency_from_position,
    frequency_matrix,
)
from prefmap.cultures import FitResult, _float_inversion_row, relphi_to_phi
from prefmap.embed import MapLayout
from prefmap.ingest import (
    PartialProfile,
    PartialVote,
    _index_rows,
    _read,
    _strict_line,
    parse_preflib,
)
from prefmap.matrixio import _RATIONAL, _ratio
from prefmap.metric import DistanceRecord, normalization_constant
from prefmap.recovery import _perfect_matching


def greedy_transport_emd(x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
    """1-D transport cost by the classic two-pointer greedy, which is
    optimal for convex (here linear) movement costs."""
    xs = [Fraction(v) for v in x]
    ys = [Fraction(v) for v in y]
    assert sum(xs) == sum(ys) == 1
    total = Fraction(0)
    i = j = 0
    m = len(xs)
    while i < m and j < m:
        moved = min(xs[i], ys[j])
        total += moved * abs(i - j)
        xs[i] -= moved
        ys[j] -= moved
        if xs[i] == 0:
            i += 1
        if j < m and ys[j] == 0:
            j += 1
    return total


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


def brute_force_assignment(cost: Sequence[Sequence]) -> tuple[object, tuple[int, ...]]:
    """Minimum-cost assignment by trying every permutation; among optima
    returns the lexicographically smallest."""
    m = len(cost)
    best_val = None
    best_perm: tuple[int, ...] | None = None
    for perm in itertools.permutations(range(m)):
        total = sum(cost[i][perm[i]] for i in range(m))
        if best_val is None or total < best_val:
            best_val = total
            best_perm = perm
        elif total == best_val and perm < best_perm:
            best_perm = perm
    assert best_perm is not None
    return best_val, best_perm


def composite_assignment_lex(cost: Sequence[Sequence[int]]) -> tuple[int, list[int]]:
    """Minimum-cost assignment over an integer cost matrix: the library's
    earlier solver, a plain Hungarian method on composite costs.

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


@lru_cache(maxsize=4096)
def _denominator_lcm(matrix: FrequencyMatrix) -> int:
    out = 1
    for row in matrix.entries:
        for v in row:
            out = lcm(out, v.denominator)
    return out


@lru_cache(maxsize=4096)
def _prefix_columns(matrix: FrequencyMatrix, scale: int) -> tuple[tuple[int, ...], ...]:
    """Columns of scale * matrix, prefix-summed down the positions.

    ``scale`` must clear every denominator, so the results are integers.
    """
    m = matrix.m
    entries = matrix.entries
    cols: list[tuple[int, ...]] = []
    for j in range(m):
        running = 0
        pref: list[int] = []
        for i in range(m):
            v = entries[i][j]
            running += v.numerator * scale // v.denominator
            pref.append(running)
        cols.append(tuple(pref))
    return tuple(cols)


def fraction_positionwise(x: FrequencyMatrix, y: FrequencyMatrix) -> DistanceRecord:
    """Positionwise distance from the matrices' ``Fraction`` entries, with
    per-column prefix sums in Python integers and the composite solver."""
    if x.m != y.m:
        raise ValueError(f"matrix sizes differ: {x.m} vs {y.m}")
    scale = lcm(_denominator_lcm(x), _denominator_lcm(y))
    px = _prefix_columns(x, scale)
    py = _prefix_columns(y, scale)
    m = x.m
    cost = [
        [sum(abs(a - b) for a, b in zip(px[i], py[j])) for j in range(m)]
        for i in range(m)
    ]
    total, assignment = composite_assignment_lex(cost)
    return DistanceRecord(Fraction(total, scale), tuple(assignment))


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+)|\.([0-9]+))?")


def fraction_parse_rational(token: str) -> Fraction:
    match = _RATIONAL.fullmatch(token.strip())
    if match is None:
        raise ValueError(f"bad rational {token!r}: expected p, p/q or a decimal")
    num, den, decimals = match.groups()
    try:
        if decimals is not None:
            return Fraction(int(num + decimals), 10 ** len(decimals))
        return Fraction(int(num), int(den or 1))
    except ValueError as exc:
        raise ValueError(f"bad rational {token!r}: {exc}") from None
    except ZeroDivisionError:
        raise ValueError(f"bad rational {token!r}: zero denominator") from None


def fraction_read_matrix_csv(path: str | os.PathLike[str]) -> FrequencyMatrix | PositionMatrix:
    """``read_matrix_csv`` by ``Fraction`` arithmetic: rows of ``Fraction``
    entries summing to 1 give a FrequencyMatrix, integer entries a
    PositionMatrix.  Every fault names the file."""
    try:
        rows: list[list[Fraction]] = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                rows.append([fraction_parse_rational(tok) for tok in line.split(",")])
        if not rows:
            raise ValueError("no matrix rows found")
        m = len(rows)
        for row in rows:
            if len(row) != m:
                raise ValueError(f"expected a square {m}x{m} matrix")
        if all(sum(row) == 1 for row in rows):
            return FrequencyMatrix(tuple(tuple(row) for row in rows))
        if all(x.denominator == 1 for row in rows for x in row):
            return PositionMatrix(tuple(tuple(x.numerator for x in row) for row in rows))
        raise ValueError("rows neither sum to 1 (frequency) nor hold integers (position)")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def loop_write_matrix_csv(
    matrix: FrequencyMatrix | PositionMatrix, path: str | os.PathLike[str]
) -> None:
    """``write_matrix_csv`` formatting every cell on its own."""
    if isinstance(matrix, FrequencyMatrix):
        rows, d = matrix.counts, matrix.denominator
    else:
        rows, d = matrix.entries, 1
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(",".join(_ratio(c, d) for c in row) + "\n")


def loop_line_total(entries, what: str, unit: int = 1) -> tuple[tuple[tuple[int, ...], ...], int]:
    """``core._line_total`` converting every cell by ``int`` on its own,
    which truncates a non-integer entry instead of rejecting it."""
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


_CELL_SUPPORT = {
    "ID": lambda m, i, j: i == j,
    "UN": lambda m, i, j: True,
    "ST": lambda m, i, j: (i < m // 2) == (j < m // 2),
    "AN": lambda m, i, j: i == j or i == m - 1 - j,
}


def support_compass_matrix(kind: str, m: int) -> FrequencyMatrix:
    """``compass_matrix`` asking its support of every cell on its own and
    validating the counts as a position matrix."""
    if kind not in _CELL_SUPPORT:
        raise ValueError(f"unknown compass kind {kind!r}, expected one of {tuple(_CELL_SUPPORT)}")
    if m < 1:
        raise ValueError("m must be positive")
    if kind in ("ST", "AN") and m % 2:
        raise ValueError(f"{kind} requires an even number of candidates")
    support = _CELL_SUPPORT[kind]
    counts = [[int(support(m, i, j)) for j in range(m)] for i in range(m)]
    return frequency_from_position(PositionMatrix(counts))


def validated_convex_combination(
    x: FrequencyMatrix, y: FrequencyMatrix, alpha: Fraction
) -> FrequencyMatrix:
    """``convex_combination`` validating the mixed counts as a position
    matrix."""
    alpha = Fraction(alpha)
    if alpha < 0 or alpha > 1:
        raise ValueError("alpha must lie in [0, 1]")
    if x.m != y.m:
        raise ValueError("matrices must have equal size")
    p, q = alpha.numerator, alpha.denominator
    scale = math.lcm(x.denominator, y.denominator)
    wx = p * (scale // x.denominator)
    wy = (q - p) * (scale // y.denominator)
    counts = [
        [wx * a + wy * b for a, b in zip(rx, ry)] for rx, ry in zip(x.counts, y.counts)
    ]
    return frequency_from_position(PositionMatrix(counts))


def charwise_parse_vote_line(line: str, lineno: int) -> tuple[int, PartialVote]:
    """``count, ranking`` by a per-character state machine.  Text right
    before a ``{`` is glued onto the group's first id, so ``1{2}`` reads
    as the one id 12."""
    head, sep, rest = line.partition(",")
    if not sep:
        raise ValueError(f"line {lineno}: expected 'count, ranking'")
    try:
        count = int(head.strip())
    except ValueError:
        raise ValueError(f"line {lineno}: bad count {head!r}") from None
    if count < 1:
        raise ValueError(f"line {lineno}: count must be positive")
    groups: list[tuple[int, ...]] = []
    token = ""
    in_braces = False
    group_buf: list[int] = []

    def flush_single() -> None:
        tok = token.strip()
        if tok:
            groups.append((int(tok),))

    for ch in rest:
        if ch == "{":
            if in_braces:
                raise ValueError(f"line {lineno}: nested braces")
            in_braces = True
            group_buf = []
        elif ch == "}":
            if not in_braces:
                raise ValueError(f"line {lineno}: unbalanced braces")
            if token.strip():
                group_buf.append(int(token.strip()))
            token = ""
            in_braces = False
            if not group_buf:
                raise ValueError(f"line {lineno}: empty tie group")
            groups.append(tuple(group_buf))
        elif ch == ",":
            if in_braces:
                if token.strip():
                    group_buf.append(int(token.strip()))
                token = ""
            else:
                flush_single()
                token = ""
        else:
            token = token + ch
    if in_braces:
        raise ValueError(f"line {lineno}: unbalanced braces")
    flush_single()
    if not groups:
        raise ValueError(f"line {lineno}: empty ranking")
    return count, tuple(groups)


def scan_prune_to_coverage(
    profile: PartialProfile, threshold: float = 0.70
) -> tuple[PartialProfile, dict[str, int]]:
    """``prune_to_coverage`` by two worst-offender scans, one over the
    candidates and one over the votes, and a separate rule that takes the
    candidate on equal coverage."""
    if not 0 < threshold <= 1:
        raise ValueError("threshold must lie in (0, 1]")
    cands = list(profile.candidates)
    votes = [list(v) for v in profile.votes]
    mults = list(profile.multiplicities)
    removed_candidates = 0
    removed_votes = 0

    while cands and votes:
        m = len(cands)
        n = sum(mults)
        cand_cov = {c: 0 for c in cands}
        vote_len = []
        for vote, k in zip(votes, mults):
            ranked = sum(len(g) for g in vote)
            vote_len.append(ranked)
            for group in vote:
                for c in group:
                    cand_cov[c] += k

        worst_cand = None
        worst_cand_cov = 1.0
        for idx, c in enumerate(cands):
            cov = cand_cov[c] / n
            if cov < threshold and cov < worst_cand_cov:
                worst_cand_cov = cov
                worst_cand = idx
        worst_vote = None
        worst_vote_cov = 1.0
        for idx, ranked in enumerate(vote_len):
            cov = ranked / m
            if cov < threshold and cov < worst_vote_cov:
                worst_vote_cov = cov
                worst_vote = idx

        if worst_cand is None and worst_vote is None:
            break
        # candidate wins ties on equal badness
        if worst_cand is not None and (
            worst_vote is None or worst_cand_cov <= worst_vote_cov
        ):
            gone = cands.pop(worst_cand)
            removed_candidates += 1
            new_votes = []
            new_mults = []
            for vote, k in zip(votes, mults):
                stripped = tuple(
                    tuple(c for c in group if c != gone) for group in vote
                )
                stripped = tuple(g for g in stripped if g)
                if stripped:
                    new_votes.append(list(stripped))
                    new_mults.append(k)
                else:
                    removed_votes += k
            votes = new_votes
            mults = new_mults
        else:
            del votes[worst_vote]
            removed_votes += mults[worst_vote]
            del mults[worst_vote]

    if not cands or not votes:
        raise ValueError("pruning removed the entire profile")
    pruned = PartialProfile(
        candidates=tuple(cands),
        votes=tuple(tuple(tuple(g) for g in v) for v in votes),
        multiplicities=tuple(mults),
        names=dict(profile.names),
        source=profile.source,
    )
    stats = {
        "removed_candidates": removed_candidates,
        "removed_votes": removed_votes,
    }
    return pruned, stats


def loop_mallows_votes(
    m: int, n: int, phi: float, central: tuple[int, ...], rng: random.Random
) -> list[tuple[int, ...]]:
    powers = [phi**k for k in range(m)]
    totals = [sum(powers[: j + 1]) for j in range(m)]
    votes = []
    for _ in range(n):
        vote: list[int] = []
        for j in range(m):
            r = rng.random() * totals[j]
            acc = 0.0
            k = j  # falls back to the deepest slot on rounding shortfall
            for idx in range(j + 1):
                acc += powers[idx]
                if r < acc:
                    k = idx
                    break
            vote.insert(j - k, central[j])
        votes.append(tuple(vote))
    return votes


def loop_mallows_norm_votes(m: int, n: int, relphi: float, seed: int) -> list[tuple[int, ...]]:
    """The votes of ``sample_mallows_norm`` by ``loop_mallows_votes``, m >= 2."""
    if relphi <= 0.5:
        phi, central = relphi_to_phi(m, relphi), tuple(range(m))
    else:
        phi, central = relphi_to_phi(m, 1 - relphi), tuple(range(m - 1, -1, -1))
    return loop_mallows_votes(m, n, phi, central, random.Random(seed))


def pairwise_fit_mallows(
    dataset: Sequence[Election],
    grid: Sequence[float],
    samples_per_value: int,
    seed: int,
    votes_per_sample: int = 100,
) -> FitResult:
    """``fit_mallows`` one pair at a time, with ``fraction_positionwise``,
    the per-sample seeds written out and votes from ``loop_mallows_votes``."""
    m = dataset[0].m
    norm = normalization_constant(m)
    data = [frequency_matrix(e) for e in dataset]
    best: tuple[float, float] | None = None
    best_per_election: list[float] = []
    for gi, relphi in enumerate(grid):
        samples = []
        for s in range(samples_per_value):
            child = (seed * 1_000_003 + gi + 1) * 1_000_003 + s + 1
            votes = loop_mallows_norm_votes(m, votes_per_sample, relphi, child)
            samples.append(frequency_matrix(Election(tuple(range(m)), votes)))
        per_election = []
        for x in data:
            total = Fraction(0)
            for y in samples:
                total += fraction_positionwise(x, y).value
            per_election.append(float(total / (samples_per_value * norm)))
        mean = sum(per_election) / len(per_election)
        if best is None or (mean, relphi) < best:
            best = (mean, relphi)
            best_per_election = per_election
    assert best is not None
    mean, relphi = best
    var = sum((v - mean) ** 2 for v in best_per_election) / len(best_per_election)
    return FitResult(relphi=relphi, mean_distance=mean, std_distance=math.sqrt(var))


def brute_force_expected_swaps(m: int, phi: float, central: Sequence[int]) -> float:
    """Expected inversion count of a Mallows draw, by summing over all m!
    permutations explicitly."""
    weights = []
    swaps = []
    for perm in itertools.permutations(range(m)):
        k = swap_distance(perm, central)
        swaps.append(k)
        weights.append(phi**k)
    z = sum(weights)
    return sum(k * w for k, w in zip(swaps, weights)) / z


def loop_expected_swaps(m: int, phi: float) -> float:
    """``expected_swaps`` for 0 < phi < 1 and m >= 2, one count at a time
    over the library's float row."""
    row = _float_inversion_row(m).tolist()
    weight = 1.0
    total = 0.0
    mean_num = 0.0
    for i, count in enumerate(row):
        term = count * weight
        total += term
        mean_num += i * term
        weight *= phi
    return mean_num / total


def mahonian_table(m_max: int) -> tuple[tuple[int, ...], ...]:
    """Rows 0..m_max of inversion counts, by the standard recurrence
    T[m][i] = T[m][i-1] + T[m-1][i] - T[m-1][i-m] (out of range = 0)."""
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    rows: list[tuple[int, ...]] = [(1,)]
    for m in range(1, m_max + 1):
        top = m * (m - 1) // 2
        prev = rows[m - 1]
        row = [0] * (top + 1)
        row[0] = 1
        for i in range(1, top + 1):
            val = row[i - 1]
            if i < len(prev):
                val += prev[i]
            if 0 <= i - m < len(prev):
                val -= prev[i - m]
            row[i] = val
        rows.append(tuple(row))
    return tuple(rows)


def window_mahonian_row(m: int) -> tuple[int, ...]:
    """Row m of inversion counts: row k is row k-1 times 1 + x + ... +
    x^(k-1), one running sum over a window of k entries; only the previous
    row is kept."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    row = [1]
    for k in range(2, m + 1):
        acc = 0
        out = []
        for new, old in zip(row + [0] * (k - 1), [0] * k + row):
            acc += new - old
            out.append(acc)
        row = out
    return tuple(row)


def unscaled_float_inversion_row(m: int) -> tuple[float, ...]:
    return tuple(float(v) for v in mahonian_table(m)[m])


def exact_relative_expected_swaps(m: int, phi: float) -> float:
    """sum(i * c_i * phi**i) / sum(c_i * phi**i) over the Mahonian row c of m,
    divided by m*(m-1)/2, in integers: phi = p / 2**e, and both sums are
    taken times 2**(e * top) by Horner's rule.  One rounding at the end."""
    row = mahonian_table(m)[m]
    p, q = Fraction(phi).as_integer_ratio()
    e = q.bit_length() - 1
    total = mean = 0
    for k, i in enumerate(reversed(range(len(row)))):
        total = total * p + (row[i] << (e * k))
        mean = mean * p + (i * row[i] << (e * k))
    return 2 * mean / (total * m * (m - 1))


def swap_distance(u: Sequence[int], v: Sequence[int]) -> int:
    """Number of candidate pairs ordered differently by the two votes."""
    m = len(u)
    if sorted(u) != list(range(m)) or sorted(v) != list(range(m)):
        raise ValueError("votes must be permutations of the same candidates")
    pos_v = [0] * m
    for rank, c in enumerate(v):
        pos_v[c] = rank
    seq = [pos_v[c] for c in u]
    count = 0
    for i in range(m):
        for j in range(i + 1, m):
            if seq[i] > seq[j]:
                count += 1
    return count


def is_single_peaked(vote: Sequence[int], axis: Sequence[int]) -> bool:
    """True if every prefix of the vote is an interval of the axis."""
    m = len(axis)
    axis_pos = {c: k for k, c in enumerate(axis)}
    if len(axis_pos) != m or len(vote) != m:
        raise ValueError("vote and axis must be permutations of the same set")
    lo = hi = axis_pos[vote[0]]
    for t, c in enumerate(vote[1:], start=2):
        p = axis_pos[c]
        lo = min(lo, p)
        hi = max(hi, p)
        if hi - lo + 1 != t:
            return False
    return True


def election_is_single_peaked(election: Election, axis: Sequence[int]) -> bool:
    return all(is_single_peaked(v, axis) for v in election.votes)


def all_position_matrices(m: int, n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every m x m nonnegative integer matrix with all line sums equal n."""

    def compositions(total: int, parts: int, caps: Sequence[int]) -> Iterator[tuple[int, ...]]:
        if parts == 1:
            if 0 <= total <= caps[0]:
                yield (total,)
            return
        for first in range(min(total, caps[0]) + 1):
            for rest in compositions(total - first, parts - 1, caps[1:]):
                yield (first,) + rest

    def build(rows_done: list[tuple[int, ...]], col_left: list[int]) -> Iterator:
        if len(rows_done) == m - 1:
            if all(c >= 0 for c in col_left):
                yield tuple(rows_done) + (tuple(col_left),)
            return
        for row in compositions(n, m, col_left):
            yield from build(
                rows_done + [row], [c - r for c, r in zip(col_left, row)]
            )

    yield from build([], [n] * m)


def recursive_perfect_matching(support: list[list[int]]) -> list[int]:
    """Kuhn's augmenting paths with one recursive call per row on the
    path, columns scanned in ascending order; row -> column."""
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


def chain_round_position_matrix(x: FrequencyMatrix, n: int) -> PositionMatrix:
    """``round_position_matrix`` on the general ``_MinCostFlow``, with each
    row a chain of m nodes: the source enters row i at position 0, chain
    arcs of cost 0 lead from position j to j + 1, and position j reaches
    column j at the cost of placing unit (i, j).  m*m + m + 2 nodes."""
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


def reversed_identity(m: int) -> FrequencyMatrix:
    """The frequency matrix of one vote that reverses the identity."""
    rows = [[int(i == m - 1 - j) for j in range(m)] for i in range(m)]
    return frequency_from_position(PositionMatrix(rows))


def brute_force_min_deviation(entries, n: int) -> Fraction:
    """Minimum of sum |n*x - p| over every position matrix p with line
    sums n (entries: the frequency matrix rows as Fractions)."""
    m = len(entries)
    target = [[n * Fraction(v) for v in row] for row in entries]
    best: Fraction | None = None
    for p in all_position_matrices(m, n):
        dev = sum(
            abs(target[i][j] - p[i][j]) for i in range(m) for j in range(m)
        )
        if best is None or dev < best:
            best = dev
    assert best is not None
    return best


def enumerate_bottom_up_orders(axis: Sequence[int]) -> set[tuple[int, ...]]:
    """All orders reachable by filling ranks bottom-up from either end of
    the axis: exactly the single-peaked orders, 2**(m-1) of them."""
    m = len(axis)
    out: set[tuple[int, ...]] = set()
    for bits in range(2 ** (m - 1)):
        lo, hi = 0, m - 1
        vote = [0] * m
        for step, rank in enumerate(range(m - 1, 0, -1)):
            if (bits >> step) & 1:
                vote[rank] = axis[lo]
                lo += 1
            else:
                vote[rank] = axis[hi]
                hi -= 1
        vote[0] = axis[lo]
        out.add(tuple(vote))
    return out


def random_fraction_distribution(
    rng: random.Random, m: int, max_denominator: int = 60
) -> list[Fraction]:
    """A random probability vector with a common denominator <= the cap."""
    denom = rng.randint(1, max_denominator)
    cuts = sorted(rng.randint(0, denom) for _ in range(m - 1))
    parts = []
    prev = 0
    for c in cuts:
        parts.append(c - prev)
        prev = c
    parts.append(denom - prev)
    return [Fraction(p, denom) for p in parts]


def random_election_votes(rng: random.Random, m: int, n: int) -> list[tuple[int, ...]]:
    """Uniform random strict votes, independent of the library samplers."""
    votes = []
    for _ in range(n):
        v = list(range(m))
        rng.shuffle(v)
        votes.append(tuple(v))
    return votes


def chi_square_statistic(observed: Sequence[float], expected: Sequence[float]) -> float:
    assert len(observed) == len(expected)
    return sum((o - e) ** 2 / e for o, e in zip(observed, expected))


def chi_square_critical_1pct(df: int) -> float:
    from scipy.stats import chi2

    return float(chi2.ppf(0.99, df))


def _weighted_stress(pos: np.ndarray, target: np.ndarray, weight: np.ndarray) -> float:
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    err = dist - target
    return float((weight * err * err).sum() / 2.0)


def gradient_embed(
    distances: Sequence[Sequence],
    seed: int,
    iterations: int = 1000,
    step: float = 0.1,
    ids: Sequence[Hashable] | None = None,
) -> MapLayout:
    """Gradient descent on the weighted stress of ``embed_distances`` from
    seeded uniform points, with a decaying learning rate; a step that would
    raise the stress is rejected and halves the step scale."""
    k = len(distances)
    ids = tuple(range(k)) if ids is None else tuple(ids)
    d = np.array([[float(v) for v in row] for row in distances], dtype=float)
    if k == 0 or d.max() == 0.0:
        return MapLayout(tuple((pid, 0.0, 0.0) for pid in ids), {}, seed, iterations)
    target = d / d.max()
    weight = target * target
    rng = random.Random(seed)
    pos = np.array([[rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)] for _ in range(k)])
    current = _weighted_stress(pos, target, weight)
    scale = 1.0
    for t in range(iterations):
        diff = pos[:, None, :] - pos[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=2))
        safe = np.where(dist == 0.0, 1.0, dist)
        coeff = 2.0 * weight * (dist - target) / safe
        grad = (coeff[:, :, None] * diff).sum(axis=1)
        candidate = pos - step * scale / (1.0 + 0.01 * t) * grad
        cand_stress = _weighted_stress(candidate, target, weight)
        if cand_stress <= current:
            pos = candidate
            current = cand_stress
        else:
            scale *= 0.5
    pos = pos - pos.mean(axis=0)
    return MapLayout(tuple((pid, x, y) for pid, (x, y) in zip(ids, pos)), {}, seed, iterations)


def bitloop_start(cost: np.ndarray) -> list[tuple[list[int], list[int], list[int]]]:
    """(u, v, col_of) of each pair of a block, as ``metric._start`` gives
    them: row and column reduction, then each row in order takes its first
    free tight column (-1 if none), found by bit tricks on one Python
    integer per row."""
    pairs, m, _ = cost.shape
    u = cost.min(axis=2)
    reduced = cost - u[:, :, None]
    v = reduced.min(axis=1)
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


def python_augment(cost: list[list[int]], u: list[int], v: list[int], col_of: list[int]) -> None:
    """Complete a partial matching of one cost matrix to an optimal one.

    ``u``, ``v`` and ``col_of`` are as ``metric._start`` gives them, and
    are updated in place.  Each row left free is placed by a shortest
    augmenting path over the reduced costs, in the form of Crouse (2016)
    that scipy's ``linear_sum_assignment`` also uses: it scans only
    unscanned columns, prefers a free column on a tie, and moves the duals
    once per augmentation.
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


def partial_load_election(path: str | os.PathLike[str]) -> Election:
    """A strict-complete file read through ``parse_preflib``'s tie groups."""
    profile = parse_preflib(path)
    index_of = {cid: k for k, cid in enumerate(profile.candidates)}
    votes = []
    for vote in profile.votes:
        if any(len(g) != 1 for g in vote):
            raise ValueError(f"{path}: ties not allowed in a strict election")
        flat = tuple(index_of[g[0]] for g in vote)
        if len(flat) != profile.m:
            raise ValueError(f"{path}: incomplete vote in a strict election")
        votes.append(flat)
    try:
        return Election(
            candidates=profile.candidates,
            votes=tuple(votes),
            multiplicities=profile.multiplicities,
            meta={"source": str(path)},
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def loop_serialize_election(
    election: Election, path: str | os.PathLike[str], comments: Sequence[str] = ()
) -> None:
    counter = loop_vote_counter(election)
    ordered = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
    with open(path, "w", encoding="utf-8") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        fh.write(f"{election.m}\n")
        for idx, cand in enumerate(election.candidates):
            fh.write(f"{idx + 1}, {cand}\n")
        fh.write(f"{election.n}, {election.n}, {len(ordered)}\n")
        for vote, count in ordered:
            fh.write(f"{count}, {','.join(str(c + 1) for c in vote)}\n")


def rank_by_distance(
    points: Sequence[Sequence[float]], origin: Sequence[float]
) -> tuple[int, ...]:
    """Indices of ``points`` ordered by Euclidean distance from ``origin``,
    nearest first, equal distances broken by lower index."""
    dists = []
    for idx, p in enumerate(points):
        if len(p) != len(origin):
            raise ValueError("dimension mismatch")
        d2 = sum((a - b) ** 2 for a, b in zip(p, origin))
        dists.append((d2, idx))
    dists.sort()
    return tuple(idx for _, idx in dists)


def loop_hypercube_votes(m: int, n: int, dimension: int, seed: int) -> list[tuple[int, ...]]:
    """The votes of ``sample_hypercube``, one ``rank_by_distance`` per voter."""
    rng = random.Random(seed)
    points = [tuple(rng.random() for _ in range(dimension)) for _ in range(m)]
    return [
        rank_by_distance(points, tuple(rng.random() for _ in range(dimension)))
        for _ in range(n)
    ]


def tuple_election(
    candidates: Sequence[Hashable],
    votes: Sequence[Sequence[int]],
    multiplicities: Sequence[int] | None = None,
) -> tuple[tuple, tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The candidates, votes and multiplicities the tuple-based election
    kept, checked in its order and with its messages."""
    candidates = tuple(candidates)
    votes = tuple(tuple(v) for v in votes)
    mult = (1,) * len(votes) if multiplicities is None else tuple(int(k) for k in multiplicities)
    m = len(candidates)
    if m < 1:
        raise ValueError("election needs at least one candidate")
    if len(set(candidates)) != m:
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
    return candidates, votes, mult


def loop_position_matrix(election: Election) -> list[list[int]]:
    m = election.m
    counts = [[0] * m for _ in range(m)]
    for vote, mult in zip(election.votes, election.multiplicities):
        for i, c in enumerate(vote):
            counts[i][c] += mult
    return counts


def loop_borda_scores(election: Election) -> dict[Hashable, int]:
    m = election.m
    scores = [0] * m
    for vote, mult in zip(election.votes, election.multiplicities):
        for i, c in enumerate(vote):
            scores[c] += (m - 1 - i) * mult
    return {election.candidates[c]: scores[c] for c in range(m)}


def loop_restrict(
    election: Election, keep: set[Hashable]
) -> tuple[tuple, tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The candidates, votes and multiplicities of the restriction to ``keep``."""
    keep_set = set(keep)
    kept_old = [i for i, c in enumerate(election.candidates) if c in keep_set]
    new_index = {old: new for new, old in enumerate(kept_old)}
    votes = tuple(
        tuple(new_index[c] for c in vote if c in new_index) for vote in election.votes
    )
    return tuple(election.candidates[i] for i in kept_old), votes, election.multiplicities


def loop_vote_counter(election: Election) -> dict[tuple[int, ...], int]:
    counts: dict[tuple[int, ...], int] = {}
    for v, k in zip(election.votes, election.multiplicities):
        counts[v] = counts.get(v, 0) + k
    return counts


def loop_sample_dataset(
    elections: Sequence[Election], samples: int, votes_per_sample: int, seed: int
) -> list[tuple[int, tuple[tuple[int, ...], ...]]]:
    """The source index and the votes of every resampled election, drawn
    from each source's votes expanded by multiplicity."""
    rng = random.Random(seed)
    out = []
    for _ in range(samples):
        src_idx = rng.randrange(len(elections))
        src = elections[src_idx]
        expanded = []
        for v, k in zip(src.votes, src.multiplicities):
            expanded.extend([v] * k)
        votes = tuple(expanded[rng.randrange(len(expanded))] for _ in range(votes_per_sample))
        out.append((src_idx, votes))
    return out


def fastpath_split(token: str) -> tuple[int, int]:
    """``matrixio._split`` with a fast path for "p" and "p/q" in plain
    ASCII digits before the regular expression."""
    if token.isascii():
        try:
            if token.isdigit():
                return int(token), 1
            num, _, den = token.partition("/")
            if num.isdigit() and den.isdigit() and int(den):
                return int(num), int(den)
        except ValueError:
            pass
    match = _RATIONAL.fullmatch(token.strip())
    if match is None:
        raise ValueError(f"bad rational {token!r}: expected p, p/q or a decimal")
    num, den, decimals = match.groups()
    try:
        p, q = (int(num + decimals), 10**len(decimals)) if decimals else (int(num), int(den or 1))
    except ValueError as exc:  # more digits than int() converts
        raise ValueError(f"bad rational {token!r}: {exc}") from None
    if q == 0:
        raise ValueError(f"bad rational {token!r}: zero denominator")
    return p, q


def walk_load_election(path: str | os.PathLike[str]) -> Election:
    """``ingest.load_election`` walking the ballots cell by cell, after a
    failed array check, for an unknown or repeated candidate."""
    ids, _, ballots, mults = _read(path, _strict_line)
    rankings = [ranking for ranking, _ in ballots]
    known = set(ids)
    try:
        if any(len(ranking) != len(ids) for ranking in rankings):
            raise ValueError("vote of another length")
        election = Election(ids, _index_rows(ids, rankings), mults, {"source": str(path)})
        odd = [b for b in ballots if b[1]]
    except (KeyError, ValueError) as exc:
        odd = [b for b in ballots if b[1] or len(b[0]) != len(ids) or set(b[0]) != known]
        if not odd:
            raise ValueError(f"{path}: {exc}") from None
    for ranking, _ in odd:
        seen: set[int] = set()
        for c in ranking:
            if c not in known:
                raise ValueError(f"{path}: vote names unknown candidate {c}")
            if c in seen:
                raise ValueError(f"{path}: candidate {c} repeated within a vote")
            seen.add(c)
    for _, tied in odd:
        fault = "ties not allowed" if tied else "incomplete vote"
        raise ValueError(f"{path}: {fault} in a strict election")
    return election


def support_election_from_position_matrix(pos: PositionMatrix) -> Election:
    """``recovery.election_from_position_matrix`` matching, in every round,
    on a fresh 0/1 support copy of the working counts."""
    m = pos.m
    work = [list(row) for row in pos.entries]
    votes: list[list[int]] = []
    mults: list[int] = []
    remaining = pos.n
    for _ in range(m * m - m + 1):
        if remaining == 0:
            break
        support = [[1 if x > 0 else 0 for x in row] for row in work]
        matching = _perfect_matching(support)
        weight = min(work[i][matching[i]] for i in range(m))
        votes.append(matching)
        mults.append(weight)
        for i in range(m):
            work[i][matching[i]] -= weight
        remaining -= weight
    if remaining != 0:
        raise RuntimeError("decomposition failed to exhaust the matrix")
    return Election(candidates=tuple(range(m)), votes=votes, multiplicities=mults)
