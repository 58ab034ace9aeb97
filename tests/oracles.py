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
into a ``Fraction``, ``charwise_parse_vote_line``, the ballot parser that
read one character at a time, and ``scan_prune_to_coverage``, the
coverage prune that scanned candidates and votes separately.
"""

from __future__ import annotations

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

from prefmap.cli import FitResult
from prefmap.core import Election, FrequencyMatrix, PositionMatrix, frequency_matrix
from prefmap.cultures import sample_mallows_norm
from prefmap.embed import MapLayout
from prefmap.ingest import PartialProfile, PartialVote
from prefmap.metric import DistanceRecord, normalization_constant


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
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {token!r}: {exc}") from None


def fraction_read_matrix_csv(path: str | os.PathLike[str]) -> FrequencyMatrix | PositionMatrix:
    """``read_matrix_csv`` by ``Fraction`` arithmetic: rows of ``Fraction``
    entries summing to 1 give a FrequencyMatrix, integer entries a
    PositionMatrix."""
    rows: list[list[Fraction]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append([fraction_parse_rational(tok) for tok in line.split(",")])
    if not rows:
        raise ValueError(f"{path}: no matrix rows found")
    m = len(rows)
    for row in rows:
        if len(row) != m:
            raise ValueError(f"{path}: expected a square {m}x{m} matrix")
    if all(sum(row) == 1 for row in rows):
        return FrequencyMatrix(tuple(tuple(row) for row in rows))
    if all(x.denominator == 1 for row in rows for x in row):
        return PositionMatrix(tuple(tuple(x.numerator for x in row) for row in rows))
    raise ValueError(
        f"{path}: rows neither sum to 1 (frequency) nor hold integers (position)"
    )


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


def pairwise_fit_mallows(
    dataset: Sequence[Election],
    grid: Sequence[float],
    samples_per_value: int,
    seed: int,
    votes_per_sample: int = 100,
) -> FitResult:
    """``fit_mallows`` one pair at a time, with ``fraction_positionwise``
    and the per-sample seeds written out."""
    m = dataset[0].m
    norm = normalization_constant(m)
    data = [frequency_matrix(e) for e in dataset]
    best: tuple[float, float] | None = None
    best_per_election: list[float] = []
    for gi, relphi in enumerate(grid):
        samples = []
        for s in range(samples_per_value):
            child = (seed * 1_000_003 + gi + 1) * 1_000_003 + s + 1
            samples.append(frequency_matrix(sample_mallows_norm(m, votes_per_sample, relphi, child)))
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
