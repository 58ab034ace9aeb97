"""Vote sampling models and the dispersion calibration behind them.

Samplers: impartial culture, urn (Polya-Eggenberger), Mallows (repeated
insertion, run on arrays of votes), single-peaked models (uniform-peak
interval growth and the balanced bottom-up walk), and points-in-a-hypercube.
The normalized Mallows variant replaces the raw dispersion phi by the
expected number of swaps relative to its maximum, which makes elections
with different m comparable.  That calibration runs through the swap counts
T[m][i] = number of permutations of m elements with i inversions, and
``fit_mallows`` picks the normalized dispersion that best matches a
dataset of elections under the positionwise distance.

Every sampler takes an integer seed and is fully deterministic given it.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .core import Election, FrequencyMatrix, _frequency, frequency_matrix
from .metric import _block_pairs, cross_distances, normalized

CULTURE_TAGS = (
    "IC",
    "URN",
    "MALLOWS",
    "MALLOWS_NORM",
    "CONITZER",
    "WALSH",
    "HYPERCUBE",
)


@dataclass(frozen=True)
class CultureSpec:
    """Declarative description of one sampling run."""

    tag: str
    m: int
    n: int
    seed: int
    alpha: float | None = None  # urn contagion
    gamma_alpha: bool = False  # urn: draw alpha ~ Gamma(0.8, 1) instead
    phi: float | None = None  # mallows dispersion
    relphi: float | None = None  # normalized mallows dispersion
    dimension: int | None = None  # hypercube

    def __post_init__(self) -> None:
        if self.tag not in CULTURE_TAGS:
            raise ValueError(f"unknown culture tag {self.tag!r}")
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be positive")


def sample(spec: CultureSpec) -> Election:
    """Dispatch a CultureSpec to the matching sampler."""
    if spec.tag == "IC":
        return sample_ic(spec.m, spec.n, spec.seed)
    if spec.tag == "URN":
        if spec.gamma_alpha:
            return sample_urn_gamma(spec.m, spec.n, spec.seed)
        if spec.alpha is None:
            raise ValueError("urn culture needs alpha (or the gamma flag)")
        return sample_urn(spec.m, spec.n, spec.alpha, spec.seed)
    if spec.tag == "MALLOWS":
        if spec.phi is None:
            raise ValueError("mallows culture needs phi")
        return sample_mallows(spec.m, spec.n, spec.phi, spec.seed)
    if spec.tag == "MALLOWS_NORM":
        if spec.relphi is None:
            raise ValueError("normalized mallows culture needs relphi")
        return sample_mallows_norm(spec.m, spec.n, spec.relphi, spec.seed)
    if spec.tag == "CONITZER":
        return sample_conitzer(spec.m, spec.n, spec.seed)
    if spec.tag == "WALSH":
        return sample_walsh(spec.m, spec.n, spec.seed)
    if spec.dimension is None:
        raise ValueError("hypercube culture needs a dimension")
    return sample_hypercube(spec.m, spec.n, spec.dimension, spec.seed)


# ---------------------------------------------------------------------------
# swap counts and dispersion calibration


def mahonian_row(m: int) -> tuple[int, ...]:
    """Inversion counts of m elements: entry i is the number of permutations
    with exactly i inversions (m = 0 is the empty permutation).

    Row m is row m-1 times 1 + x + ... + x^(m-1), one running sum over a
    window of m entries; only the previous row is kept."""
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


@lru_cache(maxsize=256)
def _float_inversion_row(m: int) -> np.ndarray:
    """mahonian_row(m) as a read-only float array, divided by one power of
    two so that each count and the sums in expected_swaps stay finite; that
    only shifts exponents, and expected_swaps uses only ratios.  Up to
    m = 165 the power is 1."""
    row = mahonian_row(m)
    scale = 1 << max(0, (math.factorial(m) * len(row)).bit_length() - 1000)
    out = np.array([v / scale for v in row])
    out.flags.writeable = False
    return out


def expected_swaps(m: int, phi: float) -> float:
    """Expected number of inversions of a Mallows draw with dispersion phi
    relative to its central order.

    The weights phi**i are running products and both sums running sums in
    index order (``accumulate``, never the pairwise ``np.sum``), so every
    step rounds as a loop over the counts would."""
    if m < 1:
        raise ValueError("m must be positive")
    if not 0 <= phi <= 1:
        raise ValueError("phi must lie in [0, 1]")
    if m == 1 or phi == 0:
        return 0.0
    if phi == 1:
        return m * (m - 1) / 4
    row = _float_inversion_row(m)
    weights = np.full(len(row), float(phi))
    weights[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan, as with floats
        terms = row * np.multiply.accumulate(weights)
        total = np.add.accumulate(terms)[-1]
        mean_num = np.add.accumulate(np.arange(len(row)) * terms)[-1]
    return float(mean_num) / float(total)


def relative_expected_swaps(m: int, phi: float) -> float:
    """expected_swaps scaled by its maximum m*(m-1)/2, so 0 means total
    agreement with the central order and 1/2 means uniformly random."""
    if m < 2:
        raise ValueError("relative swaps need at least two candidates")
    return expected_swaps(m, phi) / (m * (m - 1) / 2)


@lru_cache(maxsize=256)
def relphi_to_phi(m: int, relphi: float) -> float:
    """Invert relative_expected_swaps by bisection.

    relphi must lie in [0, 1/2]; the result phi satisfies
    |relative_expected_swaps(m, phi) - relphi| <= 1e-10.  Results are
    memoized: samplers calibrate the same few values over and over.
    """
    if m < 2:
        raise ValueError("calibration needs at least two candidates")
    if not 0 <= relphi <= 0.5:
        raise ValueError("relphi must lie in [0, 1/2]")
    if relphi == 0:
        return 0.0
    if relphi == 0.5:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if relative_expected_swaps(m, mid) < relphi:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    phi = (lo + hi) / 2
    if abs(relative_expected_swaps(m, phi) - relphi) > 1e-10:
        raise RuntimeError("bisection failed to converge")
    return phi


# ---------------------------------------------------------------------------
# samplers


def derive_seed(seed: int, *indices: int) -> int:
    """Deterministic child seed for a path of indices below ``seed``, such
    as a pipeline stage and an item, or a grid value and a sample."""
    for ix in indices:
        seed = seed * 1_000_003 + ix
    return seed


def _election(m: int, votes: Sequence[Sequence[int]] | np.ndarray, meta: dict) -> Election:
    return Election(candidates=tuple(range(m)), votes=votes, meta=meta)


def sample_ic(m: int, n: int, seed: int) -> Election:
    """Impartial culture: every vote an independent uniform permutation."""
    _check_mn(m, n)
    rng = random.Random(seed)
    votes = []
    for _ in range(n):
        v = list(range(m))
        rng.shuffle(v)
        votes.append(tuple(v))
    return _election(m, votes, {"culture": "IC", "seed": seed})


def _urn_votes(m: int, n: int, alpha: float, rng: random.Random) -> list[tuple[int, ...]]:
    votes: list[tuple[int, ...]] = []
    for k in range(n):
        # fresh uniform vote with probability 1/(1 + k*alpha), else copy
        # one of the k previous votes uniformly
        if k == 0 or rng.random() < 1.0 / (1.0 + k * alpha):
            v = list(range(m))
            rng.shuffle(v)
            votes.append(tuple(v))
        else:
            votes.append(votes[rng.randrange(k)])
    return votes


def sample_urn(m: int, n: int, alpha: float, seed: int) -> Election:
    """Urn model with contagion alpha >= 0 (alpha = 0 reduces to IC)."""
    _check_mn(m, n)
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"alpha must be a finite nonnegative number, got {alpha!r}")
    rng = random.Random(seed)
    votes = _urn_votes(m, n, alpha, rng)
    return _election(m, votes, {"culture": "URN", "alpha": alpha, "seed": seed})


def sample_urn_gamma(m: int, n: int, seed: int) -> Election:
    """Urn model with alpha drawn from Gamma(shape 0.8, scale 1)."""
    _check_mn(m, n)
    rng = random.Random(seed)
    alpha = rng.gammavariate(0.8, 1.0)
    votes = _urn_votes(m, n, alpha, rng)
    return _election(
        m, votes, {"culture": "URN", "alpha": alpha, "gamma_alpha": True, "seed": seed}
    )


_BLOCK = 1024  # votes per block of the array sampler


def _draws(rng: random.Random, rows: int, m: int) -> np.ndarray:
    """``rows * m`` values of ``rng.random()`` in draw order, as rows of m."""
    count = rows * m
    flat = np.fromiter(itertools.starmap(rng.random, itertools.repeat((), count)), float, count)
    return flat.reshape(rows, m)


def _insertion_ranks(m: int, phi: float, draws: np.ndarray) -> np.ndarray:
    """Repeated insertion on a block of draws, one vote per row.

    Draw (v, j) places item j of the central order of vote v k slots up
    from the bottom of the partial vote: k is the first index at which the
    running sum of phi**0, phi**1, ..., added one at a time, exceeds the
    draw times the ``sum`` of the first j + 1 powers, else j.  The running
    sums never decrease, so k is the count of them at or below the scaled
    draw, capped at j.  The totals keep the built-in ``sum`` (compensated
    from Python 3.12 on) and the running sums their sequential order, so
    every vote is, to the bit, the one that inserting into a list one
    candidate at a time gives.

    Entry (v, j) of the result is the rank of item j in vote v (0 is the
    top).  Inserting item j at rank p moves each earlier item at rank p or
    below down by one, which is one vector step per column.
    """
    powers = [phi**k for k in range(m)]
    totals = np.array([sum(powers[: j + 1]) for j in range(m)], dtype=float)
    cum = np.fromiter(itertools.accumulate(powers), float, m)
    cols = np.arange(m)
    slots = np.minimum(np.searchsorted(cum, draws * totals, side="right"), cols)
    ranks = np.asfortranarray(cols - slots)  # so that the first j columns are one block
    for j in range(1, m):
        p = ranks[:, j : j + 1]
        ranks[:, :j] += ranks[:, :j] >= p
    return ranks


def _mallows_votes(
    m: int, n: int, phi: float, central: tuple[int, ...], rng: random.Random
) -> np.ndarray:
    """n Mallows votes from rng, as rows, drawn and ranked in blocks of _BLOCK votes."""
    votes = np.empty((n, m), np.int64)
    for start in range(0, n, _BLOCK):
        rows = np.arange(start, min(start + _BLOCK, n))
        votes[rows[:, None], _insertion_ranks(m, phi, _draws(rng, len(rows), m))] = central
    return votes


def sample_mallows(
    m: int,
    n: int,
    phi: float,
    seed: int,
    central: Sequence[int] | None = None,
) -> Election:
    """Mallows model via repeated insertion.

    Candidate number j of the central order (j = 1..m) goes k places up
    from the bottom of the partial vote with probability proportional to
    phi**k, which makes a full vote v appear with probability
    phi**swaps(v, central) / Z.  The insertions run on arrays, one column
    of a block of votes at a time (``_insertion_ranks``), with one
    ``rng.random()`` per vote and candidate in vote order.
    """
    _check_mn(m, n)
    if not 0 <= phi <= 1:
        raise ValueError("phi must lie in [0, 1]")
    if central is None:
        central = tuple(range(m))
    else:
        central = tuple(central)
        if sorted(central) != list(range(m)):
            raise ValueError("central order must be a permutation of 0..m-1")
    votes = _mallows_votes(m, n, phi, central, random.Random(seed))
    return _election(
        m,
        votes,
        {"culture": "MALLOWS", "phi": phi, "central": central, "seed": seed},
    )


def _norm_dispersion(m: int, relphi: float) -> tuple[float, tuple[int, ...]]:
    """The raw dispersion and central order of normalized dispersion relphi, m >= 2."""
    if relphi <= 0.5:
        return relphi_to_phi(m, relphi), tuple(range(m))
    return relphi_to_phi(m, 1 - relphi), tuple(range(m - 1, -1, -1))


def sample_mallows_norm(m: int, n: int, relphi: float, seed: int) -> Election:
    """Mallows with normalized dispersion relphi in [0, 1].

    Up to 1/2 the model runs with phi calibrated so the expected relative
    swap distance from the identity order equals relphi; beyond 1/2 it
    runs around the reversed order with dispersion 1 - relphi, which keeps
    the expected distance from the identity equal to relphi.
    """
    _check_mn(m, n)
    if not 0 <= relphi <= 1:
        raise ValueError("relphi must lie in [0, 1]")
    if m == 1:
        return _election(
            1, [(0,)] * n, {"culture": "MALLOWS_NORM", "relphi": relphi, "seed": seed}
        )
    phi, central = _norm_dispersion(m, relphi)
    votes = _mallows_votes(m, n, phi, central, random.Random(seed))
    return _election(
        m,
        votes,
        {
            "culture": "MALLOWS_NORM",
            "relphi": relphi,
            "phi": phi,
            "central": central,
            "seed": seed,
        },
    )


def _mallows_norm_frequencies(
    m: int, n: int, relphi: float, seeds: Sequence[int]
) -> list[FrequencyMatrix]:
    """The frequency matrix of ``sample_mallows_norm(m, n, relphi, seed)`` for
    every seed, m >= 2, drawn and tallied as one block of votes: sample s
    fills the cells s*m*m + rank*m + candidate of one bincount."""
    _check_mn(m, n)
    phi, central = _norm_dispersion(m, relphi)
    draws = np.concatenate([_draws(random.Random(seed), n, m) for seed in seeds])
    ranks = _insertion_ranks(m, phi, draws)
    sample = np.repeat(np.arange(len(seeds)), n)[:, None]
    cells = (sample * m + ranks) * m + np.array(central)
    counts = np.bincount(cells.ravel(), minlength=len(seeds) * m * m)
    return [_frequency(c.tolist(), n) for c in counts.reshape(len(seeds), m, m)]


@dataclass(frozen=True)
class FitResult:
    relphi: float
    mean_distance: float
    std_distance: float


def fit_mallows(
    dataset: Sequence[Election],
    grid: Sequence[float],
    samples_per_value: int,
    seed: int,
    votes_per_sample: int = 100,
) -> FitResult:
    """Fit a normalized-Mallows dispersion to a dataset of elections.

    For every grid value, sample ``samples_per_value`` normalized-Mallows
    elections with the dataset's m, then score the value by the mean
    normalized positionwise distance to the dataset.  Returns the best
    grid value (ties to the smaller), its mean, and the standard
    deviation over per-dataset-election mean distances at that value.
    Grid points use independent derived seeds, so they can be evaluated
    in any order (or concurrently) with identical results.  A grid value
    above 1/2 is refused: its samples relabel those at 1 - g, which the
    distance ignores.  Consecutive values share a cross_distances call, enough
    to fill one block of pairs, but each value's votes are drawn and tallied
    as one block on its own: memory holds one value's samples_per_value *
    votes_per_sample * m votes and one block of matrices, not the grid.
    """
    if not dataset:
        raise ValueError("dataset must be nonempty")
    sizes = {e.m for e in dataset}
    if len(sizes) != 1:
        raise ValueError(f"dataset mixes candidate counts: {sorted(sizes)}")
    if not grid:
        raise ValueError("grid must be nonempty")
    for g in grid:
        if not 0 <= g <= 1:
            raise ValueError("grid values must lie in [0, 1]")
        if g > 0.5:
            raise ValueError(f"grid value {g} is above 1/2: it scores as its mirror {1 - g:g}")
    if samples_per_value < 1:
        raise ValueError("samples_per_value must be positive")
    m = sizes.pop()
    if m < 2:
        raise ValueError("normalization needs at least two candidates")
    data = [frequency_matrix(e) for e in dataset]

    best: tuple[float, float] | None = None  # (mean, relphi)
    best_per_election: list[float] = []
    group = -(-_block_pairs(m) // (len(data) * samples_per_value))
    for at in range(0, len(grid), group):
        values = grid[at : at + group]
        samples = []
        for gi, relphi in enumerate(values, at):
            seeds = [derive_seed(seed, gi + 1, s + 1) for s in range(samples_per_value)]
            samples += _mallows_norm_frequencies(m, votes_per_sample, relphi, seeds)
        rows = cross_distances(data, samples)
        for k, relphi in enumerate(values):
            per_election = []
            for row in rows:
                own = row[k * samples_per_value : (k + 1) * samples_per_value]
                # one exact sum over the common denominator of the distances
                scale = math.lcm(*(d.denominator for d in own))
                total = sum(d.numerator * (scale // d.denominator) for d in own)
                exact = Fraction(total, scale * samples_per_value)
                per_election.append(float(normalized(exact, m)))
            mean = sum(per_election) / len(per_election)
            if best is None or (mean, relphi) < best:
                best = (mean, relphi)
                best_per_election = per_election
    assert best is not None
    mean, relphi = best
    var = sum((v - mean) ** 2 for v in best_per_election) / len(best_per_election)
    return FitResult(relphi=relphi, mean_distance=mean, std_distance=math.sqrt(var))


def sample_conitzer(m: int, n: int, seed: int) -> Election:
    """Single-peaked votes: uniform peak, then grow the interval around it
    one candidate at a time by a fair coin (forced when one side runs out).
    The axis is one uniform permutation drawn per election."""
    _check_mn(m, n)
    rng = random.Random(seed)
    axis = list(range(m))
    rng.shuffle(axis)
    votes = []
    for _ in range(n):
        peak = rng.randrange(m)
        lo = hi = peak
        vote = [axis[peak]]
        while len(vote) < m:
            if lo == 0:
                hi += 1
                vote.append(axis[hi])
            elif hi == m - 1:
                lo -= 1
                vote.append(axis[lo])
            elif rng.random() < 0.5:
                lo -= 1
                vote.append(axis[lo])
            else:
                hi += 1
                vote.append(axis[hi])
        votes.append(tuple(vote))
    return _election(
        m, votes, {"culture": "CONITZER", "axis": tuple(axis), "seed": seed}
    )


def sample_walsh(m: int, n: int, seed: int) -> Election:
    """Single-peaked votes built bottom-up: at each of the m-1 binary
    steps take the leftmost or rightmost remaining axis candidate with
    probability 1/2 and place it on the lowest open rank."""
    _check_mn(m, n)
    rng = random.Random(seed)
    axis = list(range(m))
    rng.shuffle(axis)
    votes = []
    for _ in range(n):
        lo, hi = 0, m - 1
        vote = [0] * m
        for rank in range(m - 1, 0, -1):
            if rng.random() < 0.5:
                vote[rank] = axis[lo]
                lo += 1
            else:
                vote[rank] = axis[hi]
                hi -= 1
        vote[0] = axis[lo]
        votes.append(tuple(vote))
    return _election(
        m, votes, {"culture": "WALSH", "axis": tuple(axis), "seed": seed}
    )


def _distance_ranks(points: np.ndarray, voters: np.ndarray) -> np.ndarray:
    """Each voter's ranking of the candidate ``points`` (rows of an (m,
    dimension) array), nearest first, equal distances to the lower index.

    A squared distance adds the squares ``float_power(a - b, 2)`` one
    dimension at a time, left to right, as a sequential ``sum`` of
    ``(a - b) ** 2`` does.  ``float_power`` calls the C library's ``pow``,
    as Python's ``**`` does; ``d * d`` and ``np.power`` can round a square
    one unit differently.  Python 3.12 made the built-in ``sum`` of floats
    compensated; the order here stays sequential on every version.
    """
    d2 = np.zeros((len(voters), len(points)))
    for k in range(points.shape[1]):
        d2 += np.float_power(points[:, k] - voters[:, k, None], 2)
    return np.argsort(d2, axis=1, kind="stable")


def sample_hypercube(m: int, n: int, dimension: int, seed: int) -> Election:
    """Candidates and voters drawn uniformly from [0, 1]^dimension; each
    voter ranks candidates by distance (ties to the lower index)."""
    _check_mn(m, n)
    if dimension < 1:
        raise ValueError("dimension must be positive")
    rng = random.Random(seed)
    cand_points = tuple(
        tuple(rng.random() for _ in range(dimension)) for _ in range(m)
    )
    draws = np.fromiter((rng.random() for _ in range(n * dimension)), float, n * dimension)
    votes = _distance_ranks(np.array(cand_points), draws.reshape(n, dimension))
    return _election(
        m,
        votes,
        {
            "culture": "HYPERCUBE",
            "dimension": dimension,
            "candidate_points": cand_points,
            "seed": seed,
        },
    )


def _check_mn(m: int, n: int) -> None:
    if m < 1:
        raise ValueError("m must be positive")
    if n < 1:
        raise ValueError("n must be positive")
