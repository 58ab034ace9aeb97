"""Vote sampling models and the dispersion calibration behind them.

Samplers: impartial culture, urn (Polya-Eggenberger), Mallows (repeated
insertion, run on arrays of votes), single-peaked models (uniform-peak
interval growth and the balanced bottom-up walk), and points-in-a-hypercube.
The normalized Mallows variant replaces the raw dispersion phi by the
expected number of swaps relative to its maximum, which makes elections
with different m comparable.  That calibration runs through the insertion
law the Mallows sampler draws from: item j moves up k <= j places with
weight phi**k, so the expected swaps are a sum of m truncated geometric
means, for any m.  ``fit_mallows`` picks the normalized dispersion that
best matches a dataset of elections under the positionwise distance.

Every sampler takes an integer seed and is fully deterministic given it.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Election, FrequencyMatrix, _frequency, frequency_matrix
from .metric import _block_pairs, _values

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
        if self.tag not in _SAMPLERS:
            raise ValueError(f"unknown culture tag {self.tag!r}")
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be positive")


# ---------------------------------------------------------------------------
# dispersion calibration through the insertion law


def expected_swaps(m: int, phi: float) -> float:
    """Expected number of inversions of a Mallows draw with dispersion phi
    relative to its central order.

    Repeated insertion moves item j up k <= j places with weight phi**k, and
    the inversions are the sum of the moves, so this is the sum over j of
    the means S1[j] / S0[j] of those truncated geometric laws, where S0[j]
    and S1[j] sum phi**k and k*phi**k over k <= j.  One loop over the items
    carries the weight phi**j as a running product, S0 and S1 as running
    sums, and adds each mean to the total.  The terms are nonnegative, each
    mean is at most m and S0[j] >= 1, so no sum overflows.  A weight
    phi**k that underflows (k >= 2, below 2**-1022) is, even times k, less
    than half the last bit of S1[j] >= phi, so it never reaches the result.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if not 0 <= phi <= 1:
        raise ValueError("phi must lie in [0, 1]")
    weight = 1.0
    s0 = s1 = total = 0.0
    for j in range(m):
        s0 += weight
        s1 += j * weight
        total += s1 / s0
        weight *= phi
    return total


def relative_expected_swaps(m: int, phi: float) -> float:
    """expected_swaps scaled by its maximum m*(m-1)/2, so 0 means total
    agreement with the central order and 1/2 means uniformly random."""
    if m < 2:
        raise ValueError("relative swaps need at least two candidates")
    return expected_swaps(m, phi) / (m * (m - 1) / 2)


def relphi_to_phi(m: int, relphi: float) -> float:
    """Invert relative_expected_swaps by bisection.

    relphi must lie in [0, 1/2]; the result phi satisfies
    |relative_expected_swaps(m, phi) - relphi| <= 1e-10.  Fifty halvings
    suffice: each midpoint of [0, 1] has at most 50 bits after the point,
    so every halving is exact and the bracket ends 2**-50 wide, below
    1e-15; the check at the end confirms the 1e-10.
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
    for _ in range(50):
        mid = (lo + hi) / 2
        if relative_expected_swaps(m, mid) < relphi:
            lo = mid
        else:
            hi = mid
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


def _mean_distance(run: Sequence[tuple[int, int]], m: int) -> float:
    """The mean of a run of positionwise distances ``(total, scale)``, each
    total / scale, over (m*m - 1) / 3: one exact sum over the run's common
    scale and one correctly rounded integer division."""
    scale = math.lcm(*(s for _, s in run))
    total = sum(t * (scale // s) for t, s in run)
    return 3 * total / (scale * len(run) * (m * m - 1))


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
    normalized positionwise distance to the dataset.  The scores form one
    curve in grid order, and the result is its minimum (ties to the smaller
    value): that value, its mean, and the standard deviation over
    per-dataset-election mean distances at it.
    Grid points use independent derived seeds, so they can be evaluated
    in any order (or concurrently) with identical results.  A grid value
    above 1/2 is refused: its samples relabel those at 1 - g, which the
    distance ignores.  Consecutive values share a ``_values`` call, enough
    to fill one block of pairs, but each value's votes are drawn and tallied
    as one block on its own: memory holds one value's samples_per_value *
    votes_per_sample * m votes and one block of matrices, not the grid.
    """
    if not dataset:
        raise ValueError("dataset must be nonempty")
    sizes = sorted({e.m for e in dataset})
    if len(sizes) != 1:
        raise ValueError(f"dataset mixes candidate counts: {sizes}")
    m = sizes[0]
    if m < 2:
        raise ValueError("normalization needs at least two candidates")
    if not grid:
        raise ValueError("grid must be nonempty")
    for g in grid:
        if not 0 <= g <= 1:
            raise ValueError("grid values must lie in [0, 1]")
        if g > 0.5:
            raise ValueError(f"grid value {g} is above 1/2: it scores as its mirror {1 - g:g}")
    if samples_per_value < 1:
        raise ValueError("samples_per_value must be positive")
    data = [frequency_matrix(e) for e in dataset]

    curve = []  # (mean, relphi, per-election means) for each grid value
    group = -(-_block_pairs(m) // (len(data) * samples_per_value))
    for at in range(0, len(grid), group):
        values = grid[at : at + group]
        samples = []
        for gi, relphi in enumerate(values, at):
            seeds = [derive_seed(seed, gi + 1, s + 1) for s in range(samples_per_value)]
            samples += _mallows_norm_frequencies(m, votes_per_sample, relphi, seeds)
        pairs = [(i, j) for i in range(len(data)) for j in range(len(samples))]
        totals = _values(data, samples, pairs)  # election i's pairs start at i * len(samples)
        for k, relphi in enumerate(values):
            per_election = [
                _mean_distance(totals[run : run + samples_per_value], m)
                for run in range(k * samples_per_value, len(totals), len(samples))
            ]
            curve.append((sum(per_election) / len(per_election), relphi, per_election))
    mean, relphi, per_election = min(curve, key=lambda point: point[:2])
    var = sum((v - mean) ** 2 for v in per_election) / len(per_election)
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
            if hi == m - 1 or (lo > 0 and rng.random() < 0.5):
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
    points = _draws(rng, m, dimension)
    votes = _distance_ranks(points, _draws(rng, n, dimension))
    return _election(
        m,
        votes,
        {
            "culture": "HYPERCUBE",
            "dimension": dimension,
            "candidate_points": tuple(map(tuple, points.tolist())),
            "seed": seed,
        },
    )


# tag: (sampler, the CultureSpec field it takes beside m, n and seed, the
# fault when that field is None); its keys are the tags CultureSpec accepts
_SAMPLERS = {
    "IC": (sample_ic, None, None),
    "URN": (sample_urn, "alpha", "urn culture needs alpha (or the gamma flag)"),
    "MALLOWS": (sample_mallows, "phi", "mallows culture needs phi"),
    "MALLOWS_NORM": (sample_mallows_norm, "relphi", "normalized mallows culture needs relphi"),
    "CONITZER": (sample_conitzer, None, None),
    "WALSH": (sample_walsh, None, None),
    "HYPERCUBE": (sample_hypercube, "dimension", "hypercube culture needs a dimension"),
}


def sample(spec: CultureSpec) -> Election:
    """Dispatch a CultureSpec to its sampler in ``_SAMPLERS``.  URN with
    ``gamma_alpha`` draws its own alpha; every other tag ignores the flag."""
    if spec.tag == "URN" and spec.gamma_alpha:
        return sample_urn_gamma(spec.m, spec.n, spec.seed)
    sampler, field, fault = _SAMPLERS[spec.tag]
    if field is None:
        return sampler(spec.m, spec.n, spec.seed)
    if (value := getattr(spec, field)) is None:
        raise ValueError(fault)
    return sampler(spec.m, spec.n, value, spec.seed)


def _check_mn(m: int, n: int) -> None:
    if m < 1:
        raise ValueError("m must be positive")
    if n < 1:
        raise ValueError("n must be positive")
