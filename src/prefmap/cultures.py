"""Vote sampling models and the dispersion calibration behind them.

Samplers: impartial culture, urn (Polya-Eggenberger), Mallows (repeated
insertion), single-peaked models (uniform-peak interval growth and the
balanced bottom-up walk), and points-in-a-hypercube.  The normalized
Mallows variant replaces the raw dispersion phi by the expected number of
swaps relative to its maximum, which makes elections with different m
comparable.  That calibration runs through the swap-count table
T[m][i] = number of permutations of m elements with i inversions.

Every sampler takes an integer seed and is fully deterministic given it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .core import Election

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
# swap-count table and dispersion calibration


@dataclass(frozen=True)
class MahonianTable:
    """Rows of inversion counts: rows[m][i] = permutations of m elements
    with exactly i inversions, for m up to m_max (row 0 is the empty
    permutation)."""

    m_max: int
    rows: tuple[tuple[int, ...], ...]

    def row(self, m: int) -> tuple[int, ...]:
        if m < 0 or m > self.m_max:
            raise ValueError(f"row {m} outside table (m_max={self.m_max})")
        return self.rows[m]


@lru_cache(maxsize=64)
def mahonian_table(m_max: int) -> MahonianTable:
    """Build the table with the standard recurrence
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
    return MahonianTable(m_max, tuple(rows))


@lru_cache(maxsize=256)
def _float_inversion_row(m: int) -> tuple[float, ...]:
    return tuple(float(v) for v in mahonian_table(m).row(m))


def expected_swaps(m: int, phi: float) -> float:
    """Expected number of inversions of a Mallows draw with dispersion phi
    relative to its central order."""
    if m < 1:
        raise ValueError("m must be positive")
    if not 0 <= phi <= 1:
        raise ValueError("phi must lie in [0, 1]")
    if m == 1 or phi == 0:
        return 0.0
    if phi == 1:
        return m * (m - 1) / 4
    row = _float_inversion_row(m)
    weight = 1.0
    total = 0.0
    mean_num = 0.0
    for i, count in enumerate(row):
        term = count * weight
        total += term
        mean_num += i * term
        weight *= phi
    return mean_num / total


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


def _election(m: int, votes: list[tuple[int, ...]], meta: dict) -> Election:
    return Election(candidates=tuple(range(m)), votes=tuple(votes), meta=meta)


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
    phi**swaps(v, central) / Z.
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
    rng = random.Random(seed)
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
    return _election(
        m,
        votes,
        {"culture": "MALLOWS", "phi": phi, "central": central, "seed": seed},
    )


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
    if relphi <= 0.5:
        central = tuple(range(m))
        phi = relphi_to_phi(m, relphi)
    else:
        central = tuple(range(m - 1, -1, -1))
        phi = relphi_to_phi(m, 1 - relphi)
    base = sample_mallows(m, n, phi, seed, central=central)
    return Election(
        candidates=base.candidates,
        votes=base.votes,
        multiplicities=base.multiplicities,
        meta={
            "culture": "MALLOWS_NORM",
            "relphi": relphi,
            "phi": phi,
            "central": central,
            "seed": seed,
        },
    )


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
    votes = []
    for _ in range(n):
        voter = tuple(rng.random() for _ in range(dimension))
        votes.append(rank_by_distance(cand_points, voter))
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
