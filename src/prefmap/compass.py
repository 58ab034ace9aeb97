"""Compass matrices: extreme frequency matrices and paths between them.

Four named matrices anchor the space of frequency matrices: ID (total
agreement), UN (uniform noise), ST (two indifferent blocks), and AN (an
even split between a ranking and its reverse).  Convex combinations of
anchors trace paths whose positionwise distances behave additively, which
makes the anchors-plus-paths family a fixed frame of reference that other
elections can be measured against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import FrequencyMatrix, PositionMatrix, frequency_from_position

CORNER_KINDS = ("ID", "UN", "ST", "AN")
KINDS = CORNER_KINDS + ("rID",)

# Each named matrix is 0/1 counts over their common line sum: ID and rID
# over 1, UN over m, ST over m/2 and AN over 2.
_SUPPORT = {
    "ID": lambda m, i, j: i == j,
    "rID": lambda m, i, j: i == m - 1 - j,
    "UN": lambda m, i, j: True,
    "ST": lambda m, i, j: (i < m // 2) == (j < m // 2),
    "AN": lambda m, i, j: i == j or i == m - 1 - j,
}

# Canonical pair order for paths and tables.
CORNER_PAIRS = (
    ("ID", "UN"),
    ("ID", "AN"),
    ("ID", "ST"),
    ("UN", "AN"),
    ("UN", "ST"),
    ("AN", "ST"),
)

# Limits of the normalized pairwise distances as m grows.
_NORMALIZED_LIMITS: dict[frozenset[str], Fraction] = {
    frozenset(("ID", "UN")): Fraction(1),
    frozenset(("ID", "AN")): Fraction(3, 4),
    frozenset(("ID", "ST")): Fraction(1, 2),
    frozenset(("UN", "AN")): Fraction(1, 2),
    frozenset(("UN", "ST")): Fraction(3, 4),
    frozenset(("AN", "ST")): Fraction(13, 16),
}


@dataclass(frozen=True)
class CompassMatrix:
    kind: str
    m: int
    matrix: FrequencyMatrix


def compass_matrix(kind: str, m: int) -> CompassMatrix:
    """Build one of the named matrices for m candidates.

    ST and AN need an even m; ID, UN, and rID (reversed identity) work for
    any m >= 1.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown compass kind {kind!r}, expected one of {KINDS}")
    if m < 1:
        raise ValueError("m must be positive")
    if kind in ("ST", "AN") and m % 2:
        raise ValueError(f"{kind} requires an even number of candidates")
    support = _SUPPORT[kind]
    counts = [[int(support(m, i, j)) for j in range(m)] for i in range(m)]
    return CompassMatrix(kind, m, frequency_from_position(PositionMatrix(counts)))


def closed_form_distance(a: str, b: str, m: int) -> Fraction:
    """Exact positionwise distance between two anchors when 4 divides m."""
    for kind in (a, b):
        if kind not in CORNER_KINDS:
            raise ValueError(f"no closed form for kind {kind!r}")
    if m < 4 or m % 4:
        raise ValueError("closed forms hold when m is a positive multiple of 4")
    if a == b:
        return Fraction(0)
    pair = frozenset((a, b))
    if pair == frozenset(("ID", "UN")):
        return Fraction(m * m - 1, 3)
    if pair in (frozenset(("ID", "AN")), frozenset(("UN", "ST"))):
        return Fraction(m * m, 4)
    if pair in (frozenset(("ID", "ST")), frozenset(("UN", "AN"))):
        return Fraction(2, 3) * (Fraction(m * m, 4) - 1)
    # AN vs ST
    return Fraction(13 * m * m, 48) - Fraction(1, 3)


def normalized_limit(a: str, b: str) -> Fraction:
    """Large-m limit of the normalized distance between two anchors."""
    for kind in (a, b):
        if kind not in CORNER_KINDS:
            raise ValueError(f"no normalized limit for kind {kind!r}")
    if a == b:
        return Fraction(0)
    return _NORMALIZED_LIMITS[frozenset((a, b))]


def convex_combination(
    x: FrequencyMatrix, y: FrequencyMatrix, alpha: Fraction
) -> FrequencyMatrix:
    """alpha * x + (1 - alpha) * y, exactly."""
    alpha = Fraction(alpha)
    if alpha < 0 or alpha > 1:
        raise ValueError("alpha must lie in [0, 1]")
    if x.m != y.m:
        raise ValueError("matrices must have equal size")
    # alpha = p/q: the counts over q * lcm(Dx, Dy) sum to it on every line
    p, q = alpha.numerator, alpha.denominator
    scale = math.lcm(x.denominator, y.denominator)
    wx = p * (scale // x.denominator)
    wy = (q - p) * (scale // y.denominator)
    counts = [
        [wx * a + wy * b for a, b in zip(rx, ry)] for rx, ry in zip(x.counts, y.counts)
    ]
    return frequency_from_position(PositionMatrix(counts))


@dataclass(frozen=True)
class PathSpec:
    """One point on the segment between two endpoint matrices.

    ``point`` equals alpha * endpoints[0] + (1 - alpha) * endpoints[1];
    it is bistochastic whenever both endpoints are.
    """

    endpoints: tuple[FrequencyMatrix, FrequencyMatrix]
    alpha: Fraction
    point: FrequencyMatrix

    @classmethod
    def at(
        cls, x: FrequencyMatrix, y: FrequencyMatrix, alpha: Fraction
    ) -> "PathSpec":
        alpha = Fraction(alpha)
        return cls((x, y), alpha, convex_combination(x, y, alpha))


def default_point_count(a: str, b: str, scale: int = 50) -> int:
    """Number of interior points for an anchor pair: ceil(scale * limit)."""
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    return math.ceil(scale * normalized_limit(a, b))


def path_points(
    x: FrequencyMatrix,
    y: FrequencyMatrix,
    count: int,
) -> list[PathSpec]:
    """``count`` evenly spaced interior points between y and x.

    Point k (k = 1..count) sits at alpha = k / (count + 1), so endpoints
    themselves are not included.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    denom = count + 1
    return [PathSpec.at(x, y, Fraction(k, denom)) for k in range(1, count + 1)]


def full_compass(
    m: int, scale: int = 50
) -> list[tuple[str, FrequencyMatrix]]:
    """The four anchors plus interior points along all six anchor paths.

    Labels are the anchor kinds for corners and ``A-B:k/K`` for the point
    at alpha = k/K on the segment from B to A.  With the default scale of
    50 and m = 4 this yields 221 labeled matrices.
    """
    if m < 2 or m % 2:
        raise ValueError("the full compass needs an even m >= 2")
    corners = {kind: compass_matrix(kind, m).matrix for kind in CORNER_KINDS}
    out: list[tuple[str, FrequencyMatrix]] = [
        (kind, corners[kind]) for kind in CORNER_KINDS
    ]
    for a, b in CORNER_PAIRS:
        count = default_point_count(a, b, scale)
        for spec in path_points(corners[a], corners[b], count):
            label = f"{a}-{b}:{spec.alpha.numerator}/{spec.alpha.denominator}"
            out.append((label, spec.point))
    return out
