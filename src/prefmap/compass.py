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
from fractions import Fraction

import numpy as np

from .core import FrequencyMatrix, _frequency

CORNER_KINDS = ("ID", "UN", "ST", "AN")

# Each corner is 0/1 counts over their common line sum: ID over 1, UN over
# m, ST over m/2 and AN over 2.  Its support is one array step over a
# column of row indices i and a row of column indices j.
_SUPPORT = {
    "ID": lambda m, i, j: i == j,
    "UN": lambda m, i, j: np.ones((m, m), bool),
    "ST": lambda m, i, j: (i < m // 2) == (j < m // 2),
    "AN": lambda m, i, j: (i == j) | (i == m - 1 - j),
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

# When 4 divides m, the distance of each anchor pair is a*m*m + b for its
# (a, b).  Normalizing divides by (m*m - 1)/3, so the large-m limit is 3a.
_CLOSED_FORMS: dict[frozenset[str], tuple[Fraction, Fraction]] = {
    frozenset(("ID", "UN")): (Fraction(1, 3), Fraction(-1, 3)),
    frozenset(("ID", "AN")): (Fraction(1, 4), Fraction(0)),
    frozenset(("UN", "ST")): (Fraction(1, 4), Fraction(0)),
    frozenset(("ID", "ST")): (Fraction(1, 6), Fraction(-2, 3)),
    frozenset(("UN", "AN")): (Fraction(1, 6), Fraction(-2, 3)),
    frozenset(("AN", "ST")): (Fraction(13, 48), Fraction(-1, 3)),
}


def compass_matrix(kind: str, m: int) -> FrequencyMatrix:
    """Build one of the four corner matrices for m candidates.

    ST and AN need an even m; ID and UN work for any m >= 1.
    """
    if kind not in CORNER_KINDS:
        raise ValueError(f"unknown compass kind {kind!r}, expected one of {CORNER_KINDS}")
    if m < 1:
        raise ValueError("m must be positive")
    if kind in ("ST", "AN") and m % 2:
        raise ValueError(f"{kind} requires an even number of candidates")
    counts = _SUPPORT[kind](m, *np.ogrid[:m, :m]).astype(np.int64).tolist()
    return _frequency(counts, sum(counts[0]))


def closed_form_distance(a: str, b: str, m: int) -> Fraction:
    """Exact positionwise distance between two anchors when 4 divides m."""
    for kind in (a, b):
        if kind not in CORNER_KINDS:
            raise ValueError(f"no closed form for kind {kind!r}")
    if m < 4 or m % 4:
        raise ValueError("closed forms hold when m is a positive multiple of 4")
    if a == b:
        return Fraction(0)
    slope, offset = _CLOSED_FORMS[frozenset((a, b))]
    return slope * m * m + offset


def normalized_limit(a: str, b: str) -> Fraction:
    """Large-m limit of the normalized distance between two anchors."""
    for kind in (a, b):
        if kind not in CORNER_KINDS:
            raise ValueError(f"no normalized limit for kind {kind!r}")
    if a == b:
        return Fraction(0)
    return 3 * _CLOSED_FORMS[frozenset((a, b))][0]


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
    return _frequency(counts, q * scale)


def default_point_count(a: str, b: str, scale: int = 50) -> int:
    """Number of interior points for an anchor pair: ceil(scale * limit)."""
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    return math.ceil(scale * normalized_limit(a, b))


def path_points(
    x: FrequencyMatrix,
    y: FrequencyMatrix,
    count: int,
) -> list[tuple[Fraction, FrequencyMatrix]]:
    """``count`` evenly spaced interior points between y and x, as
    ``(alpha, alpha * x + (1 - alpha) * y)`` pairs.

    Point k (k = 1..count) sits at alpha = k / (count + 1), so endpoints
    themselves are not included.  Each point is bistochastic whenever both
    endpoints are.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    alphas = [Fraction(k, count + 1) for k in range(1, count + 1)]
    return [(alpha, convex_combination(x, y, alpha)) for alpha in alphas]


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
    corners = {kind: compass_matrix(kind, m) for kind in CORNER_KINDS}
    out: list[tuple[str, FrequencyMatrix]] = [
        (kind, corners[kind]) for kind in CORNER_KINDS
    ]
    for a, b in CORNER_PAIRS:
        count = default_point_count(a, b, scale)
        for alpha, point in path_points(corners[a], corners[b], count):
            out.append((f"{a}-{b}:{alpha.numerator}/{alpha.denominator}", point))
    return out
