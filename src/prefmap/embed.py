"""2-D layout of a distance matrix by stress majorization, plus SVG/CSV output.

Distances are normalized by their maximum to targets t_ij, and a layout is
scored by the weighted stress sum over pairs of w_ij * (|p_i - p_j| - t_ij)^2
with w_ij = t_ij^2, so large distances dominate the layout.  The layout
starts from classical (Torgerson) scaling of the targets, turned by an angle
drawn from the seed, and improves by SMACOF: the Guttman transform
X <- V^+ B(X) X of de Leeuw (1977), which never increases the stress; V^+
acts on B(X) X as the inverse of V plus the projector onto its null space.
It stops when a step lowers the stress by a relative 1e-9 or less, when a
step would raise it (float noise), or at the iteration cap.  The run is
deterministic for a fixed seed, and seeds differ only by a rotation.  No
step calls BLAS or LAPACK, so the BLAS thread count changes no bit.
"""

from __future__ import annotations

import csv
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable, Mapping, Sequence
from xml.etree import ElementTree

import numpy as np

from .compass import CORNER_KINDS

# styling entry: (css color, marker shape, group label)
Styling = Mapping[Hashable, tuple[str, str, str]]

# the styling entry of a point that the styling does not name
_UNSTYLED = ("#444444", "dot", "")

# a Guttman step that lowers the stress by this relative amount or less ends the run
_RELATIVE_TOL = 1e-9

_PALETTE = (
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#17becf",
)


@dataclass(frozen=True)
class MapLayout:
    """Planar embedding: one (id, x, y) triple per input row.

    ``iterations`` counts the Guttman steps the embedding took and
    ``stress`` is the weighted stress it ended at: the sum over pairs of
    w_ij * (|p_i - p_j| - t_ij)^2, with t_ij the distance over the largest
    distance and w_ij = t_ij^2.
    """

    points: tuple[tuple[Hashable, float, float], ...]
    styling: Styling = field(default_factory=dict)
    iterations: int = 0
    stress: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "points",
            tuple((pid, float(x), float(y)) for pid, x, y in self.points),
        )
        for _, x, y in self.points:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError("coordinates must be finite")


def _targets(
    distances: Sequence[Sequence[float | Fraction | int]],
) -> tuple[np.ndarray, np.ndarray]:
    """Targets t = d / max(d) and weights w = t^2; all zero when max(d) is 0."""
    d = np.array([[float(v) for v in row] for row in distances], dtype=float)
    if d.size and d.max() > 0.0:
        d /= d.max()
    return d, d * d


def _pairwise(pos: np.ndarray) -> np.ndarray:
    dx, dy = pos[:, :, None] - pos[:, None, :]
    return np.sqrt(dx * dx + dy * dy)


def _stress(dist: np.ndarray, target: np.ndarray, weight: np.ndarray) -> float:
    err = dist - target
    return float((weight * err * err).sum() / 2.0)


def _orthonormal(rows: np.ndarray) -> np.ndarray:
    """The two rows made orthonormal by Gram-Schmidt."""
    (a, b), (_, c) = np.einsum("ik,jk->ij", rows, rows).tolist()
    head, tail = math.sqrt(a), math.sqrt(c - b * b / a)
    return np.einsum("ij,jk->ik", [[1 / head, 0.0], [-b / (a * tail), 1 / tail]], rows)


def _classical_scaling(target: np.ndarray) -> np.ndarray:
    """Top two principal coordinates of the gram G of the double-centered
    squared targets, as a (2, k) array; a non-positive eigenvalue gives a 0
    coordinate.  Subspace iteration on S^8, S = G + s (I - 11^T / 2k) with s
    the Gershgorin bound on G's spectral radius, runs from a fixed start until
    a step moves the basis by at most 1e-14, or for 1,000 steps.  S has G's
    eigenvectors, with eigenvalues >= 0 in G's order, but for the constant one
    (for 0), which drops to s / 2 so as not to tie with a second eigenvalue
    near 0; a closed-form 2 x 2 Rayleigh-Ritz step on G gives the eigenpairs."""
    sq = target * target
    gram = 0.5 * (sq.mean(axis=0) + sq.mean(axis=1)[:, None] - sq.mean() - sq)
    shift = np.abs(gram).sum(axis=1).max()
    power = gram + shift * (np.eye(len(gram)) - 0.5 / len(gram))
    for _ in range(3):
        power = np.einsum("ij,jk->ik", power, power)
    start = random.Random(0)  # not numpy.random, whose import takes longer than a small map
    basis = _orthonormal(np.array([[start.random() - 0.5 for _ in gram] for _ in range(2)]))
    for _ in range(1000):
        basis, last = _orthonormal(np.einsum("ij,kj->ki", power, basis)), basis
        if np.abs(basis - last).max() <= 1e-14:
            break
    (a, b), (_, c) = np.einsum("ik,jk->ij", np.einsum("ij,kj->ki", gram, basis), basis).tolist()
    mid, half, angle = (a + c) / 2.0, math.hypot((a - c) / 2.0, b), math.atan2(2.0 * b, a - c) / 2
    scale = np.sqrt(np.maximum([mid + half, mid - half], 0.0))
    ritz = [[math.cos(angle), math.sin(angle)], [-math.sin(angle), math.cos(angle)]]
    return np.einsum("i,ij,jk->ik", scale, ritz, basis)


def _laplacian_inverse(weight: np.ndarray) -> np.ndarray:
    """(V + P)^-1 for the weighted Laplacian V = diag(w 1) - w and P the sum
    of 1_c 1_c^T / |c| over the components c of the weight graph, the
    projector onto V's null space: on B(X) X, centred within each component,
    it acts as V^+.  V + P is positive definite, so Gauss-Jordan needs no pivot."""
    # each label falls to the smallest index in its component
    linked, label = weight > 0.0, np.arange(len(weight))
    while not np.array_equal(fresh := np.where(linked, label, label[:, None]).min(axis=1), label):
        label = fresh
    projector = (label[:, None] == label) / np.bincount(label)[label]
    inverse = np.diag(weight.sum(axis=1)) - weight + projector
    for p in range(len(weight)):
        col, pivot = inverse[:, p].copy(), inverse[p, p]
        col[p] = 0.0
        inverse[:, p], inverse[p, p] = 0.0, 1.0
        inverse[p] /= pivot
        inverse -= col[:, None] * inverse[p]
    return inverse


def embed_distances(
    distances: Sequence[Sequence[float | Fraction | int]],
    seed: int,
    iterations: int = 1000,
    ids: Sequence[Hashable] | None = None,
    styling: Styling | None = None,
) -> MapLayout:
    """Embed a symmetric nonnegative distance matrix into the plane.

    ``iterations`` caps the Guttman steps.  The returned layout is centered
    at the origin.  Identical inputs with the same seed give
    bitwise-identical coordinates, whatever the BLAS thread count.
    """
    k = len(distances)
    for row in distances:
        if len(row) != k:
            raise ValueError("distance matrix must be square")
    if any(distances[i][i] != 0 for i in range(k)):
        raise ValueError("diagonal must be zero")
    # exact comparisons on the entries as given, each pair once
    for i in range(k):
        row = distances[i]
        for j in range(i + 1, k):
            try:
                finite = math.isfinite(row[j])
            except OverflowError:
                raise ValueError("distances must be small enough for a float") from None
            if not finite:
                raise ValueError("distances must be finite")
            if row[j] != distances[j][i]:
                raise ValueError("distance matrix must be symmetric")
            if row[j] < 0:
                raise ValueError("distances must be nonnegative")
    if iterations < 1:
        raise ValueError("iterations must be positive")
    if ids is None:
        ids = tuple(range(k))
    else:
        ids = tuple(ids)
        if len(ids) != k or len(set(ids)) != k:
            raise ValueError("ids must be distinct and match the matrix size")

    target, weight = _targets(distances)
    if not weight.any():
        pts = tuple((pid, 0.0, 0.0) for pid in ids)
        return MapLayout(pts, styling or {})

    angle = random.Random(seed).uniform(0.0, 2.0 * math.pi)
    turn = [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
    pos = np.einsum("ij,jk->ik", turn, _classical_scaling(target))  # (2, k)
    inverse = _laplacian_inverse(weight)  # fixed for the run
    pull = weight * target
    dist = _pairwise(pos)
    current = _stress(dist, target, weight)
    steps = 0
    while steps < iterations:
        # B(X): -w t / |p_i - p_j| off the diagonal, 0 for coincident points
        b = -np.divide(pull, dist, out=np.zeros_like(dist), where=dist > 0.0)
        np.fill_diagonal(b, -b.sum(axis=1))
        candidate = np.einsum("ij,kj->ki", inverse, np.einsum("ij,kj->ki", b, pos))
        cand_dist = _pairwise(candidate)
        cand_stress = _stress(cand_dist, target, weight)
        if cand_stress > current:
            break
        pos, dist, steps = candidate, cand_dist, steps + 1
        converged = current - cand_stress <= _RELATIVE_TOL * current
        current = cand_stress
        if converged:
            break
    pos = pos - pos.mean(axis=1, keepdims=True)
    pts = tuple((pid, float(x), float(y)) for pid, x, y in zip(ids, *pos))
    return MapLayout(pts, styling or {}, steps, current)


def default_styling(ids: Sequence[Hashable]) -> dict[Hashable, tuple[str, str, str]]:
    """Color/marker/group assignment keyed off the compass label scheme.

    One statement decides each label's group: the text before the first
    ``:``, else ``corner`` for a bare anchor name, else ``A-B`` for a file
    stem ``A-B_...`` of anchor names A and B (as ``compass`` writes), else
    the unnamed group.  ``corner`` is drawn as black stars, others as dots."""
    styles: dict[str, tuple[str, str]] = {"corner": ("#000000", "star")}  # group: (color, marker)
    styling: dict[Hashable, tuple[str, str, str]] = {}
    for pid in ids:
        head, colon, _ = str(pid).partition(":")
        stem, underscore, _ = head.partition("_")
        a, _, b = stem.partition("-")
        group = (head if colon else "corner" if head in CORNER_KINDS
                 else stem if underscore and a in CORNER_KINDS and b in CORNER_KINDS else "")
        fresh = _PALETTE[(len(styles) - 1) % len(_PALETTE)]  # a new group's; "corner" takes none
        color, shape = styles.setdefault(group, (fresh, "dot"))
        styling[pid] = (color, shape, group)
    return styling


def _marker_element(shape: str, x: float, y: float, size: float, color: str):
    if shape == "star":
        pts = []
        for i in range(10):
            r = size if i % 2 == 0 else size * 0.45
            ang = math.pi / 2 + i * math.pi / 5
            pts.append(f"{x + r * math.cos(ang):.3f},{y - r * math.sin(ang):.3f}")
        return ElementTree.Element("polygon", points=" ".join(pts), fill=color)
    # dot / circle
    return ElementTree.Element(
        "circle", cx=f"{x:.3f}", cy=f"{y:.3f}", r=f"{size:.3f}", fill=color
    )


def render_svg(layout: MapLayout, path: str | os.PathLike[str], size: int = 640) -> None:
    """Draw the layout: emphasized labeled corners, path groups as small
    dots joined by a polyline, a legend for the named groups.  One pass
    over the points styles and places each point once; a point that the
    styling does not name is drawn as ``_UNSTYLED``."""
    width = float(size)
    pad = width * 0.08
    xs = [x for _, x, _ in layout.points] or [0.0]
    ys = [y for _, _, y in layout.points] or [0.0]
    x0, y0 = min(xs), min(ys)
    span = max(max(xs) - x0, max(ys) - y0) or 1.0
    scale = (width - 2 * pad) / span

    svg = ElementTree.Element(
        "svg",
        xmlns="http://www.w3.org/2000/svg",
        width=str(size),
        height=str(size),
        viewBox=f"0 0 {size} {size}",
    )
    ElementTree.SubElement(svg, "rect", x="0", y="0", width=str(size),
                           height=str(size), fill="white")

    groups: dict[str, tuple[str, list[str]]] = {}  # named group: (color, polyline points)
    for pid, x, y in layout.points:
        color, shape, group = layout.styling.get(pid, _UNSTYLED)
        # flip y so larger values draw higher
        sx, sy = pad + (x - x0) * scale, width - pad - (y - y0) * scale
        if group not in ("", "corner"):
            groups.setdefault(group, (color, []))[1].append(f"{sx:.3f},{sy:.3f}")
        svg.append(_marker_element(shape, sx, sy, 9.0 if group == "corner" else 3.0, color))
        if group == "corner":
            label = ElementTree.SubElement(
                svg,
                "text",
                x=f"{sx + 11:.3f}",
                y=f"{sy - 9:.3f}",
                attrib={"font-size": "16", "font-family": "sans-serif"},
            )
            label.text = str(pid)

    # polylines go right after the background, so markers draw on top
    svg[1:1] = [
        ElementTree.Element(
            "polyline",
            points=" ".join(coords),
            fill="none",
            stroke=color,
            attrib={"stroke-width": "1.5", "stroke-opacity": "0.8"},
        )
        for color, coords in groups.values()
        if len(coords) > 1
    ]

    legend_y = pad * 0.5
    for group in sorted(groups):
        ElementTree.SubElement(
            svg, "circle", cx=f"{pad:.3f}", cy=f"{legend_y:.3f}", r="4", fill=groups[group][0]
        )
        text = ElementTree.SubElement(
            svg,
            "text",
            x=f"{pad + 10:.3f}",
            y=f"{legend_y + 4:.3f}",
            attrib={"font-size": "12", "font-family": "sans-serif"},
        )
        text.text = group
        legend_y += 16

    ElementTree.indent(svg)
    ElementTree.ElementTree(svg).write(path, encoding="unicode", xml_declaration=False)


def write_coordinates(layout: MapLayout, path: str | os.PathLike[str]) -> None:
    """CSV with header id,x,y,group in layout order; floats round-trip."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "x", "y", "group"])
        for pid, x, y in layout.points:
            group = layout.styling.get(pid, _UNSTYLED)[2]
            writer.writerow([str(pid), repr(x), repr(y), group])

