"""2-D layout of a distance matrix by stress majorization, plus SVG/CSV output.

Distances are normalized by their maximum to targets t_ij, and a layout is
scored by the weighted stress sum over pairs of w_ij * (|p_i - p_j| - t_ij)^2
with w_ij = t_ij^2, so large distances dominate the layout.  The layout
starts from classical (Torgerson) scaling of the targets, turned by an angle
drawn from the seed, and improves by SMACOF: the Guttman transform
X <- V^+ B(X) X of de Leeuw (1977), which never increases the stress.  It
stops when a step lowers the stress by a relative 1e-9 or less, when a step
would raise it (float noise), or at the iteration cap.  The run is
deterministic for a fixed seed, and seeds differ only by a rotation.
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
    ``stress`` is the weighted stress it ended at (see ``layout_stress``).
    """

    points: tuple[tuple[Hashable, float, float], ...]
    styling: Styling = field(default_factory=dict)
    seed: int = 0
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
    diff = pos[:, None, :] - pos[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def _stress(dist: np.ndarray, target: np.ndarray, weight: np.ndarray) -> float:
    err = dist - target
    return float((weight * err * err).sum() / 2.0)


def _classical_scaling(target: np.ndarray) -> np.ndarray:
    """Top two principal coordinates of the double-centered squared
    targets; a non-positive eigenvalue gives a zero coordinate."""
    k = len(target)
    center = np.eye(k) - 1.0 / k
    gram = -0.5 * center @ (target * target) @ center
    values, vectors = np.linalg.eigh(gram)  # ascending eigenvalues
    return vectors[:, :-3:-1] * np.sqrt(np.maximum(values[:-3:-1], 0.0))


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
    bitwise-identical coordinates.
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
        return MapLayout(pts, styling or {}, seed)

    angle = random.Random(seed).uniform(0.0, 2.0 * math.pi)
    turn = np.array([[math.cos(angle), math.sin(angle)], [-math.sin(angle), math.cos(angle)]])
    pos = _classical_scaling(target) @ turn
    # V^+ of the weighted Laplacian V = diag(w 1) - w, fixed for the run
    laplacian_pinv = np.linalg.pinv(np.diag(weight.sum(axis=1)) - weight, hermitian=True)
    pull = weight * target
    dist = _pairwise(pos)
    current = _stress(dist, target, weight)
    steps = 0
    while steps < iterations:
        # B(X): -w t / |p_i - p_j| off the diagonal, 0 for coincident points
        b = -np.divide(pull, dist, out=np.zeros_like(dist), where=dist > 0.0)
        np.fill_diagonal(b, -b.sum(axis=1))
        candidate = laplacian_pinv @ (b @ pos)
        cand_dist = _pairwise(candidate)
        cand_stress = _stress(cand_dist, target, weight)
        if cand_stress > current:
            break
        pos, dist, steps = candidate, cand_dist, steps + 1
        converged = current - cand_stress <= _RELATIVE_TOL * current
        current = cand_stress
        if converged:
            break
    pos = pos - pos.mean(axis=0)
    pts = tuple((pid, float(x), float(y)) for pid, (x, y) in zip(ids, pos))
    return MapLayout(pts, styling or {}, seed, steps, current)


def layout_stress(
    layout: MapLayout, distances: Sequence[Sequence[float | Fraction | int]]
) -> float:
    """Stress of an existing layout against a distance matrix (same
    normalization as embed_distances)."""
    target, weight = _targets(distances)
    pos = np.array([[x, y] for _, x, y in layout.points]).reshape(-1, 2)
    return _stress(_pairwise(pos), target, weight)


def default_styling(ids: Sequence[Hashable]) -> dict[Hashable, tuple[str, str, str]]:
    """Color/marker/group assignment keyed off the compass label scheme.

    Bare anchor names become emphasized corners; ``A-B:k/K`` labels group
    by their path; everything else lands in an unnamed group.
    """
    groups: list[str] = []
    for pid in ids:
        text = str(pid)
        if text in CORNER_KINDS:
            groups.append("corner")
        elif ":" in text:
            groups.append(text.split(":", 1)[0])
        else:
            groups.append("")
    palette_of: dict[str, str] = {}
    styling: dict[Hashable, tuple[str, str, str]] = {}
    for pid, group in zip(ids, groups):
        if group == "corner":
            styling[pid] = ("#000000", "star", "corner")
            continue
        if group not in palette_of:
            palette_of[group] = _PALETTE[len(palette_of) % len(_PALETTE)]
        styling[pid] = (palette_of[group], "dot", group)
    return styling


def _marker_element(shape: str, x: float, y: float, size: float, color: str):
    if shape == "star":
        pts = []
        for i in range(10):
            r = size if i % 2 == 0 else size * 0.45
            ang = math.pi / 2 + i * math.pi / 5
            pts.append(f"{x + r * math.cos(ang):.3f},{y - r * math.sin(ang):.3f}")
        el = ElementTree.Element("polygon", points=" ".join(pts), fill=color)
    else:  # dot / circle
        el = ElementTree.Element(
            "circle", cx=f"{x:.3f}", cy=f"{y:.3f}", r=f"{size:.3f}", fill=color
        )
    return el


def render_svg(layout: MapLayout, path: str | os.PathLike[str], size: int = 640) -> None:
    """Draw the layout: emphasized labeled corners, path groups as small
    dots joined by a polyline, a legend for the named groups."""
    pts = layout.points
    width = float(size)
    pad = width * 0.08
    if pts:
        xs = [x for _, x, _ in pts]
        ys = [y for _, _, y in pts]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        span = max(x1 - x0, y1 - y0) or 1.0
    else:
        x0 = y0 = 0.0
        span = 1.0
    scale = (width - 2 * pad) / span

    def to_screen(x: float, y: float) -> tuple[float, float]:
        # flip y so larger values draw higher
        return pad + (x - x0) * scale, width - pad - (y - y0) * scale

    svg = ElementTree.Element(
        "svg",
        xmlns="http://www.w3.org/2000/svg",
        width=str(size),
        height=str(size),
        viewBox=f"0 0 {size} {size}",
    )
    ElementTree.SubElement(svg, "rect", x="0", y="0", width=str(size),
                           height=str(size), fill="white")

    by_group: dict[str, list[tuple[Hashable, float, float]]] = {}
    for pid, x, y in pts:
        color, shape, group = layout.styling.get(pid, ("#444444", "dot", ""))
        by_group.setdefault(group, []).append((pid, x, y))

    # polylines first so markers draw on top
    for group, members in by_group.items():
        if group in ("", "corner") or len(members) < 2:
            continue
        color = layout.styling[members[0][0]][0]
        coords = " ".join(
            "{:.3f},{:.3f}".format(*to_screen(x, y)) for _, x, y in members
        )
        ElementTree.SubElement(
            svg,
            "polyline",
            points=coords,
            fill="none",
            stroke=color,
            attrib={"stroke-width": "1.5", "stroke-opacity": "0.8"},
        )
    for pid, x, y in pts:
        color, shape, group = layout.styling.get(pid, ("#444444", "dot", ""))
        sx, sy = to_screen(x, y)
        marker_size = 9.0 if group == "corner" else 3.0
        svg.append(_marker_element(shape, sx, sy, marker_size, color))
        if group == "corner":
            label = ElementTree.SubElement(
                svg,
                "text",
                x=f"{sx + 11:.3f}",
                y=f"{sy - 9:.3f}",
                attrib={"font-size": "16", "font-family": "sans-serif"},
            )
            label.text = str(pid)

    legend_y = pad * 0.5
    for group in sorted(g for g in by_group if g not in ("", "corner")):
        color = layout.styling[by_group[group][0][0]][0]
        ElementTree.SubElement(
            svg, "circle", cx=f"{pad:.3f}", cy=f"{legend_y:.3f}", r="4", fill=color
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

    tree = ElementTree.ElementTree(svg)
    ElementTree.indent(tree)
    tree.write(path, encoding="unicode", xml_declaration=False)


def write_coordinates(layout: MapLayout, path: str | os.PathLike[str]) -> None:
    """CSV with header id,x,y,group in layout order; floats round-trip."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "x", "y", "group"])
        for pid, x, y in layout.points:
            group = layout.styling.get(pid, ("", "", ""))[2]
            writer.writerow([str(pid), repr(x), repr(y), group])

