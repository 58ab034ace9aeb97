"""Independent checks of the files the workloads leave behind.

Nothing here imports prefmap.  Matrices, elections and distances are
parsed and recomputed from their definitions: distances by a float
prefix-sum earth mover's distance with scipy's assignment solver, the
m-divisible-by-4 anchor distances by their closed forms, and the maps by a
weighted stress written out below.  Every check returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import random
from fractions import Fraction
from xml.etree import ElementTree

import numpy as np

# Two corner-pair distances of a map count as ordered when one exceeds the
# other by this factor; closer pairs (3/4 vs 13/16 at large m) may swap.
ORDER_MARGIN = 1.15
DIST_RTOL = 1e-9
CENTER_TOL = 1e-9


# ---------------------------------------------------------------------------
# definitions


def relphi_to_phi(m: int, relphi: float) -> float:
    """Mallows dispersion whose expected swap count is relphi * m(m-1)/2.

    Under repeated insertion the j-th candidate moves k places up with
    probability phi**k / sum(phi**i, i <= j), and the swaps are the sum of
    the moves, so the expectation is a sum of m truncated geometric means.
    """
    def relative(phi: float) -> float:
        total = 0.0
        for j in range(m):
            w = [phi**k for k in range(j + 1)]
            total += sum(k * x for k, x in enumerate(w)) / sum(w)
        return total / (m * (m - 1) / 2)

    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if relative(mid) < relphi else (lo, mid)
    return (lo + hi) / 2


def mallows_vote(rng: random.Random, m: int, phi: float) -> list[int]:
    """One Mallows vote around 0 > 1 > ... > m-1, by repeated insertion."""
    vote: list[int] = []
    weights = [phi**k for k in range(m)]
    for j in range(m):
        r = rng.random() * sum(weights[: j + 1])
        k = 0
        while k < j and r >= weights[k]:
            r -= weights[k]
            k += 1
        vote.insert(j - k, j)
    return vote


def anchor(kind: str, m: int) -> list[list[Fraction]]:
    """The compass matrices: rows are positions, columns candidates."""
    half = m // 2

    def cell(i: int, j: int) -> Fraction:
        if kind == "ID":
            return Fraction(int(i == j))
        if kind == "UN":
            return Fraction(1, m)
        if kind == "ST":
            return Fraction(2, m) if (i < half) == (j < half) else Fraction(0)
        return Fraction(1, 2) if j in (i, m - 1 - i) else Fraction(0)  # AN

    return [[cell(i, j) for j in range(m)] for i in range(m)]


def closed_form(a: str, b: str, m: int) -> Fraction:
    """Anchor distances when 4 divides m (Boehmer et al., 2021)."""
    pair = {a, b}
    if pair == {"ID", "UN"}:
        return Fraction(m * m - 1, 3)
    if pair in ({"ID", "AN"}, {"UN", "ST"}):
        return Fraction(m * m, 4)
    if pair in ({"ID", "ST"}, {"UN", "AN"}):
        return Fraction(2, 3) * (Fraction(m * m, 4) - 1)
    return Fraction(13 * m * m, 48) - Fraction(1, 3)  # AN, ST


def float_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Positionwise distance: per candidate pair the earth mover's distance
    of their position distributions, matched by a minimum-cost assignment."""
    from scipy.optimize import linear_sum_assignment

    px, py = np.cumsum(x, axis=0), np.cumsum(y, axis=0)
    cost = np.abs(px[:, :, None] - py[:, None, :]).sum(axis=0)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


def stress(coords: np.ndarray, d: np.ndarray) -> float:
    """Weighted stress sum over pairs of w * (s * |p_i - p_j| - t)**2 with
    t = d / max(d) and w = t**2, at the scale s that minimizes it, so the
    units of the coordinates do not matter."""
    t = d / d.max()
    w = t * t
    diff = coords[:, None, :] - coords[None, :, :]
    e = np.sqrt((diff * diff).sum(axis=2))
    upper = np.triu_indices(len(d), 1)
    t, w, e = t[upper], w[upper], e[upper]
    s = (w * t * e).sum() / (w * e * e).sum() if (w * e * e).sum() > 0 else 0.0
    return float((w * (s * e - t) ** 2).sum())


# ---------------------------------------------------------------------------
# parsers


def read_rational_csv(path: str) -> list[list[Fraction]]:
    with open(path, encoding="utf-8") as fh:
        return [[Fraction(tok) for tok in line.split(",")] for line in fh if line.strip()]


def _read_labeled(path: str, parse) -> tuple[list[str], list[list]]:
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    labels = lines[0][1:]
    if lines[0][0] != "id" or [row[0] for row in lines[1:]] != labels:
        raise ValueError(f"{path}: row labels do not match the header")
    return labels, [[parse(tok) for tok in row[1:]] for row in lines[1:]]


def read_distance_csv(path: str) -> tuple[list[str], list[list[float]]]:
    return _read_labeled(path, float)


def read_exact_csv(path: str) -> tuple[list[str], list[list[Fraction]]]:
    return _read_labeled(path, Fraction)


def read_soc(path: str) -> dict:
    """A strict .soc file: candidate names in file order and ballots as
    (count, ranking of candidate indices, best first)."""
    with open(path, encoding="utf-8") as fh:
        rows = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    m = int(rows[0])
    ids = [row.split(",", 1)[0].strip() for row in rows[1 : m + 1]]
    names = [row.split(",", 1)[1].strip() for row in rows[1 : m + 1]]
    voters, total, distinct = (int(t) for t in rows[m + 1].split(","))
    index = {cid: k for k, cid in enumerate(ids)}
    ballots = []
    for row in rows[m + 2 :]:
        count, *ranking = (t.strip() for t in row.split(","))
        if any("{" in t or "}" in t for t in ranking):
            raise ValueError(f"{path}: tied ballot {row!r}")
        ballots.append((int(count), tuple(index[t] for t in ranking)))
    if len(ballots) != distinct or sum(k for k, _ in ballots) != total or total != voters:
        raise ValueError(f"{path}: header does not match its ballots")
    return {"m": m, "names": names, "ballots": ballots, "n": voters}


def position_counts(soc: dict) -> list[list[int]]:
    m = soc["m"]
    counts = [[0] * m for _ in range(m)]
    for k, ranking in soc["ballots"]:
        for pos, cand in enumerate(ranking):
            counts[pos][cand] += k
    return counts


def frequency(soc: dict) -> list[list[float]]:
    return [[c / soc["n"] for c in row] for row in position_counts(soc)]


# ---------------------------------------------------------------------------
# checks


def exit_codes(outcomes: list[dict], expected_failures: list[dict] | tuple) -> list[str]:
    return [f"{o['argv'][0]} exited {o['rc']}: {o['err'].strip()}" for o in outcomes
            if o["rc"] != 0 and not any(o is f for f in expected_failures)]


def compass_point(row: dict, x: list[list[Fraction]], anchors: dict) -> list[str]:
    """A manifest row's matrix is its anchor, or alpha*A + (1-alpha)*B."""
    if row["label"] in anchors:
        want = anchors[row["label"]]
    else:
        a, b = row["pair"].split("-")
        alpha = Fraction(row["alpha"])
        want = [[alpha * p + (1 - alpha) * q for p, q in zip(ra, rb)]
                for ra, rb in zip(anchors[a], anchors[b])]
    return [] if x == want else [f"{row['file']} is not the matrix of {row['label']}"]


def strict_complete(name: str, soc: dict, m: int, n: int) -> list[str]:
    problems = []
    if soc["m"] != m or soc["n"] != n:
        problems.append(f"{name}: {soc['m']} candidates and {soc['n']} votes, expected {m} and {n}")
    if any(sorted(r) != list(range(soc["m"])) for _, r in soc["ballots"]):
        problems.append(f"{name}: a ballot is not a complete ranking")
    return problems


def distances(path: str, mats: dict, exact_labels=None, exact=None) -> list[str]:
    """Every entry of a distance CSV against the float recomputation, and
    against its exact sidecar when there is one."""
    labels, d = read_distance_csv(path)
    problems = []
    if exact is not None and exact_labels != labels:
        problems.append(f"{path}: sidecar labels differ")
    arrays = {k: np.array(v, dtype=float) for k, v in mats.items()}
    for i in range(len(labels)):
        if d[i][i] != 0:
            problems.append(f"{path}: nonzero diagonal at {labels[i]}")
        for j in range(i + 1, len(labels)):
            want = float_distance(arrays[labels[i]], arrays[labels[j]])
            tol = DIST_RTOL * max(1.0, want)
            if abs(d[i][j] - want) > tol or d[i][j] != d[j][i]:
                problems.append(f"{path}: d({labels[i]}, {labels[j]}) = {d[i][j]}, expected {want}")
            if exact is not None and abs(float(exact[i][j]) - d[i][j]) > tol:
                problems.append(f"{path}: sidecar disagrees at {labels[i]}, {labels[j]}")
    return problems[:10]


def additivity(manifest: list[dict], labels: list[str], exact: list[list[Fraction]]) -> list[str]:
    """d(A, P) + d(P, B) = d(A, B) exactly for every path point P."""
    where = {label: k for k, label in enumerate(labels)}
    problems = []
    for row in manifest:
        if row["label"] == row["pair"]:
            continue
        a, b = (where[c] for c in row["pair"].split("-"))
        p = where[os.path.splitext(row["file"])[0]]
        if exact[a][p] + exact[p][b] != exact[a][b]:
            problems.append(f"path point {row['label']} is not additive")
    return problems


def closed_forms(labels: list[str], exact: list[list[Fraction]], m: int) -> list[str]:
    corners = [k for k in ("ID", "UN", "ST", "AN") if k in labels]
    return [f"d({a}, {b}) = {exact[labels.index(a)][labels.index(b)]}, closed form {closed_form(a, b, m)}"
            for i, a in enumerate(corners) for b in corners[i + 1 :]
            if exact[labels.index(a)][labels.index(b)] != closed_form(a, b, m)]


def map_outputs(dist_path: str, coords_path: str, svg_path: str | None) -> tuple[float, list[str]]:
    """Finite, centered coordinates for the distance CSV's labels, the
    corner distance order kept, an SVG that parses; returns the stress."""
    labels, d = read_distance_csv(dist_path)
    with open(coords_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    problems = []
    if rows[0] != ["id", "x", "y", "group"] or [r[0] for r in rows[1:]] != labels:
        return math.nan, [f"{coords_path}: header or ids do not match {dist_path}"]
    xy = np.array([[float(r[1]), float(r[2])] for r in rows[1:]])
    dist = np.array(d)
    if not np.isfinite(xy).all():
        return math.nan, [f"{coords_path}: coordinates are not finite"]
    if np.abs(xy.mean(axis=0)).max() > CENTER_TOL * max(1.0, np.abs(xy).max()):
        problems.append(f"{coords_path}: layout is not centered")
    corners = [k for k in ("ID", "UN", "ST", "AN") if k in labels]
    pairs = [(labels.index(a), labels.index(b)) for i, a in enumerate(corners) for b in corners[i + 1 :]]
    for p in pairs:
        for q in pairs:
            if dist[p] > ORDER_MARGIN * dist[q] and np.linalg.norm(xy[p[0]] - xy[p[1]]) <= np.linalg.norm(xy[q[0]] - xy[q[1]]):
                problems.append(f"{coords_path}: {labels[p[0]]}-{labels[p[1]]} is drawn no longer "
                                f"than {labels[q[0]]}-{labels[q[1]]}")
    if svg_path is not None:
        root = ElementTree.parse(svg_path).getroot()
        marks = [el for el in root.iter() if el.tag.rsplit("}", 1)[-1] in ("circle", "polygon", "rect")]
        if not root.tag.endswith("svg") or len(marks) < len(labels):
            problems.append(f"{svg_path}: not an SVG with a marker per point")
    return stress(xy, dist), problems


def ingest_output(directory: str, files: int, n: int, planted: set) -> list[str]:
    """Strict, complete samples over the planted candidates 1..10, each
    vote one of the planted rankings."""
    with open(os.path.join(directory, "manifest.json"), encoding="utf-8") as fh:
        listed = json.load(fh)["files"]
    socs = sorted(f for f in os.listdir(directory) if f.endswith(".soc"))
    if socs != sorted(listed) or len(socs) != files:
        return [f"{directory}: {len(socs)} samples, manifest lists {len(listed)}, expected {files}"]
    problems = []
    for f in socs:
        soc = read_soc(os.path.join(directory, f))
        problems += strict_complete(f, soc, 10, n)
        if sorted(soc["names"], key=int) != [str(c) for c in range(1, 11)]:
            problems.append(f"{directory}/{f}: candidates are not the planted 1..10")
        for _, ranking in soc["ballots"]:
            if tuple(int(soc["names"][c]) for c in ranking) not in planted:
                problems.append(f"{directory}/{f}: vote {ranking} was not planted")
                break
    return problems


def fit_line(out: str, planted: float, tol: float) -> list[str]:
    match = re.fullmatch(r"relphi=([0-9.]+) mean=([0-9.]+) std=([0-9.]+)\n", out)
    if match is None:
        return [f"fit-mallows printed {out!r}"]
    relphi = float(match.group(1))
    if abs(relphi - planted) > tol:
        return [f"fit-mallows found relphi {relphi} for planted {planted}"]
    return []


def recovered(path: str, x: list[list[Fraction]], n: int) -> list[str]:
    """An n-voter election within one vote of n*x in every entry, with at
    most m*m - m + 1 distinct votes."""
    m = len(x)
    soc = read_soc(path)
    problems = strict_complete(path, soc, m, n)
    counts = position_counts(soc)
    if any(abs(counts[i][j] - n * x[i][j]) >= 1 for i in range(m) for j in range(m)):
        problems.append(f"{path}: a count is a vote or more from n*x")
    if len(soc["ballots"]) > m * m - m + 1:
        problems.append(f"{path}: {len(soc['ballots'])} distinct votes")
    return problems


def one_vote(path: str, perm: tuple[int, ...]) -> list[str]:
    soc = read_soc(path)
    if soc["ballots"] != [(1, perm)]:
        return [f"{path}: expected the single vote {perm}"]
    return []
