from __future__ import annotations

import math
from fractions import Fraction
from xml.etree import ElementTree

import numpy as np
import pytest

from oracles import gradient_embed
from prefmap.compass import CORNER_KINDS, compass_matrix, full_compass
from prefmap.embed import (
    MapLayout,
    default_styling,
    embed_distances,
    layout_stress,
    read_coordinates,
    render_svg,
    write_coordinates,
)
from prefmap.metric import distance_matrix


def point_distance(layout, i, j):
    _, xi, yi = layout.points[i]
    _, xj, yj = layout.points[j]
    return math.hypot(xi - xj, yi - yj)


def test_two_points_reproduce_their_distance():
    layout = embed_distances([[0, 1], [1, 0]], seed=0)
    assert len(layout.points) == 2
    assert abs(point_distance(layout, 0, 1) - 1.0) <= 1e-3


def test_three_point_ratios_within_two_percent():
    target = [[0, 3, 4], [3, 0, 5], [4, 5, 0]]
    layout = embed_distances(target, seed=1)
    embedded = {
        (i, j): point_distance(layout, i, j) for i in range(3) for j in range(i + 1, 3)
    }
    # compare scale-free: normalize both sides by their largest distance
    emb_max = max(embedded.values())
    for (i, j), emb in embedded.items():
        want = target[i][j] / 5
        assert abs(emb / emb_max - want) <= 0.02 * want


def test_embedding_is_deterministic():
    d = [[0, 2, 1], [2, 0, 1.5], [1, 1.5, 0]]
    a = embed_distances(d, seed=42)
    b = embed_distances(d, seed=42)
    assert a.points == b.points
    c = embed_distances(d, seed=43)
    assert c.points != a.points


def test_embedding_centered_at_origin():
    d = [[0, 2, 1], [2, 0, 1.5], [1, 1.5, 0]]
    layout = embed_distances(d, seed=7)
    xs = [x for _, x, _ in layout.points]
    ys = [y for _, _, y in layout.points]
    assert abs(sum(xs)) < 1e-9
    assert abs(sum(ys)) < 1e-9


def test_stress_non_increasing_over_final_stretch():
    corners = [compass_matrix(kind, 4).matrix for kind in CORNER_KINDS]
    d = [[float(v) for v in row] for row in distance_matrix(corners)]
    stresses = []
    for iters in (900, 910, 920, 930, 940, 950, 960, 970, 980, 990, 1000):
        layout = embed_distances(d, seed=3, iterations=iters)
        stresses.append(layout_stress(layout, d))
    for earlier, later in zip(stresses, stresses[1:]):
        assert later <= earlier + 1e-12


def test_compass_corner_rank_order_preserved():
    corners = [compass_matrix(kind, 4).matrix for kind in CORNER_KINDS]
    ids = list(CORNER_KINDS)
    exact = distance_matrix(corners)
    layout = embed_distances(exact, seed=2, ids=ids)
    index = {pid: k for k, (pid, _, _) in enumerate(layout.points)}

    def emb(a, b):
        return point_distance(layout, index[a], index[b])

    # exact values at m=4: ID-UN = 5 > ID-AN = UN-ST = AN-ST = 4 > ID-ST = UN-AN = 2
    mid_group = [emb("ID", "AN"), emb("UN", "ST"), emb("AN", "ST")]
    low_group = [emb("ID", "ST"), emb("UN", "AN")]
    assert min(mid_group) > max(low_group)
    assert emb("ID", "UN") > max(mid_group)


@pytest.mark.parametrize("m", [4, 6, 10])
@pytest.mark.parametrize("scale", [1, 5, 10])
def test_stress_at_most_gradient_oracle_on_compass(m, scale):
    d = distance_matrix([x for _, x in full_compass(m, scale)])
    for seed in range(3):
        new = layout_stress(embed_distances(d, seed=seed), d)
        old = layout_stress(gradient_embed(d, seed=seed), d)
        assert new <= old * (1 + 1e-6)


def test_compass_corner_distance_order_at_m10():
    labeled = full_compass(10, 10)
    ids = [label for label, _ in labeled]
    exact = distance_matrix([x for _, x in labeled])
    layout = embed_distances(exact, seed=0, ids=ids)
    corners = [ids.index(kind) for kind in CORNER_KINDS]
    pairs = [(a, b) for i, a in enumerate(corners) for b in corners[i + 1 :]]
    for p in pairs:
        for q in pairs:
            if exact[p[0]][p[1]] > 1.15 * exact[q[0]][q[1]]:
                assert point_distance(layout, *p) > point_distance(layout, *q)


def test_seeds_give_equal_stress_and_distinct_coordinates():
    d = distance_matrix([x for _, x in full_compass(6, 5)])
    layouts = [embed_distances(d, seed=seed) for seed in range(5)]
    stresses = [layout_stress(layout, d) for layout in layouts]
    assert max(stresses) - min(stresses) <= 1e-9 * min(stresses)
    assert len({layout.points for layout in layouts}) == 5


def test_stress_non_increasing_with_iteration_cap():
    d = distance_matrix([x for _, x in full_compass(10, 5)])
    stresses = [layout_stress(embed_distances(d, seed=1, iterations=cap), d) for cap in range(1, 31)]
    for earlier, later in zip(stresses, stresses[1:]):
        assert later <= earlier


def test_layout_records_steps_and_stress():
    d = distance_matrix([x for _, x in full_compass(4, 5)])
    capped = embed_distances(d, seed=0, iterations=7)
    assert capped.iterations == 7
    layout = embed_distances(d, seed=0)
    assert 7 < layout.iterations < 1000
    assert embed_distances(d, seed=0, iterations=layout.iterations).points == layout.points
    for run in (capped, layout):
        assert abs(layout_stress(run, d) - run.stress) <= 1e-12
    assert layout.stress < capped.stress


def test_coincident_points_embed_without_float_errors():
    d = [[0, 0, 1, 2], [0, 0, 1, 2], [1, 1, 0, 1], [2, 2, 1, 0]]
    with np.errstate(all="raise"):
        layout = embed_distances(d, seed=4)
    assert point_distance(layout, 0, 1) <= 1e-6
    assert abs(point_distance(layout, 0, 3) / point_distance(layout, 0, 2) - 2.0) <= 1e-6


def test_degenerate_inputs():
    layout = embed_distances([[0]], seed=0)
    assert layout.points[0][1:] == (0.0, 0.0)
    layout = embed_distances([[0, 0], [0, 0]], seed=0)
    assert all((x, y) == (0.0, 0.0) for _, x, y in layout.points)


def test_embed_validation():
    with pytest.raises(ValueError):
        embed_distances([[0, 1], [2, 0]], seed=0)  # asymmetric
    with pytest.raises(ValueError):
        embed_distances([[1, 0], [0, 1]], seed=0)  # nonzero diagonal
    with pytest.raises(ValueError):
        embed_distances([[0, -1], [-1, 0]], seed=0)
    with pytest.raises(ValueError):
        embed_distances([[0, 1], [1, 0]], seed=0, ids=["a"])
    with pytest.raises(ValueError):
        embed_distances([[0, 1], [1, 0]], seed=0, iterations=0)


def test_embed_validation_is_exact():
    # differences far below float resolution are still differences
    tiny = Fraction(1, 10**30)
    assert float(1 + tiny) == 1.0
    with pytest.raises(ValueError, match="symmetric"):
        embed_distances([[0, 1, 2], [1, 0, 1], [2, 1 + tiny, 0]], seed=0)
    with pytest.raises(ValueError, match="symmetric"):
        embed_distances([[0, 1, 2 + tiny], [1, 0, 1], [2, 1, 0]], seed=0)
    with pytest.raises(ValueError, match="nonnegative"):
        embed_distances([[0, -tiny], [-tiny, 0]], seed=0)
    with pytest.raises(ValueError, match="diagonal"):
        embed_distances([[0, 1], [1, tiny]], seed=0)


def test_default_styling_groups():
    ids = ["ID", "UN", "ST", "AN", "ID-UN:1/51", "ID-UN:2/51", "AN-ST:1/42", "other"]
    styling = default_styling(ids)
    assert styling["ID"][2] == "corner"
    assert styling["ID-UN:1/51"][2] == "ID-UN"
    assert styling["ID-UN:1/51"][0] == styling["ID-UN:2/51"][0]
    assert styling["AN-ST:1/42"][2] == "AN-ST"
    assert styling["other"][2] == ""


def test_svg_contains_labeled_corners_and_paths(tmp_path):
    ids = ["ID", "UN", "ST", "AN"] + [f"ID-UN:{k}/6" for k in range(1, 6)] + [
        f"UN-AN:{k}/4" for k in range(1, 4)
    ]
    k = len(ids)
    d = [[0.0 if i == j else abs(i - j) * 0.3 + 0.2 for j in range(k)] for i in range(k)]
    layout = embed_distances(d, seed=5, ids=ids, styling=default_styling(ids))
    path = tmp_path / "map.svg"
    render_svg(layout, path)
    tree = ElementTree.parse(path)  # well-formed XML
    root = tree.getroot()
    ns = "{http://www.w3.org/2000/svg}"
    texts = [el.text for el in root.iter(f"{ns}text")]
    for kind in CORNER_KINDS:
        assert kind in texts
    polylines = root.findall(f"{ns}polyline")
    assert len(polylines) == 2  # one per path group
    polygons = root.findall(f"{ns}polygon")
    assert len(polygons) == 4  # star markers for the corners


def test_coordinates_round_trip(tmp_path):
    ids = ["a", "b", "c"]
    d = [[0, 1, 2], [1, 0, 1.2], [2, 1.2, 0]]
    layout = embed_distances(d, seed=11, ids=ids, styling=default_styling(ids))
    path = tmp_path / "coords.csv"
    write_coordinates(layout, path)
    rows = read_coordinates(path)
    assert [r[0] for r in rows] == ids
    for (pid, x, y), row in zip(layout.points, rows):
        assert row[1] == x and row[2] == y
    header = path.read_text().splitlines()[0]
    assert header == "id,x,y,group"


def test_read_coordinates_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("foo,bar\n")
    with pytest.raises(ValueError):
        read_coordinates(path)


def test_layout_validation():
    with pytest.raises(ValueError):
        MapLayout(points=(("a", float("nan"), 0.0),))
