from __future__ import annotations

import csv
import hashlib
import io
import math
from fractions import Fraction
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import gradient_embed, layout_stress
from prefmap.compass import CORNER_KINDS, compass_matrix, full_compass
from prefmap.embed import (
    MapLayout,
    _classical_scaling,
    _laplacian_inverse,
    _pairwise,
    _targets,
    default_styling,
    embed_distances,
    render_svg,
    write_coordinates,
)
from prefmap.metric import distance_matrix


def read_coordinates(path) -> list[tuple[str, float, float, str]]:
    out = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["id", "x", "y", "group"]:
            raise ValueError(f"{path}: expected header id,x,y,group")
        for row in reader:
            if len(row) != 4:
                raise ValueError(f"{path}: expected 4 columns, got {len(row)}")
            out.append((row[0], float(row[1]), float(row[2]), row[3]))
    return out


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
    corners = [compass_matrix(kind, 4) for kind in CORNER_KINDS]
    d = [[float(v) for v in row] for row in distance_matrix(corners)]
    stresses = []
    for iters in (900, 910, 920, 930, 940, 950, 960, 970, 980, 990, 1000):
        layout = embed_distances(d, seed=3, iterations=iters)
        stresses.append(layout_stress(layout, d))
    for earlier, later in zip(stresses, stresses[1:]):
        assert later <= earlier + 1e-12


def test_compass_corner_rank_order_preserved():
    corners = [compass_matrix(kind, 4) for kind in CORNER_KINDS]
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


@st.composite
def _planar_points(draw):
    """1 to 30 points at one coordinate scale, with some of them coincident."""
    scale = draw(st.sampled_from([1e-300, 1.0, 1e150]))
    coordinate = st.floats(-1.0, 1.0, allow_nan=False).map(lambda v: v * scale)
    spots = draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=30))
    picks = draw(st.lists(st.integers(0, len(spots) - 1), min_size=1, max_size=30))
    return np.array([spots[i] for i in picks], dtype=float)


@settings(max_examples=200, deadline=None)
@given(_planar_points())
def test_pairwise_is_bitwise_the_stacked_oracle(pos):
    assert np.array_equal(_pairwise(pos.T), oracles.stacked_pairwise(pos))


@st.composite
def _weight_graphs(draw):
    """Symmetric weights on 2 to 12 points; a zero is a missing edge, so the
    graph may fall apart into components."""
    k = draw(st.integers(2, 12))
    entry = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    weight = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            weight[i, j] = weight[j, i] = draw(entry)
    return weight


@settings(max_examples=200, deadline=None)
@given(_weight_graphs(), st.integers(0, 2**32 - 1))
def test_laplacian_inverse_acts_as_pinv(weight, seed):
    # V Z is centred within each component, as B(X) X is
    laplacian = np.diag(weight.sum(axis=1)) - weight
    centred = laplacian @ np.random.default_rng(seed).standard_normal((len(weight), 2))
    expected = np.linalg.pinv(laplacian, hermitian=True) @ centred
    got = _laplacian_inverse(weight) @ centred
    assert np.abs(got - expected).max() <= 1e-9 * np.abs(expected).max()


def _distances(points) -> np.ndarray:
    p = np.asarray(points, dtype=float)
    return np.sqrt(((p[:, None] - p[None]) ** 2).sum(axis=2))


@st.composite
def _distance_matrices(draw):
    """Distances between 2 to 15 points in 1 to 6 dimensions, or, as the
    embedding accepts them, symmetric matrices that are no metric."""
    k = draw(st.integers(2, 15))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        d = _distances(rng.standard_normal((k, draw(st.integers(1, 6)))))
    else:
        d = rng.random((k, k))
        d = d + d.T
        np.fill_diagonal(d, 0.0)
    return d


@settings(max_examples=300, deadline=None)
@given(_distance_matrices())
# a rectangle close to a square: l1 and l2 nearly tie, and only the 2 x 2
# Rayleigh-Ritz step turns the iterated pair onto the eigenvectors
@example(_distances([[0, 0], [1, 0], [0, 1.001], [1, 1.001], [0.5, 0.5]]))
def test_scaling_ritz_values_match_eigh(d):
    target, _ = _targets(d)
    coordinates = _classical_scaling(target)
    assert coordinates.shape == (2, len(d))
    # each row is a Ritz vector scaled by the root of its clipped Ritz value
    ritz = (coordinates * coordinates).sum(axis=1)
    center = np.eye(len(d)) - 1.0 / len(d)
    gram = -0.5 * center @ (target * target) @ center
    values, vectors = np.linalg.eigh(gram)
    values, vectors = values[::-1], vectors[:, ::-1]  # descending
    # Each of at most 1,000 steps shrinks the start's part along an
    # eigenvector of l_j, j >= 3, by ((l_j + s) / (l2 + s))^8 or less, with s
    # the shift.  Where l_j nearly ties with l2 that part stays, and it pulls
    # the second Ritz value towards l_j by (l2 - l_j) times its square, which
    # a start tangent below 1e3 keeps under 1e6 ((l_j + s) / (l2 + s))^16000.
    rest = values[2:]
    shift = np.abs(gram).sum(axis=1).max()
    left = np.minimum(1.0, 1e6 * ((rest + shift) / (values[1] + shift)) ** 16000)
    allowed = 1e-9 * values[0] + ((values[1] - rest) * left).sum()
    assert np.abs(ritz - np.maximum(values[:2], 0.0)).max() <= allowed
    # The rows are the Ritz vectors: their outer products rebuild the part of
    # G on its top two eigenvalues, clipped at 0, up to the angle that a
    # near-tie leaves.
    top = (vectors[:, :2] * np.maximum(values[:2], 0.0)) @ vectors[:, :2].T
    allowed = 1e-9 * values[0] + values[1] * np.sqrt(left.sum())
    assert np.abs(coordinates.T @ coordinates - top).max() <= allowed


@pytest.mark.parametrize("m", [4, 6, 8, 10])
@pytest.mark.parametrize("scale", [1, 5])
def test_final_stress_matches_pinv_oracle(m, scale):
    # the start may come out turned where the top two eigenvalues tie, so
    # only the stress is compared
    d = distance_matrix([x for _, x in full_compass(m, scale)])
    for seed in range(2):
        new = embed_distances(d, seed=seed).stress
        old = oracles.pinv_embed_distances(d, seed=seed).stress
        assert abs(new - old) <= 1e-9 * old


@pytest.mark.parametrize("points", [[[0, 0], [1, 0], [2, 0.01]], [[0, 0], [3, 0], [0, 4]],
                                    np.random.default_rng(3).standard_normal((12, 2))])
def test_planar_points_start_exact(points):
    # The start reproduces planar points, so the steps stop at once, as from
    # eigh's start; a start off by 1e-8 would take a hundred steps or more
    layout = embed_distances(_distances(points).tolist(), seed=0)
    assert layout.iterations <= 5 and layout.stress <= 1e-28


def test_disconnected_weight_graph_embeds_each_component():
    # two pairs at distance 1; across the pairs every distance is 0, so no
    # weight links them
    d = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    with np.errstate(all="raise"):
        layout = embed_distances(d, seed=0)
    assert layout.stress <= 1e-24
    assert abs(point_distance(layout, 0, 1) - 1.0) <= 1e-9
    assert abs(point_distance(layout, 2, 3) - 1.0) <= 1e-9
    assert oracles.pinv_embed_distances(d, seed=0).stress <= 1e-24


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


def test_embed_rejects_a_ragged_distance_matrix():
    with pytest.raises(ValueError, match="^distance matrix must be square$"):
        embed_distances([[0, 1], [1]], seed=0)


@pytest.mark.parametrize("value, message", [
    (math.inf, "distances must be finite"),
    (math.nan, "distances must be finite"),
    (10**400, "distances must be small enough for a float"),
    (Fraction(10**400, 3), "distances must be small enough for a float"),
], ids=["inf", "nan", "huge-int", "huge-fraction"])
def test_embed_validation_names_a_distance_no_float_holds(value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        embed_distances([[0, 1, 2], [1, 0, value], [2, value, 0]], seed=0)


def test_default_styling_groups():
    ids = ["ID", "UN", "ST", "AN", "ID-UN:1/51", "ID-UN:2/51", "AN-ST:1/42", "other"]
    styling = default_styling(ids)
    assert styling["ID"][2] == "corner"
    assert styling["ID-UN:1/51"][2] == "ID-UN"
    assert styling["ID-UN:1/51"][0] == styling["ID-UN:2/51"][0]
    assert styling["AN-ST:1/42"][2] == "AN-ST"
    assert styling["other"][2] == ""
    # the file stems that `compass` writes name the same groups
    stems = ["ID", "ID-UN_1_51", "ID-UN_2_51", "UN-AN_1_3", "ID-UN", "ID-XX_1", "ID-UN-ST_1",
             "e0_conitzer", "ID_1"]
    styling = default_styling(stems)
    assert [styling[pid][2] for pid in stems] == [
        "corner", "ID-UN", "ID-UN", "UN-AN", "", "", "", "", ""]
    assert styling["ID-UN_1_51"][0] == styling["ID-UN_2_51"][0] != styling["UN-AN_1_3"][0]


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


# anchor names, path labels, plain names (colons and integers among them)
# and a group literally named "corner"
_LABELS = st.one_of(
    st.sampled_from(CORNER_KINDS + ("corner:x", "other")),
    st.builds("{}-{}:{}/5".format, st.sampled_from(CORNER_KINDS),
              st.sampled_from(CORNER_KINDS), st.integers(1, 4)),
    st.text(alphabet="ab:", max_size=3),
    st.integers(0, 2),
)


@st.composite
def _styled_layouts(draw):
    """0 to 12 points on at most four spots, so that some coincide, styled
    by ``default_styling`` with some ids left out of the styling."""
    ids = draw(st.lists(_LABELS, max_size=12))
    coordinate = st.floats(-1e3, 1e3, allow_nan=False)
    spots = draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=4))
    points = [(pid, *draw(st.sampled_from(spots))) for pid in ids]
    styling = default_styling(ids)
    assert list(styling.items()) == list(oracles.two_pass_default_styling(ids).items())
    unstyled = draw(st.sets(st.sampled_from(ids))) if ids else set()
    kept = {pid: style for pid, style in styling.items() if pid not in unstyled}
    return MapLayout(tuple(points), kept)


@settings(max_examples=300, deadline=None)
@given(_styled_layouts(), st.sampled_from([640, 97]))
def test_render_svg_matches_two_pass_oracle(layout, size):
    drawn, expected = io.StringIO(), io.StringIO()
    render_svg(layout, drawn, size)
    oracles.two_pass_render_svg(layout, expected, size)
    assert drawn.getvalue() == expected.getvalue()


# SHA-256 of the SVG of the grouped m = 6 compass map below, as the
# two-pass writer drew it: six polylines, four stars, a six-entry legend
_GROUPED_MAP_SHA256 = "6df6008292fac528394dc361a0765dd329d9fce38dc0d4b50b49bf675f0b93b0"


def test_grouped_map_svg_is_pinned(tmp_path):
    labeled = full_compass(6, 5)
    ids = [label for label, _ in labeled]
    d = distance_matrix([matrix for _, matrix in labeled])
    layout = embed_distances(d, seed=0, ids=ids, styling=default_styling(ids))
    path = tmp_path / "map.svg"
    render_svg(layout, path)
    svg = path.read_text()
    assert svg.count("<polyline") == 6 and svg.count("<polygon") == 4
    assert svg.count('font-size="12"') == 6
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _GROUPED_MAP_SHA256


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
