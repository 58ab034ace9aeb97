from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import MULTIPLICITIES, outcome, stacked, weighted_permutations
from prefmap.compass import (
    CORNER_KINDS,
    CORNER_PAIRS,
    closed_form_distance,
    compass_matrix,
    convex_combination,
    default_point_count,
    full_compass,
    normalized_limit,
    path_points,
)
from prefmap.core import PositionMatrix, frequency_from_position
from prefmap.metric import normalization_constant, positionwise


def test_an_2_is_uniform():
    an2 = compass_matrix("AN", 2)
    half = Fraction(1, 2)
    assert an2.entries == ((half, half), (half, half))


def test_st_4_blocks():
    st4 = compass_matrix("ST", 4)
    half = Fraction(1, 2)
    zero = Fraction(0)
    assert st4.entries == (
        (half, half, zero, zero),
        (half, half, zero, zero),
        (zero, zero, half, half),
        (zero, zero, half, half),
    )


def test_un_3_uniform():
    un3 = compass_matrix("UN", 3)
    third = Fraction(1, 3)
    assert all(v == third for row in un3.entries for v in row)


def test_id_and_reverse():
    id3 = compass_matrix("ID", 3)
    rid3 = oracles.reversed_identity(3)
    assert id3.entries[0] == (1, 0, 0)
    assert rid3.entries[0] == (0, 0, 1)
    # AN is the even mix of ID and its reverse
    an4 = compass_matrix("AN", 4)
    mix = convex_combination(
        compass_matrix("ID", 4), oracles.reversed_identity(4), Fraction(1, 2)
    )
    assert an4 == mix


def test_compass_matrix_builds_the_corners_only():
    with pytest.raises(ValueError) as err:
        compass_matrix("rID", 4)
    assert all(repr(kind) in str(err.value) for kind in CORNER_KINDS)


def test_odd_m_rejected_for_st_an():
    with pytest.raises(ValueError):
        compass_matrix("ST", 5)
    with pytest.raises(ValueError):
        compass_matrix("AN", 3)
    with pytest.raises(ValueError):
        compass_matrix("XX", 4)


def test_closed_form_values():
    assert closed_form_distance("ID", "UN", 8) == 21
    assert closed_form_distance("UN", "AN", 8) == 10
    assert closed_form_distance("ID", "ID", 8) == 0
    with pytest.raises(ValueError):
        closed_form_distance("ID", "UN", 6)
    with pytest.raises(ValueError):
        closed_form_distance("ID", "rID", 8)


def test_closed_forms_match_computed_distances():
    for m in (4, 8):
        mats = {kind: compass_matrix(kind, m) for kind in CORNER_KINDS}
        for a, b in CORNER_PAIRS:
            expected = closed_form_distance(a, b, m)
            assert positionwise(mats[a], mats[b]).value == expected


def test_normalized_limits():
    assert normalized_limit("ID", "UN") == 1
    assert normalized_limit("ID", "AN") == Fraction(3, 4)
    assert normalized_limit("UN", "ST") == Fraction(3, 4)
    assert normalized_limit("AN", "ST") == Fraction(13, 16)
    assert normalized_limit("ID", "ST") == Fraction(1, 2)
    assert normalized_limit("UN", "AN") == Fraction(1, 2)
    assert normalized_limit("ST", "ST") == 0
    assert normalization_constant(10) == 33


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([*CORNER_KINDS, "XX"]), st.integers(-1, 12))
@example("ID", 100)
@example("UN", 100)
@example("ST", 100)
@example("AN", 100)
def test_compass_matrix_matches_cell_by_cell_oracle(kind, m):
    new = outcome(lambda: compass_matrix(kind, m))
    old = outcome(lambda: oracles.support_compass_matrix(kind, m))
    assert type(new) is type(old) and new == old


_FREQUENCY = weighted_permutations(st.one_of(st.integers(1, 3), MULTIPLICITIES), max_m=4).map(
    lambda parts: frequency_from_position(PositionMatrix(stacked(parts)))
)


@settings(max_examples=200, deadline=None)
@given(_FREQUENCY, _FREQUENCY, st.fractions(-1, 2) | st.sampled_from([Fraction(1, 2**64 + 1)]))
def test_convex_combination_matches_validated_oracle(x, y, alpha):
    new = outcome(lambda: convex_combination(x, y, alpha))
    old = outcome(lambda: oracles.validated_convex_combination(x, y, alpha))
    assert type(new) is type(old) and new == old


def test_convex_combination_endpoints_and_validation():
    id4 = compass_matrix("ID", 4)
    un4 = compass_matrix("UN", 4)
    assert convex_combination(id4, un4, Fraction(1)) == id4
    assert convex_combination(id4, un4, Fraction(0)) == un4
    with pytest.raises(ValueError):
        convex_combination(id4, un4, Fraction(3, 2))
    with pytest.raises(ValueError):
        convex_combination(id4, compass_matrix("UN", 6), Fraction(1, 2))


def test_path_points_alphas_and_bistochasticity():
    id4 = compass_matrix("ID", 4)
    un4 = compass_matrix("UN", 4)
    points = path_points(id4, un4, 3)
    assert [alpha for alpha, _ in points] == [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    for alpha, point in points:
        assert point.m == 4
        lines = [*point.counts, *zip(*point.counts)]
        assert all(sum(line) == point.denominator for line in lines)
        assert point == convex_combination(id4, un4, alpha)


def test_path_midpoint_is_equidistant():
    id4 = compass_matrix("ID", 4)
    un4 = compass_matrix("UN", 4)
    mid = convex_combination(id4, un4, Fraction(1, 2))
    d_total = positionwise(id4, un4).value
    assert positionwise(id4, mid).value == d_total / 2
    assert positionwise(mid, un4).value == d_total / 2


def test_path_distances_are_additive_between_anchors():
    m = 8
    mats = {kind: compass_matrix(kind, m) for kind in CORNER_KINDS}
    for a, b in CORNER_PAIRS:
        x, y = mats[a], mats[b]
        total = positionwise(x, y).value
        for alpha in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            z = convex_combination(x, y, alpha)
            left = positionwise(x, z).value
            right = positionwise(z, y).value
            assert left + right == total
            assert left == (1 - alpha) * total
            assert right == alpha * total


def test_additivity_fails_without_alignment():
    # ID and its reverse are at distance zero (columns permute), yet their
    # midpoint sits strictly away from both, so naive interpolation of
    # distances is wrong for unaligned endpoints
    m = 8
    id_m = compass_matrix("ID", m)
    rid_m = oracles.reversed_identity(m)
    assert positionwise(id_m, rid_m).value == 0
    mid = convex_combination(id_m, rid_m, Fraction(1, 2))
    d = positionwise(id_m, mid).value
    assert d == Fraction(m * m, 4)
    assert d > 0


def test_default_point_counts():
    assert default_point_count("ID", "UN") == 50
    assert default_point_count("ID", "AN") == 38
    assert default_point_count("AN", "ST") == 41
    assert default_point_count("ID", "ST") == 25
    assert default_point_count("ID", "UN", scale=0) == 0


def test_full_compass_size_and_labels():
    labeled = full_compass(4, scale=50)
    assert len(labeled) == 221
    labels = [label for label, _ in labeled]
    assert labels[:4] == ["ID", "UN", "ST", "AN"]
    assert len(set(labels)) == 221
    # interior labels carry pair and alpha
    assert any(label.startswith("ID-UN:") for label in labels)
    for label, matrix in labeled:
        assert matrix.m == 4


def test_full_compass_scale_zero_is_corners_only():
    labeled = full_compass(4, scale=0)
    assert [label for label, _ in labeled] == ["ID", "UN", "ST", "AN"]


def test_full_compass_rejects_odd_m():
    with pytest.raises(ValueError):
        full_compass(5)
