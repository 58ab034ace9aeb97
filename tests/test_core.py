from __future__ import annotations

import os
import random
import re
import tempfile
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    MULTIPLICITIES,
    make_random_election,
    mutated,
    outcome,
    stacked,
    weighted_permutations,
)
from prefmap.compass import CORNER_KINDS, compass_matrix
from prefmap.core import (
    Election,
    FrequencyMatrix,
    PositionMatrix,
    _line_total,
    frequency_from_position,
    frequency_matrix,
    position_matrix,
)
from prefmap.ingest import select_top_k
from prefmap.matrixio import _split, read_matrix_csv, write_matrix_csv


def test_position_matrix_worked_example(worked_example):
    pos = position_matrix(worked_example)
    assert pos.entries == ((3, 1, 2), (3, 3, 0), (0, 2, 4))
    assert pos.m == 3
    assert pos.n == 6


def test_frequency_matrix_worked_example(worked_example):
    freq = frequency_matrix(worked_example)
    half, sixth, third = Fraction(1, 2), Fraction(1, 6), Fraction(1, 3)
    assert freq.entries == (
        (half, sixth, third),
        (half, half, Fraction(0)),
        (Fraction(0), third, 2 * third),
    )


def test_all_permutations_election_gives_uniform_matrix():
    import itertools

    votes = tuple(itertools.permutations(range(3)))
    e = Election(candidates=(0, 1, 2), votes=votes)
    freq = frequency_matrix(e)
    third = Fraction(1, 3)
    assert all(v == third for row in freq.entries for v in row)


def test_unanimous_election_gives_permutation_matrix():
    e = Election(candidates=(0, 1, 2, 3), votes=((2, 0, 3, 1),), multiplicities=(7,))
    pos = position_matrix(e)
    assert pos.n == 7
    # row i has a single entry 7 in the column ranked at position i
    vote = (2, 0, 3, 1)
    for i in range(4):
        assert pos.entries[i][vote[i]] == 7
        assert sum(pos.entries[i]) == 7


def test_multiplicities_match_expansion():
    compact = Election(
        candidates=(0, 1, 2),
        votes=((0, 1, 2), (2, 1, 0)),
        multiplicities=(4, 2),
    )
    expanded = Election(
        candidates=(0, 1, 2),
        votes=((0, 1, 2),) * 4 + ((2, 1, 0),) * 2,
    )
    assert position_matrix(compact) == position_matrix(expanded)
    for k in range(1, 4):
        cut, cut_expanded = select_top_k(compact, k), select_top_k(expanded, k)
        assert cut.candidates == cut_expanded.candidates
        assert cut.vote_counter() == cut_expanded.vote_counter()


def test_borda_scores_worked_example(worked_example):
    # Borda scores a: 9, b: 5, c: 4
    assert select_top_k(worked_example, 1).candidates == ("a",)
    assert select_top_k(worked_example, 2).candidates == ("a", "b")


def test_borda_scores_single_vote():
    # Borda scores y: 2, z: 1, x: 0; the cut keeps index order
    e = Election(candidates=("x", "y", "z"), votes=((1, 2, 0),))
    assert select_top_k(e, 1).candidates == ("y",)
    assert select_top_k(e, 2).candidates == ("y", "z")


def test_frequency_matrix_is_bistochastic_for_random_elections():
    one = Fraction(1)
    for seed in range(25):
        rng = random.Random(seed)
        e = make_random_election(seed, rng.randint(1, 7), rng.randint(1, 25))
        freq = frequency_matrix(e)
        m = freq.m
        for row in freq.entries:
            assert sum(row) == one
        for j in range(m):
            assert sum(freq.entries[i][j] for i in range(m)) == one


def test_matrices_ignore_vote_order():
    e = make_random_election(7, 5, 12)
    shuffled_votes = list(e.votes)
    random.Random(99).shuffle(shuffled_votes)
    f = Election(candidates=e.candidates, votes=tuple(shuffled_votes))
    assert position_matrix(e) == position_matrix(f)


def test_candidate_relabeling_permutes_columns():
    e = make_random_election(3, 4, 9)
    perm = (2, 0, 3, 1)  # new index of each old candidate
    relabeled_votes = tuple(tuple(perm[c] for c in vote) for vote in e.votes)
    f = Election(candidates=(0, 1, 2, 3), votes=relabeled_votes)
    pe = position_matrix(e)
    pf = position_matrix(f)
    for i in range(4):
        for j in range(4):
            assert pe.entries[i][j] == pf.entries[i][perm[j]]


def test_restrict_worked_example(worked_example):
    r = select_top_k(worked_example, 2)
    assert r.candidates == ("a", "b")
    assert r.vote_counter() == Counter({(0, 1): 5, (1, 0): 1})


def test_restrict_keep_all_is_identity(worked_example):
    r = select_top_k(worked_example, 3)
    assert r.candidates == worked_example.candidates
    assert r.votes == worked_example.votes
    assert r.multiplicities == worked_example.multiplicities


def test_restrict_single_vote():
    e = Election(candidates=("a", "b", "c"), votes=((0, 2, 1),))
    r = select_top_k(e, 2)
    assert r.candidates == ("a", "c")
    assert r.votes == ((0, 1),)


def test_restrict_preserves_relative_order():
    e = make_random_election(11, 6, 8)
    r = select_top_k(e, 3)
    keep = set(r.candidates)
    back = {new: old for new, old in enumerate(c for c in e.candidates if c in keep)}
    for old_vote, new_vote in zip(e.votes, r.votes):
        projected = [c for c in old_vote if c in keep]
        assert [back[c] for c in new_vote] == projected


def test_election_validation():
    with pytest.raises(ValueError):
        Election(candidates=(), votes=((0,),))
    with pytest.raises(ValueError):
        Election(candidates=(0, 1), votes=())
    with pytest.raises(ValueError):
        Election(candidates=(0, 1), votes=((0, 0),))
    with pytest.raises(ValueError):
        Election(candidates=(0, 1), votes=((0, 1, 2),))
    with pytest.raises(ValueError):
        Election(candidates=(0, 1), votes=((0, 1),), multiplicities=(0,))
    with pytest.raises(ValueError):
        Election(candidates=(0, 0), votes=((0, 1),))


def test_election_names_a_vote_whose_entries_do_not_compare():
    # '0' and 1 do not sort, so the vote cannot be a permutation of 0..1
    with pytest.raises(ValueError, match=re.escape("vote ('0', 1) is not a permutation of 0..1")):
        Election((0, 1), [("0", 1)])


@pytest.mark.parametrize(
    "mults, bad",
    [([1.5, 2], "1.5"), ([Fraction(3, 2), 2], "Fraction(3, 2)"), (["2", 1], "'2'"),
     # values int() cannot convert at all: its ValueError, TypeError, OverflowError
     ([1, "a"], "'a'"), ([None, 1], "None"), ([float("inf"), 1], "inf")],
)
def test_election_rejects_non_integer_multiplicities(mults, bad):
    with pytest.raises(ValueError, match=re.escape(f"multiplicities must be integers, got {bad}")):
        Election((0, 1), [(0, 1), (1, 0)], mults)


def test_election_takes_bool_and_numpy_multiplicities():
    e = Election((0, 1), [(0, 1), (1, 0)], [True, np.int64(2)])
    assert e.multiplicities == (1, 2) and all(type(k) is int for k in e.multiplicities)


# ---------------------------------------------------------------------------
# the vote array against the tuple-based election

def _form(votes, form):
    """``votes`` as a tuple of tuples, a list of lists or an array of the
    dtype numpy gives them: int64 for ints, float64 or a string dtype."""
    if form == "tuples":
        return tuple(map(tuple, votes))
    if form == "lists":
        return [list(v) for v in votes]
    return np.array(votes)


@st.composite
def _vote_sets(draw, max_m=6):
    m = draw(st.integers(1, max_m))
    votes = draw(st.lists(st.permutations(range(m)), min_size=1, max_size=12))
    mults = draw(st.none() | st.lists(MULTIPLICITIES, min_size=len(votes), max_size=len(votes)))
    return m, votes, mults, draw(st.sampled_from(["tuples", "lists", "array"]))


@settings(max_examples=200, deadline=None)
@given(_vote_sets())
def test_election_keeps_the_tuple_oracles_votes(case):
    m, votes, mults, form = case
    candidates = [f"c{k}" for k in range(m)]
    e = Election(candidates, _form(votes, form), mults)
    assert (e.candidates, e.votes, e.multiplicities) == oracles.tuple_election(
        candidates, votes, mults
    )
    assert e.vote_array.dtype == np.int64 and e.vote_array.shape == (len(votes), m)
    assert e.n == sum(e.multiplicities)


@settings(max_examples=200, deadline=None)
@given(_vote_sets(), st.data())
def test_array_steps_match_loop_oracles(case, data):
    m, votes, mults, form = case
    e = Election(range(m), _form(votes, form), mults)
    counts = oracles.loop_position_matrix(e)
    assert position_matrix(e).entries == tuple(map(tuple, counts))
    assert frequency_matrix(e) == frequency_from_position(PositionMatrix(counts))
    assert e.vote_counter() == oracles.loop_vote_counter(e)
    k = data.draw(st.integers(1, m))
    r = select_top_k(e, k)
    assert (r.candidates, r.votes, r.multiplicities) == _loop_top_k(e, k)


def _loop_top_k(election, k):
    """The Borda cut through the loop oracles: the top k by score, ties
    to the lower index."""
    scores = oracles.loop_borda_scores(election)
    order = sorted(range(election.m), key=lambda c: (-scores[election.candidates[c]], c))
    return oracles.loop_restrict(election, {election.candidates[c] for c in order[:k]})


# With ``mirror``, every vote is cast again reversed with the same
# multiplicity, so all Borda scores tie and the cut keeps the lowest indices.
@settings(max_examples=200, deadline=None)
@given(_vote_sets(), st.booleans())
@example((3, [[2, 0, 1], [1, 2, 0]], [2**63 + 1, 2**63], "tuples"), False)
@example((4, [[3, 1, 0, 2]], [2**70], "array"), True)
def test_select_top_k_matches_loop_oracles(case, mirror):
    m, votes, mults, form = case
    if mirror:
        votes = votes + [v[::-1] for v in votes]
        mults = mults and mults + mults
    e = Election([f"c{j}" for j in range(m)], _form(votes, form), mults, meta={"source": "s"})
    for k in range(1, m + 1):
        r = select_top_k(e, k)
        assert (r.candidates, r.votes, r.multiplicities) == _loop_top_k(e, k)
        assert r.meta == e.meta and r.meta is not e.meta
        if mirror:
            assert r.candidates == e.candidates[:k]


# A vote of ints in -1..m, of length 0..m + 1, mostly a permutation, with
# floats among its entries (0.5, or 1.0, which equals its integer), or a
# permutation written as digit strings
@st.composite
def _rough_votes(draw):
    m = draw(st.integers(0, 4))
    candidates = draw(st.lists(st.sampled_from("abcde"), min_size=m, max_size=m))
    entry = st.one_of(st.integers(-1, m), st.integers(-1, m).map(float),
                      st.sampled_from([0.5, 1.7, -0.5]))
    vote = st.one_of(
        st.permutations(range(m)).map(list),
        st.permutations(range(m)).map(lambda v: [float(k) for k in v]),
        st.permutations(range(m)).map(lambda v: [str(k) for k in v]),
        st.lists(st.integers(-1, m), min_size=0, max_size=m + 1),
        st.lists(entry, min_size=0, max_size=m + 1),
    )
    votes = draw(st.lists(vote, max_size=4))
    mults = draw(st.none() | st.lists(st.integers(-1, 3), max_size=5))
    forms = ["tuples", "lists"]
    if votes and all(len(v) == m for v in votes):  # an array takes them
        forms.append("array")
    return candidates, votes, mults, draw(st.sampled_from(forms))


@settings(max_examples=500, deadline=None)
@given(_rough_votes())
@example((["a", "b"], [[0, 1], [0, 1, 2]], None, "lists"))  # ragged
@example((["a", "b"], [[0, 1], [0, 2]], None, "tuples"))  # out of range
@example((["a", "b"], [[1, 1], [0, 1, 0]], None, "tuples"))  # repeated, then ragged
@example((["a", "b"], [[0, 1], [1, 0]], None, "array"))  # an array that passes
@example((["a", "b"], [[0, 2], [1, 0]], None, "array"))  # an array that does not
@example((["a", "b"], [[0.5, 1.7], [1.0, 0.0]], None, "tuples"))  # entries that are not ints
@example((["a", "b"], [[1.0, 0.0]], None, "tuples"))  # floats that equal their ints
@example((["a", "b"], [["0", "1"]], None, "lists"))  # digit strings
@example((["a", "b"], [[1, 0], [0.5, 1.0]], None, "array"))  # a float array holding 0.5
@example((["a", "b"], [[1, 0], [0, 1.0]], None, "array"))  # a float array that passes
@example((["a", "b"], [["1", "0"]], None, "array"))  # a string array
@example((["a", "b"], [], None, "tuples"))  # no votes
@example((["a", "b"], [[0, 1]], [1, 2], "tuples"))  # multiplicities of the wrong length
@example((["a", "b"], [[0, 1], [1, 0]], [2, 0], "tuples"))  # a multiplicity <= 0
@example((["a", "a"], [[0, 1]], None, "tuples"))  # repeated candidates
@example(([], [[0]], None, "tuples"))  # no candidates
def test_election_rejects_with_the_tuple_oracles_message(case):
    candidates, votes, mults, form = case
    given = _form(votes, form)
    # the oracle reads an array's entries as the array holds them
    as_given = given.tolist() if form == "array" else votes
    expected = outcome(lambda: oracles.tuple_election(candidates, as_given, mults))
    got = outcome(lambda: Election(candidates, given, mults))
    if isinstance(expected, str):
        assert got == expected
    else:
        assert (got.candidates, got.votes, got.multiplicities) == expected
        assert all(type(k) is int for vote in got.votes for k in vote)


def test_vote_counter_lists_votes_in_ascending_order_past_256_candidates():
    # candidates 255 and 256 differ in their low byte the other way round
    rng = random.Random(300)
    base = rng.sample(range(300), 300)
    i, j = base.index(255), base.index(256)
    swapped = list(base)
    swapped[i], swapped[j] = 256, 255
    votes = [swapped, base] + [rng.sample(range(300), 300) for _ in range(30)]
    e = Election(range(300), votes + votes[:5])
    assert list(e.vote_counter()) == sorted(set(e.votes))
    assert e.vote_counter() == oracles.loop_vote_counter(e)


def test_elections_from_tuples_and_arrays_are_equal():
    votes = ((0, 1, 2), (2, 0, 1), (0, 1, 2))
    source = np.array(votes, dtype=np.int32)
    a = Election("xyz", votes, (1, 2**64, 3), meta={"seed": 1})
    b = Election("xyz", source, [1, 2**64, 3], meta={"seed": 2})
    c = Election("xyz", [list(v) for v in votes], (1, 2**64, 3))
    assert a == b == c and hash(a) == hash(b) == hash(c)
    assert len({a, b, c}) == 1
    assert a != Election("xyz", votes, (1, 2**64, 4))
    assert a != Election("xzy", votes, (1, 2**64, 3))
    assert a != Election("xyz", votes[::-1], (3, 2**64, 1))
    assert a != votes
    # the election keeps its own read-only copy
    source[0, 0] = 1
    assert b.votes == votes
    assert not b.vote_array.flags.writeable
    with pytest.raises(ValueError):
        b.vote_array[0, 0] = 2


def test_position_matrix_validation():
    with pytest.raises(ValueError):
        PositionMatrix(((1, 0), (1, 1)))  # unequal line sums
    with pytest.raises(ValueError):
        PositionMatrix(((1, -1), (-1, 1)))
    with pytest.raises(ValueError):
        PositionMatrix(((1, 0, 0), (0, 1, 0)))  # not square
    with pytest.raises(ValueError, match="position matrix column 0 sums to 4, expected 2"):
        PositionMatrix(((2, 0), (2, 0)))  # equal row sums, unequal columns


@pytest.mark.parametrize(
    "entries, bad",
    [
        (((1.5, 0.5), (0.5, 1.5)), "1.5"),
        (((Fraction(3, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(3, 2))), "Fraction(3, 2)"),
        ((("1", 0), (0, "1")), "'1'"),
        (((float("inf"), 0), (0, float("inf"))), "inf"),
        (((None, 1), (1, 0)), "None"),
    ],
)
def test_position_matrix_rejects_non_integer_entries(entries, bad):
    message = f"position matrix entries must be integers, got {bad}"
    with pytest.raises(ValueError, match=re.escape(message)):
        PositionMatrix(entries)


def test_position_matrix_takes_ints_bools_and_numpy_integers():
    for entries in (
        ((True, False), (False, True)), np.eye(2, dtype=np.int32), ((np.int64(1), 0), (0, 1))
    ):
        pos = PositionMatrix(entries)
        assert pos.entries == ((1, 0), (0, 1)) and pos.n == 1
        assert all(type(x) is int for row in pos.entries for x in row)


@st.composite
def _line_entries(draw):
    """Rows of integers, as ints, bools and numpy integers where they fit:
    a sum of weighted permutation matrices, at times with one cell
    changed, one cell moved within its row, a row or a cell dropped, or
    no rows at all."""
    rows = stacked(draw(weighted_permutations(st.one_of(st.integers(0, 3), MULTIPLICITIES))))
    m = len(rows)
    edit = draw(st.sampled_from(["none", "cell", "shift", "row", "ragged", "empty"]))
    i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
    if edit == "shift":  # for m > 1, row sums kept and column sums broken
        rows[i][(j + 1) % m] += rows[i][j]
        rows[i][j] = 0
    elif edit == "cell":
        rows[i][j] = draw(st.one_of(st.integers(-2, 3), MULTIPLICITIES))
    elif edit == "row":
        del rows[i]
    elif edit == "ragged":
        del rows[i][j]
    elif edit == "empty":
        rows = []
    kinds = {0: [int, bool, np.int8], 1: [int, bool, np.uint64], -1: [int, np.int16]}
    return [[draw(st.sampled_from(kinds.get(x, [int, np.int64] if abs(x) < 2**63 else [int])))(x)
             for x in row] for row in rows]


@settings(max_examples=300, deadline=None)
@given(_line_entries(), st.sampled_from([1, 3, 2**64 + 1]))
def test_line_total_matches_loop_oracle(entries, unit):
    # the mixed entries go through the one constructor that takes them
    pos = outcome(lambda: PositionMatrix(entries))
    old = outcome(lambda: oracles.loop_line_total(entries, "position matrix"))
    if isinstance(old, str):
        assert pos == old
    else:
        assert (pos.entries, pos.n) == old
        assert all(type(x) is int for row in pos.entries for x in row)
    # _line_total takes rows of Python integers as given
    ints = [[int(x) for x in row] for row in entries]
    total = outcome(lambda: _line_total(ints, "position matrix", unit))
    old = outcome(lambda: oracles.loop_line_total(entries, "position matrix", unit))
    assert total == (old if isinstance(old, str) else old[1])


def test_frequency_matrix_validation():
    half = Fraction(1, 2)
    with pytest.raises(ValueError):
        FrequencyMatrix(((half, half), (half, Fraction(1, 3))))
    with pytest.raises(ValueError):
        FrequencyMatrix(((Fraction(2), Fraction(-1)), (Fraction(-1), Fraction(2))))
    with pytest.raises(ValueError):
        FrequencyMatrix(((1, 1), (1, 1)))  # equal line sums, but not 1


@pytest.mark.parametrize(
    "entries, bad",
    [
        ((("1/2", "1/2"), ("1/2", "1/2")), "'1/2'"),
        ((("1", 0), (0, 1)), "'1'"),
        (((float("inf"), 0), (0, 1)), "inf"),
        (((float("nan"), 0), (0, 1)), "nan"),
        (((None, 1), (1, 0)), "None"),
    ],
)
def test_frequency_matrix_takes_entries_by_the_position_matrix_rule(entries, bad):
    # one rule for both matrices: a value passes only as the number it is
    message = f"frequency matrix entries must be numbers, got {bad}"
    with pytest.raises(ValueError, match=re.escape(message)):
        FrequencyMatrix(entries)
    # a float is taken at its binary value
    half = FrequencyMatrix(((0.5, 0.5), (np.float64(0.5), Fraction(1, 2))))
    assert half.counts == ((1, 1), (1, 1)) and half.denominator == 2


def test_frequency_matrix_is_stored_in_lowest_terms():
    half = Fraction(1, 2)
    freq = FrequencyMatrix(((half, half), (half, half)))
    assert freq.counts == ((1, 1), (1, 1)) and freq.denominator == 2
    same = frequency_from_position(PositionMatrix(((3, 3), (3, 3))))
    assert same == freq and hash(same) == hash(freq)
    assert same.entries == ((half, half), (half, half))


def test_frequency_from_position_round_trip(worked_example):
    pos = position_matrix(worked_example)
    freq = frequency_from_position(pos)
    assert freq == frequency_matrix(worked_example)


def test_matrix_csv_round_trip_frequency(tmp_path, worked_example):
    freq = frequency_matrix(worked_example)
    path = tmp_path / "freq.csv"
    write_matrix_csv(freq, path)
    again = read_matrix_csv(path)
    assert isinstance(again, FrequencyMatrix)
    assert again == freq


def test_matrix_csv_round_trip_position(tmp_path, worked_example):
    pos = position_matrix(worked_example)
    path = tmp_path / "pos.csv"
    write_matrix_csv(pos, path)
    again = read_matrix_csv(path)
    assert isinstance(again, PositionMatrix)
    assert again == pos


def test_matrix_csv_serializes_rationals_exactly(tmp_path):
    freq = FrequencyMatrix(
        (
            (Fraction(1, 3), Fraction(2, 3)),
            (Fraction(2, 3), Fraction(1, 3)),
        )
    )
    path = tmp_path / "m.csv"
    write_matrix_csv(freq, path)
    assert path.read_text() == "1/3,2/3\n2/3,1/3\n"
    assert read_matrix_csv(path) == freq


def test_matrix_csv_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3\n")
    with pytest.raises(ValueError):
        read_matrix_csv(bad)
    bad.write_text("1/2,1/3\n1/3,1/2\n")  # rows do not sum to 1, not integer
    with pytest.raises(ValueError):
        read_matrix_csv(bad)
    bad.write_text("")
    with pytest.raises(ValueError):
        read_matrix_csv(bad)


def _round_trip(matrix):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.csv")
        write_matrix_csv(matrix, path)
        with open(path, encoding="utf-8") as fh:
            # each entry as str of its Fraction (or int) prints it
            assert fh.read() == "".join(",".join(map(str, row)) + "\n" for row in matrix.entries)
        return read_matrix_csv(path)


@settings(max_examples=100, deadline=None)
@given(weighted_permutations(st.fractions(min_value=Fraction(1, 10**6), max_value=10**6)))
def test_matrix_csv_round_trip_property_frequency(parts):
    total = sum(w for w, _ in parts)
    freq = FrequencyMatrix([[v / total for v in row] for row in stacked(parts)])
    assert _round_trip(freq) == freq


@settings(max_examples=100, deadline=None)
@given(weighted_permutations(st.integers(1, 10**6)))
def test_matrix_csv_round_trip_property_position(parts):
    pos = PositionMatrix(stacked(parts))
    # one voter's 0/1 matrix is also a frequency matrix, and reads as one
    expected = frequency_from_position(pos) if pos.n == 1 else pos
    assert _round_trip(pos) == expected


_FREQUENCY_CSV = b"1/3,2/3,0\n2/3,1/6,1/6\n0,1/6,5/6\n"
_POSITION_CSV = b"3,1,2\n3,3,0\n0,2,4\n"


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([_FREQUENCY_CSV, _POSITION_CSV]).flatmap(mutated))
def test_read_matrix_csv_rejects_mutations_with_value_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            matrix = read_matrix_csv(path)
        except ValueError:
            return
    assert isinstance(matrix, (FrequencyMatrix, PositionMatrix))


@st.composite
def _token(draw, value: Fraction) -> str:
    """``value`` in one of the token forms the reader accepts: p/q,
    unreduced, decimal with trailing zeros, with a sign, leading zeros or
    spaces."""
    sign, value = "-" * (value < 0), abs(value)
    p, q = value.numerator, value.denominator
    decimal_places = next((k for k in range(1, 8) if 10**k % q == 0), None)
    form = draw(st.sampled_from(["plain", "unreduced", "decimal"]))
    if form == "unreduced":
        k = draw(st.integers(1, 5))
        tok = f"{p * k}/{q * k}"
    elif form == "decimal" and decimal_places is not None:
        places = decimal_places + draw(st.integers(0, 2))
        digits = str(p * 10**places // q).rjust(places + 1, "0")
        tok = f"{digits[:-places]}.{digits[-places:]}"
    else:
        tok = str(value)
    if draw(st.booleans()):
        tok = "0" * draw(st.integers(1, 2)) + tok
    tok = (sign or draw(st.sampled_from(["", "+"] + ["-"] * (p == 0)))) + tok
    return " " * draw(st.integers(0, 1)) + tok + " " * draw(st.integers(0, 1))


@st.composite
def _matrix_text(draw, valid: bool = True) -> str:
    """A frequency or position matrix CSV with mixed token forms, comment
    lines and blank lines: a sum of n permutation matrices, divided by n or
    not.  The pinned rows take one column in every permutation, so they
    hold integers beside rows of other denominators.  Unless ``valid``,
    some mass may move within a row, which keeps the row sums and can
    break a column sum or the sign of an entry."""
    m = draw(st.integers(1, 5))
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 10, 12, 20, 25, 100]))
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=1, max_size=4)))
    weights = [b - a for a, b in zip([0, *cuts], [*cuts, n]) if b > a]
    perms = draw(st.lists(st.permutations(range(m)), min_size=len(weights), max_size=len(weights)))
    pinned = draw(st.sets(st.integers(0, m - 1)))
    keep = {perms[0][i] for i in pinned}
    for p in perms[1:]:
        rest = iter([c for c in p if c not in keep])
        p[:] = [perms[0][i] if i in pinned else next(rest) for i in range(m)]
    unit = n if draw(st.booleans()) else 1
    counts = stacked(list(zip(weights, perms)))
    if not valid:
        i, a, b = (draw(st.integers(0, m - 1)) for _ in range(3))
        moved = draw(st.integers(0, n))
        counts[i][a] -= moved
        counts[i][b] += moved
    lines = [
        ",".join(draw(_token(Fraction(c, unit))) for c in row)
        for row in counts
    ]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "# note", "  "])))
    return "\n".join(lines) + "\n"


def _both_readers(data: bytes):
    """(new reader, Fraction oracle) on the file ``data``: each a matrix or
    the message of the ValueError it raised."""
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        for read in (read_matrix_csv, oracles.fraction_read_matrix_csv):
            try:
                outcomes.append(read(path))
            except ValueError as exc:
                outcomes.append(str(exc))
    return outcomes


@settings(max_examples=200, deadline=None)
@given(_matrix_text())
def test_read_matrix_csv_matches_fraction_oracle(text):
    new, old = _both_readers(text.encode())
    assert isinstance(new, (FrequencyMatrix, PositionMatrix))
    assert type(new) is type(old) and new == old


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.sampled_from([_FREQUENCY_CSV, _POSITION_CSV]).flatmap(mutated),
        _matrix_text().map(str.encode).flatmap(mutated),
        _matrix_text(valid=False).map(str.encode),
    )
)
def test_read_matrix_csv_matches_fraction_oracle_on_bad_files(data):
    new, old = _both_readers(data)
    assert type(new) is type(old) and new == old


# Tokens next to the reader's fast path for plain "p" and "p/q": int()
# takes the first three, the next four (q = 0, an empty part) are not
# rationals, leading zeros are, and the last two hold more digits than
# int() converts.
_EDGE_TOKENS = ["1_0", "\u0663", "\uff11", "1/0", "0/00", "1/", "/1", "007/010",
                "1" * 4301, "1/" + "2" * 4301]


@st.composite
def _plain_matrix_text(draw) -> bytes:
    """A frequency or position matrix CSV in plain p and p/q tokens, as
    ``write_matrix_csv`` writes it (unreduced at times), with up to two
    cells swapped for edge tokens."""
    m = draw(st.integers(1, 5))
    weighted = st.tuples(st.integers(1, 9), st.permutations(range(m)))
    parts = draw(st.lists(weighted, min_size=1, max_size=4))
    counts = stacked(parts)
    unit = draw(st.sampled_from([1, sum(w for w, _ in parts)]))
    cells = [[str(Fraction(c, unit)) if draw(st.booleans()) else f"{c}/{unit}" for c in row]
             for row in counts]
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        cells[i][j] = draw(st.sampled_from(_EDGE_TOKENS))
    return "".join(",".join(row) + "\n" for row in cells).encode()


@settings(max_examples=200, deadline=None)
@given(st.one_of(_plain_matrix_text(), _plain_matrix_text().flatmap(mutated)))
def test_read_matrix_csv_fast_path_matches_fraction_oracle(data):
    new, old = _both_readers(data)
    assert type(new) is type(old) and new == old


def test_read_matrix_csv_keeps_integer_tokens_integers(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("2/2,+3,0.0\n1.0,0,6/2\n2,2/2,1\n")
    assert read_matrix_csv(path) == PositionMatrix(((1, 3, 0), (1, 0, 3), (2, 1, 1)))
    path.write_text("1/2,2/4\n0.50,+5/10\n")
    freq = read_matrix_csv(path)
    assert isinstance(freq, FrequencyMatrix)
    assert freq.counts == ((1, 1), (1, 1)) and freq.denominator == 2


def _written(write, matrix) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.csv")
        write(matrix, path)
        with open(path, "rb") as fh:
            return fh.read()


_WIDE_WEIGHTS = st.one_of(st.integers(1, 3), MULTIPLICITIES)


@settings(max_examples=150, deadline=None)
@given(weighted_permutations(_WIDE_WEIGHTS), st.booleans())
def test_write_matrix_csv_matches_loop_oracle(parts, frequency):
    pos = PositionMatrix(stacked(parts))
    matrix = frequency_from_position(pos) if frequency else pos
    data = _written(write_matrix_csv, matrix)
    assert data == _written(oracles.loop_write_matrix_csv, matrix)
    new, old = _both_readers(data)
    assert new == old == (frequency_from_position(pos) if frequency or pos.n == 1 else pos)


@st.composite
def _wide_matrix_text(draw) -> bytes:
    """A frequency or position matrix CSV whose counts and denominators
    pass 2**63: p/q tokens reduced or scaled up by a common factor, so
    equal cells repeat a token, with comment lines, blank lines and up to
    two cells swapped for edge tokens."""
    counts = stacked(draw(weighted_permutations(_WIDE_WEIGHTS)))
    n = sum(counts[0])
    unit = draw(st.sampled_from([1, n]))
    k = draw(st.sampled_from([1, 2, 2**64]))
    cells = [[f"{c * k}/{unit * k}" if draw(st.booleans()) else str(Fraction(c, unit)) for c in row]
             for row in counts]
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, len(cells) - 1)), draw(st.integers(0, len(cells) - 1))
        cells[i][j] = draw(st.sampled_from(_EDGE_TOKENS))
    lines = [",".join(row) for row in cells]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "# 1/0", "  "])))
    return "".join(line + "\n" for line in lines).encode()


@settings(max_examples=200, deadline=None)
@given(st.one_of(_wide_matrix_text(), _wide_matrix_text().flatmap(mutated)))
def test_read_matrix_csv_matches_fraction_oracle_past_int64(data):
    new, old = _both_readers(data)
    assert type(new) is type(old) and new == old


@pytest.mark.parametrize("kind", CORNER_KINDS)
def test_m100_corner_writes_reads_and_checks_like_the_oracles(kind):
    corner = compass_matrix(kind, 100)
    data = _written(write_matrix_csv, corner)
    assert data == _written(oracles.loop_write_matrix_csv, corner)
    new, old = _both_readers(data)
    assert new == old == corner
    counts = [[c * 3 for c in row] for row in corner.counts]
    assert _line_total(counts, "m", 3) == oracles.loop_line_total(counts, "m", 3)[1]
    counts[99][0] += 1
    new = outcome(lambda: _line_total(counts, "m", 3))
    assert new == outcome(lambda: oracles.loop_line_total(counts, "m", 3))
    assert new.startswith("m row 99 sums to ")


@settings(max_examples=300, deadline=None)
@given(st.from_regex(r"[+-]?[0-9]{1,30}(/0*[1-9][0-9]{0,29}|\.[0-9]{1,30})?", fullmatch=True))
def test_parse_rational_agrees_with_fraction(token):
    assert Fraction(*_split(f" {token} ")) == Fraction(token)


@pytest.mark.parametrize(
    "token",
    ["1e300", "1e999999999", "2E-3", "0.5e1", "inf", "nan", "1_000", "", ".5", "1.",
     "+-1", "1/2/3", "1/-2", "2.5/3", "0x10", "\u0663", "1 /2", "1/0"],
)
def test_parse_rational_rejects_other_tokens(token):
    with pytest.raises(ValueError, match=re.escape(f"bad rational {token!r}")) as err:
        Fraction(*_split(token))
    assert "Fraction(" not in str(err.value)


def test_parse_rational_names_a_zero_denominator():
    with pytest.raises(ValueError, match=re.escape("bad rational '1/0': zero denominator")):
        _split("1/0")


_DIGIT_RUNS = st.one_of(
    st.from_regex(r"0{0,3}[0-9]{1,6}", fullmatch=True),
    st.sampled_from(["1_0", "\u0663", "\u00b2", "1\u0663", "9" * 4301, "1" + "0" * 5000]),
)


@st.composite
def _tokens(draw):
    """Tokens around what the reader's one regex takes: leading zeros,
    signs, "p/q" with q = 0, decimals, surrounding spaces, "1_0",
    non-ASCII digits and numbers past int()'s 4,300 digits."""
    token = draw(st.sampled_from(["", "+", "-", "+-"])) + draw(_DIGIT_RUNS)
    tail = draw(st.sampled_from(["", "/", ".", "/0", "/00"]))
    if tail in ("/", "."):
        tail += draw(_DIGIT_RUNS)
    pad = st.sampled_from(["", " ", "\t", "\u00a0"])
    return draw(pad) + token + tail + draw(pad)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_tokens(), st.text("0123456789/.+-_ e\u0663\u00b2", max_size=8)))
def test_split_matches_fast_path_oracle(token):
    assert outcome(lambda: _split(token)) == outcome(lambda: oracles.fastpath_split(token))
