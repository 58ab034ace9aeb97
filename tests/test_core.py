from __future__ import annotations

import os
import random
import re
import tempfile
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_random_election, mutated, stacked, weighted_permutations
from prefmap.core import (
    Election,
    FrequencyMatrix,
    PositionMatrix,
    borda_scores,
    frequency_from_position,
    frequency_matrix,
    position_matrix,
    restrict_to_candidates,
)
from prefmap.matrixio import parse_rational, read_matrix_csv, write_matrix_csv


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
    assert borda_scores(compact) == borda_scores(expanded)


def test_borda_scores_worked_example(worked_example):
    assert borda_scores(worked_example) == {"a": 9, "b": 5, "c": 4}


def test_borda_scores_single_vote():
    e = Election(candidates=("x", "y", "z"), votes=((1, 2, 0),))
    assert borda_scores(e) == {"y": 2, "z": 1, "x": 0}


def test_borda_sum_invariant():
    for seed in range(20):
        rng = random.Random(seed)
        m = rng.randint(1, 8)
        n = rng.randint(1, 30)
        e = make_random_election(seed + 1000, m, n)
        assert sum(borda_scores(e).values()) == n * m * (m - 1) // 2


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
    r = restrict_to_candidates(worked_example, {"a", "b"})
    assert r.candidates == ("a", "b")
    assert r.vote_counter() == Counter({(0, 1): 5, (1, 0): 1})


def test_restrict_keep_all_is_identity(worked_example):
    r = restrict_to_candidates(worked_example, {"a", "b", "c"})
    assert r.candidates == worked_example.candidates
    assert r.votes == worked_example.votes


def test_restrict_single_vote():
    e = Election(candidates=("a", "b", "c"), votes=((0, 1, 2),))
    r = restrict_to_candidates(e, {"a", "c"})
    assert r.candidates == ("a", "c")
    assert r.votes == ((0, 1),)


def test_restrict_preserves_relative_order():
    e = make_random_election(11, 6, 8)
    keep = {1, 3, 4}
    r = restrict_to_candidates(e, keep)
    back = {new: old for new, old in enumerate(c for c in e.candidates if c in keep)}
    for old_vote, new_vote in zip(e.votes, r.votes):
        projected = [c for c in old_vote if c in keep]
        assert [back[c] for c in new_vote] == projected


def test_restrict_rejects_bad_sets(worked_example):
    with pytest.raises(ValueError):
        restrict_to_candidates(worked_example, set())
    with pytest.raises(ValueError):
        restrict_to_candidates(worked_example, {"a", "zzz"})


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


def test_position_matrix_validation():
    with pytest.raises(ValueError):
        PositionMatrix(((1, 0), (1, 1)))  # unequal line sums
    with pytest.raises(ValueError):
        PositionMatrix(((1, -1), (-1, 1)))
    with pytest.raises(ValueError):
        PositionMatrix(((1, 0, 0), (0, 1, 0)))  # not square


def test_frequency_matrix_validation():
    half = Fraction(1, 2)
    with pytest.raises(ValueError):
        FrequencyMatrix(((half, half), (half, Fraction(1, 3))))
    with pytest.raises(ValueError):
        FrequencyMatrix(((Fraction(2), Fraction(-1)), (Fraction(-1), Fraction(2))))
    with pytest.raises(ValueError):
        FrequencyMatrix(((1, 1), (1, 1)))  # equal line sums, but not 1


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


@settings(max_examples=300, deadline=None)
@given(st.from_regex(r"[+-]?[0-9]{1,30}(/0*[1-9][0-9]{0,29}|\.[0-9]{1,30})?", fullmatch=True))
def test_parse_rational_agrees_with_fraction(token):
    assert parse_rational(f" {token} ") == Fraction(token)


@pytest.mark.parametrize(
    "token",
    ["1e300", "1e999999999", "2E-3", "0.5e1", "inf", "nan", "1_000", "", ".5", "1.",
     "+-1", "1/2/3", "1/-2", "2.5/3", "0x10", "\u0663", "1 /2", "1/0"],
)
def test_parse_rational_rejects_other_tokens(token):
    with pytest.raises(ValueError, match=re.escape(f"bad rational {token!r}")):
        parse_rational(token)
