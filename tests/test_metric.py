from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import lcm
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import emd
from conftest import make_random_election
from prefmap import cultures, metric
from prefmap.compass import compass_matrix
from prefmap.core import Election, FrequencyMatrix, frequency_matrix
from prefmap.metric import (
    _assignment_lex,
    cross_distances,
    distance_matrix,
    normalization_constant,
    normalized,
    positionwise,
)


def _column(x: FrequencyMatrix, j: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(row[j], x.denominator) for row in x.counts)


def positionwise_elections(e: Election, f: Election):
    """Positionwise distance between two elections' frequency matrices.
    The elections may have different voter counts but must share m."""
    return positionwise(frequency_matrix(e), frequency_matrix(f))


def test_emd_identical_is_zero():
    v = [Fraction(1, 4)] * 4
    assert emd(v, v) == 0


def test_emd_mass_across_the_line():
    assert emd([1, 0, 0], [0, 0, 1]) == 2


def test_emd_worked_example():
    x = [Fraction(1, 2), Fraction(1, 2), Fraction(0)]
    y = [Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)]
    assert emd(x, y) == Fraction(2, 3)


def test_emd_rejects_bad_input():
    with pytest.raises(ValueError):
        emd([1], [Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(ValueError):
        emd([Fraction(1, 2), Fraction(1, 4)], [Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(ValueError):
        emd([Fraction(3, 2), Fraction(-1, 2)], [Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(ValueError):
        emd([], [])


def test_emd_matches_greedy_transport_oracle():
    rng = random.Random(2024)
    for _ in range(300):
        m = rng.randint(1, 8)
        x = oracles.random_fraction_distribution(rng, m)
        y = oracles.random_fraction_distribution(rng, m)
        assert emd(x, y) == oracles.greedy_transport_emd(x, y)


def test_positionwise_identical_is_zero():
    e = make_random_election(5, 6, 10)
    rec = positionwise_elections(e, e)
    assert rec.value == 0
    assert rec.column_permutation == (0, 1, 2, 3, 4, 5)


def test_positionwise_zero_iff_column_permutation():
    e = make_random_election(17, 5, 9)
    x = frequency_matrix(e)
    perm = (3, 0, 4, 1, 2)
    shuffled = FrequencyMatrix(
        tuple(tuple(row[perm[j]] for j in range(5)) for row in x.entries)
    )
    assert positionwise(x, shuffled).value == 0
    id5 = compass_matrix("ID", 5)
    un5 = compass_matrix("UN", 5)
    assert positionwise(id5, un5).value > 0


def test_positionwise_id_un_4():
    id4 = compass_matrix("ID", 4)
    un4 = compass_matrix("UN", 4)
    rec = positionwise(id4, un4)
    assert rec.value == 5
    # every matching is optimal here, so the lex-smallest one must win
    assert rec.column_permutation == (0, 1, 2, 3)


def test_positionwise_an_st_4():
    an4 = compass_matrix("AN", 4)
    st4 = compass_matrix("ST", 4)
    assert positionwise(an4, st4).value == 4


def test_positionwise_symmetry():
    for seed in range(10):
        e = make_random_election(seed, 5, 8)
        f = make_random_election(seed + 100, 5, 11)
        x, y = frequency_matrix(e), frequency_matrix(f)
        assert positionwise(x, y).value == positionwise(y, x).value


def test_positionwise_triangle_inequality():
    for seed in range(15):
        rng = random.Random(seed)
        m = rng.randint(2, 5)
        a = frequency_matrix(make_random_election(seed + 1, m, rng.randint(1, 9)))
        b = frequency_matrix(make_random_election(seed + 2, m, rng.randint(1, 9)))
        c = frequency_matrix(make_random_election(seed + 3, m, rng.randint(1, 9)))
        ab = positionwise(a, b).value
        bc = positionwise(b, c).value
        ac = positionwise(a, c).value
        assert ac <= ab + bc


def test_positionwise_invariant_under_relabeling():
    for seed in range(8):
        e = make_random_election(seed, 4, 7)
        f = make_random_election(seed + 50, 4, 9)
        base = positionwise_elections(e, f).value
        perm = [0, 1, 2, 3]
        random.Random(seed).shuffle(perm)
        relabeled = Election(
            candidates=e.candidates,
            votes=tuple(tuple(perm[c] for c in v) for v in e.votes),
        )
        assert positionwise_elections(relabeled, f).value == base


def test_positionwise_matches_brute_force_including_tie_break():
    rng = random.Random(77)
    for _ in range(40):
        m = rng.randint(2, 4)
        e = make_random_election(rng.randint(0, 10**6), m, rng.randint(1, 8))
        f = make_random_election(rng.randint(0, 10**6), m, rng.randint(1, 8))
        x, y = frequency_matrix(e), frequency_matrix(f)
        rec = positionwise(x, y)
        cost = [
            [oracles.greedy_transport_emd(_column(x, i), _column(y, j)) for j in range(m)]
            for i in range(m)
        ]
        best_val, best_perm = oracles.brute_force_assignment(cost)
        assert rec.value == best_val
        assert rec.column_permutation == best_perm


def test_positionwise_tie_break_with_duplicate_columns():
    # UN's columns are all identical: every matching is optimal
    un6 = compass_matrix("UN", 6)
    e = make_random_election(5, 6, 4)
    rec = positionwise(frequency_matrix(e), un6)
    cost = [
        [
            oracles.greedy_transport_emd(
                _column(frequency_matrix(e), i), _column(un6, j)
            )
            for j in range(6)
        ]
        for i in range(6)
    ]
    best_val, best_perm = oracles.brute_force_assignment(cost)
    assert rec.value == best_val
    assert rec.column_permutation == best_perm


def _mix(weighted_perms):
    """Bistochastic matrix sum(w * P) / sum(w) over permutation matrices P."""
    m = len(weighted_perms[0][1])
    total = sum(w for w, _ in weighted_perms)
    rows = [[Fraction(0)] * m for _ in range(m)]
    for w, perm in weighted_perms:
        for i, c in enumerate(perm):
            rows[i][c] += w / total
    return FrequencyMatrix(rows)


def _bistochastic(m):
    # Small denominators stay in int64; the large ones push m * lcm past
    # 2**62 and take the Python-integer path.
    weight = st.builds(
        Fraction,
        st.integers(1, 1000),
        st.one_of(st.integers(1, 60), st.integers(2**40, 2**80)),
    )
    part = st.tuples(weight, st.permutations(range(m)))
    return st.lists(part, min_size=1, max_size=4).map(_mix)


_MERSENNE_61 = 2**61 - 1  # m * D = 2**62 - 2, the largest int64 case at m = 2


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12).flatmap(lambda m: st.tuples(_bistochastic(m), _bistochastic(m))))
@example((
    _mix([(Fraction(1, _MERSENNE_61), (0, 1)), (Fraction(1), (1, 0))]),
    _mix([(Fraction(1), (0, 1)), (Fraction(3, 7), (1, 0))]),
))
@example((
    _mix([(Fraction(1, 2**80 + 1), (0, 1, 2)), (Fraction(5, 3), (2, 0, 1))]),
    _mix([(Fraction(2, 2**70 + 3), (1, 2, 0)), (Fraction(1), (0, 1, 2))]),
))
def test_positionwise_matches_fraction_oracle(pair):
    x, y = pair
    assert positionwise(x, y) == oracles.fraction_positionwise(x, y)


def _brute_force_distance(x: FrequencyMatrix, y: FrequencyMatrix) -> Fraction:
    m = x.m
    cost = [[emd(_column(x, i), _column(y, j)) for j in range(m)] for i in range(m)]
    return oracles.brute_force_assignment(cost)[0]


def _columns_permuted(x: FrequencyMatrix, perm) -> FrequencyMatrix:
    return FrequencyMatrix(tuple(tuple(row[c] for c in perm) for row in x.entries))


@st.composite
def _identity_pairs(draw):
    """(x, y) over one m <= 4: y is x with its columns permuted, or any
    matrix of that size."""
    m = draw(st.integers(1, 4))
    x = draw(_bistochastic(m))
    if draw(st.booleans()):
        return x, _columns_permuted(x, draw(st.permutations(range(m))))
    return x, draw(st.one_of(_bistochastic(m), _tie_heavy(m)))


@settings(max_examples=200, deadline=None)
@given(_identity_pairs())
def test_metric_identity_property(pair):
    x, y = pair
    value = positionwise(x, y).value
    assert value == _brute_force_distance(x, y)
    permutes = any(
        _columns_permuted(y, perm) == x for perm in itertools.permutations(range(x.m))
    )
    assert (value == 0) == permutes


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda m: st.lists(
    st.one_of(_bistochastic(m), _tie_heavy(m)), min_size=3, max_size=3)))
def test_metric_symmetry_and_triangle_property(triple):
    x, y, z = triple
    d = {(a, b): positionwise(u, v).value
         for a, u in enumerate(triple) for b, v in enumerate(triple)}
    for (a, b), value in d.items():
        assert value == _brute_force_distance(triple[a], triple[b])
        assert value == d[b, a]
        assert value >= 0
    for a, b, c in itertools.permutations(range(3)):
        assert d[a, c] <= d[a, b] + d[b, c]


def test_column_permutation_reproduces_value():
    for seed in range(10):
        e = make_random_election(seed, 5, 6)
        f = make_random_election(seed + 30, 5, 10)
        x, y = frequency_matrix(e), frequency_matrix(f)
        rec = positionwise(x, y)
        sigma = rec.column_permutation
        assert sorted(sigma) == list(range(5))
        total = sum(emd(_column(x, i), _column(y, sigma[i])) for i in range(5))
        assert total == rec.value


def test_positionwise_rejects_size_mismatch():
    id3 = compass_matrix("ID", 3)
    id4 = compass_matrix("ID", 4)
    with pytest.raises(ValueError):
        positionwise(id3, id4)


def _assign(cost: list[list[int]]) -> tuple[int, list[int]]:
    """``_assignment_lex`` on Python integers, checked against the int64
    solve wherever the costs fit it, and on both loops."""
    kinds = [object, np.int64] if max(map(max, cost)) < 2**62 else [object]
    out = _assignment_lex(np.array(cost, dtype=object))
    for lockstep, kind in itertools.product([metric._LOCKSTEP, 1], kinds):
        with mock.patch.object(metric, "_LOCKSTEP", lockstep):
            assert _assignment_lex(np.array(cost, dtype=kind)) == out
    return out


def test_assignment_solver_against_brute_force():
    rng = random.Random(123)
    for _ in range(300):
        m = rng.randint(1, 5)
        cost = [[rng.randint(0, 12) for _ in range(m)] for _ in range(m)]
        total, assignment = _assign(cost)
        best_val, best_perm = oracles.brute_force_assignment(cost)
        assert total == best_val
        assert tuple(assignment) == best_perm


@st.composite
def _tie_heavy_costs(draw, m=None):
    """Square integer cost matrices built to have many optimal matchings:
    few distinct values, repeated rows or columns, or constant rows.  The
    large entries lie past 2**70.  m is drawn from 1..12 unless given."""
    m = draw(st.integers(1, 12)) if m is None else m
    entry = draw(st.sampled_from([
        st.integers(0, 1),
        st.integers(0, 6),
        st.integers(2**70, 2**70 + 3),
        st.integers(0, 2**72),
    ]))
    line = st.lists(entry, min_size=m, max_size=m)
    shape = draw(st.sampled_from(["free", "duplicated rows", "duplicated columns", "constant rows"]))
    if shape == "constant rows":
        return [[draw(entry)] * m for _ in range(m)]
    if shape == "free":
        return [draw(line) for _ in range(m)]
    pool = draw(st.lists(line, min_size=1, max_size=m))
    lines = [draw(st.sampled_from(pool)) for _ in range(m)]
    if shape == "duplicated columns":
        return [list(col) for col in zip(*lines)]
    return [list(row) for row in lines]


def _l1_cost(x: FrequencyMatrix, y: FrequencyMatrix) -> list[list[int]]:
    """Positionwise cost matrix of two matrices over their common denominator."""
    d = lcm(x.denominator, y.denominator)
    px, py = (np.cumsum(np.array(z.counts) * (d // z.denominator), axis=0) for z in (x, y))
    return np.abs(px[:, :, None] - py[:, None, :]).sum(axis=0).tolist()


def _fixed_m100_costs():
    m = 100
    yield pytest.param([[0] * m for _ in range(m)], id="all_zero")
    rng = random.Random(100)
    blocks = [[rng.randint(0, 3) for _ in range(m)] for _ in range(5)]
    columns = [blocks[j // 20] for j in range(m)]
    duplicated = [[columns[j][i] for j in range(m)] for i in range(m)]
    yield pytest.param(duplicated, id="duplicated_column_blocks")
    ic = frequency_matrix(cultures.sample(cultures.CultureSpec(tag="IC", m=m, n=100, seed=7)))
    mallows = frequency_matrix(cultures.sample_mallows_norm(m, 100, 0.3, 8))
    for kind in ("ID", "UN", "ST", "AN"):
        anchor = compass_matrix(kind, m)
        yield pytest.param(_l1_cost(anchor, ic), id=f"{kind}_vs_IC")
        yield pytest.param(_l1_cost(anchor, mallows), id=f"{kind}_vs_Mallows")


@settings(max_examples=400, deadline=None)
@given(_tie_heavy_costs())
def test_assignment_matches_composite_oracle(cost):
    total, assignment = _assign(cost)
    assert (total, assignment) == oracles.composite_assignment_lex(cost)


@pytest.mark.parametrize("cost", _fixed_m100_costs())
def test_assignment_matches_composite_oracle_m100(cost):
    total, assignment = _assign(cost)
    assert (total, assignment) == oracles.composite_assignment_lex(cost)


def _starts(cost: np.ndarray) -> list[tuple[list[int], list[int], list[int]]]:
    u, v, col_of = metric._start(cost)
    return list(zip(u.tolist(), v.tolist(), col_of.tolist()))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12).flatmap(lambda m: st.lists(_tie_heavy_costs(m), min_size=1, max_size=6)))
def test_start_matches_bitloop_oracle(block):
    cost = np.array(block, dtype=object)
    assert _starts(cost) == oracles.bitloop_start(cost)
    if cost.max() < 2**62:
        cost = cost.astype(np.int64)
        assert _starts(cost) == oracles.bitloop_start(cost)


def test_start_matches_bitloop_oracle_at_m100():
    cost = np.array([p.values[0] for p in _fixed_m100_costs()], dtype=np.int64)
    assert _starts(cost) == oracles.bitloop_start(cost)


def test_totals_stay_exact_past_int64():
    # int64 costs: the first pair's total passes 2**63, the second pair
    # needs augmenting after the greedy start
    c = 2**62 - 1
    cost = np.array([[[c] * 4] * 4, [[c, 0, c, c], [c, 0, c, c], [c, c, 0, c], [c, c, c, 1]]])
    assert cost.dtype == np.int64
    assert metric._totals(cost) == [4 * c, c + 1]
    assert [oracles.brute_force_assignment(x)[0] for x in cost.tolist()] == [4 * c, c + 1]
    # past the key bound the block runs on object costs, whose duals are
    # never written back as int64
    u, v, col_of = metric._start(cost)
    assert [a.dtype for a in metric._complete(cost, u, v, col_of)] == [object, object]
    total, perm = _assignment_lex(cost[1])
    assert (total, tuple(perm)) == oracles.brute_force_assignment(cost[1].tolist())


def _augmented(cost: np.ndarray) -> list[int]:
    """Totals of a block with every pair completed by the Python oracle."""
    u, v, col_of = metric._start(cost)
    totals = []
    for b in range(len(cost)):
        ub, vb = u[b].tolist(), v[b].tolist()
        oracles.python_augment(cost[b].tolist(), ub, vb, col_of[b].tolist())
        totals.append(sum(ub) + sum(vb))
    return totals


def _lockstep_totals(cost: np.ndarray) -> list[int]:
    """Totals of a block with every pair left free by ``_start`` completed
    by ``_lockstep``, whatever their number."""
    u, v, col_of = metric._start(cost)
    metric._lockstep(cost, u, v, col_of, np.flatnonzero((col_of < 0).any(axis=1)))
    return _checked_totals(cost, u, v, col_of)


def _wide_totals(cost: np.ndarray) -> list[int]:
    """Totals of a block with every pair completed by ``_augment_wide``."""
    u, v, col_of = metric._start(cost)
    for b in range(len(cost)):
        metric._augment_wide(cost[b], u[b], v[b], col_of[b])
    return _checked_totals(cost, u, v, col_of)


def _checked_totals(
    cost: np.ndarray, u: np.ndarray, v: np.ndarray, col_of: np.ndarray
) -> list[int]:
    """Dual totals of a completed block, whose duals must be feasible and
    whose matching must be a permutation on tight edges."""
    reduced = cost.astype(object) - u[:, :, None] - v[:, None, :]
    assert (reduced >= 0).all()
    for b in range(len(cost)):
        assert sorted(col_of[b].tolist()) == list(range(cost.shape[1]))
        assert (reduced[b, np.arange(cost.shape[1]), col_of[b]] == 0).all()
    return (u.sum(axis=1, dtype=object) + v.sum(axis=1, dtype=object)).tolist()


_MIXED_FREE_BLOCK = [  # m = 3: the greedy start completes the first and last pairs only
    [[0, 1, 2], [1, 0, 2], [2, 2, 0]],
    [[0, 0, 5], [0, 5, 5], [5, 5, 0]],
    [[1, 1, 1], [1, 1, 1], [1, 1, 1]],
]


_INT64_BLOCKS = st.integers(1, 12).flatmap(lambda m: st.lists(
    _tie_heavy_costs(m).map(lambda c: [[x % 2**40 for x in row] for row in c]),
    min_size=1, max_size=8))


@settings(max_examples=200, deadline=None)
@given(_INT64_BLOCKS)
@example([[[5]]])
@example([[[0, 0], [0, 1]]])  # one pair whose second row is left free
@example([[[0, 0], [0, 1]], [[1, 0], [0, 1]], [[2, 2], [0, 0]]])
@example(_MIXED_FREE_BLOCK)
def test_lockstep_matches_augment_and_brute_force(block):
    cost = np.array(block, dtype=np.int64)
    totals = _lockstep_totals(cost)
    assert totals == _augmented(cost)
    if cost.shape[1] <= 6:
        assert totals == [oracles.brute_force_assignment(x)[0] for x in block]


@settings(max_examples=100, deadline=None)
@given(_INT64_BLOCKS)
@example(_MIXED_FREE_BLOCK)
def test_augment_wide_matches_augment_and_brute_force(block):
    cost = np.array(block, dtype=np.int64)
    totals = _wide_totals(cost)
    assert totals == _augmented(cost)
    assert metric._totals(cost) == totals  # fewer than _LOCKSTEP pairs
    if cost.shape[1] <= 6:
        assert totals == [oracles.brute_force_assignment(x)[0] for x in block]


@pytest.mark.parametrize("cost", _fixed_m100_costs())
def test_augment_wide_matches_augment_at_m100(cost):
    cost = np.array([cost], dtype=np.int64)
    assert _wide_totals(cost) == _augmented(cost)


_M4_LIMIT = ((2**63 >> 3) - 2) // 9  # the largest m = 4 cost whose keys fit int64


def _guard_block(c: int) -> list[list[list[int]]]:
    """Three m = 4 cost matrices of largest entry c; the first two augment."""
    return [
        [[c, 0, c, c], [c, 0, c, c], [c, c, 0, c], [c, c, c, 1]],
        [[c, c, 0, c], [c, c, 0, c], [0, c, c, c], [c, c, c, c]],
        [[c] * 4] * 4,
    ]


def _check_keys_guard(lockstep: int, kernel: str) -> None:
    # at the largest cost whose keys fit int64, the block runs through the
    # kernel on int64; one past it, through the same kernel on object costs,
    # with object duals
    for c, kind in ((_M4_LIMIT, np.int64), (_M4_LIMIT + 1, object)):
        block = _guard_block(c)
        cost = np.array(block, dtype=np.int64)
        assert (metric._key_top(cost) < 2**63) == (kind is np.int64)
        u, v, col_of = metric._start(cost)
        with mock.patch.object(metric, "_LOCKSTEP", lockstep), mock.patch.object(
            metric, kernel, wraps=getattr(metric, kernel)
        ) as fast:
            u, v = metric._complete(cost, u, v, col_of)
        assert fast.call_count == (1 if kernel == "_lockstep" else 2)
        assert {call.args[0].dtype for call in fast.call_args_list} == {np.dtype(kind)}
        assert u.dtype == v.dtype == np.dtype(kind)
        totals = _checked_totals(cost, u, v, col_of)
        assert totals == [oracles.brute_force_assignment(x)[0] for x in block]
        assert totals == _augmented(cost)


def test_lockstep_keys_guard_int64():
    _check_keys_guard(1, "_lockstep")


def test_wide_keys_guard_int64():
    _check_keys_guard(metric._LOCKSTEP, "_augment_wide")


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12).flatmap(lambda m: st.lists(
    st.tuples(_tie_heavy_costs(m), st.integers(0, 2**64)).map(
        lambda ck: [[x + ck[1] for x in row] for row in ck[0]]),
    min_size=1, max_size=6)))
@example(_guard_block(_M4_LIMIT + 1))
@example([[[2**62, 2**62], [2**62, 2**62 + 1]]])
@example(_MIXED_FREE_BLOCK)
def test_numpy_loops_on_object_blocks_match_python_augment(block):
    # Python integers, past 2**62 or past the key bound of int64, run
    # through both numpy loops; each gives feasible duals and a tight
    # permutation whose total is the oracle's
    cost = np.array(block, dtype=object)
    totals = _augmented(cost)
    assert _lockstep_totals(cost) == totals
    assert _wide_totals(cost) == totals
    if cost.shape[1] <= 6:
        assert totals == [oracles.brute_force_assignment(x)[0] for x in block]


def test_one_crossover_between_the_loops():
    # below _LOCKSTEP augmenting pairs a block goes pair by pair to
    # _augment_wide; at it, to _lockstep, which leaves no pair with a free row
    rng = random.Random(23)
    block: list[list[list[int]]] = []
    while len(block) < metric._LOCKSTEP:
        cost = [[rng.randint(0, 9) for _ in range(5)] for _ in range(5)]
        if (metric._start(np.array([cost]))[2] < 0).any():
            block.append(cost)
    totals = []
    for k in (metric._LOCKSTEP - 1, metric._LOCKSTEP):
        cost = np.array(block[:k], dtype=np.int64)
        u, v, col_of = metric._start(cost)
        with mock.patch.object(metric, "_lockstep", wraps=metric._lockstep) as lock, \
                mock.patch.object(metric, "_augment_wide", wraps=metric._augment_wide) as wide:
            u, v = metric._complete(cost, u, v, col_of)
        assert (lock.call_count, wide.call_count) == ((0, k) if k < metric._LOCKSTEP else (1, 0))
        assert (col_of >= 0).all()
        totals.append(_checked_totals(cost, u, v, col_of))
    assert totals[0] == totals[1][:-1]
    assert totals[1] == [oracles.brute_force_assignment(x)[0] for x in block]


def test_distance_matrix_structure():
    mats = [
        frequency_matrix(make_random_election(seed, 4, 5)) for seed in range(4)
    ]
    table = distance_matrix(mats)
    assert len(table) == 4
    for i in range(4):
        assert table[i][i] == 0
        for j in range(4):
            assert table[i][j] == table[j][i]
            assert table[i][j] == positionwise(mats[i], mats[j]).value


def test_distance_matrix_matches_positionwise_on_mixed_denominators():
    mats = [
        compass_matrix("ID", 6),
        compass_matrix("UN", 6),
        compass_matrix("ST", 6),
        frequency_matrix(make_random_election(3, 6, 7)),
        frequency_matrix(make_random_election(4, 6, 11)),
        _mix([(Fraction(1, 2**70 + 3), (5, 4, 3, 2, 1, 0)), (Fraction(1), (0, 1, 2, 3, 4, 5))]),
    ]
    assert len({x.denominator for x in mats}) == len(mats)
    table = distance_matrix(mats)
    for i, x in enumerate(mats):
        for j, y in enumerate(mats):
            assert table[i][j] == positionwise(x, y).value


def _tie_heavy(m):
    """Matrices with many optimal matchings: permutation matrices, UN
    (every column alike), and even mixes of a permutation and one
    transposition of it (two equal columns)."""
    perm = st.permutations(range(m))
    un = FrequencyMatrix([[Fraction(1, m)] * m for _ in range(m)])

    def doubled(p, a, b):
        q = list(p)
        q[a], q[b] = q[b], q[a]
        return _mix([(Fraction(1), tuple(p)), (Fraction(1), tuple(q))])

    return st.one_of(
        perm.map(lambda p: _mix([(Fraction(1), tuple(p))])),
        st.just(un),
        st.builds(doubled, perm, st.integers(0, m - 1), st.integers(0, m - 1)),
    )


def _blocks():
    """Lists of same-size matrices mixing small denominators, denominators
    that take a pair past 2**62, and tie-heavy matrices; m = 1 included."""
    return st.integers(1, 9).flatmap(
        lambda m: st.lists(st.one_of(_bistochastic(m), _tie_heavy(m)), min_size=1, max_size=7)
    )


_CROSSING_BLOCK = [  # pairs on both sides of the int64 bound, m = 3
    _mix([(Fraction(1), (0, 1, 2)), (Fraction(1, 3), (2, 0, 1))]),
    _mix([(Fraction(1, 2**61), (1, 2, 0)), (Fraction(1), (0, 2, 1))]),
    _mix([(Fraction(1), (2, 1, 0))]),
    FrequencyMatrix([[Fraction(1, 3)] * 3 for _ in range(3)]),
    _mix([(Fraction(5, 2**80 + 1), (1, 0, 2)), (Fraction(1, 7), (2, 1, 0))]),
]


_AUGMENTING_BLOCK = [  # m = 4: 4 of 6 int64 pairs and 2 of 4 object pairs augment
    _mix([(Fraction(2), (0, 2, 3, 1)), (Fraction(3), (2, 0, 3, 1))]),
    _mix([(Fraction(1), (1, 3, 2, 0)), (Fraction(1), (3, 0, 1, 2))]),
    _mix([(Fraction(1), (1, 3, 0, 2)), (Fraction(1), (2, 3, 1, 0))]),
    _mix([(Fraction(9), (2, 0, 1, 3)), (Fraction(2**71 + 2), (3, 2, 1, 0))]),
    _mix([(Fraction(1), (3, 2, 1, 0))]),
]


def _check_batched_values(block_entries, items, cut):
    expected = [[oracles.fraction_positionwise(x, y).value for y in items] for x in items]
    pairs = list(itertools.combinations(range(len(items)), 2))
    with mock.patch.object(metric, "_BLOCK", block_entries):
        table = distance_matrix(items)
        cross = cross_distances(items[:cut], items[cut:])
        dtypes = {cost.dtype for _, _, cost in metric._cost_blocks(items, items, pairs)}
    assert dtypes <= {np.dtype(np.int64), np.dtype(object)}  # narrow costs are widened
    assert table == expected
    assert cross == [row[cut:] for row in expected[:cut]]


@pytest.mark.parametrize("block_entries", [2**16, 9])
@settings(max_examples=150, deadline=None)
@given(_blocks(), st.integers(0, 7))
@example(_CROSSING_BLOCK, 2)
@example(_AUGMENTING_BLOCK, 2)
def test_batched_values_match_fraction_oracle(block_entries, items, cut):
    # the large bound puts each dtype's pairs in one block; the tiny one
    # puts at most 9 // m**2 pairs in each block, one from m = 3 on
    _check_batched_values(block_entries, items, cut)


@settings(max_examples=150, deadline=None)
@given(_blocks(), st.integers(0, 7))
@example(_CROSSING_BLOCK, 2)
@example(_AUGMENTING_BLOCK, 2)
def test_batched_values_match_fraction_oracle_in_lockstep(items, cut):
    # every block with a free row after the start runs in lockstep
    with mock.patch.object(metric, "_LOCKSTEP", 1):
        _check_batched_values(2**16, items, cut)


@settings(max_examples=150, deadline=None)
@given(_blocks(), st.integers(0, 7))
@example(_CROSSING_BLOCK, 2)
@example(_AUGMENTING_BLOCK, 2)
def test_values_are_integer_totals_over_the_pair_scale(items, cut):
    # what fit_mallows sums: Python integers, over lcm(Dx, Dy) of each pair,
    # mixed denominators and pairs past 2**62 (object costs) included
    xs, ys = items[:cut], items[cut:]
    pairs = [(i, j) for i in range(len(xs)) for j in range(len(ys))]
    values = metric._values(xs, ys, pairs)
    assert {type(v) for pair in values for v in pair} <= {int}
    assert [s for _, s in values] == [lcm(xs[i].denominator, ys[j].denominator) for i, j in pairs]
    cross = cross_distances(xs, ys)
    assert [Fraction(t, s) for t, s in values] == [d for row in cross for d in row]


def _with_denominator(m, d):
    """d - 1 votes of the identity and one of its reverse, over d voters."""
    p = tuple(range(m))
    return _mix([(Fraction(d - 1), p), (Fraction(1), p[::-1])])


# Denominators whose pair with a denominator-1 matrix puts m * scale at the
# edges of the cost dtypes: 2**15 - 2, 2**15, 2**31 - 2, 2**31 and 2**62 - 2
# at m = 2; 2**15 - 1, 2**15 + 6, 2**31 - 2, 2**31 + 5 and past 2**62 at
# m = 7.  2**31 - 1 is prime, so no pair of m > 1 reaches it.  At m = 7,
# 2**13 and 2**29 give costs past 2**15 and 2**31 with m * scale below 2**16
# and 2**32, which a bound one bit too high would wrap.
_WIDTH_EDGES = {
    2: [2**14 - 1, 2**14, 2**30 - 1, 2**30, 2**61 - 1],
    7: [4681, 4682, 2**13, 306783378, 306783379, 2**29, 2**60],
}


@pytest.mark.parametrize("block_entries", [2**16, 9])
@pytest.mark.parametrize("m", sorted(_WIDTH_EDGES))
def test_cost_widths_match_fraction_oracle(block_entries, m):
    # one call mixes every width; the tiny bound also mixes them in a block
    items = [_with_denominator(m, d) for d in (1, *_WIDTH_EDGES[m])]
    with mock.patch.object(metric, "_costs", wraps=metric._costs) as costs:
        _check_batched_values(block_entries, items, 2)
        for y in items:
            assert positionwise(items[0], y) == oracles.fraction_positionwise(items[0], y)
    built = {call.args[0].dtype for call in costs.call_args_list}
    assert built == {np.dtype(t) for t in (np.int16, np.int32, np.int64, object)}


@pytest.mark.parametrize("m, size", [(50, 26), (100, 6)])
def test_cost_blocks_hold_block_entries(m, size):
    # blocks are sized by their m * m cost entries, not by m**3
    assert size == metric._BLOCK // (m * m)
    items = [compass_matrix(kind, m) for kind in ("ID", "UN", "ST", "AN")]
    pairs = [(k % 4, k // 4 % 4) for k in range(size + 1)]
    blocks = [block for block, _, _ in metric._cost_blocks(items, items, pairs)]
    assert blocks == [list(range(size)), [size]]


def test_batched_values_match_positionwise_at_m100():
    m = 100
    items = [compass_matrix(kind, m) for kind in ("ID", "UN", "ST", "AN")]
    items.append(frequency_matrix(cultures.sample_mallows_norm(m, 100, 0.3, 8)))
    table = distance_matrix(items)
    assert table == [[positionwise(x, y).value for y in items] for x in items]
    assert cross_distances(items[:2], items) == table[:2]


@pytest.mark.parametrize("m", [48, 60])
def test_positionwise_matches_fraction_oracle_when_wide(m):
    ic = frequency_matrix(cultures.sample_ic(m, 100, 3))
    mallows = frequency_matrix(cultures.sample_mallows_norm(m, 100, 0.2, 4))
    p = list(range(m))
    q = p[1:] + p[:1]
    doubled = _mix([(Fraction(1), tuple(p)), (Fraction(1), tuple(q))])  # tie-heavy
    pairs = [(compass_matrix("UN", m), ic), (compass_matrix("AN", m), mallows), (ic, mallows),
             (doubled, ic), (doubled, compass_matrix("ST", m))]
    with mock.patch.object(metric, "_augment_wide", wraps=metric._augment_wide) as wide:
        for x, y in pairs:
            assert positionwise(x, y) == oracles.fraction_positionwise(x, y)
    assert wide.call_count >= 3
    assert {call.args[0].dtype for call in wide.call_args_list} == {np.dtype(np.int64)}


def test_batched_values_check_sizes():
    id3 = compass_matrix("ID", 3)
    id4 = compass_matrix("ID", 4)
    with pytest.raises(ValueError, match="matrix sizes differ: 4 vs 3"):
        cross_distances([id4], [id4, id3])
    assert cross_distances([], [id3, id4]) == []
    assert cross_distances([id3, id4], []) == [[], []]
    assert distance_matrix([]) == []


def test_normalization_constant_values():
    assert normalization_constant(10) == 33
    assert normalization_constant(4) == 5
    assert normalization_constant(2) == 1
    id10 = compass_matrix("ID", 10)
    un10 = compass_matrix("UN", 10)
    assert normalized(positionwise(id10, un10).value, 10) == 1


def test_normalized_rejects_tiny_m():
    with pytest.raises(ValueError):
        normalized(Fraction(1), 1)
