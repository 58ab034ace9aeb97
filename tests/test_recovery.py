from __future__ import annotations

import hashlib
import random
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import MULTIPLICITIES, make_random_election, stacked, weighted_permutations
from prefmap import recovery
from prefmap.compass import compass_matrix, convex_combination, full_compass
from prefmap.core import (
    Election,
    FrequencyMatrix,
    PositionMatrix,
    frequency_from_position,
    frequency_matrix,
    position_matrix,
)
from prefmap.recovery import (
    _perfect_matching,
    _place_units,
    election_from_frequency_matrix,
    election_from_position_matrix,
    round_position_matrix,
)


def test_decomposition_worked_example():
    pos = PositionMatrix(((3, 1, 2), (3, 3, 0), (0, 2, 4)))
    e = election_from_position_matrix(pos)
    assert e.n == 6
    assert position_matrix(e) == pos


def test_decomposition_unanimous():
    vote = (2, 0, 3, 1)
    src = Election(candidates=(0, 1, 2, 3), votes=(vote,), multiplicities=(9,))
    e = election_from_position_matrix(position_matrix(src))
    assert e.vote_counter() == {vote: 9}


def test_decomposition_two_cycles():
    pos = PositionMatrix(((1, 1), (1, 1)))
    e = election_from_position_matrix(pos)
    assert e.vote_counter() == {(0, 1): 1, (1, 0): 1}


def test_decomposition_round_trip_random():
    for seed in range(60):
        rng = random.Random(seed)
        m = rng.randint(1, 8)
        n = rng.randint(1, 50)
        original = make_random_election(seed + 5000, m, n)
        pos = position_matrix(original)
        recovered = election_from_position_matrix(pos)
        assert position_matrix(recovered) == pos
        assert len(set(recovered.votes)) <= m * m - m + 1


@settings(max_examples=200, deadline=None)
@given(weighted_permutations(st.integers(1, 20), max_m=7, max_size=12))
def test_decomposition_contract_property(parts):
    pos = PositionMatrix(stacked(parts))
    recovered = election_from_position_matrix(pos)
    assert position_matrix(recovered) == pos
    assert len(recovered.vote_counter()) <= pos.m * pos.m - pos.m + 1


@settings(max_examples=200, deadline=None)
@given(weighted_permutations(st.one_of(st.integers(1, 20), MULTIPLICITIES), max_m=7, max_size=12))
def test_decomposition_matches_support_copy_oracle(parts):
    pos = PositionMatrix(stacked(parts))
    recovered = election_from_position_matrix(pos)
    expected = oracles.support_election_from_position_matrix(pos)
    assert (recovered.votes, recovered.multiplicities) == (expected.votes, expected.multiplicities)


@st.composite
def _supports(draw, counts=False):
    """0/1 matrices, or matrices of counts: a union of up to three
    permutation matrices plus a few stray cells, so that some admit no
    perfect matching."""
    m = draw(st.integers(1, 10))
    perms = draw(st.lists(st.permutations(range(m)), max_size=3))
    cells = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))
    stray = draw(st.lists(cells, max_size=2 * m))
    support = [[0] * m for _ in range(m)]
    for i, j in [*((i, p[i]) for p in perms for i in range(m)), *stray]:
        support[i][j] = draw(st.integers(1, 2**64)) if counts else 1
    return support


@settings(max_examples=300, deadline=None)
@given(st.one_of(_supports(), _supports(counts=True)))
def test_perfect_matching_matches_recursive_oracle(support):
    masks = [sum(1 << j for j, c in enumerate(row) if c > 0) for row in support]
    try:
        expected = oracles.recursive_perfect_matching(support)
    except RuntimeError:
        with pytest.raises(RuntimeError):
            _perfect_matching(masks)
    else:
        assert _perfect_matching(masks) == expected


def _frequency_matrices(max_m: int):
    """Strategy: frequency matrices of weighted sums of permutations."""
    parts = weighted_permutations(st.integers(1, 30), max_m=max_m, max_size=8)
    return parts.map(lambda p: frequency_from_position(PositionMatrix(stacked(p))))


def _deviation(x: FrequencyMatrix, n: int, p: PositionMatrix) -> Fraction:
    return sum(
        abs(n * v - c) for xr, pr in zip(x.entries, p.entries) for v, c in zip(xr, pr)
    )


@settings(max_examples=200, deadline=None)
@given(_frequency_matrices(7), st.integers(1, 40))
def test_rounding_contract_property(x, n):
    p = round_position_matrix(x, n)
    assert p.m == x.m and p.n == n
    for xr, pr in zip(x.entries, p.entries):
        for v, c in zip(xr, pr):
            assert abs(n * v - c) <= 1


@settings(max_examples=80, deadline=None)
@given(_frequency_matrices(3), st.integers(1, 4))
def test_rounding_minimal_deviation_property(x, n):
    p = round_position_matrix(x, n)
    assert _deviation(x, n, p) == oracles.brute_force_min_deviation(x.entries, n)


_TIE_HEAVY = frequency_from_position(PositionMatrix(
    ((7, 4, 0, 4, 0), (4, 0, 0, 6, 5), (3, 4, 3, 1, 4), (0, 3, 5, 4, 3), (1, 4, 7, 0, 3))
))
_TIE_HEAVY_6 = frequency_from_position(PositionMatrix(
    ((1, 1, 0, 0, 7, 4), (6, 0, 3, 2, 1, 1), (4, 5, 1, 1, 2, 0),
     (0, 4, 6, 2, 1, 0), (2, 2, 1, 7, 1, 0), (0, 1, 2, 1, 1, 8))
))

# half-way points of the m = 20 compass recovered at n = 100: every cell is
# fractional and every cost equal, so every tie rule is exercised
_HALFWAY = dict(full_compass(20, scale=1))


@settings(max_examples=400, deadline=None)
@given(
    weighted_permutations(st.integers(1, 6), max_m=8, max_size=10).map(
        lambda p: frequency_from_position(PositionMatrix(stacked(p)))
    ),
    st.one_of(st.sampled_from([1, 2, 3]), st.integers(1, 200)),
)
@example(_TIE_HEAVY, 3)  # entries at 4, then 1; the path leaves into column 0 through entry 1
@example(_TIE_HEAVY_6, 21)  # entries at 2 and 0; the path leaves into column 5 through entry 2
@example(_HALFWAY["ID-UN:1/2"], 100)
@example(_HALFWAY["UN-AN:1/2"], 100)
@example(_HALFWAY["UN-ST:1/2"], 100)
def test_rounding_matches_chain_oracle(x, n):
    assert round_position_matrix(x, n) == oracles.chain_round_position_matrix(x, n)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 9), st.integers(0, 10**6), st.integers(1, 30), st.integers(1, 30),
    st.fractions(0, 1), st.integers(1, 120),
)
@example(6, 297, 12, 24, Fraction(7, 10), 6)  # a column pops after a path took a unit out of it
def test_rounding_matches_chain_oracle_on_mixtures(m, seed, n1, n2, alpha, n):
    x = convex_combination(
        frequency_matrix(make_random_election(seed, m, n1)),
        frequency_matrix(make_random_election(seed + 1, m, n2)),
        alpha,
    )
    assert round_position_matrix(x, n) == oracles.chain_round_position_matrix(x, n)


def test_rounding_matches_chain_oracle_at_m_30():
    x = convex_combination(compass_matrix("UN", 30), compass_matrix("AN", 30), Fraction(1, 3))
    assert round_position_matrix(x, 100) == oracles.chain_round_position_matrix(x, 100)


def _flow_inputs(x: FrequencyMatrix, n: int) -> tuple[list[list[int]], list[int], list[int]]:
    """The costs and line needs that ``round_position_matrix`` hands to
    ``_place_units`` for n voters."""
    d = x.denominator
    frac = [[n * c % d for c in row] for row in x.counts]
    cost = [[2 * d - 2 * f for f in row] for row in frac]
    return cost, [sum(row) // d for row in frac], [sum(col) // d for col in zip(*frac)]


@st.composite
def _mixtures(draw, max_m: int):
    """Convex combinations of two weighted sums of permutations at one m."""
    m = draw(st.integers(1, max_m))
    weighted = st.tuples(st.integers(1, 30), st.permutations(range(m)))
    parts = st.lists(weighted, min_size=1, max_size=8)
    x, y = (frequency_from_position(PositionMatrix(stacked(draw(parts)))) for _ in range(2))
    return convex_combination(x, y, draw(st.fractions(0, 1)))


@settings(max_examples=300, deadline=None)
@given(_mixtures(14), st.one_of(st.sampled_from([1, 2, 3]), st.integers(1, 300)))
def test_place_units_matches_heap_oracle(x, n):
    flow = _flow_inputs(x, n)
    assert _place_units(*flow) == oracles.heap_place_units(*flow)


@st.composite
def _flows(draw):
    """Costs from 0 to 10 and the line sums of a 0/1 matrix: with zero
    costs, a zero layer can hold the sink while an arc leaves it."""
    m = draw(st.integers(1, 6))

    def square(cell):
        return st.lists(st.lists(cell, min_size=m, max_size=m), min_size=m, max_size=m)

    units = draw(square(st.integers(0, 1)))
    cost = draw(square(st.integers(0, 10)))
    return cost, [sum(row) for row in units], [sum(col) for col in zip(*units)]


@settings(max_examples=300, deadline=None)
@given(_flows())
@example(([[1, 1, 1, 7], [1, 1, 1, 3], [1, 0, 1, 0], [0, 3, 2, 1]], [2, 1, 3, 2], [2, 3, 2, 1]))
def test_place_units_matches_heap_oracle_on_any_costs(flow):
    assert _place_units(*flow) == oracles.heap_place_units(*flow)


_any_flows = st.one_of(_flows(), st.tuples(_mixtures(14), st.integers(1, 300)).map(
    lambda xn: _flow_inputs(*xn)))


@settings(max_examples=300, deadline=None)
@given(_any_flows)
@example(([[1, 1, 1, 7], [1, 1, 1, 3], [1, 0, 1, 0], [0, 3, 2, 1]], [2, 1, 3, 2], [2, 3, 2, 1]))
def test_a_search_that_keeps_its_zero_arcs_reaches_only_its_layer(flow):
    # the first search starts with no tight arcs, so it always takes the
    # heap phase and rebuilds them; a later search that keeps them ends in
    # its zero layer, which must hold every node the residual network reaches
    search = recovery._search
    kept: list[bool] = []

    def checked(cost, potential, zero, empty, holders, fed, feeding, returned):
        dist = oracles.residual_distances(cost, potential, empty, holders, fed, feeding, returned)
        found = search(cost, potential, zero, empty, holders, fed, feeding, returned)
        kept.append(found[2] is zero)
        if kept[-1]:
            assert len(kept) > 1, "the first search kept its zero arcs"
            assert set(dist.values()) == {0}, dist
        return found

    with mock.patch.object(recovery, "_search", checked):
        _place_units(*flow)
    assert len(kept) == sum(flow[1])


@settings(max_examples=300, deadline=None)
@given(_any_flows)
@example(([[1, 1, 1, 7], [1, 1, 1, 3], [1, 0, 1, 0], [0, 3, 2, 1]], [2, 1, 3, 2], [2, 3, 2, 1]))
def test_search_matches_replay_oracle(flow):
    # a heap phase pops the zero layer again instead of replaying the pops
    # of the bitmask phase: every search leaves what the replay left
    search = recovery._search

    def checked(cost, potential, zero, empty, holders, fed, feeding, returned):
        replayed = list(potential)
        old = oracles.replay_search(cost, replayed, zero, empty, holders, fed, feeding, returned)
        new = search(cost, potential, zero, empty, holders, fed, feeding, returned)
        assert new[:2] == old[:2]
        assert new[2] == old[2] and (new[2] is zero) == (old[2] is zero)
        assert potential == replayed
        return new

    with mock.patch.object(recovery, "_search", checked):
        placed = _place_units(*flow)
    with mock.patch.object(recovery, "_search", oracles.replay_search):
        assert placed == _place_units(*flow)


def test_place_units_matches_heap_oracle_at_m_50():
    x = convex_combination(compass_matrix("UN", 50), compass_matrix("AN", 50), Fraction(1, 3))
    flow = _flow_inputs(x, 100)
    with mock.patch.object(recovery, "_zero_arcs", wraps=recovery._zero_arcs) as zero_arcs:
        placed = _place_units(*flow)
    # the zero arcs are built after each search that moved the potentials:
    # the first unit's search takes the heap phase, and the zero layer
    # alone ends most others
    moved = zero_arcs.call_count
    assert 1 <= moved < sum(flow[1]) // 2
    assert placed == oracles.heap_place_units(*flow)


def test_rounding_at_m_100_is_pinned():
    x = convex_combination(compass_matrix("UN", 100), compass_matrix("AN", 100), Fraction(1, 3))
    with mock.patch.object(recovery, "_zero_arcs", wraps=recovery._zero_arcs) as zero_arcs:
        p = round_position_matrix(x, 100)
    # 3,400 units placed, and only two searches move the potentials
    assert zero_arcs.call_count == 2
    assert hashlib.sha256(repr(p.entries).encode()).hexdigest() == (
        "85b5660a2dfabf4cb13b5f96f785b3a77f39b20f366c21eeb7beff61c832c85e"
    )


def test_decomposition_respects_tighter_observed_bound_mostly():
    # the guaranteed cap is m*m - m + 1 distinct votes; count how often the
    # tighter m*m - 2m + 2 shows up so regressions in vote duplication are
    # visible in the log
    hits = 0
    total = 0
    for seed in range(40):
        rng = random.Random(seed)
        m = rng.randint(2, 6)
        original = make_random_election(seed + 9000, m, rng.randint(1, 40))
        recovered = election_from_position_matrix(position_matrix(original))
        total += 1
        if len(set(recovered.votes)) <= m * m - 2 * m + 2:
            hits += 1
    print(f"tight-bound hit rate: {hits}/{total}")
    assert hits > 0


def test_rounding_uniform_two_candidates_three_voters():
    un2 = compass_matrix("UN", 2)
    p = round_position_matrix(un2, 3)
    assert p.entries in (((2, 1), (1, 2)), ((1, 2), (2, 1)))
    deviation = sum(
        abs(3 * un2.entries[i][j] - p.entries[i][j]) for i in range(2) for j in range(2)
    )
    assert deviation == 2


def test_rounding_exact_when_divisible():
    un3 = compass_matrix("UN", 3)
    p = round_position_matrix(un3, 3)
    assert p.entries == ((1, 1, 1), (1, 1, 1), (1, 1, 1))


def test_rounding_identity_any_n():
    id5 = compass_matrix("ID", 5)
    for n in (1, 4, 11):
        e = election_from_frequency_matrix(id5, n)
        assert e.vote_counter() == {(0, 1, 2, 3, 4): n}


def test_rounding_entries_within_one_random():
    for seed in range(40):
        rng = random.Random(seed)
        m = rng.randint(2, 6)
        source_n = rng.randint(1, 30)
        x = frequency_matrix(make_random_election(seed + 100, m, source_n))
        n = rng.randint(1, 20)
        p = round_position_matrix(x, n)
        assert p.n == n
        for i in range(m):
            for j in range(m):
                assert abs(n * x.entries[i][j] - p.entries[i][j]) <= 1


def test_rounding_deviation_matches_brute_force_small():
    cases = 0
    seed = 0
    while cases < 30:
        seed += 1
        rng = random.Random(seed)
        m = rng.randint(2, 3)
        source_n = rng.randint(1, 12)
        x = frequency_matrix(make_random_election(seed + 400, m, source_n))
        n = rng.randint(1, 4)
        p = round_position_matrix(x, n)
        ours = sum(
            abs(n * x.entries[i][j] - p.entries[i][j])
            for i in range(m)
            for j in range(m)
        )
        best = oracles.brute_force_min_deviation(x.entries, n)
        assert ours == best
        cases += 1


def test_rounding_is_deterministic():
    x = frequency_matrix(make_random_election(31337, 5, 7))
    a = round_position_matrix(x, 13)
    b = round_position_matrix(x, 13)
    assert a == b


def test_frequency_recovery_round_trip_when_integral():
    for seed in range(10):
        e = make_random_election(seed, 4, 12)
        x = frequency_matrix(e)
        recovered = election_from_frequency_matrix(x, 12)
        assert frequency_matrix(recovered) == x


def test_frequency_recovery_rejects_bad_n():
    un2 = compass_matrix("UN", 2)
    with pytest.raises(ValueError):
        election_from_frequency_matrix(un2, 0)


@pytest.mark.parametrize("n, bad", [(Fraction(7, 2), "Fraction(7, 2)"), (2.5, "2.5"), ("3", "'3'")])
def test_rounding_rejects_non_integer_voter_counts(n, bad):
    x = compass_matrix("UN", 2)
    with pytest.raises(ValueError, match=re.escape(f"voter counts must be integers, got {bad}")):
        round_position_matrix(x, n)


def test_rounding_takes_bools_and_numpy_integers():
    x = compass_matrix("UN", 2)
    for n, want in ((True, 1), (np.int64(4), 4), (np.uint8(3), 3)):
        assert round_position_matrix(x, n) == round_position_matrix(x, want)


def test_rounding_line_sums_always_n():
    quarters = FrequencyMatrix(
        (
            (Fraction(5, 8), Fraction(3, 8)),
            (Fraction(3, 8), Fraction(5, 8)),
        )
    )
    for n in range(1, 9):
        p = round_position_matrix(quarters, n)
        assert p.n == n
