from __future__ import annotations

import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import election_is_single_peaked, is_single_peaked, rank_by_distance, swap_distance
from prefmap import cultures
from prefmap.cultures import (
    CultureSpec,
    derive_seed,
    expected_swaps,
    mahonian_row,
    relative_expected_swaps,
    relphi_to_phi,
    sample,
    sample_conitzer,
    sample_hypercube,
    sample_ic,
    sample_mallows,
    sample_mallows_norm,
    sample_urn,
    sample_urn_gamma,
    sample_walsh,
)


# ---------------------------------------------------------------------------
# swap-count table


def test_mahonian_small_rows():
    assert mahonian_row(0) == (1,)
    assert mahonian_row(1) == (1,)
    assert mahonian_row(2) == (1, 1)
    assert mahonian_row(3) == (1, 2, 2, 1)
    assert mahonian_row(4) == (1, 3, 5, 6, 5, 3, 1)


def test_mahonian_row_properties():
    for m in range(1, 9):
        row = mahonian_row(m)
        assert row[0] == 1
        assert row == row[::-1]  # symmetric
        assert sum(row) == math.factorial(m)
        assert len(row) == m * (m - 1) // 2 + 1


def test_mahonian_matches_direct_enumeration():
    for m in (2, 3, 4, 5, 6):
        counts = Counter(
            swap_distance(perm, tuple(range(m)))
            for perm in itertools.permutations(range(m))
        )
        assert tuple(counts[i] for i in range(m * (m - 1) // 2 + 1)) == mahonian_row(m)


def test_mahonian_row_matches_table_oracle():
    table = oracles.mahonian_table(171)
    for m in [*range(41), 171]:
        assert mahonian_row(m) == table[m]
    with pytest.raises(ValueError):
        mahonian_row(-1)


# ---------------------------------------------------------------------------
# expected swaps and calibration


def test_expected_swaps_edge_values():
    assert expected_swaps(5, 0.0) == 0.0
    assert expected_swaps(5, 1.0) == 5.0
    assert expected_swaps(1, 0.7) == 0.0
    with pytest.raises(ValueError):
        expected_swaps(5, 1.5)


def test_expected_swaps_matches_brute_force():
    for m in (2, 3, 4, 5, 6):
        for phi in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
            brute = oracles.brute_force_expected_swaps(m, phi, tuple(range(m)))
            assert abs(expected_swaps(m, phi) - brute) < 1e-10


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.integers(2, 40), st.sampled_from([100, 130, 171, 172])),
    st.one_of(
        st.floats(0, 1, exclude_min=True, exclude_max=True),
        st.sampled_from([5e-324, 1e-9, 0.5, 0.999, 0.9999, 1 - 2**-53]),
    ),
)
def test_expected_swaps_matches_loop_oracle(m, phi):
    assert expected_swaps(m, phi) == oracles.loop_expected_swaps(m, phi)


def test_relative_swaps_strictly_increasing_in_phi():
    for m in range(3, 13):
        prev = -1.0
        for k in range(101):
            phi = k / 100
            cur = relative_expected_swaps(m, phi)
            assert cur > prev or (k == 0 and cur == 0.0)
            prev = cur
        assert prev == 0.5  # phi = 1 sits at one half


def test_relphi_to_phi_known_values():
    assert abs(relphi_to_phi(10, 0.2) - 0.572) <= 0.001
    assert abs(relphi_to_phi(5, 0.25) - 0.504) <= 0.001
    assert relphi_to_phi(7, 0.0) == 0.0
    assert relphi_to_phi(7, 0.5) == 1.0


def test_relphi_to_phi_inverts_calibration():
    for m in (3, 5, 10, 25):
        for rel in (0.05, 0.2, 0.35, 0.45):
            phi = relphi_to_phi(m, rel)
            assert abs(relative_expected_swaps(m, phi) - rel) <= 1e-10


def test_float_inversion_row_matches_unscaled_oracle(monkeypatch):
    # Up to m = 165 the rows are equal, which makes expected_swaps,
    # relphi_to_phi and every sample bit-identical for any phi.  From 166 on
    # the row is the unscaled one times an exact power of two, which keeps
    # expected_swaps bit-identical wherever the unscaled sums are finite.
    # One table holds every row up to 171; a table per m would take about 17 s.
    table = oracles.mahonian_table(171)
    monkeypatch.setattr(cultures, "mahonian_row", lambda m: table[m])
    monkeypatch.setattr(oracles, "mahonian_table", lambda m_max: table)
    unscaled = {m: oracles.unscaled_float_inversion_row(m) for m in range(2, 172)}
    phis = [k / 20 for k in range(1, 20)] + [0.99, 0.999, 0.9999]
    cultures._float_inversion_row.cache_clear()
    try:
        for m in range(2, 166):
            assert tuple(cultures._float_inversion_row(m)) == unscaled[m]
        for m in range(166, 172):
            row = cultures._float_inversion_row(m)
            scale = 1 / row[0]  # the count 1, divided by 2**shift
            assert scale > 1 and math.frexp(scale)[0] == 0.5
            assert tuple(v * scale for v in row) == unscaled[m]
            for phi in phis:
                scaled = expected_swaps(m, phi)
                with monkeypatch.context() as patch:
                    patch.setattr(cultures, "_float_inversion_row", unscaled.__getitem__)
                    oracle = expected_swaps(m, phi)
                assert math.isfinite(scaled)
                if math.isfinite(oracle):
                    assert scaled == oracle
    finally:
        cultures._float_inversion_row.cache_clear()


def test_relative_swaps_past_float_range(monkeypatch):
    # the counts of m = 172 overflow a float; phi near 1 also overflowed the sums
    table = oracles.mahonian_table(172)
    monkeypatch.setattr(oracles, "mahonian_table", lambda m_max: table)
    try:
        for phi in (relphi_to_phi(172, 0.2), 0.5, 511 / 512):
            exact = oracles.exact_relative_expected_swaps(172, phi)
            assert abs(relative_expected_swaps(172, phi) - exact) <= 1e-12
    finally:
        cultures._float_inversion_row.cache_clear()


def test_relphi_to_phi_rejects_out_of_range():
    with pytest.raises(ValueError):
        relphi_to_phi(5, 0.6)
    with pytest.raises(ValueError):
        relphi_to_phi(1, 0.2)


def test_swap_distance():
    assert swap_distance((0, 1, 2), (0, 1, 2)) == 0
    assert swap_distance((2, 1, 0), (0, 1, 2)) == 3
    assert swap_distance((1, 0, 2), (0, 1, 2)) == 1
    with pytest.raises(ValueError):
        swap_distance((0, 1), (0, 1, 2))


# ---------------------------------------------------------------------------
# determinism and dispatch


def test_samplers_are_deterministic():
    makers = [
        lambda seed: sample_ic(4, 20, seed),
        lambda seed: sample_urn(4, 20, 1.5, seed),
        lambda seed: sample_urn_gamma(4, 20, seed),
        lambda seed: sample_mallows(4, 20, 0.5, seed),
        lambda seed: sample_mallows_norm(4, 20, 0.3, seed),
        lambda seed: sample_conitzer(4, 20, seed),
        lambda seed: sample_walsh(4, 20, seed),
        lambda seed: sample_hypercube(4, 20, 2, seed),
    ]
    for make in makers:
        a = make(99)
        b = make(99)
        c = make(100)
        assert a.votes == b.votes
        assert a.meta == b.meta
        assert c.votes != a.votes or c.meta != a.meta


def test_dispatch_matches_direct_calls():
    spec = CultureSpec(tag="MALLOWS", m=5, n=10, seed=3, phi=0.4)
    assert sample(spec).votes == sample_mallows(5, 10, 0.4, 3).votes
    spec = CultureSpec(tag="URN", m=5, n=10, seed=3, gamma_alpha=True)
    assert sample(spec).votes == sample_urn_gamma(5, 10, 3).votes
    with pytest.raises(ValueError):
        sample(CultureSpec(tag="MALLOWS", m=5, n=10, seed=3))
    with pytest.raises(ValueError):
        CultureSpec(tag="NOPE", m=5, n=10, seed=3)


def test_samplers_validate_against_bad_parameters():
    with pytest.raises(ValueError):
        sample_ic(0, 5, 1)
    with pytest.raises(ValueError):
        sample_urn(3, 5, -0.5, 1)
    with pytest.raises(ValueError):
        sample_mallows(3, 5, 1.2, 1)
    with pytest.raises(ValueError):
        sample_mallows_norm(3, 5, -0.1, 1)
    with pytest.raises(ValueError):
        sample_hypercube(3, 5, 0, 1)


# ---------------------------------------------------------------------------
# impartial culture


def test_ic_votes_are_valid_and_uniform():
    e = sample_ic(3, 60000, seed=11)
    assert e.m == 3 and e.n == 60000
    counts = Counter(e.votes)
    assert len(counts) == 6
    expected = [60000 / 6] * 6
    observed = [counts[p] for p in sorted(counts)]
    stat = oracles.chi_square_statistic(observed, expected)
    assert stat <= oracles.chi_square_critical_1pct(5)


# ---------------------------------------------------------------------------
# urn


def test_urn_alpha_zero_behaves_like_ic():
    e = sample_urn(3, 30000, 0.0, seed=5)
    counts = Counter(e.votes)
    expected = [30000 / 6] * 6
    observed = [counts[p] for p in sorted(counts)]
    stat = oracles.chi_square_statistic(observed, expected)
    assert stat <= oracles.chi_square_critical_1pct(5)


def test_urn_second_vote_copies_first_with_known_probability():
    # with contagion alpha the second vote duplicates the first with
    # probability alpha / (1 + alpha); estimate it over many elections
    alpha = 2.0
    hits = 0
    trials = 20000
    for seed in range(trials):
        e = sample_urn(4, 2, alpha, seed=seed)
        if e.votes[0] == e.votes[1]:
            hits += 1
    observed = hits / trials
    expected = alpha / (1 + alpha)
    # a fresh draw can also coincide by luck: + (1/(1+alpha)) * 1/24
    expected += (1 / (1 + alpha)) / 24
    assert abs(observed - expected) < 0.02


def test_urn_gamma_records_drawn_alpha():
    e = sample_urn_gamma(4, 10, seed=7)
    assert e.meta["gamma_alpha"] is True
    assert e.meta["alpha"] > 0
    draws = [sample_urn_gamma(3, 1, seed=s).meta["alpha"] for s in range(8000)]
    mean = sum(draws) / len(draws)
    assert abs(mean - 0.8) < 0.05  # Gamma(0.8, 1) has mean 0.8


# ---------------------------------------------------------------------------
# mallows


def test_mallows_phi_zero_is_unanimous():
    e = sample_mallows(6, 50, 0.0, seed=2)
    assert set(e.votes) == {(0, 1, 2, 3, 4, 5)}


def test_mallows_phi_one_is_uniform():
    e = sample_mallows(3, 60000, 1.0, seed=8)
    counts = Counter(e.votes)
    expected = [60000 / 6] * 6
    observed = [counts[p] for p in sorted(counts)]
    stat = oracles.chi_square_statistic(observed, expected)
    assert stat <= oracles.chi_square_critical_1pct(5)


def test_mallows_exact_distribution_m3():
    # P(vote) = phi**swaps / Z with Z = 1 * (1+phi) * (1+phi+phi^2) = 2.625
    phi = 0.5
    n = 100000
    e = sample_mallows(3, n, phi, seed=13)
    z = 1 * (1 + phi) * (1 + phi + phi * phi)
    assert abs(z - 2.625) < 1e-12
    counts = Counter(e.votes)
    central = (0, 1, 2)
    perms = sorted(itertools.permutations(range(3)))
    expected = [n * phi ** swap_distance(p, central) / z for p in perms]
    observed = [counts[p] for p in perms]
    stat = oracles.chi_square_statistic(observed, expected)
    assert stat <= oracles.chi_square_critical_1pct(5)


def test_mallows_respects_custom_central_order():
    central = (3, 1, 0, 2)
    e = sample_mallows(4, 40, 0.0, seed=4, central=central)
    assert set(e.votes) == {central}


def test_mallows_norm_endpoints():
    e0 = sample_mallows_norm(5, 20, 0.0, seed=1)
    assert set(e0.votes) == {(0, 1, 2, 3, 4)}
    e1 = sample_mallows_norm(5, 20, 1.0, seed=1)
    assert set(e1.votes) == {(4, 3, 2, 1, 0)}


def test_mallows_norm_hits_target_swap_fraction():
    m, n = 10, 10000
    target = 0.375
    e = sample_mallows_norm(m, n, target, seed=21)
    identity = tuple(range(m))
    mean_rel = sum(swap_distance(v, identity) for v in e.votes) / (n * 45)
    assert abs(mean_rel - target) <= 0.01


def test_mallows_norm_above_half_mirrors_below():
    m, n = 6, 4000
    e = sample_mallows_norm(m, n, 0.8, seed=33)
    assert e.meta["central"] == tuple(range(m - 1, -1, -1))
    identity = tuple(range(m))
    cap = m * (m - 1) // 2
    mean_rel = sum(swap_distance(v, identity) for v in e.votes) / (n * cap)
    assert abs(mean_rel - 0.8) <= 0.02


def test_mallows_norm_samples_match_uncached_calibration():
    for relphi in (0.0, 0.2, 0.5, 0.7, 0.95, 1.0):
        calibrated = relphi if relphi <= 0.5 else 1 - relphi
        central = tuple(range(7)) if relphi <= 0.5 else tuple(range(6, -1, -1))
        for _ in range(2):  # a fresh calibration, then a memoized one
            e = sample_mallows_norm(7, 50, relphi, seed=3)
            phi = relphi_to_phi.__wrapped__(7, calibrated)
            assert e.meta["phi"] == phi
            assert e.votes == sample_mallows(7, 50, phi, seed=3, central=central).votes


PHI_EDGES = [0, 5e-324, 1 - 2**-53, 1]
VOTE_COUNTS = st.one_of(
    st.integers(1, 30),
    st.sampled_from([cultures._BLOCK - 1, cultures._BLOCK, cultures._BLOCK + 1]),
)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 12).flatmap(lambda m: st.tuples(st.just(m), st.permutations(range(m)))),
    VOTE_COUNTS,
    st.one_of(st.sampled_from(PHI_EDGES), st.floats(0, 1)),
    st.integers(0, 2**32),
)
def test_array_sampler_matches_loop_oracle(m_central, n, phi, seed):
    m, central = m_central
    central = tuple(central)
    rng, loop_rng = random.Random(seed), random.Random(seed)
    votes = cultures._mallows_votes(m, n, phi, central, rng)
    assert [*map(tuple, votes.tolist())] == oracles.loop_mallows_votes(m, n, phi, central, loop_rng)
    assert rng.random() == loop_rng.random()  # the same draws were used up


class ReplayRandom:
    """Stands in for random.Random: random() returns the given values in turn."""

    def __init__(self, values):
        self.random = itertools.cycle(values).__next__


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 9),
    st.integers(1, 20),
    st.sampled_from([0, 2**-52, 0.5, 1 - 2**-53, 1]),
    st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1 - 2**-53]), min_size=1, max_size=12),
)
def test_array_sampler_matches_loop_oracle_on_exact_ties(m, n, phi, values):
    # at phi = 1 the draws k/4 times the totals 2 and 4 land exactly on a
    # running sum, which the loop's strict r < acc passes over
    central = tuple(range(m))
    votes = cultures._mallows_votes(m, n, phi, central, ReplayRandom(values)).tolist()
    assert [*map(tuple, votes)] == oracles.loop_mallows_votes(m, n, phi, central, ReplayRandom(values))


@pytest.mark.parametrize("m", [100, 171])
@pytest.mark.parametrize("phi", PHI_EDGES + [0.3, 0.9, 0.999])
def test_array_sampler_matches_loop_oracle_at_large_m(m, phi):
    central = list(range(m))
    random.Random(m).shuffle(central)
    n = 40 if phi < 1 - 2**-52 else cultures._BLOCK + 2  # the slow loop, once past a block
    central = tuple(central)
    votes = cultures._mallows_votes(m, n, phi, central, random.Random(7)).tolist()
    assert [*map(tuple, votes)] == oracles.loop_mallows_votes(m, n, phi, central, random.Random(7))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 9),
    st.integers(1, 40),
    st.lists(
        st.tuples(st.floats(0, 1), st.lists(st.integers(0, 2**40), min_size=1, max_size=5)),
        min_size=1, max_size=4,
    ),
)
def test_batched_tallies_match_one_election_at_a_time(m, n, batches):
    # a grid of mixed dispersions, each value sampled as one block
    for relphi, seeds in batches:
        batch = cultures._mallows_norm_frequencies(m, n, relphi, seeds)
        one_at_a_time = [
            cultures.frequency_matrix(
                cultures.Election(tuple(range(m)), oracles.loop_mallows_norm_votes(m, n, relphi, s))
            )
            for s in seeds
        ]
        assert batch == one_at_a_time


@pytest.mark.parametrize("relphi", [0.2, 0.8])
def test_mallows_norm_builds_one_election(monkeypatch, relphi):
    built = []

    class CountingElection(cultures.Election):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(cultures, "Election", CountingElection)
    e = sample_mallows_norm(7, 50, relphi, seed=3)
    assert built == [e]  # its votes are validated once
    phi = relphi_to_phi(7, min(relphi, 1 - relphi))
    central = tuple(range(7)) if relphi <= 0.5 else tuple(range(6, -1, -1))
    assert e.meta == {
        "culture": "MALLOWS_NORM", "relphi": relphi, "phi": phi, "central": central, "seed": 3,
    }
    base = sample_mallows(7, 50, phi, seed=3, central=central)
    assert (e.votes, e.multiplicities) == (base.votes, base.multiplicities)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**40), st.integers(-3, 60), st.integers(-3, 10**4))
def test_derive_seed_keeps_both_former_formulas(seed, a, b):
    p = 1_000_003
    # the ingest pipeline's (seed, stage, index) and fit-mallows' (seed,
    # grid index, sample index) children, shifted by one
    assert derive_seed(seed, a, b) == (seed * p + a) * p + b
    assert derive_seed(seed, a + 1, b + 1) == (seed * p + a + 1) * p + b + 1


# ---------------------------------------------------------------------------
# single-peaked cultures


def test_single_peaked_recognizer():
    axis = (0, 1, 2, 3)
    assert is_single_peaked((1, 2, 0, 3), axis)
    assert is_single_peaked((3, 2, 1, 0), axis)
    assert not is_single_peaked((0, 2, 1, 3), axis)
    assert not is_single_peaked((1, 3, 2, 0), axis)


def test_conitzer_votes_single_peaked_on_axis():
    for seed in range(10):
        e = sample_conitzer(7, 40, seed=seed)
        axis = e.meta["axis"]
        assert sorted(axis) == list(range(7))
        assert election_is_single_peaked(e, axis)


def test_walsh_votes_single_peaked_on_axis():
    for seed in range(10):
        e = sample_walsh(7, 40, seed=seed)
        assert election_is_single_peaked(e, e.meta["axis"])


def test_conitzer_top_two_probability():
    # peak at the middle of a 3-candidate axis, then the coin decides the
    # runner-up: P(top = axis[1], second = axis[0]) = 1/3 * 1/2 = 1/6
    trials = 30000
    hits = 0
    for seed in range(trials):
        e = sample_conitzer(3, 1, seed=seed)
        axis = e.meta["axis"]
        v = e.votes[0]
        if v[0] == axis[1] and v[1] == axis[0]:
            hits += 1
    assert abs(hits / trials - 1 / 6) < 0.01


def test_walsh_m2_balanced():
    counts = Counter()
    for seed in range(4000):
        e = sample_walsh(2, 1, seed=seed)
        axis = e.meta["axis"]
        counts[e.votes[0] == tuple(axis)] += 1
    frac = counts[True] / 4000
    assert abs(frac - 0.5) < 0.03


def test_walsh_m4_uniform_over_the_8_orders():
    e = sample_walsh(4, 8000, seed=17)
    axis = e.meta["axis"]
    orders = oracles.enumerate_bottom_up_orders(axis)
    assert len(orders) == 8
    counts = Counter(e.votes)
    assert set(counts) <= orders
    observed = [counts[o] for o in sorted(orders)]
    expected = [8000 / 8] * 8
    stat = oracles.chi_square_statistic(observed, expected)
    assert stat <= oracles.chi_square_critical_1pct(7)


def test_single_candidate_cultures():
    for maker in (
        lambda: sample_conitzer(1, 5, 0),
        lambda: sample_walsh(1, 5, 0),
        lambda: sample_mallows_norm(1, 5, 0.3, 0),
    ):
        e = maker()
        assert e.votes == ((0,),) * 5


# ---------------------------------------------------------------------------
# hypercube


def test_hypercube_one_dimension_is_single_peaked():
    for seed in range(10):
        e = sample_hypercube(6, 30, 1, seed=seed)
        points = e.meta["candidate_points"]
        axis = sorted(range(6), key=lambda c: points[c][0])
        assert election_is_single_peaked(e, axis)


def test_hypercube_records_dimension():
    e = sample_hypercube(4, 10, 3, seed=5)
    assert e.meta["dimension"] == 3
    assert len(e.meta["candidate_points"]) == 4
    assert all(len(p) == 3 for p in e.meta["candidate_points"])


def test_rank_by_distance_breaks_ties_by_index():
    points = [(0.5, 0.5), (0.2, 0.2), (0.5, 0.5)]
    order = rank_by_distance(points, (0.5, 0.5))
    assert order == (0, 2, 1)
    with pytest.raises(ValueError):
        rank_by_distance([(0.1,)], (0.1, 0.2))


@pytest.mark.parametrize("dimension", range(1, 13))
def test_hypercube_matches_rank_by_distance_oracle(dimension):
    for seed in range(12):
        m, n = 1 + seed % 11, 1 + 7 * seed
        e = sample_hypercube(m, n, dimension, seed)
        assert list(e.votes) == oracles.loop_hypercube_votes(m, n, dimension, seed)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 40), st.integers(0, 2**32))
def test_hypercube_matches_oracle_property(m, dimension, n, seed):
    e = sample_hypercube(m, n, dimension, seed)
    assert list(e.votes) == oracles.loop_hypercube_votes(m, n, dimension, seed)


def test_distance_ranks_match_oracle_on_ties():
    # With glibc 2.36 on x86-64, 0.2448...206 ** 2 (the C library's pow) is
    # one unit in the last place below the rounded product, so candidate 0
    # ties candidate 1 and comes first; a square taken as d * d would put
    # candidate 1 first.  Where pow is correctly rounded, both sides agree
    # the other way.
    points = [(0.24483522451472206, 0.0), (0.24483522351472206, 2.2128498437136358e-05)]
    voters = [(0.0, 0.0), (0.5, 0.5), (0.24483522451472206, 2.2128498437136358e-05)]
    ranks = cultures._distance_ranks(np.array(points), np.array(voters))
    assert ranks.tolist() == [list(rank_by_distance(points, v)) for v in voters]
    # 200 candidates on three points: long runs of equal distances, which
    # only a stable sort keeps in index order
    rng = random.Random(3)
    points = [rng.choice([(0.1, 0.2), (0.7, 0.3), (0.4, 0.9)]) for _ in range(200)]
    ranks = cultures._distance_ranks(np.array(points), np.array(voters))
    assert ranks.tolist() == [list(rank_by_distance(points, v)) for v in voters]


def test_hypercube_vote_matches_distances():
    e = sample_hypercube(5, 8, 2, seed=9)
    points = e.meta["candidate_points"]
    # recompute a voter-independent check: each vote must order candidates
    # by nondecreasing distance to some point; verify ordering consistency
    for vote in e.votes:
        assert sorted(vote) == list(range(5))


def test_mean_swap_fraction_of_ic_is_half():
    # sanity link between samplers and the calibration scale
    m, n = 6, 4000
    e = sample_ic(m, n, seed=123)
    cap = m * (m - 1) // 2
    identity = tuple(range(m))
    mean_rel = sum(swap_distance(v, identity) for v in e.votes) / (n * cap)
    assert abs(mean_rel - 0.5) < 0.02
