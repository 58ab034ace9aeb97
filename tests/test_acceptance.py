"""End-to-end checks of the toolkit's headline guarantees.

Each test prints one `[acceptance] <name>: PASS/FAIL` line; run with
`pytest tests/test_acceptance.py -v -s` to see them all.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from oracles import (
    brute_force_expected_swaps,
    brute_force_min_deviation,
    chi_square_critical_1pct,
    closed_form_distance,
    election_is_single_peaked,
    mahonian_row,
    reversed_identity,
    swap_distance,
)

from prefmap.cli import main
from prefmap.compass import (
    CORNER_KINDS,
    CORNER_PAIRS,
    compass_matrix,
    convex_combination,
    normalized_limit,
)
from prefmap.core import FrequencyMatrix, frequency_matrix, position_matrix
from prefmap.cultures import (
    CultureSpec,
    expected_swaps,
    fit_mallows,
    relative_expected_swaps,
    relphi_to_phi,
    sample,
    sample_mallows,
    sample_mallows_norm,
)
from prefmap.embed import embed_distances
from prefmap.ingest import PRESETS, PartialProfile, run_pipeline
from prefmap.matrixio import write_matrix_csv
from prefmap.metric import (
    cross_distances,
    distance_matrix,
    normalization_constant,
    normalized,
    positionwise,
)
from prefmap.recovery import election_from_position_matrix, round_position_matrix


def report(name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"[acceptance] {name}: {verdict}{suffix}"
    print(line)
    assert ok, line


def corner_matrices(m):
    return {kind: compass_matrix(kind, m) for kind in CORNER_KINDS}


def test_closed_form_compass_distances():
    start = time.perf_counter()
    mismatches = []
    for m in (4, 8, 12, 16, 20):
        mats = corner_matrices(m)
        for a, b in CORNER_PAIRS:
            got = positionwise(mats[a], mats[b]).value
            want = closed_form_distance(a, b, m)
            if got != want:
                mismatches.append((m, a, b, got, want))
    elapsed = time.perf_counter() - start
    report(
        "closed-form compass distances (m up to 20, exact)",
        not mismatches and elapsed < 5.0,
        f"{elapsed:.2f}s, {len(mismatches)} mismatches",
    )


def test_normalized_distance_limits():
    m = 100
    mats = corner_matrices(m)
    norm = normalization_constant(m)
    worst = 0.0
    for a, b in CORNER_PAIRS:
        got = float(positionwise(mats[a], mats[b]).value / norm)
        want = float(normalized_limit(a, b))
        worst = max(worst, abs(got - want))
    report(
        "normalized corner distances at m=100 near limits",
        worst <= 1e-3,
        f"worst deviation {worst:.2e}",
    )


# dispersion values that hit each target share of the maximum expected swap
# count, tabulated independently; rows are rel-phi, columns m
CALIBRATION_TABLE = {
    0.05: (0.118, 0.209, 0.345, 0.567, 0.724),
    0.10: (0.224, 0.360, 0.527, 0.734, 0.846),
    0.15: (0.321, 0.477, 0.641, 0.815, 0.898),
    0.20: (0.414, 0.572, 0.722, 0.864, 0.927),
    0.25: (0.504, 0.653, 0.784, 0.899, 0.946),
    0.30: (0.594, 0.727, 0.835, 0.925, 0.960),
    0.35: (0.687, 0.796, 0.880, 0.946, 0.972),
    0.40: (0.783, 0.863, 0.921, 0.965, 0.982),
    0.45: (0.886, 0.930, 0.961, 0.983, 0.991),
}
CALIBRATION_MS = (5, 10, 20, 50, 100)


def test_dispersion_calibration_table():
    start = time.perf_counter()
    bad = []
    worst = 0.0
    for rel, row in CALIBRATION_TABLE.items():
        for m, want in zip(CALIBRATION_MS, row):
            got = relphi_to_phi(m, rel)
            err = abs(got - want)
            worst = max(worst, err)
            if err > 0.001:
                bad.append((m, rel))
    for m in CALIBRATION_MS:
        if relphi_to_phi(m, 0.0) != 0.0 or abs(relphi_to_phi(m, 0.5) - 1.0) > 1e-9:
            bad.append((m, "endpoints"))
    elapsed = time.perf_counter() - start
    report(
        "dispersion calibration table (55 values, +/-0.001)",
        not bad and elapsed < 30.0,
        f"{elapsed:.1f}s, worst error {worst:.5f}",
    )


def test_expected_swaps_matches_enumeration():
    worst = 0.0
    for m in range(2, 7):
        for phi in (0.1, 0.25, 0.5, 0.75, 1.0):
            got = expected_swaps(m, phi)
            want = brute_force_expected_swaps(m, phi, tuple(range(m)))
            worst = max(worst, abs(got - want))
    report(
        "expected swap count equals enumeration (m<=6)",
        worst <= 1e-10,
        f"worst difference {worst:.2e}",
    )


def random_bistochastic(rng: random.Random, m: int) -> FrequencyMatrix:
    # convex mixture of permutation matrices keeps both line sums exactly 1
    weights: list[Fraction] = []
    perms: list[list[int]] = []
    remaining = Fraction(1)
    k = rng.randint(1, 4)
    for i in range(k):
        if i == k - 1:
            w = remaining
        else:
            w = remaining * Fraction(rng.randint(1, 3), 6)
            remaining -= w
        weights.append(w)
        p = list(range(m))
        rng.shuffle(p)
        perms.append(p)
    rows = [[Fraction(0)] * m for _ in range(m)]
    for w, p in zip(weights, perms):
        for i, j in enumerate(p):
            rows[i][j] += w
    return FrequencyMatrix(entries=tuple(tuple(r) for r in rows))


def test_rounding_contract():
    rng = random.Random(99001)
    bound_failures = 0
    deviation_failures = 0
    brute_checked = 0
    for case in range(200):
        if case < 120:
            m, n = rng.randint(1, 6), rng.randint(1, 20)
        else:
            m, n = rng.randint(1, 3), rng.randint(1, 4)
        x = random_bistochastic(rng, m)
        p = round_position_matrix(x, n)
        if any(
            abs(n * x.entries[i][j] - p.entries[i][j]) > 1
            for i in range(m)
            for j in range(m)
        ):
            bound_failures += 1
            continue
        if m <= 3 and n <= 4:
            brute_checked += 1
            dev = sum(
                abs(n * x.entries[i][j] - p.entries[i][j])
                for i in range(m)
                for j in range(m)
            )
            if dev != brute_force_min_deviation(x.entries, n):
                deviation_failures += 1
    report(
        "rounding stays within one vote per cell and is minimal",
        bound_failures == 0 and deviation_failures == 0,
        f"200 matrices, {brute_checked} brute-checked, "
        f"{bound_failures}+{deviation_failures} failures",
    )


def test_decomposition_round_trip():
    rng = random.Random(31337)
    mismatches = 0
    loose_bound_misses = 0
    tight_bound_misses = 0
    for _ in range(500):
        m = rng.randint(1, 8)
        n = rng.randint(1, 50)
        election = sample(CultureSpec(tag="IC", m=m, n=n, seed=rng.randrange(2**30)))
        target = position_matrix(election)
        rebuilt = election_from_position_matrix(target)
        if position_matrix(rebuilt).entries != target.entries:
            mismatches += 1
        distinct = len(rebuilt.votes)
        if distinct > m * m - m + 1:
            loose_bound_misses += 1
        if distinct > m * m - 2 * m + 2:
            tight_bound_misses += 1
    report(
        "matrix decomposition round trip (500 elections)",
        mismatches == 0 and loose_bound_misses == 0,
        f"{mismatches} mismatches; tighter m^2-2m+2 vote bound "
        f"{'held' if tight_bound_misses == 0 else 'exceeded'} "
        f"({tight_bound_misses} times)",
    )


def test_path_additivity_and_counterexample():
    m = 8
    mats = corner_matrices(m)
    broken = []
    for a, b in CORNER_PAIRS:
        total = positionwise(mats[a], mats[b]).value
        for k in range(1, 10):
            alpha = Fraction(k, 10)
            z = convex_combination(mats[a], mats[b], alpha)
            left = positionwise(mats[a], z).value
            right = positionwise(z, mats[b]).value
            if left + right != total:
                broken.append((a, b, alpha))
    reversed_id = reversed_identity(m)
    midpoint = convex_combination(mats["ID"], reversed_id, Fraction(1, 2))
    corners_coincide = positionwise(mats["ID"], reversed_id).value == 0
    bulge = positionwise(mats["ID"], midpoint).value
    counterexample_ok = corners_coincide and bulge == Fraction(m * m, 4) and bulge > 0
    report(
        "paths between corners are additive; ID/reversed-ID midpoint is not",
        not broken and counterexample_ok,
        f"{len(broken)} broken segments, midpoint bulge {bulge}",
    )


def test_mallows_sampling_distribution():
    m, phi, n = 4, 0.5, 100_000
    election = sample(CultureSpec(tag="MALLOWS", m=m, n=n, seed=2024, phi=phi))
    table = mahonian_row(m)
    z = sum(t * phi**i for i, t in enumerate(table))
    counts = [0] * len(table)
    central = tuple(range(m))
    for vote, k in zip(election.votes, election.multiplicities):
        counts[swap_distance(vote, central)] += k
    stat = 0.0
    for i, t in enumerate(table):
        expect = n * t * phi**i / z
        stat += (counts[i] - expect) ** 2 / expect
    critical = chi_square_critical_1pct(len(table) - 1)
    report(
        "sampled swap-count histogram matches the dispersion law",
        stat < critical,
        f"chi-square {stat:.2f} < {critical:.2f} (df {len(table) - 1})",
    )


def test_walsh_uniformity_and_single_peakedness():
    election = sample(CultureSpec(tag="WALSH", m=4, n=8000, seed=7))
    counts: dict[tuple[int, ...], int] = {}
    for vote, k in zip(election.votes, election.multiplicities):
        counts[vote] = counts.get(vote, 0) + k
    uniform_ok = len(counts) == 8
    stat = sum((obs - 1000) ** 2 / 1000 for obs in counts.values())
    critical = chi_square_critical_1pct(7)
    recognized = True
    for seed in (11, 12):
        for tag in ("CONITZER", "WALSH"):
            e = sample(CultureSpec(tag=tag, m=6, n=500, seed=seed))
            if not election_is_single_peaked(e, e.meta["axis"]):
                recognized = False
    report(
        "bottom-up orders are uniform and recognizably single-peaked",
        uniform_ok and stat < critical and recognized,
        f"chi-square {stat:.2f} < {critical:.2f} (df 7), "
        f"{len(counts)} orders, recognizer {'ok' if recognized else 'failed'}",
    )


def test_dispersion_fit_self_consistency():
    target = 0.375
    dataset = [
        sample(CultureSpec(tag="MALLOWS_NORM", m=10, n=100, seed=9000 + i, relphi=target))
        for i in range(30)
    ]
    grid = [k / 100 for k in range(51)]
    start = time.perf_counter()
    result = fit_mallows(dataset, grid, samples_per_value=20, seed=424242)
    elapsed = time.perf_counter() - start
    report(
        "coarse-grid dispersion fit recovers the generating value",
        abs(result.relphi - target) <= 0.03 and elapsed < 600.0,
        f"fit {result.relphi:.2f} vs {target}, {elapsed:.0f}s",
    )


def test_normalized_mallows_lies_along_the_id_un_path():
    # 100 elections at the paper's m = 10, n = 100, relphi uniform in [0, 1/2]
    m = 10
    rng = random.Random(12)
    relphis = [rng.uniform(0, 0.5) for _ in range(100)]
    start = time.perf_counter()
    elections = [
        frequency_matrix(sample_mallows_norm(m, 100, r, 12_000 + i)) for i, r in enumerate(relphis)
    ]
    corners = [compass_matrix("ID", m), compass_matrix("UN", m)]
    d_id_un = normalized(cross_distances(corners[:1], corners[1:])[0][0], m)
    rows = [[normalized(d, m) for d in row] for row in cross_distances(elections, corners)]
    excess = max(d_id + d_un - d_id_un for d_id, d_un in rows)
    # d(ID, e) keeps the relphi order of every pair more than 0.1 apart
    swapped = [
        (i, j)
        for i in range(100)
        for j in range(100)
        if relphis[j] - relphis[i] > 0.1 and rows[i][0] >= rows[j][0]
    ]
    elapsed = time.perf_counter() - start
    report(
        "normalized Mallows lies near the ID-UN path, ordered by relphi",
        excess <= 0.15 and not swapped and elapsed < 5.0,
        f"excess {float(excess):.3f}, {len(swapped)} swapped pairs, {elapsed:.2f}s",
    )


def test_classical_mallows_drifts_toward_id():
    # at a fixed phi = 1/2 the normalized d(ID, E) falls as m grows, which
    # is why the paper normalizes the dispersion
    readings = {}
    for seed in range(3):
        for m in (10, 20, 50):
            e = frequency_matrix(sample_mallows(m, 100, 0.5, seed))
            readings[seed, m] = normalized(cross_distances([e], [compass_matrix("ID", m)])[0][0], m)
    falling = all(readings[s, 10] > readings[s, 20] > readings[s, 50] for s in range(3))
    report(
        "classical Mallows at phi 1/2 drifts toward ID as m grows",
        falling,
        ", ".join(f"m={m}: {float(readings[0, m]):.3f}" for m in (10, 20, 50)),
    )


def _planted_profiles(relphi: float, rng: random.Random) -> list[PartialProfile]:
    """Three profiles of 300 complete normalized-Mallows ballots at m = 12,
    each with its candidate ids shuffled."""
    profiles = []
    for p in range(3):
        ids = rng.sample(range(1, 13), 12)  # ids[c] is candidate c's id
        election = sample_mallows_norm(12, 300, relphi, rng.randrange(2**32))
        votes = tuple(tuple((ids[c],) for c in vote) for vote in election.votes)
        profiles.append(PartialProfile(tuple(range(1, 13)), votes, election.multiplicities,
                                       {c: f"c{c}" for c in range(1, 13)}, f"p{p}"))
    return profiles


def test_protocol_reads_the_dispersion_of_the_kept_ten():
    # Repeated insertion never reorders the items it has placed, so Mallows
    # cut to the first 10 items of its central order is Mallows with the
    # same phi over 10 items: through the protocol, planted relphi r at
    # m = 12 reads relative_expected_swaps(10, relphi_to_phi(12, r)).
    grid = [k / 100 for k in range(51)]
    start = time.perf_counter()
    off = []
    readings = []
    for r in (0.05, 0.15, 0.30, 0.45):
        dataset, _ = run_pipeline(_planted_profiles(r, random.Random(10)), PRESETS["default"], 10)
        got = fit_mallows(dataset, grid, samples_per_value=10, seed=10).relphi
        want = relative_expected_swaps(10, relphi_to_phi(12, r))
        readings.append(f"{r}: {got:.2f} vs {want:.3f}")
        # near 1/2 the distance curve flattens, so a fit there may read
        # anything up to the grid's end
        if not want - 0.025 <= got <= (0.5 if r == 0.45 else want + 0.025):
            off.append(r)
    elapsed = time.perf_counter() - start
    report(
        "the protocol reads a planted dispersion at the kept 10 candidates",
        not off and elapsed < 10.0,
        f"{', '.join(readings)}, {elapsed:.1f}s",
    )


def test_embedding_sanity():
    def dist(layout, i, j):
        _, xi, yi = layout.points[i]
        _, xj, yj = layout.points[j]
        return ((xi - xj) ** 2 + (yi - yj) ** 2) ** 0.5

    two = embed_distances([[0, 1], [1, 0]], seed=0)
    two_ok = abs(dist(two, 0, 1) - 1.0) <= 0.02

    target = [[0, 3, 4], [3, 0, 5], [4, 5, 0]]
    three = embed_distances(target, seed=1)
    emb = {(i, j): dist(three, i, j) for i in range(3) for j in range(i + 1, 3)}
    scale = max(emb.values())
    three_ok = all(
        abs(emb[i, j] / scale - target[i][j] / 5) <= 0.02 * (target[i][j] / 5)
        for (i, j) in emb
    )

    mats = corner_matrices(4)
    ids = list(CORNER_KINDS)
    exact = distance_matrix([mats[k] for k in ids])
    layout = embed_distances(exact, seed=2, ids=ids)
    index = {pid: k for k, (pid, _, _) in enumerate(layout.points)}

    def emb_pair(a, b):
        return dist(layout, index[a], index[b])

    # exact order at m=4: ID-UN = 5 > ID-AN = UN-ST = AN-ST = 4 > ID-ST = UN-AN = 2
    mid = [emb_pair("ID", "AN"), emb_pair("UN", "ST"), emb_pair("AN", "ST")]
    low = [emb_pair("ID", "ST"), emb_pair("UN", "AN")]
    order_ok = emb_pair("ID", "UN") > max(mid) and min(mid) > max(low)

    report(
        "planar map preserves ratios and corner ordering",
        two_ok and three_ok and order_ok,
        f"two-point {dist(two, 0, 1):.4f}, rank order {'kept' if order_ok else 'lost'}",
    )


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_determinism(tmp_path, capsys):
    from prefmap import ingest

    corner_dir = tmp_path / "corners"
    corner_dir.mkdir()
    corners = {}
    for kind in CORNER_KINDS:
        path = corner_dir / f"{kind}.csv"
        write_matrix_csv(compass_matrix(kind, 4), path)
        corners[kind] = str(path)

    profiles = tmp_path / "profiles"
    profiles.mkdir()
    for i in range(2):
        e = sample(CultureSpec(tag="IC", m=10, n=12, seed=600 + i))
        ingest.serialize_election(e, profiles / f"p{i}.soc")

    tiny_set = tmp_path / "tiny"
    tiny_set.mkdir()
    for i in range(2):
        e = sample(CultureSpec(tag="MALLOWS_NORM", m=4, n=10, seed=70 + i, relphi=0.25))
        ingest.serialize_election(e, tiny_set / f"d{i}.soc")

    def command_set(side: str):
        base = tmp_path / side
        base.mkdir()
        return [
            ("generate", ["generate", "--culture", "mallows", "--phi", "0.7",
                          "--m", "5", "--n", "20", "--seed", "77",
                          "--out", str(base / "g.soc")],
             [base / "g.soc"]),
            ("distance", ["distance", "--a", corners["ID"], "--b", corners["UN"]],
             []),
            ("distance-matrix", ["distance-matrix", "--inputs",
                                 *[corners[k] for k in CORNER_KINDS],
                                 "--out", str(base / "d.csv"),
                                 "--sidecar", str(base / "d_exact.csv")],
             [base / "d.csv", base / "d_exact.csv"]),
            ("recover", ["recover", "--matrix", corners["AN"], "--n", "4",
                         "--out", str(base / "r.soc")],
             [base / "r.soc"]),
            ("compass", ["compass", "--m", "4", "--scale", "2",
                         "--out", str(base / "compass")],
             [base / "compass"]),
            ("mallows-table", ["mallows-table", "--m-list", "5,10"], []),
            ("ingest", ["ingest", "--in", str(profiles), "--seed", "5",
                        "--out", str(base / "ingested")],
             [base / "ingested"]),
            ("embed", ["embed", "--distances", str(base / "d.csv"), "--seed", "3",
                       "--svg", str(base / "map.svg"),
                       "--coords", str(base / "coords.csv")],
             [base / "map.svg", base / "coords.csv"]),
            ("fit-mallows", ["fit-mallows", "--dataset", str(tiny_set),
                             "--grid-step", "0.25", "--samples", "2",
                             "--seed", "1"],
             []),
        ]

    def run_side(side: str):
        observations = {}
        for name, argv, outputs in command_set(side):
            code, out = run_cli(capsys, *argv)
            assert code == 0, (name, code)
            blobs = [out.encode()]
            for target in outputs:
                if target.is_dir():
                    for child in sorted(target.rglob("*")):
                        if child.is_file():
                            blobs.append(child.relative_to(target).as_posix().encode())
                            blobs.append(child.read_bytes())
                else:
                    blobs.append(target.read_bytes())
            observations[name] = blobs
        return observations

    first = run_side("run1")
    second = run_side("run2")
    differing = [name for name in first if first[name] != second[name]]
    report(
        "every command is byte-reproducible under a fixed seed",
        not differing,
        f"{len(first)} commands, differing: {differing or 'none'}",
    )
