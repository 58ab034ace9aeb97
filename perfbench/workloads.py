"""The benchmark's three workloads.

Each workload has four parts:

* ``plan(seed)`` makes its inputs from the seed (pure, so the checking
  parent and the measured child make the same plan);
* ``write_inputs(plan)`` writes the input files into the current directory;
* ``chain(plan)`` yields the argv of every ``prefmap`` command a user runs,
  in order; the glue between yields (listing outputs) is part of the chain;
* ``replay(plan, lib, tr)`` does the same work stage by stage through the
  library and records a span around every call into a layer.

Both the chain and the replay leave the same files behind, so one ``check``
function verifies either, against computations made in ``checks.py``.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import statistics
from fractions import Fraction

import checks

N_VOTERS = 100

# compass_map: the compass for the map of Szufa et al. (m = 10, n = 100)
# and elections of every culture measured against its corners.  Scale 10
# gives 45 path points; their denominators vary, so the prefix-column cache
# of the metric layer mostly misses.
MAP_M = 10
MAP_SCALE = 10
MAP_PER_CULTURE = 3

# mallows_fit: two datasets with planted normalized dispersions, each of
# three raw profiles over ten planted and two extra candidates.
PLANTED = (0.30, 0.15)
PROFILES_PER_DATASET = 3
FIT_GRID_STEP = "0.05"
FIT_SAMPLES = "8"
FIT_TOLERANCE = 0.05
CLEAN_FILES = 15  # samples per dataset written by the default ingest preset

# large_m: anchors and sampled elections at m = 100, path points at m = 20.
LARGE_M = 100
LARGE_SAMPLES = ("ic", "mallows-norm")
PATH_M = 20
# A one-voter position matrix; its rows sum to 1, and `recover` takes it for
# a frequency matrix and asks for --n.  It does not depend on the seed.
PERM = (3, 0, 7, 1, 10, 5, 2, 11, 8, 4, 9, 6)

# (CLI name, CultureSpec tag, CLI flag, CultureSpec field)
CULTURES = (
    ("ic", "IC", None, None),
    ("urn", "URN", "--alpha", "alpha"),
    ("urn-gamma", "URN", None, None),
    ("mallows", "MALLOWS", "--phi", "phi"),
    ("mallows-norm", "MALLOWS_NORM", "--relphi", "relphi"),
    ("conitzer", "CONITZER", None, None),
    ("walsh", "WALSH", None, None),
    ("hypercube", "HYPERCUBE", "--dim", "dimension"),
)
CORNERS = ("ID", "UN", "ST", "AN")
# Every map embeds a compass, so it does not depend on the seed, with the
# default embedding seed.  A workload whose main job is not the map embeds
# the compass at scale 1 (its corners and the midpoint of each path).
FRAME_SCALE = 1
EMBED_SEED = 0


def _election(rng: random.Random, culture: str, m: int, fname: str) -> dict:
    """One `generate` call: its CLI flags and the equivalent CultureSpec."""
    _, tag, flag, field = next(c for c in CULTURES if c[0] == culture)
    seed = rng.randrange(10**6)
    spec: dict = {"tag": tag, "m": m, "n": N_VOTERS, "seed": seed}
    flags: list[str] = []
    if culture == "urn-gamma":
        spec["gamma_alpha"] = True
    if flag is not None:
        if field == "dimension":
            value: object = rng.choice((1, 2, 3))
        elif field == "alpha":
            value = round(rng.uniform(0.05, 0.5), 4)
        elif field == "phi":
            value = round(rng.uniform(0.2, 0.9), 4)
        else:
            value = round(rng.uniform(0.05, 0.45), 4)
        spec[field] = value
        flags = [flag, str(value)]
    argv = ["generate", "--culture", culture, "--m", str(m), "--n", str(N_VOTERS),
            "--seed", str(seed), *flags, "--out", fname]
    return {"file": fname, "argv": argv, "spec": spec}


def _manifest(directory: str) -> list[dict]:
    with open(os.path.join(directory, "manifest.csv"), encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _socs(directory: str) -> list[str]:
    return sorted(os.path.join(directory, f) for f in os.listdir(directory)
                  if f.endswith(".soc"))


def _label(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


# ---------------------------------------------------------------------------
# replay helpers: the library calls behind one CLI command, each in a span


def _replay_compass(lib, tr, m: int, scale: int, out: str) -> None:
    with tr.span("compass.build"):
        labeled = lib.prefmap.full_compass(m, scale=scale)
    tr.count("compass.matrices", len(labeled))
    os.makedirs(out)
    rows = []
    for label, matrix in labeled:
        fname = label.replace(":", "_").replace("/", "_") + ".csv"
        with tr.span("matrixio.write"):
            lib.matrixio.write_matrix_csv(matrix, os.path.join(out, fname))
        tr.count("matrixio.files")
        pair, _, alpha = label.partition(":")
        rows.append(f"{label},{pair},{alpha or '1'},{fname}\n")
    with open(os.path.join(out, "manifest.csv"), "w", encoding="utf-8") as fh:
        fh.write("label,pair,alpha,file\n" + "".join(rows))


def _replay_generate(lib, tr, election: dict) -> None:
    with tr.span("cultures.sample"):
        e = lib.prefmap.sample(lib.prefmap.CultureSpec(**election["spec"]))
    tr.count("cultures.elections")
    with tr.span("ingest.write"):
        lib.ingest.serialize_election(e, election["file"])


def _replay_load(lib, tr, path: str):
    """A matrix CSV or an election file as a frequency matrix."""
    P = lib.prefmap
    if path.endswith(".soc"):
        with tr.span("ingest.parse"):
            e = lib.ingest.load_election(path)
        tr.count("ingest.ballots", e.n)
        with tr.span("core.tally"):
            x = P.frequency_matrix(e)
        tr.count("core.matrices")
        return x
    with tr.span("matrixio.read"):
        x = lib.matrixio.read_matrix_csv(path)
    tr.count("matrixio.files")
    if isinstance(x, P.PositionMatrix):
        with tr.span("core.tally"):
            x = P.frequency_from_position(x)
        tr.count("core.matrices")
    return x


def _replay_distance_matrix(lib, tr, inputs: list[str], out: str, sidecar: str | None) -> None:
    items = [_replay_load(lib, tr, p) for p in inputs]
    with tr.span("metric.distance_matrix"):
        table = lib.prefmap.distance_matrix(items)
    tr.count("metric.pairs", len(items) * (len(items) - 1) // 2)
    labels = [_label(p) for p in inputs]
    for path, fmt in ((out, lambda v: f"{float(v):.12g}"), (sidecar, str)):
        if path is None:
            continue
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(["id"] + labels) + "\n")
            for label, row in zip(labels, table):
                fh.write(",".join([label] + [fmt(v) for v in row]) + "\n")


def _replay_embed(lib, tr, distances: str, coords: str, svg: str | None) -> None:
    labels, rows = checks.read_distance_csv(distances)
    styling = {pid: ("#000000", "star", "corner") if pid in CORNERS
               else ("#1f77b4", "dot", "") for pid in labels}
    with tr.span("embed.embed"):
        layout = lib.prefmap.embed_distances(rows, seed=EMBED_SEED, ids=labels, styling=styling)
    tr.count("embed.points", len(labels))
    with tr.span("embed.render"):
        if svg is not None:
            lib.prefmap.render_svg(layout, svg)
        lib.prefmap.write_coordinates(layout, coords)


def _outcome(argv: list[str], rc: int = 0, out: str = "", err: str = "") -> dict:
    return {"argv": argv, "rc": rc, "out": out, "err": err}


# ---------------------------------------------------------------------------
# the map stage every workload ends with: a compass, its exact distances and
# its embedding


def _map_argvs(compass: str, svg: bool) -> tuple[list[str], list[str]]:
    files = [os.path.join(compass, row["file"]) for row in _manifest(compass)]
    dist = ["distance-matrix", "--inputs", *files, "--out", f"{compass}_dist.csv",
            "--sidecar", f"{compass}_exact.csv"]
    embed = ["embed", "--distances", f"{compass}_dist.csv", "--coords", f"{compass}_coords.csv"]
    return dist, embed + (["--svg", f"{compass}.svg"] if svg else [])


def _replay_map(lib, tr, compass: str, svg: bool) -> list[dict]:
    dist, embed = _map_argvs(compass, svg)
    _replay_distance_matrix(lib, tr, dist[2:-4], dist[-3], dist[-1])
    _replay_embed(lib, tr, embed[2], embed[4], embed[6] if svg else None)
    return [_outcome(dist), _outcome(embed)]


def _check_map(compass: str, m: int, svg: bool) -> tuple[list[str], list[str], float]:
    """Problems of the compass and its distances; problems of the map, which
    count as a failure of `embed`; the map's stress."""
    anchors = {k: checks.anchor(k, m) for k in CORNERS}
    manifest = _manifest(compass)
    problems, mats = [], {}
    for row in manifest:
        x = checks.read_rational_csv(os.path.join(compass, row["file"]))
        problems += checks.compass_point(row, x, anchors)
        mats[_label(row["file"])] = [[float(v) for v in r] for r in x]
    labels, exact = checks.read_exact_csv(f"{compass}_exact.csv")
    problems += checks.distances(f"{compass}_dist.csv", mats, exact_labels=labels, exact=exact)
    problems += checks.additivity(manifest, labels, exact)
    stress, map_problems = checks.map_outputs(f"{compass}_dist.csv", f"{compass}_coords.csv",
                                              f"{compass}.svg" if svg else None)
    return problems, [f"embed of {compass}: " + "; ".join(map_problems)] if map_problems else [], stress


# ---------------------------------------------------------------------------
# compass_map


class CompassMap:
    def plan(self, seed: int) -> dict:
        rng = random.Random(seed)
        return {"elections": [
            _election(rng, culture, MAP_M, f"{culture}-{k}.soc")
            for culture, *_ in CULTURES
            for k in range(MAP_PER_CULTURE)
        ]}

    def write_inputs(self, plan: dict) -> None:
        pass

    @staticmethod
    def _elections_argv(plan: dict) -> list[str]:
        corners = [os.path.join("compass", f"{k}.csv") for k in CORNERS]
        return ["distance-matrix", "--inputs", *corners, *[e["file"] for e in plan["elections"]],
                "--out", "elections_dist.csv"]

    def chain(self, plan: dict):
        yield ["compass", "--m", str(MAP_M), "--scale", str(MAP_SCALE), "--out", "compass"]
        yield from _map_argvs("compass", svg=True)
        for e in plan["elections"]:
            yield e["argv"]
        yield self._elections_argv(plan)

    def replay(self, plan: dict, lib, tr) -> list[dict]:
        _replay_compass(lib, tr, MAP_M, MAP_SCALE, "compass")
        out = [_outcome(["compass"])] + _replay_map(lib, tr, "compass", svg=True)
        for e in plan["elections"]:
            _replay_generate(lib, tr, e)
            out.append(_outcome(e["argv"]))
        argv = self._elections_argv(plan)
        _replay_distance_matrix(lib, tr, argv[2:-2], argv[-1], None)
        return out + [_outcome(argv)]

    def check(self, plan: dict, outcomes: list[dict]) -> tuple[list[str], list[str], float]:
        problems = checks.exit_codes(outcomes, expected_failures=())
        if problems:
            return problems, [], math.nan
        problems, failures, stress = _check_map("compass", MAP_M, svg=True)
        mats = {k: [[float(v) for v in row] for row in checks.anchor(k, MAP_M)] for k in CORNERS}
        for e in plan["elections"]:
            soc = checks.read_soc(e["file"])
            problems += checks.strict_complete(e["file"], soc, MAP_M, N_VOTERS)
            mats[_label(e["file"])] = checks.frequency(soc)
        problems += checks.distances("elections_dist.csv", mats)
        return problems, failures, stress


# ---------------------------------------------------------------------------
# mallows_fit


def _planted_profile(rng: random.Random, phi: float) -> tuple[str, list[tuple[int, ...]]]:
    """A PrefLib-style profile over candidates 1..12 and its planted votes.

    Candidates 1..10 form a strict normalized-Mallows ranking; 11 and 12
    follow tied, one of them alone, or not at all.  Completion can only
    append them, and the Borda top ten are then exactly 1..10.
    """
    ballots: dict[str, int] = {}
    planted = []
    for _ in range(N_VOTERS):
        vote = tuple(c + 1 for c in checks.mallows_vote(rng, 10, phi))
        planted.append(vote)
        tail = rng.choice(("{11,12}", "", "11", "12"))
        key = ",".join(map(str, vote)) + ("," + tail if tail else "")
        ballots[key] = ballots.get(key, 0) + 1
    lines = ["12"] + [f"{c}, c{c}" for c in range(1, 13)]
    lines.append(f"{N_VOTERS}, {N_VOTERS}, {len(ballots)}")
    lines += [f"{k}, {b}" for b, k in sorted(ballots.items(), key=lambda kv: (-kv[1], kv[0]))]
    return "\n".join(lines) + "\n", planted


class MallowsFit:
    def plan(self, seed: int) -> dict:
        rng = random.Random(seed)
        datasets = []
        for d, relphi in enumerate(PLANTED):
            phi = checks.relphi_to_phi(10, relphi)
            profiles, planted = [], []
            for _ in range(PROFILES_PER_DATASET):
                text, votes = _planted_profile(rng, phi)
                profiles.append(text)
                planted += votes
            datasets.append({
                "raw": f"raw{d}", "clean": f"clean{d}", "relphi": relphi,
                "profiles": profiles, "planted": sorted(set(planted)),
                "ingest_seed": rng.randrange(10**6), "fit_seed": rng.randrange(10**6),
            })
        return {"datasets": datasets}

    def write_inputs(self, plan: dict) -> None:
        for ds in plan["datasets"]:
            os.makedirs(ds["raw"])
            for k, text in enumerate(ds["profiles"]):
                with open(os.path.join(ds["raw"], f"profile{k}.toc"), "w", encoding="utf-8") as fh:
                    fh.write(text)

    @staticmethod
    def _ingest_argv(ds: dict) -> list[str]:
        return ["ingest", "--in", ds["raw"], "--out", ds["clean"], "--seed", str(ds["ingest_seed"])]

    @staticmethod
    def _fit_argv(ds: dict) -> list[str]:
        return ["fit-mallows", "--dataset", ds["clean"], "--grid-step", FIT_GRID_STEP,
                "--samples", FIT_SAMPLES, "--seed", str(ds["fit_seed"])]

    FRAME_ARGV = ["compass", "--m", "10", "--scale", str(FRAME_SCALE), "--out", "frame"]

    def chain(self, plan: dict):
        for ds in plan["datasets"]:
            yield self._ingest_argv(ds)
            yield self._fit_argv(ds)
        yield self.FRAME_ARGV
        yield from _map_argvs("frame", svg=False)

    def _replay_fit(self, lib, tr, ds: dict) -> str:
        """fit_mallows as documented: every grid value scored by the mean
        normalized distance of the data to its samples."""
        P = lib.prefmap
        dataset = []
        for path in _socs(ds["clean"]):
            with tr.span("ingest.parse"):
                e = lib.ingest.load_election(path)
            tr.count("ingest.ballots", e.n)
            dataset.append(e)
        with tr.span("cli.fit"):
            m = dataset[0].m
            norm = P.normalization_constant(m)
            data = []
            for e in dataset:
                with tr.span("core.tally"):
                    data.append(P.frequency_matrix(e))
                tr.count("core.matrices")
            step, samples = float(FIT_GRID_STEP), int(FIT_SAMPLES)
            grid = [min(k * step, 0.5) for k in range(int(round(0.5 / step)) + 1)]
            best = None
            for gi, relphi in enumerate(grid):
                refs = []
                for s in range(samples):
                    with tr.span("cultures.sample"):
                        e = P.sample_mallows_norm(m, N_VOTERS, relphi, ds["fit_seed"] * 10**4 + gi * 100 + s)
                    tr.count("cultures.elections")
                    with tr.span("core.tally"):
                        refs.append(P.frequency_matrix(e))
                    tr.count("core.matrices")
                per_election = []
                for dm in data:
                    total = Fraction(0)
                    for sm in refs:
                        with tr.span("metric.distance_matrix"):
                            total += P.positionwise(dm, sm).value
                    tr.count("metric.pairs", len(refs))
                    per_election.append(float(total / (samples * norm)))
                mean = sum(per_election) / len(per_election)
                if best is None or (mean, relphi) < best[:2]:
                    best = (mean, relphi, per_election)
            mean, relphi, per_election = best
            std = statistics.pstdev(per_election, mu=mean)
        return f"relphi={relphi:.4f} mean={mean:.6f} std={std:.6f}\n"

    def replay(self, plan: dict, lib, tr) -> list[dict]:
        out = []
        for ds in plan["datasets"]:
            profiles = []
            for name in sorted(os.listdir(ds["raw"])):
                with tr.span("ingest.parse"):
                    profile = lib.ingest.parse_preflib(os.path.join(ds["raw"], name))
                tr.count("ingest.ballots", profile.n)
                profiles.append(profile)
            with tr.span("ingest.pipeline"):
                elections, manifest = lib.ingest.run_pipeline(
                    profiles, lib.ingest.PRESETS["default"], ds["ingest_seed"])
            os.makedirs(ds["clean"])
            files = []
            for idx, e in enumerate(elections):
                files.append(f"sample_{idx:03d}.soc")
                with tr.span("ingest.write"):
                    lib.ingest.serialize_election(e, os.path.join(ds["clean"], files[-1]))
            manifest["files"] = files
            with open(os.path.join(ds["clean"], "manifest.json"), "w", encoding="utf-8") as fh:
                json.dump(manifest, fh)
            out.append(_outcome(self._ingest_argv(ds)))
            out.append(_outcome(self._fit_argv(ds), out=self._replay_fit(lib, tr, ds)))
        _replay_compass(lib, tr, 10, FRAME_SCALE, "frame")
        return out + [_outcome(self.FRAME_ARGV)] + _replay_map(lib, tr, "frame", svg=False)

    def check(self, plan: dict, outcomes: list[dict]) -> tuple[list[str], list[str], float]:
        problems = checks.exit_codes(outcomes, expected_failures=())
        if problems:
            return problems, [], math.nan
        fits = [o for o in outcomes if o["argv"][0] == "fit-mallows"]
        for ds, fit in zip(plan["datasets"], fits):
            problems += checks.ingest_output(ds["clean"], CLEAN_FILES, N_VOTERS,
                                             {tuple(v) for v in ds["planted"]})
            problems += checks.fit_line(fit["out"], ds["relphi"], FIT_TOLERANCE)
        map_problems, failures, stress = _check_map("frame", 10, svg=False)
        return problems + map_problems, failures, stress


# ---------------------------------------------------------------------------
# large_m


class LargeM:
    PERM_ARGV = ["recover", "--matrix", "perm.csv", "--out", "perm.soc"]
    FRAME_ARGV = ["compass", "--m", str(PATH_M), "--scale", str(FRAME_SCALE), "--out", "frame"]

    def plan(self, seed: int) -> dict:
        rng = random.Random(seed)
        return {"elections": [_election(rng, c, LARGE_M, f"{c}-{LARGE_M}.soc") for c in LARGE_SAMPLES]}

    def write_inputs(self, plan: dict) -> None:
        with open("perm.csv", "w", encoding="utf-8") as fh:
            for pos in range(len(PERM)):
                fh.write(",".join("1" if PERM[pos] == c else "0" for c in range(len(PERM))) + "\n")

    @staticmethod
    def _distance_argv(plan: dict) -> list[str]:
        anchors = [os.path.join("anchors", f"{k}.csv") for k in CORNERS]
        return ["distance-matrix", "--inputs", *anchors, *[e["file"] for e in plan["elections"]],
                "--out", "dist.csv", "--sidecar", "dist_exact.csv"]

    @staticmethod
    def _recover_argvs() -> list[list[str]]:
        """Every path point of the frame, recovered as a 100-voter election."""
        return [["recover", "--matrix", os.path.join("frame", row["file"]), "--n", str(N_VOTERS),
                 "--out", f"recovered-{_label(row['file'])}.soc"]
                for row in _manifest("frame") if row["label"] != row["pair"]]

    def chain(self, plan: dict):
        yield ["compass", "--m", str(LARGE_M), "--scale", "0", "--out", "anchors"]
        for e in plan["elections"]:
            yield e["argv"]
        yield self._distance_argv(plan)
        yield self.FRAME_ARGV
        yield from _map_argvs("frame", svg=False)
        yield from self._recover_argvs()
        yield self.PERM_ARGV

    def _replay_recover(self, lib, tr, argv: list[str]) -> dict:
        P = lib.prefmap
        path, out = argv[argv.index("--matrix") + 1], argv[argv.index("--out") + 1]
        with tr.span("matrixio.read"):
            x = lib.matrixio.read_matrix_csv(path)
        tr.count("matrixio.files")
        if isinstance(x, P.PositionMatrix):
            pos = x
        elif "--n" in argv:
            with tr.span("recovery.round"):
                pos = P.round_position_matrix(x, int(argv[argv.index("--n") + 1]))
        else:
            return _outcome(argv, 1, err="recover: a frequency matrix needs --n voters")
        with tr.span("recovery.decompose"):
            e = P.election_from_position_matrix(pos)
        tr.count("recovery.elections")
        tr.count("recovery.distinct_votes", len(e.votes))
        with tr.span("ingest.write"):
            lib.ingest.serialize_election(e, out)
        return _outcome(argv)

    def replay(self, plan: dict, lib, tr) -> list[dict]:
        _replay_compass(lib, tr, LARGE_M, 0, "anchors")
        out = [_outcome(["compass"])]
        for e in plan["elections"]:
            _replay_generate(lib, tr, e)
            out.append(_outcome(e["argv"]))
        argv = self._distance_argv(plan)
        _replay_distance_matrix(lib, tr, argv[2:-4], argv[-3], argv[-1])
        out.append(_outcome(argv))
        _replay_compass(lib, tr, PATH_M, FRAME_SCALE, "frame")
        out += [_outcome(self.FRAME_ARGV)] + _replay_map(lib, tr, "frame", svg=False)
        return out + [self._replay_recover(lib, tr, a) for a in self._recover_argvs() + [self.PERM_ARGV]]

    def check(self, plan: dict, outcomes: list[dict]) -> tuple[list[str], list[str], float]:
        perm = [o for o in outcomes if o["argv"] == self.PERM_ARGV]
        failing = [o for o in perm if o["rc"] != 0]
        problems = checks.exit_codes(outcomes, expected_failures=failing)
        for o in failing:
            if o["rc"] != 1 or "needs --n" not in o["err"]:
                problems.append(f"recover of perm.csv failed another way: {o['rc']} {o['err']!r}")
        if problems:
            return problems, [], math.nan
        failures = [f"recover of perm.csv: {o['err'].strip()}" for o in failing]
        if not failing:
            problems += checks.one_vote("perm.soc", PERM)
        mats = {}
        for k in CORNERS:
            x = checks.read_rational_csv(os.path.join("anchors", f"{k}.csv"))
            if x != checks.anchor(k, LARGE_M):
                problems.append(f"anchors/{k}.csv is not the {k} matrix")
            mats[k] = [[float(v) for v in row] for row in x]
        for e in plan["elections"]:
            soc = checks.read_soc(e["file"])
            problems += checks.strict_complete(e["file"], soc, LARGE_M, N_VOTERS)
            mats[_label(e["file"])] = checks.frequency(soc)
        labels, exact = checks.read_exact_csv("dist_exact.csv")
        problems += checks.distances("dist.csv", mats, exact_labels=labels, exact=exact)
        problems += checks.closed_forms(labels, exact, LARGE_M)
        map_problems, map_failures, stress = _check_map("frame", PATH_M, svg=False)
        for argv in self._recover_argvs():
            x = checks.read_rational_csv(argv[2])
            problems += checks.recovered(argv[-1], x, N_VOTERS)
        return problems + map_problems, failures + map_failures, stress


WORKLOADS = {"compass_map": CompassMap(), "mallows_fit": MallowsFit(), "large_m": LargeM()}
