from __future__ import annotations

import json
import os
import subprocess
import sys
from xml.etree import ElementTree

import pytest

import oracles
from prefmap import ingest
from prefmap.cli import fit_mallows, main
from prefmap.compass import compass_matrix
from prefmap.matrixio import read_matrix_csv, write_matrix_csv


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_corner(tmp_path, kind, m=4, name=None):
    path = tmp_path / (name or f"{kind.lower()}.csv")
    write_matrix_csv(compass_matrix(kind, m).matrix, path)
    return str(path)


def test_no_arguments_prints_usage(capsys):
    code, out, err = run(capsys)
    assert code == 1
    assert "usage" in err.lower()


def test_unknown_subcommand_fails(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    assert err


CULTURE_FLAGS = {
    "ic": [],
    "urn": ["--alpha", "1.0"],
    "urn-gamma": [],
    "mallows": ["--phi", "0.5"],
    "mallows-norm": ["--relphi", "0.3"],
    "conitzer": [],
    "walsh": [],
    "hypercube": ["--dim", "3"],
}


@pytest.mark.parametrize("culture", sorted(CULTURE_FLAGS))
def test_generate_produces_loadable_election(capsys, tmp_path, culture):
    out = tmp_path / f"{culture}.soc"
    code, _, _ = run(
        capsys, "generate", "--culture", culture, "--m", "4", "--n", "7",
        "--seed", "5", "--out", str(out), *CULTURE_FLAGS[culture],
    )
    assert code == 0
    text = out.read_text()
    assert text.startswith("#")
    assert f"culture={culture}" in text
    election = ingest.load_election(out)
    assert election.m == 4 and election.n == 7


def test_generate_missing_parameter_fails(capsys, tmp_path):
    code, _, err = run(
        capsys, "generate", "--culture", "mallows", "--m", "3", "--n", "2",
        "--out", str(tmp_path / "x.soc"),
    )
    assert code == 1
    assert "phi" in err


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_generate_urn_rejects_non_finite_alpha(capsys, tmp_path, alpha):
    out = tmp_path / "urn.soc"
    code, _, err = run(
        capsys, "generate", "--culture", "urn", "--m", "3", "--n", "5",
        "--alpha", alpha, "--out", str(out),
    )
    assert code == 1
    assert f"alpha must be a finite nonnegative number, got {alpha}" in err
    assert not out.exists()


def test_distance_reports_decimal_and_exact(capsys, tmp_path):
    a = write_corner(tmp_path, "ID")
    b = write_corner(tmp_path, "UN")
    code, out, _ = run(capsys, "distance", "--a", a, "--b", b)
    assert code == 0
    assert out.strip() == "5 (exact 5/1)"
    code, out, _ = run(capsys, "distance", "--a", a, "--b", b, "--normalized")
    assert code == 0
    assert out.strip() == "1 (exact 1/1)"


def test_distance_accepts_election_files(capsys, tmp_path):
    soc = tmp_path / "e.soc"
    run(capsys, "generate", "--culture", "ic", "--m", "4", "--n", "6",
        "--out", str(soc))
    a = write_corner(tmp_path, "AN")
    code, out, _ = run(capsys, "distance", "--a", str(soc), "--b", a)
    assert code == 0
    assert "(exact " in out
    code, out, _ = run(capsys, "distance", "--a", str(soc), "--b", str(soc))
    assert code == 0
    assert out.strip() == "0 (exact 0/1)"


def test_distance_matrix_with_sidecar(capsys, tmp_path):
    paths = [write_corner(tmp_path, kind) for kind in ("ID", "UN", "AN")]
    out = tmp_path / "distances.csv"
    side = tmp_path / "distances_exact.csv"
    code, _, _ = run(
        capsys, "distance-matrix", "--inputs", *paths,
        "--out", str(out), "--sidecar", str(side),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "id,id,un,an"
    assert lines[1].split(",")[0] == "id"
    assert lines[1].split(",")[2] == "5"
    exact = side.read_text().splitlines()
    assert exact[1].split(",")[2] == "5"
    assert exact[1].split(",")[1] == "0"


def test_distance_matrix_accepts_elections(capsys, tmp_path):
    soc = tmp_path / "e.soc"
    run(capsys, "generate", "--culture", "ic", "--m", "3", "--n", "4",
        "--out", str(soc))
    a = write_corner(tmp_path, "ID", m=3)
    out = tmp_path / "d.csv"
    code, _, _ = run(capsys, "distance-matrix", "--inputs", str(soc), a,
                     "--out", str(out))
    assert code == 0
    assert len(out.read_text().splitlines()) == 3


def test_distance_matrix_rejects_mixed_sizes(capsys, tmp_path):
    soc = tmp_path / "e.soc"
    run(capsys, "generate", "--culture", "ic", "--m", "4", "--n", "5",
        "--out", str(soc))
    paths = [str(soc), write_corner(tmp_path, "ID", m=4), write_corner(tmp_path, "UN", m=3)]
    out = tmp_path / "d.csv"
    code, _, err = run(capsys, "distance-matrix", "--inputs", *paths, "--out", str(out))
    assert code == 1
    assert "matrix sizes differ: 4 vs 3" in err
    assert not out.exists()


def test_recover_from_position_matrix(capsys, tmp_path):
    from prefmap.core import Election, position_matrix

    election = Election(
        candidates=("a", "b", "c"),
        votes=((0, 1, 2), (1, 0, 2), (2, 0, 1)),
        multiplicities=(3, 1, 2),
    )
    src = tmp_path / "pos.csv"
    write_matrix_csv(position_matrix(election), src)
    out = tmp_path / "rec.soc"
    code, _, _ = run(capsys, "recover", "--matrix", str(src), "--out", str(out))
    assert code == 0
    recovered = ingest.load_election(out)
    assert recovered.m == 3 and recovered.n == 6
    assert position_matrix(recovered).entries == position_matrix(election).entries


def test_recover_from_frequency_needs_n(capsys, tmp_path):
    matrix = compass_matrix("AN", 2).matrix
    path = tmp_path / "an.csv"
    write_matrix_csv(matrix, path)
    code, _, err = run(capsys, "recover", "--matrix", str(path),
                       "--out", str(tmp_path / "an.soc"))
    assert code == 1
    assert "--n" in err
    out = tmp_path / "an.soc"
    code, _, _ = run(capsys, "recover", "--matrix", str(path), "--n", "2",
                     "--out", str(out))
    assert code == 0
    assert ingest.load_election(out).n == 2


def test_recover_permutation_matrix_is_one_vote(capsys, tmp_path):
    from prefmap.core import position_matrix

    vote = (2, 0, 3, 1)
    path = tmp_path / "perm.csv"
    path.write_text("".join(
        ",".join("1" if vote[i] == c else "0" for c in range(4)) + "\n"
        for i in range(4)
    ))
    out = tmp_path / "perm.soc"
    code, _, _ = run(capsys, "recover", "--matrix", str(path), "--out", str(out))
    assert code == 0
    election = ingest.load_election(out)
    assert election.n == 1 and election.votes == (vote,)
    code, _, _ = run(capsys, "recover", "--matrix", str(path), "--n", "3",
                     "--out", str(out))
    assert code == 0
    election = ingest.load_election(out)
    assert election.n == 3
    assert position_matrix(election).entries[0] == (0, 0, 3, 0)


def test_recover_rejects_exponent_notation(capsys, tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("1e300,0\n0,1e300\n")
    code, _, err = run(capsys, "recover", "--matrix", str(path), "--out", str(tmp_path / "x.soc"))
    assert code == 1
    assert "'1e300'" in err
    assert not (tmp_path / "x.soc").exists()


def test_compass_scale_zero_writes_corners(capsys, tmp_path):
    out = tmp_path / "compass"
    code, _, _ = run(capsys, "compass", "--m", "4", "--scale", "0",
                     "--out", str(out))
    assert code == 0
    manifest = (out / "manifest.csv").read_text().splitlines()
    assert manifest[0] == "label,pair,alpha,file"
    assert len(manifest) == 5
    csvs = sorted(p.name for p in out.glob("*.csv") if p.name != "manifest.csv")
    assert csvs == ["AN.csv", "ID.csv", "ST.csv", "UN.csv"]
    matrix = read_matrix_csv(out / "ID.csv")
    assert matrix.entries[0][0] == 1  # compass matrices are frequency-normalized


def test_compass_odd_m_fails(capsys, tmp_path):
    code, _, err = run(capsys, "compass", "--m", "5", "--out", str(tmp_path / "c"))
    assert code == 1
    assert err


def test_mallows_table_known_value(capsys):
    code, out, _ = run(capsys, "mallows-table", "--m-list", "5,10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rel-phi\tm=5\tm=10"
    assert len(lines) == 12
    row = {ln.split("\t")[0]: ln.split("\t") for ln in lines[1:]}
    assert row["0.20"][2] == "0.572"
    assert row["0.25"][1] == "0.504"
    assert row["0.00"][1] == "0.000"
    assert row["0.50"][2] == "1.000"


def make_profiles_dir(tmp_path, count=3):
    # default preset keeps only profiles with at least 10 candidates
    indir = tmp_path / "profiles"
    indir.mkdir()
    from prefmap.cultures import CultureSpec, sample

    for i in range(count):
        election = sample(CultureSpec(tag="IC", m=10, n=12, seed=100 + i))
        ingest.serialize_election(election, indir / f"p{i}.soc")
    return indir


def test_ingest_end_to_end(capsys, tmp_path):
    indir = make_profiles_dir(tmp_path)
    out = tmp_path / "ingested"
    code, _, _ = run(capsys, "ingest", "--in", str(indir), "--out", str(out),
                     "--seed", "3")
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["preset"] == "default"
    assert len(manifest["files"]) == len(manifest["samples"])
    assert all(rec["kept"] for rec in manifest["profiles"])
    for fname in manifest["files"]:
        election = ingest.load_election(out / fname)
        assert election.m == 10 and election.n == 100


def test_ingest_unknown_preset_fails(capsys, tmp_path):
    indir = make_profiles_dir(tmp_path, count=1)
    code, _, err = run(capsys, "ingest", "--in", str(indir),
                       "--out", str(tmp_path / "o"), "--preset", "nope")
    assert code == 1
    assert "preset" in err


def test_embed_writes_svg_and_coords(capsys, tmp_path):
    compass_dir = tmp_path / "compass"
    run(capsys, "compass", "--m", "4", "--scale", "0", "--out", str(compass_dir))
    inputs = [str(compass_dir / f"{k}.csv") for k in ("ID", "UN", "ST", "AN")]
    dist = tmp_path / "d.csv"
    run(capsys, "distance-matrix", "--inputs", *inputs, "--out", str(dist))
    svg = tmp_path / "map.svg"
    coords = tmp_path / "coords.csv"
    code, _, _ = run(capsys, "embed", "--distances", str(dist),
                     "--svg", str(svg), "--coords", str(coords), "--seed", "2")
    assert code == 0
    ElementTree.parse(svg)
    lines = coords.read_text().splitlines()
    assert lines[0] == "id,x,y,group"
    assert len(lines) == 5


def test_embed_reads_distance_rows_by_label(capsys, tmp_path):
    rows = {"a": "a,0,1,2", "b": "b,1,0,1.5", "c": "c,2,1.5,0"}
    coords = []
    for order in ("abc", "bac"):
        dist = tmp_path / f"{order}.csv"
        dist.write_text("id,a,b,c\n" + "".join(rows[k] + "\n" for k in order))
        coords.append(tmp_path / f"{order}-coords.csv")
        code, _, _ = run(capsys, "embed", "--distances", str(dist),
                         "--coords", str(coords[-1]))
        assert code == 0
    assert coords[0].read_text() == coords[1].read_text()

    for body, label in (("a,0,1\nz,1,0\n", "'z'"), ("a,0,1\na,1,0\n", "'a'")):
        dist = tmp_path / "bad.csv"
        dist.write_text("id,a,b\n" + body)
        code, _, err = run(capsys, "embed", "--distances", str(dist),
                           "--coords", str(tmp_path / "bad-coords.csv"))
        assert code == 1
        assert label in err


@pytest.mark.parametrize("cell", ["inf", "nan", "x"])
@pytest.mark.parametrize("header", ["", "id,a,b\n"])
def test_embed_rejects_bad_distance_cells(capsys, tmp_path, cell, header):
    labels = ("a,", "b,") if header else ("", "")
    dist = tmp_path / "d.csv"
    dist.write_text(f"{header}{labels[0]}0,{cell}\n{labels[1]}{cell},0\n")
    code, _, err = run(capsys, "embed", "--distances", str(dist),
                       "--coords", str(tmp_path / "coords.csv"))
    assert code == 1
    assert str(dist) in err and repr(cell) in err
    assert "finite" in err


def test_embed_without_outputs_fails(capsys, tmp_path):
    dist = tmp_path / "d.csv"
    dist.write_text("0,1\n1,0\n")
    code, _, err = run(capsys, "embed", "--distances", str(dist))
    assert code == 1
    assert "--svg" in err


def mallows_dataset(tmp_path):
    from prefmap.cultures import CultureSpec, sample

    dataset = tmp_path / "dataset"
    dataset.mkdir()
    for i in range(2):
        election = sample(
            CultureSpec(tag="MALLOWS_NORM", m=4, n=30, seed=50 + i, relphi=0.25)
        )
        ingest.serialize_election(election, dataset / f"d{i}.soc")
    return dataset


def test_fit_mallows_small_run(capsys, tmp_path):
    dataset = mallows_dataset(tmp_path)
    code, out, _ = run(
        capsys, "fit-mallows", "--dataset", str(dataset),
        "--grid-step", "0.25", "--samples", "2", "--seed", "1",
    )
    assert code == 0
    assert out.startswith("relphi=")
    value = float(out.split()[0].split("=")[1])
    assert value in (0.0, 0.25, 0.5)


@pytest.mark.parametrize("step", ["0", "nan", "inf", "-0.1", "0.6"])
def test_fit_mallows_rejects_bad_grid_step(capsys, tmp_path, step):
    dataset = mallows_dataset(tmp_path)
    code, _, err = run(capsys, "fit-mallows", "--dataset", str(dataset),
                       "--grid-step", step, "--samples", "1")
    assert code == 1
    assert "--grid-step" in err
    config = tmp_path / "fit.cfg"
    config.write_text(f"grid_step={step}\n")
    code, _, err = run(capsys, "fit-mallows", "--dataset", str(dataset),
                       "--config", str(config), "--samples", "1")
    assert code == 1
    assert "--grid-step" in err


def test_normalization_needs_two_candidates(capsys, tmp_path):
    from prefmap.core import Election

    one = tmp_path / "one.csv"
    one.write_text("1\n")
    code, out, _ = run(capsys, "distance", "--a", str(one), "--b", str(one))
    assert code == 0 and out.startswith("0 ")
    code, _, err = run(capsys, "distance", "--a", str(one), "--b", str(one), "--normalized")
    assert code == 1
    assert "normalization needs at least two candidates" in err

    dataset = tmp_path / "dataset"
    dataset.mkdir()
    election = Election(candidates=(0,), votes=((0,),), multiplicities=(5,))
    ingest.serialize_election(election, dataset / "d.soc")
    code, _, err = run(capsys, "fit-mallows", "--dataset", str(dataset),
                       "--grid-step", "0.5", "--samples", "1")
    assert code == 1
    assert "normalization needs at least two candidates" in err


def test_fit_mallows_matches_pairwise_oracle():
    from prefmap.cultures import sample_mallows_norm

    # mixed voter counts, so the dataset's denominators differ; grid values
    # above 1/2 sample around the reversed order
    dataset = [sample_mallows_norm(5, 20 + 7 * i, 0.3, seed=70 + i) for i in range(4)]
    grid = [0.0, 0.25, 0.3, 0.55, 0.8, 1.0]
    for seed in (0, 5):
        expected = oracles.pairwise_fit_mallows(dataset, grid, 3, seed, votes_per_sample=30)
        assert fit_mallows(dataset, grid, 3, seed, votes_per_sample=30) == expected


def test_config_file_supplies_defaults(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("# defaults\nseed=9\nn=6\n")
    out = tmp_path / "a.soc"
    code, _, _ = run(capsys, "generate", "--culture", "ic", "--m", "3", "--n", "2",
                     "--config", str(config), "--out", str(out))
    assert code == 0
    election = ingest.load_election(out)
    assert election.n == 2  # explicit --n wins over the config value
    assert "seed=9" in out.read_text()  # config fills the unspecified seed


def test_config_unknown_key_fails(capsys, tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("volume=11\n")
    code, _, err = run(capsys, "generate", "--culture", "ic", "--m", "3", "--n", "2",
                       "--config", str(config), "--out", str(tmp_path / "x.soc"))
    assert code == 1
    assert "volume" in err


def test_config_grid_step_key(capsys, tmp_path):
    dataset = mallows_dataset(tmp_path)
    config = tmp_path / "fit.cfg"
    config.write_text("grid_step=0.5\nsamples=2\n")
    code, out, _ = run(capsys, "fit-mallows", "--dataset", str(dataset),
                       "--config", str(config))
    assert code == 0
    assert float(out.split()[0].split("=")[1]) in (0.0, 0.5)
    config.write_text("grid-step=0.5\n")
    code, _, err = run(capsys, "fit-mallows", "--dataset", str(dataset),
                       "--config", str(config))
    assert code == 1
    assert "grid-step" in err


def test_generate_is_byte_reproducible(capsys, tmp_path):
    outs = []
    for name in ("first.soc", "second.soc"):
        path = tmp_path / name
        run(capsys, "generate", "--culture", "mallows", "--phi", "0.7",
            "--m", "5", "--n", "20", "--seed", "77", "--out", str(path))
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_distance_matrix_is_byte_reproducible(capsys, tmp_path):
    paths = [write_corner(tmp_path, kind) for kind in ("ID", "UN", "ST", "AN")]
    outs = []
    for name in ("d1.csv", "d2.csv"):
        out = tmp_path / name
        run(capsys, "distance-matrix", "--inputs", *paths, "--out", str(out))
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_ingest_is_byte_reproducible(capsys, tmp_path):
    indir = make_profiles_dir(tmp_path)
    manifests = []
    for sub in ("run1", "run2"):
        out = tmp_path / sub
        run(capsys, "ingest", "--in", str(indir), "--out", str(out), "--seed", "8")
        manifests.append((out / "manifest.json").read_bytes())
        manifests.append((out / "sample_000.soc").read_bytes())
    assert manifests[0] == manifests[2]
    assert manifests[1] == manifests[3]


def test_quiet_suppresses_progress(capsys, tmp_path):
    out = tmp_path / "q.soc"
    code, _, err = run(capsys, "generate", "--culture", "ic", "--m", "3", "--n", "2",
                       "--quiet", "--out", str(out))
    assert code == 0
    assert err == ""


def test_missing_file_is_reported_not_raised(capsys, tmp_path):
    code, _, err = run(capsys, "distance", "--a", str(tmp_path / "no.csv"),
                       "--b", str(tmp_path / "no2.csv"))
    assert code == 1
    assert "error" in err.lower()


def test_python_m_runs_the_cli(tmp_path):
    import prefmap

    src = os.path.dirname(os.path.dirname(os.path.abspath(prefmap.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = tmp_path / "x"
    done = subprocess.run(
        [sys.executable, "-m", "prefmap.cli", "compass", "--m", "4", "--scale", "0",
         "--out", str(out)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert (out / "manifest.csv").is_file()
