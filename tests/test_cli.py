from __future__ import annotations

import ast
import contextlib
import csv
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from unittest import mock
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import mutated
from prefmap import ingest
from prefmap.cli import UsageError, build_parser, main
from prefmap.compass import compass_matrix
from prefmap.cultures import fit_mallows, sample_mallows_norm
from prefmap.matrixio import read_matrix_csv, write_matrix_csv


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_corner(tmp_path, kind, m=4, name=None):
    path = tmp_path / (name or f"{kind.lower()}.csv")
    write_matrix_csv(compass_matrix(kind, m), path)
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


def test_distance_accepts_a_position_matrix(capsys, tmp_path):
    # integer entries make a position matrix of 3 voters, read as its frequencies
    pos = tmp_path / "pos.csv"
    pos.write_text("2,1\n1,2\n")
    code, out, err = run(capsys, "distance", "--a", str(pos), "--b", write_corner(tmp_path, "ID", m=2))
    assert (code, err) == (0, "")
    assert out == "0.666666666667 (exact 2/3)\n"


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


_UNWRITABLE = ("input {path} has the label {label!r}, which a distance table cannot hold: "
               "a comma, a line break or surrounding whitespace")


@pytest.mark.parametrize("label, fault", [
    ("ID", "inputs {first} and {path} share the label {label!r}"),
    ("a,b", _UNWRITABLE),
    ("a\nb", _UNWRITABLE),
    ("a\rb", _UNWRITABLE),
    (" ID", _UNWRITABLE),
    ("ID ", _UNWRITABLE),
    ("ID\t", _UNWRITABLE),
], ids=["repeated", "comma", "lf", "cr", "leading-space", "trailing-space", "trailing-tab"])
def test_distance_matrix_refuses_labels(capsys, tmp_path, label, fault):
    # labels are file stems, written unquoted into the table that embed reads
    # back; the check runs before any input is read, so the missing
    # b/LABEL.csv is not what fails
    (tmp_path / "a").mkdir()
    first = write_corner(tmp_path, "ID", name="a/ID.csv")
    path = str(tmp_path / "b" / f"{label}.csv")
    out = tmp_path / "d.csv"
    code, _, err = run(capsys, "distance-matrix", "--inputs", first, path,
                       write_corner(tmp_path, "UN", name="a/UN.csv"), "--out", str(out))
    assert code == 1
    assert err == f"prefmap: error: {fault.format(first=first, path=path, label=label)}\n"
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


def test_recover_position_matrix_rejects_conflicting_n(capsys, tmp_path):
    src = tmp_path / "pos.csv"
    src.write_text("2,1,0\n1,1,1\n0,1,2\n")
    out = tmp_path / "rec.soc"
    code, _, err = run(capsys, "recover", "--matrix", str(src), "--n", "5", "--out", str(out))
    assert code == 1
    assert "--n 5" in err and "3 voters" in err
    assert not out.exists()
    code, _, _ = run(capsys, "recover", "--matrix", str(src), "--n", "3", "--out", str(out))
    assert code == 0
    assert ingest.load_election(out).n == 3


def test_recover_from_frequency_needs_n(capsys, tmp_path):
    matrix = compass_matrix("AN", 2)
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


@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize("kind", ["position", "frequency", "missing"])
@pytest.mark.parametrize("given", ["flag", "config"])
def test_recover_checks_n_before_the_matrix(capsys, tmp_path, n, kind, given):
    # --n is a flag: it is checked before the matrix is read, which is
    # therefore never named, even when it does not exist
    path = tmp_path / "m.csv"
    if kind == "position":
        path.write_text("2,1,0\n1,1,1\n0,1,2\n")
    elif kind == "frequency":
        write_matrix_csv(compass_matrix("AN", 2), path)
    config = tmp_path / "n.cfg"
    config.write_text(f"n={n}\n")
    flags = ["--n", n] if given == "flag" else ["--config", str(config)]
    out = tmp_path / "rec.soc"
    code, _, err = run(capsys, "recover", "--matrix", str(path), *flags, "--out", str(out))
    assert code == 1
    assert err == f"recover: --n (config key n) must be a positive integer, got {n}\n"
    assert not out.exists()


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


def test_recover_long_augmenting_path(capsys, tmp_path):
    # the identity plus a cyclic shift: the matching's last row reaches a
    # free column only through every other row
    m = 1100
    path = tmp_path / "shift.csv"
    path.write_text("".join(
        ",".join("1" if c in (i, (i + 1) % m) else "0" for c in range(m)) + "\n"
        for i in range(m)
    ))
    out = tmp_path / "shift.soc"
    code, _, err = run(capsys, "recover", "--matrix", str(path), "--out", str(out))
    assert code == 0, err
    election = ingest.load_election(out)
    assert sorted(election.votes) == [
        tuple(range(m)), tuple((i + 1) % m for i in range(m))
    ]


# SHA-256 of `recover --n 100` of each path point of `compass --m 20
# --scale 1`, the recover inputs of the large_m benchmark, pinned: the
# rounding and the decomposition must keep every choice, ties included
_M20_RECOVERED_SHA256 = {
    "AN-ST_1_2": "da81206caedf24ff7dada6a6f4f3edc920fe25c87862605b3a330223ccc6b164",
    "ID-AN_1_2": "b9f66a9c20086a26336602342ef6f615b4ee0f2e808e468693c3599dbe0ba7a6",
    "ID-ST_1_2": "0b55518fcf800f2cc145db068f267122e03d924eaa065a321ac1b3b355b3d9da",
    "ID-UN_1_2": "e34f0e4a93f3b6b4f077152e2638bc93ebffeebbb3517d0cb204a0c724ccf90c",
    "UN-AN_1_2": "2e7110aee5653de5a2e004ff679147e78c66bc69a4e7dcb384ea025b77fad692",
    "UN-ST_1_2": "50b11dec91d118bfd941b67960d5e71c0260057be5109e5eea670944251c0245",
}


def test_recover_of_m20_path_points_is_pinned(capsys, tmp_path):
    assert run(capsys, "compass", "--m", "20", "--scale", "1", "--out", str(tmp_path))[0] == 0
    digests = {}
    for path in sorted(tmp_path.glob("*-*.csv")):
        out = tmp_path / f"{path.stem}.soc"
        assert run(capsys, "recover", "--matrix", str(path), "--n", "100", "--out", str(out))[0] == 0
        digests[path.stem] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digests == _M20_RECOVERED_SHA256


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


def test_compass_files_at_m_100_read_back_exactly(capsys, tmp_path):
    # ID against UN is (m^2 - 1) / 3; UN against UN-ST at alpha 1/7 is 6/7
    # of UN-ST = 2500, and m * scale = 70,000 puts its costs in int32
    assert run(capsys, "compass", "--m", "100", "--scale", "0", "--out", str(tmp_path / "h"))[0] == 0
    code, out, _ = run(capsys, "distance", "--a", str(tmp_path / "h" / "ID.csv"),
                       "--b", str(tmp_path / "h" / "UN.csv"))
    assert (code, out) == (0, "3333 (exact 3333/1)\n")
    assert run(capsys, "compass", "--m", "100", "--scale", "7", "--out", str(tmp_path / "h7"))[0] == 0
    code, out, _ = run(capsys, "distance", "--a", str(tmp_path / "h7" / "UN.csv"),
                       "--b", str(tmp_path / "h7" / "UN-ST_1_7.csv"))
    assert (code, out) == (0, "2142.85714286 (exact 15000/7)\n")


def test_compass_odd_m_fails(capsys, tmp_path):
    code, _, err = run(capsys, "compass", "--m", "5", "--out", str(tmp_path / "c"))
    assert code == 1
    assert err


def test_compass_negative_scale_fails_before_writing(capsys, tmp_path):
    code, out, err = run(capsys, "compass", "--m", "4", "--scale", "-1",
                         "--out", str(tmp_path / "c"))
    assert (code, out, err) == (1, "", "prefmap: error: scale must be nonnegative\n")
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("m_list", ["5,x", "1", "5,1", ",", "2.5"])
def test_mallows_table_rejects_bad_m_list(capsys, m_list):
    code, out, err = run(capsys, "mallows-table", "--m-list", m_list)
    assert code == 1 and out == ""
    assert "--m-list" in err and repr(m_list) in err


def generate_mallows_norm(capsys, tmp_path, relphi, m):
    out = tmp_path / "e.soc"
    code, _, err = run(capsys, "generate", "--culture", "mallows-norm", "--relphi", relphi,
                       "--m", str(m), "--n", "3", "--out", str(out))
    assert code == 0, err
    election = ingest.load_election(out)
    assert election.m == m and election.n == 3


def test_calibration_at_m_172(capsys, tmp_path):
    # the Mahonian counts of m = 172 overflow a float
    generate_mallows_norm(capsys, tmp_path, "0.2", 172)


def test_calibration_at_m_171_near_phi_one(capsys, tmp_path):
    # no count of m = 171 overflows a float, but the sums near phi = 1 did
    generate_mallows_norm(capsys, tmp_path, "0.49", 171)


def test_calibration_at_m_300(capsys, tmp_path):
    # Mahonian counts scaled into float range misread every phi > 1/2 here
    generate_mallows_norm(capsys, tmp_path, "0.3", 300)


def test_mallows_table_past_m_200(capsys):
    code, out, err = run(capsys, "mallows-table", "--m-list", "250,300")
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0] == "rel-phi\tm=250\tm=300" and len(lines) == 12
    for col in (1, 2):
        phis = [float(ln.split("\t")[col]) for ln in lines[1:]]
        assert phis == sorted(phis) and phis[0] == 0 and phis[-1] == 1


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


def test_ingest_output_with_a_line_break_in_a_source_name_fits(capsys, tmp_path):
    # every sample names its source in a comment; a line break in that name
    # must not end the comment, or fit-mallows cannot read the sample
    indir = make_profiles_dir(tmp_path, count=2)
    os.rename(indir / "p1.soc", indir / "p\n1.soc")
    out = tmp_path / "clean"
    code, _, err = run(capsys, "ingest", "--in", str(indir), "--out", str(out), "--seed", "1")
    assert code == 0, err
    manifest = json.loads((out / "manifest.json").read_text())
    assert any("\n" in rec["source"] for rec in manifest["samples"])
    code, stdout, err = run(capsys, "fit-mallows", "--dataset", str(out),
                            "--grid-step", "0.5", "--samples", "1")
    assert code == 0, err
    assert stdout.startswith("relphi=")


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

    for text, message in (
        ("id,a,b\na,0,1\nz,1,0\n", "row label 'z' is not in the header"),
        ("id,a,b\na,0,1\na,1,0\n", "row label 'a' is repeated"),
        ("id,a,a\na,0,1\na,1,0\n", "header label 'a' is repeated"),
    ):
        dist = tmp_path / "bad.csv"
        dist.write_text(text)
        code, _, err = run(capsys, "embed", "--distances", str(dist),
                           "--coords", str(tmp_path / "bad-coords.csv"))
        assert code == 1
        assert message in err


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


@pytest.mark.parametrize("text, message", [
    ("", "empty distance file"),
    ("0,1\n1\n", "distance matrix must be square"),
], ids=["empty", "ragged"])
def test_embed_names_an_empty_or_ragged_distance_file(capsys, tmp_path, text, message):
    path = tmp_path / "d.csv"
    path.write_text(text)
    code, _, err = run(capsys, "embed", "--distances", str(path), "--coords", str(tmp_path / "xy.csv"))
    assert code == 1
    assert err == f"prefmap: error: {path}: {message}\n"
    assert not (tmp_path / "xy.csv").exists()


def test_embed_without_outputs_fails(capsys, tmp_path):
    dist = tmp_path / "d.csv"
    dist.write_text("0,1\n1,0\n")
    code, _, err = run(capsys, "embed", "--distances", str(dist))
    assert code == 1
    assert "--svg" in err


@pytest.mark.parametrize("iters", ["0", "-3"])
def test_embed_names_a_bad_iters_flag_not_the_input(capsys, tmp_path, iters):
    dist = tmp_path / "d.csv"
    dist.write_text("0,1\n1,0\n")
    code, _, err = run(capsys, "embed", "--distances", str(dist), "--iters", iters,
                       "--coords", str(tmp_path / "coords.csv"))
    assert code == 1
    assert err == f"embed: --iters (config key iters) must be a positive integer, got {iters}\n"
    config = tmp_path / "embed.cfg"
    config.write_text(f"iters={iters}\n")
    code, _, err = run(capsys, "embed", "--distances", str(dist), "--config", str(config),
                       "--coords", str(tmp_path / "coords.csv"))
    assert code == 1
    assert err == f"embed: --iters (config key iters) must be a positive integer, got {iters}\n"
    assert not (tmp_path / "coords.csv").exists()


def test_embed_checks_outputs_before_reading(capsys, tmp_path):
    missing = tmp_path / "missing.csv"
    code, _, err = run(capsys, "embed", "--distances", str(missing))
    assert code == 1
    assert err == "embed: nothing to do, pass --svg and/or --coords\n"


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


@pytest.mark.parametrize("step", ["0", "nan", "inf", "-0.1", "0.6",
                                  "5e-324", "2e-309", "2.2250738585072e-308"])
def test_fit_mallows_rejects_bad_grid_step(capsys, tmp_path, step):
    # 0.5 / step overflows below about 2.8e-309, so the bound is the least
    # normal float; the flag is refused before the dataset, here missing, is read
    config = tmp_path / "fit.cfg"
    config.write_text(f"grid_step={step}\n")
    for flags in (["--grid-step", step], ["--config", str(config)]):
        code, out, err = run(capsys, "fit-mallows", "--dataset", str(tmp_path / "nothere"),
                             *flags, "--samples", "1")
        assert (code, out) == (1, "")
        assert err == (
            "fit-mallows: --grid-step (config key grid_step) must be a number in "
            f"[2.2250738585072014e-308, 0.5], got {float(step)!r}\n"
        )


@pytest.mark.parametrize("argv, config, plain", [
    # explicit flags beat --coarse
    (["--coarse", "--samples", "3"], "", ["--grid-step", "0.01", "--samples", "3"]),
    (["--coarse", "--grid-step", "0.25"], "", ["--grid-step", "0.25", "--samples", "20"]),
    # --coarse beats the config file
    (["--coarse", "--grid-step=0.25"], "samples=3\n", ["--grid-step", "0.25", "--samples", "20"]),
    # an abbreviated explicit flag beats the config file
    (["--sam", "1"], "grid_step=0.5\nsamples=2\n", ["--grid-step", "0.5", "--samples", "1"]),
])
def test_fit_mallows_option_precedence(capsys, tmp_path, argv, config, plain):
    dataset = mallows_dataset(tmp_path)
    cfg = tmp_path / "fit.cfg"
    cfg.write_text(config)
    code, out, err = run(capsys, "fit-mallows", "--dataset", str(dataset), "--seed", "2",
                         "--config", str(cfg), *argv)
    assert code == 0, err
    expected = run(capsys, "fit-mallows", "--dataset", str(dataset), "--seed", "2", *plain)
    assert (code, out, err) == expected


@pytest.mark.parametrize("argv, flag", [
    (["--samples", "0"], "--samples"),
    (["--grid-step", "nan"], "--grid-step"),
])
def test_fit_mallows_coarse_checks_explicit_values(capsys, tmp_path, argv, flag):
    dataset = mallows_dataset(tmp_path)
    code, out, err = run(capsys, "fit-mallows", "--dataset", str(dataset), "--coarse", *argv)
    assert code == 1 and out == ""
    assert flag in err


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


def test_fit_mallows_names_a_dataset_that_mixes_candidate_counts(capsys, tmp_path):
    from prefmap.core import Election

    dataset = tmp_path / "ds"
    dataset.mkdir()
    for name, m in (("a.soc", 3), ("b.soc", 2)):
        election = Election(candidates=tuple(range(m)), votes=(tuple(range(m)),))
        ingest.serialize_election(election, dataset / name)
    code, out, err = run(capsys, "fit-mallows", "--dataset", str(dataset),
                         "--grid-step", "0.5", "--samples", "1")
    assert (code, out) == (1, "")
    assert err == f"prefmap: error: {dataset}: dataset mixes candidate counts: [2, 3]\n"
    dataset.joinpath("b.soc").unlink()  # a flag fault is not the dataset's
    code, _, err = run(capsys, "fit-mallows", "--dataset", str(dataset), "--samples", "0")
    assert (code, err) == (
        1, "fit-mallows: --samples (config key samples) must be a positive integer, got 0\n"
    )


def test_fit_mallows_checks_samples_before_the_dataset(capsys, tmp_path):
    # --samples is checked before any file is read, so a dataset that mixes
    # candidate counts is not what fails, given or from a config file
    from prefmap.core import Election

    dataset = tmp_path / "ds"
    dataset.mkdir()
    for name, m in (("a.soc", 3), ("b.soc", 2)):
        election = Election(candidates=tuple(range(m)), votes=(tuple(range(m)),))
        ingest.serialize_election(election, dataset / name)
    config = tmp_path / "fit.cfg"
    config.write_text("samples=0\n")
    for flags in (["--samples", "0"], ["--config", str(config)]):
        code, out, err = run(capsys, "fit-mallows", "--dataset", str(dataset),
                             "--grid-step", "0.5", *flags)
        assert (code, out) == (1, "")
        assert err == (
            "fit-mallows: --samples (config key samples) must be a positive integer, got 0\n"
        )
        assert f"{dataset}:" not in err


def test_fit_mallows_names_a_one_candidate_dataset(capsys, tmp_path):
    from prefmap.core import Election

    dataset = tmp_path / "ds"
    dataset.mkdir()
    ingest.serialize_election(Election(candidates=(0,), votes=((0,),)), dataset / "a.soc")
    code, out, err = run(capsys, "fit-mallows", "--dataset", str(dataset),
                         "--grid-step", "0.5", "--samples", "1")
    assert (code, out) == (1, "")
    assert err == f"prefmap: error: {dataset}: normalization needs at least two candidates\n"


@pytest.mark.parametrize("argv, kinds", [
    (["fit-mallows", "--dataset"], ".soc"),
    (["ingest", "--out", "out", "--in"], ".soc/.soi/.toc"),
], ids=["fit-mallows", "ingest"])
def test_an_empty_dataset_names_its_directory(capsys, tmp_path, argv, kinds):
    dataset = tmp_path / "ds"
    dataset.mkdir()
    (dataset / "notes.txt").write_text("no profiles here\n")
    code, out, err = run(capsys, *argv, str(dataset))
    assert (code, out) == (1, "")
    assert err == f"prefmap: error: {dataset}: no {kinds} files\n"


@pytest.mark.parametrize("argv, path, reason", [
    (["fit-mallows", "--dataset", "nothere"], "nothere", "No such file or directory"),
    (["ingest", "--in", "nothere", "--out", "out"], "nothere", "No such file or directory"),
    (["fit-mallows", "--dataset", "pos.csv"], "pos.csv", "Not a directory"),
    (["distance", "--a", "missing.csv", "--b", "c/ID.csv"], "missing.csv", "No such file or directory"),
    (["embed", "--distances", "missing.csv", "--coords", "xy.csv"], "missing.csv",
     "No such file or directory"),
    (["distance", "--a", "somedir", "--b", "c/ID.csv"], "somedir", "Is a directory"),
], ids=["dataset-missing", "ingest-missing", "dataset-is-a-file", "distance-missing",
        "embed-missing", "distance-directory"])
def test_an_unreadable_path_is_named_as_given(capsys, tmp_path, monkeypatch, argv, path, reason):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pos.csv").write_text("1\n")
    (tmp_path / "somedir").mkdir()
    assert run(capsys, "compass", "--m", "4", "--scale", "0", "--out", "c")[0] == 0
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"prefmap: error: {path}: {reason}\n"


def test_fit_mallows_grid_ends_at_one_half(capsys, tmp_path, monkeypatch):
    # the grid is every multiple of the step below 1/2, then 1/2 once; at
    # steps that divide 1/2 it is the grid of round(0.5 / step) + 1 values
    # clipped at 1/2, bit for bit
    from prefmap import cultures

    grids = []

    def spy(dataset, grid, samples, seed):
        grids.append(grid)
        return cultures.FitResult(relphi=0.0, mean_distance=0.0, std_distance=0.0)

    monkeypatch.setattr(cultures, "fit_mallows", spy)
    dataset = mallows_dataset(tmp_path)
    expected = {
        "0.2": [0.0, 0.2, 0.4, 0.5],
        "0.15": [0.0, 0.15, 0.3, 0.44999999999999996, 0.5],
        "0.3": [0.0, 0.3, 0.5],
    }
    for step in (0.5, 0.25, 0.125, 0.1, 0.05, 0.01, 0.001, 1 / 3, 0.5 / 7):
        expected[repr(step)] = [min(k * step, 0.5) for k in range(round(0.5 / step) + 1)]
    for step, grid in expected.items():
        code, out, err = run(capsys, "fit-mallows", "--dataset", str(dataset),
                             "--grid-step", step, "--samples", "1")
        assert (code, err) == (0, "")
        assert [g.hex() for g in grids.pop()] == [g.hex() for g in grid], step


def test_fit_mallows_fits_ic_data_at_one_half(capsys, tmp_path):
    # IC elections are the most dispersed: the fit takes the grid's last
    # value, 1/2, which a step of 0.2 does not reach by multiples
    dataset = tmp_path / "ic"
    dataset.mkdir()
    for seed in (1, 2, 3):
        code, _, _ = run(capsys, "generate", "--culture", "ic", "--m", "10", "--n", "100",
                         "--seed", str(seed), "--out", str(dataset / f"e{seed}.soc"))
        assert code == 0
    code, out, err = run(capsys, "fit-mallows", "--dataset", str(dataset),
                         "--grid-step", "0.2", "--samples", "2")
    assert (code, err) == (0, "")
    assert out.startswith("relphi=0.5000 ")


def test_fit_mallows_value_errors():
    from prefmap.core import Election

    one = Election(candidates=(0,), votes=((0,),))
    with pytest.raises(ValueError, match="normalization needs at least two candidates"):
        fit_mallows([one], [0.5], 1, 0)
    with pytest.raises(ValueError, match="normalization needs at least two candidates"):
        fit_mallows([one], [], 1, 0)  # m is checked before the grid
    two = Election(candidates=(0, 1), votes=((0, 1),))
    with pytest.raises(ValueError, match="n must be positive"):
        fit_mallows([two], [0.5], 1, 0, votes_per_sample=0)


def _fit_dataset():
    from prefmap.cultures import sample_mallows_norm

    # mixed voter counts, so the dataset's denominators differ
    return [sample_mallows_norm(5, 20 + 7 * i, 0.3, seed=70 + i) for i in range(4)]


def test_fit_mallows_matches_pairwise_oracle():
    dataset = _fit_dataset()
    grid = [0.0, 0.25, 0.3, 0.5]
    for seed in (0, 5):
        expected = oracles.pairwise_fit_mallows(dataset, grid, 3, seed, votes_per_sample=30)
        assert fit_mallows(dataset, grid, 3, seed, votes_per_sample=30) == expected
    # at m = 2, samples of 6 votes reduce to denominators 1, 2, 3 or 6, so the
    # pair scales of one election at one grid value can be 2 and 3: their
    # common scale is their lcm, not the largest
    tiny = [sample_mallows_norm(2, 1 + i, 0.3, seed=70 + i) for i in range(3)]
    grid = [0.1, 0.2, 0.3, 0.4, 0.5]
    expected = oracles.pairwise_fit_mallows(tiny, grid, 4, 15, votes_per_sample=6)
    assert fit_mallows(tiny, grid, 4, 15, votes_per_sample=6) == expected


def test_fit_mallows_takes_an_array_grid():
    dataset = _fit_dataset()
    grid = [0.0, 0.25, 0.5]
    expected = fit_mallows(dataset, grid, 3, 0, votes_per_sample=30)
    result = fit_mallows(dataset, np.array(grid), 3, 0, votes_per_sample=30)
    assert (result, repr(result)) == (expected, repr(expected))
    with pytest.raises(ValueError, match="grid must be nonempty"):
        fit_mallows(dataset, np.array([]), 3, 0)


@pytest.mark.parametrize("grid", [[0.5, 0.3, 0.25, 0.0], [0.25, 0.3, 0.0, 0.5]])
def test_fit_mallows_takes_the_curve_minimum_in_any_grid_order(grid):
    # the sorted grid of the oracle test, reversed and shuffled; seeds follow
    # grid positions, so the oracle runs on the same order.  A block of 24
    # pairs takes two values per group, and the best value, 0.3, falls in the
    # first group of two
    from prefmap import metric

    dataset = _fit_dataset()
    expected = oracles.pairwise_fit_mallows(dataset, grid, 3, 0, votes_per_sample=30)
    assert grid.index(expected.relphi) < 2
    assert fit_mallows(dataset, grid, 3, 0, votes_per_sample=30) == expected
    with mock.patch.object(metric, "_BLOCK", 25 * 24):
        assert fit_mallows(dataset, grid, 3, 0, votes_per_sample=30) == expected


@pytest.mark.parametrize("g, mirror", [(0.55, "0.45"), (0.8, "0.2"), (1.0, "0")])
def test_fit_mallows_rejects_mirrored_grid_values(g, mirror):
    # above 1/2 the sampler runs around the reversed order, a relabelling
    # that the distance cannot see, so g would score as 1 - g does
    with pytest.raises(ValueError, match=rf"grid value {g} is above 1/2: .* mirror {mirror}$"):
        fit_mallows(_fit_dataset(), [0.0, 0.25, g], 3, 0, votes_per_sample=30)


@pytest.mark.parametrize("block_entries, calls", [(25 * 12, 7), (25 * 30, 3), (2**16, 1)])
def test_fit_mallows_groups_grid_values_by_block(block_entries, calls):
    # 4 elections and 3 samples make 12 pairs per grid value at m = 5, so a
    # block of 12, 30 or 2621 pairs takes groups of 1, 3 or all 7 values;
    # with 3, the last group holds one value
    from prefmap import cultures, metric

    dataset = _fit_dataset()
    grid = [0.0, 0.1, 0.2, 0.25, 0.3, 0.4, 0.5]
    expected = oracles.pairwise_fit_mallows(dataset, grid, 3, 5, votes_per_sample=30)
    with mock.patch.object(metric, "_BLOCK", block_entries), mock.patch.object(
        cultures, "_values", wraps=cultures._values
    ) as spy:
        assert fit_mallows(dataset, grid, 3, 5, votes_per_sample=30) == expected
    assert spy.call_count == calls


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
    config.write_text("# defaults\nvolume=11\n")
    code, _, err = run(capsys, "generate", "--culture", "ic", "--m", "3", "--n", "2",
                       "--config", str(config), "--out", str(tmp_path / "x.soc"))
    assert code == 1
    assert f"prefmap: error: {config}: line 2: unknown key 'volume'" in err


def test_config_line_without_a_value_fails(capsys, tmp_path):
    config = tmp_path / "bare.cfg"
    config.write_text("seed\n")
    code, _, err = run(capsys, "generate", "--culture", "ic", "--m", "3", "--n", "2",
                       "--config", str(config), "--out", str(tmp_path / "x.soc"))
    assert code == 1
    assert err == f"prefmap: error: {config}: line 1: expected key=value\n"


def test_config_abbreviated_flag_wins(capsys, tmp_path):
    config = tmp_path / "c.cfg"
    config.write_text("seed=9\n")
    out = tmp_path / "a.soc"
    code, _, _ = run(capsys, "generate", "--culture", "ic", "--m", "3", "--n", "2",
                     "--config", str(config), "--se", "4", "--out", str(out))
    assert code == 0
    assert "# seed=4" in out.read_text()


def test_config_bad_value_names_the_flag(capsys, tmp_path):
    config = tmp_path / "c.cfg"
    config.write_text("scale=abc\n")
    code, _, err = run(capsys, "compass", "--m", "4", "--config", str(config),
                       "--out", str(tmp_path / "c"))
    assert code == 1
    assert "--scale" in err and "'abc'" in err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("value, quiet", [("false", False), ("0", False), ("yes", True),
                                          ("TRUE", True), ("1", True)])
def test_config_quiet_key(capsys, tmp_path, value, quiet):
    config = tmp_path / "c.cfg"
    config.write_text(f"quiet={value}\n")
    code, _, err = run(capsys, "compass", "--m", "4", "--scale", "0",
                       "--config", str(config), "--out", str(tmp_path / "c"))
    assert code == 0
    assert (err == "") == quiet


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


def _map_chain(capsys, root) -> dict[str, str]:
    """Run a small map chain in ``root`` and return the SHA-256 of every
    file it writes: the m = 6 compass, elections of every culture (the
    hypercube at dimensions 1, 3 and 12, one IC election at m = 100), the
    distance matrix of the compass and the m = 6 elections with its exact
    sidecar, the map's coordinates and a recovered path point."""
    def call(*argv):
        assert run(capsys, *argv, "--quiet")[0] == 0

    call("compass", "--m", "6", "--scale", "2", "--out", str(root / "compass"))
    runs = [(c, CULTURE_FLAGS[c]) for c in sorted(CULTURE_FLAGS)]
    runs += [("hypercube", ["--dim", "1"]), ("hypercube", ["--dim", "12"])]
    for k, (culture, flags) in enumerate(runs):
        call("generate", "--culture", culture, "--m", "6", "--n", "60", "--seed", str(k),
             "--out", str(root / f"e{k}_{culture}.soc"), *flags)
    call("generate", "--culture", "ic", "--m", "100", "--n", "30", "--seed", "3",
         "--out", str(root / "ic100.soc"))
    matrices = sorted(p for p in root.glob("compass/*.csv") if p.name != "manifest.csv")
    inputs = [str(p) for p in matrices + sorted(root.glob("e*.soc"))]
    call("distance-matrix", "--inputs", *inputs, "--out", str(root / "d.csv"),
         "--sidecar", str(root / "d_exact.csv"))
    call("embed", "--distances", str(root / "d.csv"), "--coords", str(root / "coords.csv"))
    call("recover", "--matrix", str(root / "compass" / "ID-UN_1_3.csv"), "--n", "30",
         "--out", str(root / "recovered.soc"))
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


# SHA-256 of _map_chain's files, pinned: a change to any byte of any output
# fails here
_MAP_CHAIN_SHA256 = {
    "compass/AN-ST_1_3.csv": "cc919a10a39669cef5b9aa9504f09415775ee1a10f2e445f34963bc159bc0583",
    "compass/AN-ST_2_3.csv": "a92b8684c3c0a5e21c715e1c145698a7471494ba9180406c5ce89f5da6433fac",
    "compass/AN.csv": "3babe1a2fe4799f0b4d546e93ae3d0e50ad2c6879a505a13d3fde33d77beaaab",
    "compass/ID-AN_1_3.csv": "384bf4b486c67ef441002b9c8a0f5ccbf5275bdc113fb2eb3eaab127df341ec2",
    "compass/ID-AN_2_3.csv": "ec1027197a7ae6fd50637939c7ba4986fb8baf958531a66779bc418911f87946",
    "compass/ID-ST_1_2.csv": "999a859c1964df6751b2fb4113719c277145e07cb25a9d4f57b342cf9af4b531",
    "compass/ID-UN_1_3.csv": "55bfb84880f9ad56f64198f387f208cafae2d404076d1fbc9926326e03f4f711",
    "compass/ID-UN_2_3.csv": "d5ca135498d0752bf31043c2faab7cf736db152012b283678efb1855efc9aa9b",
    "compass/ID.csv": "1d590c5ecb907136c7f267e9f7ad815c1c691627f3c44808f90f6acbab615e6f",
    "compass/ST.csv": "f03841ade2e98e5fbc1b3cd040fc01430e167417b3959da336fa999167516fa4",
    "compass/UN-AN_1_2.csv": "42f2e9569309d475a3c099eedf925b95c1961167327b97f6a8249e2743158b3a",
    "compass/UN-ST_1_3.csv": "02b20e963e290a3145c0c39673be2cbdc96dd0bf1ce0d612e63114833fdce57b",
    "compass/UN-ST_2_3.csv": "51478f64cd01331b79270f0044a90319de1c0be9e705fa45e851c2430e66277f",
    "compass/UN.csv": "af63fc6a72a51fcdeb27c71c95a737da529586865475215ba21483ebbdd3f3d8",
    "compass/manifest.csv": "81c327f93b664a982e23dcb018da48ed852c7cd01c8abd6ceb34565337473280",
    "coords.csv": "5fb1b9d9318f91afdeea1014748f9a5271e2870994467bd45a1704ceb2b2f317",
    "d.csv": "309e9430b392c5f386d91630dbc92135d4326abf8200871b94071b7572214a1a",
    "d_exact.csv": "d2a3c72765cb4aec74ef6150b6f20d3ef1a597d7fd2c58b8ed66d9d2f8c02424",
    "e0_conitzer.soc": "81ce1db604532ea12c0f9a3608ec00767e12817fa764718be5abf7b188065b0b",
    "e1_hypercube.soc": "ca9101fbe2c4d7424f62a161bb20b09d36095d91565fb2de5b840ce8f0e5d846",
    "e2_ic.soc": "3b8c78eeca3b5e9ab8f798076aa0a7666d142c7d5d79bfbf39876c99b43ea6cd",
    "e3_mallows.soc": "bce0e1a3726e8b78aafe5f977c243c32c500f75621ca981b46254b489cdd0ca2",
    "e4_mallows-norm.soc": "8b763e05cbd7b24e79c68ab5b2185d640ebfabff5a8a501637054b2680083795",
    "e5_urn.soc": "42044ca61da698cfe02301d3b254b988f02675d2ea87825fa041c3aa59dad261",
    "e6_urn-gamma.soc": "2e1896aec8b18a54da2569e2917a1319cd4127257cd1ef589d95ebc4ad08a473",
    "e7_walsh.soc": "deddb9b77ee7945a9679abbd31251bcad9f4a1a464de16e00e063307362bf2eb",
    "e8_hypercube.soc": "819b1e73295cb1c6e9c5e1636e73564bc3c03fe4065a212d02d0121b9cf91ae9",
    "e9_hypercube.soc": "8140323970c985f371650861fffa2475d1fec3608d4dec0b89a8c2d0fe389aa3",
    "ic100.soc": "5a5b06b870d6681f897f765ead30fd228a7c5939f13db2a40ab388ae8a2633e6",
    "recovered.soc": "30f5cd8ee53e6d8a5e3806944f3d3e50541cb039bd3ae5fbaa65488441088eae",
}


def test_map_chain_outputs_are_pinned(capsys, tmp_path):
    assert _map_chain(capsys, tmp_path) == _MAP_CHAIN_SHA256


def test_compass_map_chain_draws_the_compass(capsys, tmp_path):
    # compass -> distance-matrix -> embed: the map joins the points of each
    # of the six paths, with a legend entry per path, and every path point
    # carries its pair in the coordinates
    compass = tmp_path / "compass"
    assert run(capsys, "compass", "--m", "4", "--scale", "3", "--out", str(compass))[0] == 0
    inputs = sorted(str(p) for p in compass.glob("*.csv") if p.name != "manifest.csv")
    assert run(capsys, "distance-matrix", "--inputs", *inputs,
               "--out", str(tmp_path / "d.csv"))[0] == 0
    assert run(capsys, "embed", "--distances", str(tmp_path / "d.csv"),
               "--svg", str(tmp_path / "map.svg"), "--coords", str(tmp_path / "coords.csv"))[0] == 0
    svg = (tmp_path / "map.svg").read_text()
    assert svg.count("<polyline") == 6
    assert svg.count('font-size="12"') == 6  # the legend
    with open(compass / "manifest.csv", encoding="utf-8", newline="") as fh:
        pairs = {row["file"][:-4]: row["pair"] for row in csv.DictReader(fh)}
    with open(tmp_path / "coords.csv", encoding="utf-8", newline="") as fh:
        groups = {row["id"]: row["group"] for row in csv.DictReader(fh)}
    assert groups == {stem: "corner" if stem == pair else pair for stem, pair in pairs.items()}
    assert sum(group not in ("", "corner") for group in groups.values()) == 16


def test_quiet_suppresses_progress(capsys, tmp_path):
    out = tmp_path / "q.soc"
    code, _, err = run(capsys, "generate", "--culture", "ic", "--m", "3", "--n", "2",
                       "--quiet", "--out", str(out))
    assert code == 0
    assert err == ""


def test_an_internal_failure_exits_2(capsys, tmp_path, monkeypatch):
    def broken(*args):
        raise RuntimeError("broken")

    monkeypatch.setattr("prefmap.cli.cross_distances", broken)
    a = write_corner(tmp_path, "ID")
    code, out, err = run(capsys, "distance", "--a", a, "--b", a)
    assert (code, out) == (2, "")
    assert err == "prefmap: internal error: RuntimeError('broken')\n"


def test_missing_file_is_reported_not_raised(capsys, tmp_path):
    code, _, err = run(capsys, "distance", "--a", str(tmp_path / "no.csv"),
                       "--b", str(tmp_path / "no2.csv"))
    assert code == 1
    assert "error" in err.lower()


_TEN = "".join(f"{c}, c{c}\n" for c in range(1, 11))
# One valid input per command that reads a file, as (name, bytes, argv):
# "IN" stands for the input's path, "DIR" for the directory that holds it,
# "AUX" for a valid 3 x 3 matrix and "OUT" for an output path.
_FAULT_CASES = {
    "distance-csv": ("in.csv", b"1/3,2/3,0\n2/3,1/6,1/6\n0,1/6,5/6\n",
                     ["distance", "--a", "AUX", "--b", "IN"]),
    "distance-soc": ("in.soc", b"3\n1, a\n2, b\n3, c\n5, 5, 2\n3, 1,2,3\n2, 3,1,2\n",
                     ["distance", "--a", "AUX", "--b", "IN"]),
    "recover": ("in.csv", b"3,1,3\n3,3,1\n1,3,3\n", ["recover", "--matrix", "IN", "--out", "OUT"]),
    "embed": ("in.csv", b"id,a,b,c\na,0,1,2\nb,1,0,1.5\nc,2,1.5,0\n",
              ["embed", "--distances", "IN", "--coords", "OUT", "--iters", "50"]),
    # ten candidates, so the default preset keeps the profile
    "ingest": ("in.soc", f"10\n{_TEN}4, 4, 2\n3, 1,2,3,4,5,6,7,8,9,10\n"
               "1, 10,9,8,7,6,5,4,3,2,1\n".encode(), ["ingest", "--in", "DIR", "--out", "OUT"]),
    "fit-mallows": ("in.soc", b"3\n1, a\n2, b\n3, c\n5, 5, 2\n3, 1,2,3\n2, 3,1,2\n",
                    ["fit-mallows", "--dataset", "DIR", "--grid-step", "0.5", "--samples", "1"]),
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_FAULT_CASES)).flatmap(
    lambda case: mutated(_FAULT_CASES[case][1]).map(lambda data: (case, data))))
def test_an_input_fault_names_its_file(case_data):
    # a command given an edited input succeeds, or exits 1 naming the
    # input once; only a fault between two inputs may name neither
    case, data = case_data
    name, _, argv = _FAULT_CASES[case]
    with tempfile.TemporaryDirectory() as tmp:
        folder = os.path.join(tmp, "input")
        os.mkdir(folder)
        path = os.path.join(folder, name)
        with open(path, "wb") as fh:
            fh.write(data)
        aux = os.path.join(tmp, "aux.csv")
        write_matrix_csv(compass_matrix("ID", 3), aux)
        where = {"IN": path, "DIR": folder, "AUX": aux, "OUT": os.path.join(tmp, "out")}
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([where.get(arg, arg) for arg in argv])
    err = err.getvalue()
    assert code in (0, 1), err
    assert "Traceback" not in err and "Fraction(" not in err, err
    if code == 1:
        # ingest names its input directory for a fault of the whole dataset
        named = path if path in err or case != "ingest" else folder
        if named in err:
            assert err.startswith(f"prefmap: error: {named}: ") and err.count(named) == 1, err
        else:
            assert "matrix sizes differ" in err, err


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["embed", "--coords", "xy.csv", "--distances"], "0,1\n2,0\n",
         "distance matrix must be symmetric"),
        (["embed", "--coords", "xy.csv", "--distances"], "1,1\n1,0\n", "diagonal must be zero"),
        (["recover", "--out", "r.soc", "--matrix"], "1/2,1/2\n1,0\n",
         "frequency matrix column 0 sums to 3/2, expected 1"),
        # three candidates: the default preset, which wants ten, drops the profile
        (["ingest", "--out", "out", "--in"], "3\n1, a\n2, b\n3, c\n1, 1, 1\n1, 1,2,3\n",
         "no profile survived the pipeline filters"),
    ],
)
def test_faults_after_reading_name_the_input(capsys, tmp_path, monkeypatch, argv, text, message):
    monkeypatch.chdir(tmp_path)
    folder = tmp_path / "input"
    folder.mkdir()
    path = folder / ("in.soc" if argv[0] == "ingest" else "in.csv")
    path.write_text(text)
    named = folder if argv[0] == "ingest" else path
    code, _, err = run(capsys, *argv, str(named))
    assert code == 1
    assert err == f"prefmap: error: {named}: {message}\n"


def readme_block(section, language):
    """The first ``language`` code block under README's ``## section``."""
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read().split(f"## {section}", 1)[1].split("\n## ", 1)[0]
    return text.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_command_lines_parse():
    block = readme_block("Command line", "sh")
    lines = [ln for ln in block.splitlines() if ln.startswith("prefmap ")]
    assert len(lines) >= 9
    parser = build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])  # a stale flag raises UsageError
        assert args.command == line.split()[1]


# each subcommand's required flags
REQUIRED_FLAGS = {
    "generate": ["--culture", "ic", "--m", "3", "--n", "2", "--out", "x.soc"],
    "distance": ["--a", "x.csv", "--b", "y.csv"],
    "distance-matrix": ["--inputs", "x.csv", "y.csv", "--out", "d.csv"],
    "recover": ["--matrix", "x.csv", "--out", "x.soc"],
    "compass": ["--m", "4", "--out", "out"],
    "mallows-table": [],
    "ingest": ["--in", "raw", "--out", "out"],
    "embed": ["--distances", "d.csv"],
    "fit-mallows": ["--dataset", "data"],
}


def parse_outcome(capsys, parser, argv):
    """What parsing ``argv`` prints, raises or returns."""
    try:
        result = ("parsed", vars(parser.parse_args(argv)))
    except SystemExit as exc:
        result = ("exit", exc.code)
    except UsageError as exc:
        result = ("usage error", str(exc))
    return result, capsys.readouterr()


@pytest.mark.parametrize("command", sorted(REQUIRED_FLAGS))
def test_one_command_parser_matches_full_parser(capsys, command):
    required = REQUIRED_FLAGS[command]
    for argv in (
        [command, "--help"],
        [command] + required[:-2],  # the last required flag missing
        [command] + required + ["--bogus"],  # left to the top-level parser
        [command] + required + ["--seed", "x"],
        [command] + required,
    ):
        full = parse_outcome(capsys, build_parser(), argv)
        assert parse_outcome(capsys, build_parser(command), argv) == full
    assert sorted(build_parser().commands) == sorted(REQUIRED_FLAGS)
    assert list(build_parser(command).commands) == [command]


def test_readme_library_tour_runs():
    block = readme_block("Library tour", "python")
    exec(compile(block, "README.md", "exec"), {})  # a removed name raises here
    # every name the tour imports is also used by it
    nodes = list(ast.walk(ast.parse(block)))
    imported = {
        a.asname or a.name.split(".")[0]
        for n in nodes if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names
    }
    loaded = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    assert imported - loaded == set()


# The audited public surface.  Each name but __version__ is called, or
# returned, by a command, the README tour or the benchmark; CHANGES.md
# records which.  A new public name needs such a user too.
_PUBLIC_API = {
    "Election", "FrequencyMatrix", "PositionMatrix", "frequency_from_position",
    "frequency_matrix", "position_matrix", "DistanceRecord", "cross_distances",
    "distance_matrix", "normalization_constant", "normalized", "positionwise",
    "election_from_frequency_matrix", "election_from_position_matrix",
    "round_position_matrix", "compass_matrix", "convex_combination", "full_compass",
    "normalized_limit", "path_points", "CultureSpec", "FitResult", "fit_mallows",
    "relphi_to_phi", "sample", "sample_mallows_norm", "MapLayout", "embed_distances",
    "render_svg", "write_coordinates", "__version__",
}


def test_public_api_names_resolve():
    import prefmap

    assert len(set(prefmap.__all__)) == len(prefmap.__all__) == 31
    assert set(prefmap.__all__) == _PUBLIC_API
    for name in prefmap.__all__:
        assert hasattr(prefmap, name), name
        # the command line is a client of the library, not a home for it
        assert getattr(getattr(prefmap, name), "__module__", None) != "prefmap.cli", name
    # the benchmark replays its chains through these names
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "workloads.py"), encoding="utf-8") as fh:
        reached = set(re.findall(r"\b(?:P|lib\.prefmap)\.(\w+)", fh.read()))
    assert len(reached) >= 10, sorted(reached)
    for name in sorted(reached):
        assert hasattr(prefmap, name), name


def _child_env(**settings) -> dict[str, str]:
    """This environment plus ``settings``, with this package first on the path."""
    import prefmap

    src = os.path.dirname(os.path.dirname(os.path.abspath(prefmap.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **settings}


def test_python_m_runs_the_cli(tmp_path):
    out = tmp_path / "x"
    done = subprocess.run(
        [sys.executable, "-m", "prefmap.cli", "compass", "--m", "4", "--scale", "0",
         "--out", str(out)],
        env=_child_env(), capture_output=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert (out / "manifest.csv").is_file()


def test_map_does_not_depend_on_the_blas_thread_count(tmp_path):
    # 150 random points in 5-D, a size at which BLAS would split a product
    # between two threads and round it differently
    points = np.random.default_rng(0).random((150, 5))
    d = np.sqrt(((points[:, None] - points[None]) ** 2).sum(axis=2))
    (tmp_path / "d.csv").write_text("".join(",".join(map(repr, row)) + "\n" for row in d.tolist()))
    coords = []
    for threads in ("1", "2"):
        out = tmp_path / f"coords{threads}.csv"
        done = subprocess.run(
            [sys.executable, "-m", "prefmap.cli", "embed", "--distances", str(tmp_path / "d.csv"),
             "--coords", str(out), "--quiet"],
            env=_child_env(OPENBLAS_NUM_THREADS=threads), capture_output=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        coords.append(out.read_bytes())
    assert coords[0] == coords[1]
