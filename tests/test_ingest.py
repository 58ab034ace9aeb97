from __future__ import annotations

import bisect
import dataclasses
import hashlib
import inspect
import itertools
import json
import os
import random
import re
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import MULTIPLICITIES, mutated
from prefmap.cli import main
from prefmap.core import Election
from prefmap.ingest import (
    MIN_CANDIDATES,
    PRESETS,
    SAMPLES_PER_DATASET,
    TOP_K,
    VOTES_PER_SAMPLE,
    PartialProfile,
    PartialVote,
    PipelineConfig,
    _parse_vote_line,
    complete_votes,
    load_election,
    parse_preflib,
    prune_to_coverage,
    run_pipeline,
    sample_dataset,
    select_top_k,
    serialize_election,
)


def _format_vote(vote: PartialVote) -> str:
    parts = []
    for group in vote:
        if len(group) == 1:
            parts.append(str(group[0]))
        else:
            parts.append("{" + ",".join(str(c) for c in group) + "}")
    return ",".join(parts)


def serialize_profile(profile: PartialProfile, path, comments=()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        fh.write(f"{profile.m}\n")
        for cid in profile.candidates:
            fh.write(f"{cid}, {profile.names.get(cid, f'c{cid}')}\n")
        fh.write(f"{profile.n}, {profile.n}, {len(profile.votes)}\n")
        for vote, count in zip(profile.votes, profile.multiplicities):
            fh.write(f"{count}, {_format_vote(vote)}\n")


STRICT_FILE = """# source: synthetic
3
1, Alpha
2, Beta, the second
3, Gamma
5, 5, 2
3, 1,2,3
2, 3,1,2
"""

PARTIAL_FILE = """4
1, a
2, b
3, c
4, d
6, 6, 3
3, 1, {2,3}
2, 2,1,4,3
1, 4
"""


def strict_profile(votes, mults, m):
    return PartialProfile(
        candidates=tuple(range(1, m + 1)),
        votes=tuple(tuple((c,) for c in v) for v in votes),
        multiplicities=tuple(mults),
        names={i: f"c{i}" for i in range(1, m + 1)},
    )


def test_parse_strict_complete(tmp_path):
    path = tmp_path / "e.soc"
    path.write_text(STRICT_FILE)
    profile = parse_preflib(path)
    assert profile.m == 3
    assert profile.candidates == (1, 2, 3)
    assert profile.names[2] == "Beta, the second"
    assert profile.votes == (((1,), (2,), (3,)), ((3,), (1,), (2,)))
    assert profile.multiplicities == (3, 2)
    assert profile.n == 5


def test_parse_ties_and_partial(tmp_path):
    path = tmp_path / "e.toc"
    path.write_text(PARTIAL_FILE)
    profile = parse_preflib(path)
    assert profile.votes[0] == ((1,), (2, 3))
    assert profile.votes[1] == ((2,), (1,), (4,), (3,))
    assert profile.votes[2] == ((4,),)
    assert profile.n == 6


@pytest.mark.parametrize(
    "mutation, message_part",
    [
        (lambda s: s.replace("5, 5, 2", "5, 5, 3"), "distinct"),
        (lambda s: s.replace("5, 5, 2", "5, 6, 2"), "sum"),
        (lambda s: s.replace("5, 5, 2", "4, 5, 2"), "voter count"),
        (lambda s: s.replace("3, 1,2,3", "0, 1,2,3"), "count"),
        (lambda s: s.replace("3, 1,2,3", "3, 1,2,9"), "unknown candidate"),
        (lambda s: s.replace("3, 1,2,3", "3, 1,2,1"), "repeated"),
        (lambda s: "\n".join(s.splitlines()[:3]) + "\n", "truncated"),
        (lambda s: s.replace("\n3\n", "\nx\n"), "line 2: bad candidate count 'x'"),
        (lambda s: s.replace("3, Gamma", "3 Gamma"), "line 5: expected 'id, name'"),
        (lambda s: s.replace("5, 5, 2", "5, 5"), "line 6: expected 'voters, sum, distinct'"),
        (lambda s: s.replace("Gamma", "Gamma\udcff"), "'utf-8' codec can't decode byte 0xff"),
    ],
)
def test_parse_rejects_malformed(tmp_path, mutation, message_part):
    path = tmp_path / "bad.soc"
    path.write_text(mutation(STRICT_FILE), errors="surrogateescape")
    for read in (parse_preflib, load_election):
        with pytest.raises(ValueError) as err:
            read(path)
        # the file is named once, at the start
        assert str(err.value).startswith(f"{path}: ") and str(err.value).count(str(path)) == 1
        assert message_part in str(err.value)


def test_parse_rejects_bad_braces(tmp_path):
    for vote_line in ("3, 1, {2,3", "3, 1, {2,{3}}", "3, 1, {}, 2"):
        text = "3\n1, a\n2, b\n3, c\n3, 3, 1\n" + vote_line + "\n"
        path = tmp_path / "bad.toc"
        path.write_text(text)
        with pytest.raises(ValueError):
            parse_preflib(path)


def test_profile_round_trip(tmp_path):
    src = tmp_path / "in.toc"
    src.write_text(PARTIAL_FILE)
    profile = parse_preflib(src)
    out = tmp_path / "out.toc"
    serialize_profile(profile, out, comments=["round trip"])
    again = parse_preflib(out)
    assert again.candidates == profile.candidates
    assert again.votes == profile.votes
    assert again.multiplicities == profile.multiplicities
    assert again.names == profile.names


def test_election_serialization_round_trip(tmp_path):
    e = Election(
        candidates=("x", "y", "z"),
        votes=((0, 1, 2), (2, 1, 0), (0, 1, 2)),
    )
    path = tmp_path / "e.soc"
    serialize_election(e, path, comments=["synthetic"])
    back = load_election(path)
    assert back.m == 3
    assert back.n == 3
    # ids are positional, so votes translate directly
    assert back.vote_counter() == Counter({(0, 1, 2): 2, (2, 1, 0): 1})


@pytest.mark.parametrize("brk", ["\n", "\r", "\r\n"])
def test_a_comment_with_a_line_break_reads_back(tmp_path, brk):
    # each line of a comment is a comment line of its own: "1.soc" would
    # otherwise read as the candidate count
    e = Election(candidates=("x", "y", "z"), votes=((0, 1, 2), (2, 1, 0), (0, 1, 2)))
    plain, broken = tmp_path / "plain.soc", tmp_path / "broken.soc"
    serialize_election(e, plain)
    serialize_election(e, broken, comments=[f"source=p{brk}1.soc", f"{brk}3{brk}", "plain"])
    head = "# source=p\n# 1.soc\n# \n# 3\n# \n# plain\n"
    assert broken.read_bytes() == head.encode() + plain.read_bytes()
    assert load_election(broken).vote_counter() == e.vote_counter()
    assert parse_preflib(broken).votes == parse_preflib(plain).votes


@pytest.mark.parametrize("brk", ["\n", "\r", "\r\n"])
def test_a_candidate_name_with_a_line_break_is_refused(tmp_path, brk):
    # the readers would split the name's line and refuse the file
    e = Election(candidates=(f"a{brk}b", "c"), votes=((0, 1), (1, 0)))
    path = tmp_path / "e.soc"
    with pytest.raises(ValueError, match=re.escape(repr(f"a{brk}b"))):
        serialize_election(e, path)
    assert not path.exists()


def test_load_election_rejects_ties_and_gaps(tmp_path):
    path = tmp_path / "e.toc"
    path.write_text(PARTIAL_FILE)
    with pytest.raises(ValueError):
        load_election(path)


# ---------------------------------------------------------------------------
# strict files read by the line, against the tie-group reader


def _load_outcome(load, path):
    """What ``load`` makes of a file: the election and its meta, or the
    type and text of the error."""
    try:
        election = load(path)
    except ValueError as exc:
        return type(exc), str(exc)
    return election, election.meta


@st.composite
def _strict_texts(draw):
    """Valid strict files: distinct ids in any order, and every spelling of
    a ranking the grammar allows: spaces, empty items, singleton groups,
    a group glued to a neighbour, comments and blank lines."""
    m = draw(st.integers(1, 8))
    ids = draw(st.lists(st.integers(-20, 60), min_size=m, max_size=m, unique=True))
    lines = [draw(st.sampled_from(["", "# note"])), str(m)]
    lines += [f"{cid}, c{k}" for k, cid in enumerate(ids)]
    ballot = st.tuples(st.integers(1, 9), st.permutations(ids))
    ballots = draw(st.lists(ballot, min_size=1, max_size=8))
    total = sum(k for k, _ in ballots)
    lines.append(f"{total}, {total}, {len(ballots)}")
    for count, ranking in ballots:
        spellings = (st.sampled_from([f"{c}", f" {c} ", f"{{{c}}}", f"{{ {c}}}"]) for c in ranking)
        items = [draw(spelling) for spelling in spellings]
        text = items[0]
        for prev, item in zip(items, items[1:]):
            glue = ["", ","] if "{" in prev + item else [","]
            text += draw(st.sampled_from(glue + [", ", ",,"])) + item
        lines.append(f"{count},{text}" + draw(st.sampled_from(["", ","])))
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(_strict_texts())
def test_load_election_matches_tie_group_oracle(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "e.soc")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        election, meta = _load_outcome(load_election, path)
        assert (election, meta) == _load_outcome(oracles.partial_load_election, path)
    assert isinstance(election, Election)


BRACED_STRICT_FILE = STRICT_FILE.replace("2, 3,1,2", "2, 3{1},2")


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([STRICT_FILE, BRACED_STRICT_FILE, PARTIAL_FILE]).map(str.encode).flatmap(mutated)
)
def test_load_election_matches_tie_group_oracle_on_mutations(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "e.soc")
        with open(path, "wb") as fh:
            fh.write(data)
        assert _load_outcome(load_election, path) == _load_outcome(
            oracles.partial_load_election, path
        )


@pytest.mark.parametrize(
    "edits, message_part",
    [
        ([("3, 1,2,3", "x, 1,2,3")], "bad count"),
        ([("3, 1,2,3", "0, 1,2,3")], "count must be positive"),
        ([("3, 1,2,3", "-3, 1,2,3")], "count must be positive"),
        ([("3, 1,2,3", "3, 1,{2,3")], "unbalanced braces"),
        ([("3, 1,2,3", "3, 1,{2,{3}}")], "nested braces"),
        ([("3, 1,2,3", "3, 1,2,9")], "unknown candidate 9"),
        ([("3, 1,2,3", "3, 1,2,1")], "candidate 1 repeated"),
        ([("3, 1,2,3", "3, 1,{2,3}")], "ties not allowed"),
        ([("3, 1,2,3", "3, 1,2")], "incomplete vote"),
        ([("5, 5, 2", "5, 5, 3")], "promises 3 distinct"),
        ([("5, 5, 2", "5, 6, 2")], "ballot counts sum to 5"),
        ([("5, 5, 2", "4, 5, 2")], "voter count 4"),
        # the order of the faults: lines, totals, ids, then ties and gaps
        ([("3, 1,2,3", "3, 1,2,9"), ("2, 3,1,2", "2, 3,{1")], "unbalanced braces"),
        ([("3, 1,2,3", "3, 1,2,9"), ("5, 5, 2", "5, 5, 3")], "promises 3 distinct"),
        ([("3, 1,2,3", "3, {1,2},3"), ("2, 3,1,2", "2, 3,1,3")], "candidate 3 repeated"),
        ([("3, 1,2,3", "3, 1,2"), ("2, 3,1,2", "2, 3,{1,2}")], "incomplete vote"),
        ([("3, 1,2,3", "3, 1,2,3,2,9")], "candidate 2 repeated"),
    ],
)
def test_load_election_messages_match_oracle(tmp_path, edits, message_part):
    text = STRICT_FILE
    for old, new in edits:
        text = text.replace(old, new)
    path = tmp_path / "bad.soc"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        load_election(path)
    assert message_part in str(err.value)
    assert _load_outcome(oracles.partial_load_election, path) == (ValueError, str(err.value))


@pytest.mark.parametrize(
    "ballots, message_part",
    [
        # 2 + 4 ids fill two rows of 3, each a permutation, once flattened
        (["3, 1,2", "2, 3,1,2,3"], "candidate 3 repeated"),
        # every vote a permutation, so only the tie is left to name
        (["3, 1,{2,3}", "2, 3,1,2"], "ties not allowed"),
        ([], "election needs at least one vote"),
    ],
)
def test_load_election_names_what_the_array_check_rejects(tmp_path, ballots, message_part):
    total = 5 * bool(ballots)
    head = STRICT_FILE.split("5, 5, 2")[0]
    path = tmp_path / "bad.soc"
    lines = [f"{total}, {total}, {len(ballots)}", *ballots]
    path.write_text(head + "".join(line + "\n" for line in lines))
    with pytest.raises(ValueError, match=message_part) as err:
        load_election(path)
    assert _load_outcome(oracles.partial_load_election, path) == (ValueError, str(err.value))


def _loaded_both_ways(data: bytes):
    """``load_election`` and the cell-walking oracle on the same file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "e.soc")
        with open(path, "wb") as fh:
            fh.write(data)
        return _load_outcome(load_election, path), _load_outcome(oracles.walk_load_election, path)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([STRICT_FILE, BRACED_STRICT_FILE]).map(str.encode).flatmap(mutated))
def test_load_election_matches_cell_walk_oracle_on_mutations(data):
    new, old = _loaded_both_ways(data)
    assert new == old


@pytest.mark.parametrize(
    "ballot",
    [
        "3, 1,2,9",  # an unknown id
        "3, 1,2,1",  # a repeated id
        "3, 1,{2,3}",  # a tie
        "3, 1,2",  # a short vote
        "3, 1,2,3,1",  # a ragged row
        "3, 9,9",  # an unknown id, then its repeat
    ],
)
def test_load_election_matches_cell_walk_oracle_on_faults(ballot):
    new, old = _loaded_both_ways(STRICT_FILE.replace("3, 1,2,3", ballot).encode())
    assert new == old and new[0] is ValueError


_NAMES = st.text(min_size=1, max_size=5).map(str.strip).filter(bool)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 12).flatmap(
        lambda m: st.tuples(
            st.lists(_NAMES, min_size=m, max_size=m, unique=True),
            st.lists(st.permutations(range(m)), min_size=1, max_size=15),
        )
    ),
    st.lists(st.text("abc =,", max_size=8), max_size=3),
)
def test_serialize_election_matches_loop_oracle(case, comments):
    candidates, votes = case
    election = Election(candidates=candidates, votes=votes)
    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = os.path.join(tmp, "a.soc"), os.path.join(tmp, "b.soc")
        if any("\r" in name or "\n" in name for name in candidates):
            with pytest.raises(ValueError, match="holds a line break"):
                serialize_election(election, ours, comments=comments)
            assert not os.path.exists(ours)
            return
        serialize_election(election, ours, comments=comments)
        oracles.loop_serialize_election(election, theirs, comments=comments)
        with open(ours, "rb") as a, open(theirs, "rb") as b:
            assert a.read() == b.read()


@st.composite
def _weighted_elections(draw, max_m=6):
    """Elections over m candidates whose votes repeat and whose counts pass
    2**53 and 2**63, given as tuples, lists or an array."""
    m = draw(st.integers(1, max_m))
    distinct = draw(st.lists(st.permutations(range(m)), min_size=1, max_size=4))
    votes = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=10))
    mults = draw(st.lists(MULTIPLICITIES, min_size=len(votes), max_size=len(votes)))
    form = draw(st.sampled_from([tuple, list, np.array]))
    return Election(range(m), form([form(v) for v in votes]), mults)


@settings(max_examples=150, deadline=None)
@given(_weighted_elections())
def test_serialize_election_matches_loop_oracle_with_multiplicities(election):
    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = os.path.join(tmp, "a.soc"), os.path.join(tmp, "b.soc")
        serialize_election(election, ours)
        oracles.loop_serialize_election(election, theirs)
        with open(ours, "rb") as a, open(theirs, "rb") as b:
            assert a.read() == b.read()
        assert load_election(ours).vote_counter() == oracles.loop_vote_counter(election)


def test_serialize_election_matches_loop_oracle_at_m100(tmp_path):
    rng = random.Random(100)
    votes = [rng.sample(range(100), 100) for _ in range(40)]
    election = Election(candidates=range(100), votes=votes + votes[:7])
    serialize_election(election, tmp_path / "a.soc", comments=["m=100"])
    oracles.loop_serialize_election(election, tmp_path / "b.soc", comments=["m=100"])
    assert (tmp_path / "a.soc").read_bytes() == (tmp_path / "b.soc").read_bytes()


# ---------------------------------------------------------------------------
# the ballot parser against the per-character oracle

# Text right before a "{" (after the count): the oracle glues it onto the
# group's first id, the parser reads it as an item of its own.
_GLUE = re.compile(r"[^,{}\s]\s*\{")


def _glued(line: str) -> bool:
    return _GLUE.search(line.partition(",")[2]) is not None


def _grouped(line: str, lineno: int) -> tuple[int, PartialVote]:
    """``_parse_vote_line`` as (count, groups): its tie groups, else one
    group per id, the vote ``parse_preflib`` builds."""
    count, ranking, ties = _parse_vote_line(line, lineno)
    return count, ties or tuple(zip(ranking))


def _outcome(parse, line: str):
    try:
        return parse(line, 7)
    except ValueError:
        return ValueError


@st.composite
def _ballot_lines(draw):
    """A ``count, ranking`` line of a small tie/partial grammar, with the
    (count, vote) it stands for."""
    m = draw(st.integers(1, 9))
    ranked = draw(st.permutations(range(1, m + 1)))[: draw(st.integers(1, m))]
    cuts = draw(st.lists(st.booleans(), min_size=len(ranked), max_size=len(ranked)))
    groups, group = [], []
    for c, cut in zip(ranked, cuts):
        group.append(c)
        if cut:
            groups.append(tuple(group))
            group = []
    if group:
        groups.append(tuple(group))
    space = st.sampled_from(["", " ", "  "])
    items = []
    for g in groups:
        ids = ("," + draw(space)).join(map(str, g))
        braced = len(g) > 1 or draw(st.booleans())
        items.append(draw(space) + ("{" + ids + "}" if braced else ids) + draw(space))
    count = draw(st.integers(1, 20))
    return f"{count}," + ",".join(items), (count, tuple(groups))


def _decoded(data: bytes) -> str:
    return data.decode("utf-8", "replace")


@settings(max_examples=200, deadline=None)
@given(_ballot_lines())
def test_parse_vote_line_reads_grammar_lines(case):
    line, expected = case
    assert _grouped(line, 7) == expected
    assert oracles.charwise_parse_vote_line(line, 7) == expected


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        _ballot_lines().map(lambda case: case[0].encode()).flatmap(mutated).map(_decoded),
        st.sampled_from([STRICT_FILE, PARTIAL_FILE]).map(str.encode).flatmap(mutated).map(_decoded),
    )
)
def test_parse_vote_line_matches_charwise_oracle(text):
    # outside the glue class both accept with equal groups or both reject
    for line in map(str.strip, text.splitlines()):
        if not _glued(line):
            expected = _outcome(oracles.charwise_parse_vote_line, line)
            assert _outcome(_grouped, line) == expected


@pytest.mark.parametrize(
    "line, message",
    [
        ("3 1 2", "line 7: expected 'count, ranking'"),
        ("x, 1,2", "line 7: bad count 'x'"),
        ("x , 1,2", "line 7: bad count 'x '"),
        ("0, 1,2", "line 7: count must be positive"),
        ("3, {1,{2}}", "line 7: nested braces"),
        ("3, 1,{2,3", "line 7: unbalanced braces"),
        ("3, 1,2}", "line 7: unbalanced braces"),
        ("3, {1,2}},3", "line 7: unbalanced braces"),
        ("3, 1,{},2", "line 7: empty tie group"),
        ("3, { , },2", "line 7: empty tie group"),
        ("3, , ,", "line 7: empty ranking"),
        ("3, 1,x", "line 7: bad candidate id 'x'"),
        ("3, {1, x }", "line 7: bad candidate id 'x'"),
        ("3, {1,2}x", "line 7: bad candidate id 'x'"),
        ("3, 1 2", "line 7: bad candidate id '1 2'"),
    ],
)
def test_parse_vote_line_messages(line, message):
    for parse in (_grouped, oracles.charwise_parse_vote_line):
        with pytest.raises(ValueError) as err:
            parse(line, 7)
        assert str(err.value) == message


@pytest.mark.parametrize("suffix", [".soc", ".toc"])
def test_a_bad_ballot_id_names_its_file_and_line(tmp_path, suffix):
    path = tmp_path / f"bad{suffix}"
    path.write_text("4\n1, a\n2, b\n3, c\n4, d\n1, 1, 1\n1, 1,x,3\n")
    for read in (parse_preflib, load_election):
        with pytest.raises(ValueError) as err:
            read(path)
        assert str(err.value) == f"{path}: line 7: bad candidate id 'x'"


def _ballot_file(m: int, ballots: list[str]) -> str:
    names = "".join(f"{c}, c{c}\n" for c in range(1, m + 1))
    n = sum(int(b.partition(",")[0]) for b in ballots)
    return f"{m}\n{names}{n}, {n}, {len(ballots)}\n" + "".join(b + "\n" for b in ballots)


def test_text_before_a_brace_is_its_own_item(tmp_path, capsys):
    # the per-character reading glued "1{2}" into the one candidate 12
    assert _grouped("3, 1{2},3", 7) == (3, ((1,), (2,), (3,)))
    with pytest.raises(ValueError, match="'\\+'"):
        _grouped("1,+{4,1}", 7)
    ranking = ",".join(map(str, range(1, 13)))
    path = tmp_path / "twelve.toc"
    path.write_text(_ballot_file(12, ["3, 1{2},3", f"2, {ranking}"]))
    assert parse_preflib(path).votes[0] == ((1,), (2,), (3,))

    # ten candidates: there is no candidate 12 to invent
    raw = tmp_path / "raw"
    raw.mkdir()
    ranking = ",".join(map(str, range(1, 11)))
    (raw / "glue.toc").write_text(_ballot_file(10, ["3, 1{2},3", f"5, {ranking}"]))
    out = tmp_path / "clean"
    code = main(["ingest", "--in", str(raw), "--out", str(out), "--seed", "1", "--quiet"])
    assert code == 0, capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["profiles"][0]["kept"] is True


# ---------------------------------------------------------------------------
# pruning


def test_prune_keeps_satisfying_profile():
    profile = strict_profile([(1, 2, 3), (3, 2, 1)], [2, 3], 3)
    pruned, stats = prune_to_coverage(profile, 0.7)
    assert pruned.votes == profile.votes
    assert stats == {"removed_candidates": 0, "removed_votes": 0}


def test_prune_removes_single_bad_vote():
    votes = [(1, 2, 3, 4), (4, 3, 2, 1), (2, 1, 4, 3), (1,)]
    profile = strict_profile(votes, [1, 1, 1, 1], 4)
    pruned, stats = prune_to_coverage(profile, 0.7)
    assert len(pruned.votes) == 3
    assert stats["removed_votes"] == 1
    assert stats["removed_candidates"] == 0


def test_prune_single_candidate_removal_repairs_votes():
    # candidate 4 appears once in four votes; dropping it fixes all votes
    votes = [(1, 2, 3, 4), (1, 2, 3), (2, 3, 1), (3, 1, 2)]
    profile = strict_profile(votes, [1, 1, 1, 1], 4)
    pruned, stats = prune_to_coverage(profile, 0.7)
    assert pruned.candidates == (1, 2, 3)
    assert stats == {"removed_candidates": 1, "removed_votes": 0}
    assert pruned.votes[0] == ((1,), (2,), (3,))


def test_prune_is_multiplicity_aware():
    # the short ballot is popular enough that candidate 4 (absent from it)
    # violates coverage and goes first
    votes = [(1, 2, 3), (1, 2, 3, 4)]
    profile = strict_profile(votes, [7, 3], 4)
    pruned, _ = prune_to_coverage(profile, 0.7)
    assert 4 not in pruned.candidates


def test_prune_collapse_still_yields_valid_profile():
    # aggressive pruning cascades (two empty candidates, then a tie broken
    # toward the candidate side) but must stop at a consistent profile
    profile = strict_profile([(1,), (2,)], [1, 1], 4)
    pruned, stats = prune_to_coverage(profile, 1.0)
    assert pruned.candidates == (2,)
    assert pruned.votes == (((2,),),)
    assert stats == {"removed_candidates": 3, "removed_votes": 1}


def test_prune_validates_threshold():
    profile = strict_profile([(1, 2)], [1], 2)
    with pytest.raises(ValueError):
        prune_to_coverage(profile, 0.0)


@st.composite
def _partial_profiles(draw):
    """Ballots of any length (empty too) with ties and multiplicities."""
    m = draw(st.integers(1, 7))
    votes = []
    for _ in range(draw(st.integers(1, 8))):
        ranked = draw(st.permutations(range(1, m + 1)))[: draw(st.integers(0, m))]
        groups: list[list[int]] = []
        for c in ranked:
            if groups and draw(st.integers(0, 3)) == 0:
                groups[-1].append(c)
            else:
                groups.append([c])
        votes.append(groups)
    mults = draw(st.lists(st.integers(1, 5), min_size=len(votes), max_size=len(votes)))
    return PartialProfile(
        candidates=tuple(range(1, m + 1)),
        votes=votes,
        multiplicities=mults,
        names={c: f"c{c}" for c in range(1, m + 1)},
        source="random",
    )


def _prune_outcome(prune, profile, threshold):
    try:
        return prune(profile, threshold)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(
    _partial_profiles(),
    st.one_of(
        st.sampled_from([0.25, 0.5, 2 / 3, 0.7, 0.75, 0.9, 1.0]),
        st.floats(0.01, 1.0),
    ),
)
def test_prune_matches_scan_oracle(profile, threshold):
    expected = _prune_outcome(oracles.scan_prune_to_coverage, profile, threshold)
    assert _prune_outcome(prune_to_coverage, profile, threshold) == expected


# ---------------------------------------------------------------------------
# completion


def test_complete_votes_leaves_complete_profiles_alone():
    profile = strict_profile([(1, 2, 3), (3, 2, 1)], [2, 1], 3)
    e = complete_votes(profile, seed=1)
    assert e.n == 3
    assert e.vote_counter() == Counter({(0, 1, 2): 2, (2, 1, 0): 1})


def test_complete_votes_unique_continuation_is_deterministic():
    profile = strict_profile([(1, 2, 3), (1,)], [1, 1], 3)
    for seed in range(20):
        e = complete_votes(profile, seed=seed)
        assert e.vote_counter() == Counter({(0, 1, 2): 2})


def test_complete_votes_breaks_ties_uniformly():
    profile = PartialProfile(
        candidates=(1, 2),
        votes=((((1, 2)),),),  # a single vote tying both candidates
        multiplicities=(1,),
        names={1: "a", 2: "b"},
    )
    counts = Counter()
    for seed in range(4000):
        e = complete_votes(profile, seed=seed)
        counts[e.votes[0]] += 1
    frac = counts[(0, 1)] / 4000
    assert abs(frac - 0.5) < 0.03


def test_complete_votes_first_fill_follows_top_choices():
    # three complete ballots with tops 1, 1, 2 plus one empty ballot: the
    # empty ballot's first pick should follow the tops' 2:1 distribution
    profile = PartialProfile(
        candidates=(1, 2, 3),
        votes=(
            ((1,), (2,), (3,)),
            ((1,), (3,), (2,)),
            ((2,), (1,), (3,)),
            (),
        ),
        multiplicities=(1, 1, 1, 1),
        names={1: "a", 2: "b", 3: "c"},
    )
    counts = Counter()
    for seed in range(3000):
        e = complete_votes(profile, seed=seed)
        counts[e.votes[3][0]] += 1
    assert abs(counts[0] / 3000 - 2 / 3) < 0.05
    assert abs(counts[1] / 3000 - 1 / 3) < 0.05


def test_complete_votes_falls_back_to_uniform_fill():
    # no original ranks anything beyond its own prefix: 2 and 3 unseen
    profile = PartialProfile(
        candidates=(1, 2, 3),
        votes=(((1,),),),
        multiplicities=(2,),
        names={1: "a", 2: "b", 3: "c"},
    )
    seen = set()
    for seed in range(40):
        e = complete_votes(profile, seed=seed)
        for v in e.votes:
            assert v[0] == 0
            seen.add(v)
    assert seen == {(0, 1, 2), (0, 2, 1)}


def test_complete_votes_expands_multiplicities_independently():
    profile = PartialProfile(
        candidates=(1, 2),
        votes=((((1, 2)),),),
        multiplicities=(50,),
        names={1: "a", 2: "b"},
    )
    e = complete_votes(profile, seed=3)
    assert e.n == 50
    # with 50 independent coin flips both orders almost surely appear
    assert len(set(e.votes)) == 2


@pytest.mark.parametrize("mults, bad", [((1.5,), "1.5"), (("2",), "'2'")])
def test_partial_profile_rejects_non_integer_multiplicities(mults, bad):
    # the profile fails as it is built, before complete_votes can use it
    with pytest.raises(ValueError, match=re.escape(f"multiplicities must be integers, got {bad}")):
        complete_votes(PartialProfile((1, 2), (((1,), (2,)),), mults, {}), seed=1)


@pytest.mark.parametrize("bad, shown", [(1.5, "1.5"), ("a", "'a'"), (None, "None")])
def test_partial_profile_rejects_non_integer_candidate_ids(bad, shown):
    # int() made 1.5 the candidate 1 and leaked its own message for 'a'
    with pytest.raises(ValueError, match=re.escape(f"candidate ids must be integers, got {shown}")):
        PartialProfile((2, bad), (((2,),),), (1,), {})


def test_partial_profile_takes_numpy_multiplicities():
    profile = PartialProfile((1, 2), (((1,), (2,)),), (np.int64(3),), {})
    assert profile.multiplicities == (3,) and type(profile.multiplicities[0]) is int
    assert complete_votes(profile, seed=1).n == 3


# ---------------------------------------------------------------------------
# top-k and resampling


def test_select_top_k_by_borda(worked_example):
    top2 = select_top_k(worked_example, 2)
    assert top2.candidates == ("a", "b")
    assert top2.vote_counter() == Counter({(0, 1): 5, (1, 0): 1})
    full = select_top_k(worked_example, 3)
    assert full.candidates == ("a", "b", "c")
    with pytest.raises(ValueError):
        select_top_k(worked_example, 0)
    with pytest.raises(ValueError):
        select_top_k(worked_example, 4)


def test_select_top_k_breaks_ties_by_index():
    e = Election(candidates=("p", "q"), votes=((0, 1), (1, 0)))
    top1 = select_top_k(e, 1)
    assert top1.candidates == ("p",)


def test_sample_dataset_single_source():
    src = Election(candidates=(0, 1), votes=((1, 0),))
    out = sample_dataset([src], samples=3, votes_per_sample=100, seed=0)
    assert len(out) == 3
    for e in out:
        assert e.n == 100
        assert set(e.votes) == {(1, 0)}


def test_sample_dataset_draws_with_replacement():
    src = Election(candidates=(0, 1, 2), votes=((0, 1, 2), (2, 1, 0)))
    out = sample_dataset([src], samples=1, votes_per_sample=50, seed=4)
    counts = out[0].vote_counter()
    # 50 draws from 2 distinct votes must repeat them
    assert sum(counts.values()) == 50
    assert set(counts) <= {(0, 1, 2), (2, 1, 0)}


def test_sample_dataset_deterministic():
    srcs = [
        Election(candidates=(0, 1, 2), votes=((0, 1, 2), (1, 0, 2))),
        Election(candidates=(0, 1, 2), votes=((2, 1, 0),)),
    ]
    a = sample_dataset(srcs, 5, 10, seed=9)
    b = sample_dataset(srcs, 5, 10, seed=9)
    assert [e.votes for e in a] == [e.votes for e in b]


@st.composite
def _small_weighted_elections(draw):
    m = draw(st.integers(1, 5))
    votes = draw(st.lists(st.permutations(range(m)), min_size=1, max_size=6))
    mults = draw(st.lists(st.integers(1, 4), min_size=len(votes), max_size=len(votes)))
    form = draw(st.sampled_from([tuple, list, np.array]))
    return Election(range(m), form([form(v) for v in votes]), mults, meta={"source": "s"})


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_small_weighted_elections(), min_size=1, max_size=3),
    st.integers(1, 4),
    st.integers(1, 30),
    st.integers(0, 2**32),
)
def test_sample_dataset_matches_loop_oracle(sources, samples, votes_per_sample, seed):
    out = sample_dataset(sources, samples, votes_per_sample, seed)
    expected = oracles.loop_sample_dataset(sources, samples, votes_per_sample, seed)
    assert [(e.meta["source_index"], e.votes) for e in out] == expected
    assert all(e.candidates == sources[i].candidates for e, (i, _) in zip(out, expected))


def test_sample_dataset_draws_voters_past_int64():
    # too many voters to expand: voter k casts the row whose running count
    # first passes k, found here by bisect on Python integers
    mults = (2**64, 3, 2**70)
    src = Election((0, 1, 2), ((0, 1, 2), (1, 2, 0), (2, 0, 1)), mults)
    out = sample_dataset([src], samples=2, votes_per_sample=40, seed=5)
    rng = random.Random(5)
    ends = list(itertools.accumulate(mults))
    for e in out:
        rng.randrange(1)
        rows = [bisect.bisect_right(ends, rng.randrange(src.n)) for _ in range(40)]
        assert e.votes == tuple(src.votes[r] for r in rows)
    assert {v for e in out for v in e.votes} == {(0, 1, 2), (2, 0, 1)}


# ---------------------------------------------------------------------------
# pipeline presets


def test_preset_table():
    # presets vary only pruning and the candidate and voter filters
    assert [f.name for f in dataclasses.fields(PipelineConfig)] == [
        "prune", "max_candidates", "min_voters"
    ]
    plain = PipelineConfig(prune=False, max_candidates=None, min_voters=None)
    assert PRESETS == {
        **dict.fromkeys(["default", "irish", "glasgow", "aspen", "tshirt", "sushi", "cities"], plain),
        "ers": PipelineConfig(min_voters=500),
        "figure-skating": PipelineConfig(min_voters=9),
        "speed-skating": PipelineConfig(prune=True, min_voters=80),
        "tdf": PipelineConfig(prune=True, min_voters=20, max_candidates=75),
        "gdi": PipelineConfig(prune=True),
    }
    # the rest of the paper's protocol is fixed
    assert (MIN_CANDIDATES, TOP_K, SAMPLES_PER_DATASET, VOTES_PER_SAMPLE) == (10, 10, 15, 100)
    assert inspect.signature(prune_to_coverage).parameters["threshold"].default == 0.70


def make_big_profile(seed: int, m: int = 12, n: int = 30) -> PartialProfile:
    rng = random.Random(seed)
    votes = []
    for _ in range(n):
        v = list(range(1, m + 1))
        rng.shuffle(v)
        votes.append(tuple(v))
    return strict_profile(votes, [1] * n, m)


def test_run_pipeline_shapes_and_manifest():
    profiles = [make_big_profile(s) for s in range(3)]
    elections, manifest = run_pipeline(profiles, PipelineConfig(), seed=5)
    assert len(elections) == 15
    for e in elections:
        assert e.m == 10  # Borda top 10 of 12
        assert e.n == 100
    assert manifest["seed"] == 5
    assert len(manifest["profiles"]) == 3
    assert all(rec.get("kept") for rec in manifest["profiles"])
    assert len(manifest["samples"]) == 15


def test_run_pipeline_filters_small_profiles():
    small = make_big_profile(1, m=5)
    big = make_big_profile(2, m=12)
    elections, manifest = run_pipeline([small, big], PipelineConfig(), seed=1)
    dropped = [rec for rec in manifest["profiles"] if "dropped" in rec]
    assert len(dropped) == 1
    assert "candidates" in dropped[0]["dropped"]
    assert all(e.meta["source_index"] == 0 for e in elections)  # one survivor


def test_run_pipeline_min_voters_filter():
    profiles = [make_big_profile(3, n=30)]
    with pytest.raises(ValueError):
        run_pipeline(profiles, PipelineConfig(min_voters=100), seed=0)


def test_run_pipeline_deterministic():
    profiles = [make_big_profile(s) for s in range(2)]
    a, _ = run_pipeline(profiles, PipelineConfig(), seed=7)
    b, _ = run_pipeline(profiles, PipelineConfig(), seed=7)
    assert [e.votes for e in a] == [e.votes for e in b]


def _preset_profiles() -> list[PartialProfile]:
    """Four profiles that every preset's filters treat differently.

    "wide": 12 candidates and 600 voters, some ballots tied or short and
    few ranking 11 or 12, so pruning drops those two; "small": 9
    candidates; "many": 80 candidates and 30 voters; "mid": 11 candidates
    and 85 voters, some ballots short."""
    rng = random.Random(24)

    def ballot(m: int, rare: set[int], keep: int) -> PartialVote:
        order = [c for c in rng.sample(range(1, m + 1), m) if c not in rare or rng.random() < 0.3]
        order = order[: max(keep, 1)]
        if len(order) > 3 and rng.random() < 0.3:  # one tie group
            at = rng.randrange(len(order) - 1)
            return (*((c,) for c in order[:at]), tuple(order[at : at + 2]),
                    *((c,) for c in order[at + 2 :]))
        return tuple((c,) for c in order)

    def profile(name: str, m: int, distinct: int, count: int, rare: set[int], short: int):
        votes = tuple(ballot(m, rare, m - rng.randrange(short + 1)) for _ in range(distinct))
        return PartialProfile(tuple(range(1, m + 1)), votes, (count,) * distinct,
                              {c: f"c{c}" for c in range(1, m + 1)}, name)

    return [
        profile("wide", 12, 120, 5, {11, 12}, 2),
        profile("small", 9, 40, 1, set(), 0),
        profile("many", 80, 30, 1, set(), 0),
        profile("mid", 11, 17, 5, set(), 3),
    ]


# SHA-256 of the sampled elections and of the manifest of every preset on
# _preset_profiles at seed 3; a preset's filters, protocol and seeds all
# reach these bytes
_PRESET_SHA256 = {
    **dict.fromkeys(
        ["default", "irish", "glasgow", "aspen", "figure-skating", "tshirt", "sushi", "cities"],
        ("ed4a14b995945ca8af35a7862c1aef371713e3b6070ed034e0956ae8b19a1023",
         "b4ad11af11a049b42306ba8fdee954aba407eb1f87b83cb8a4a91eca84ad1025"),
    ),
    "ers": ("42a42181ee2aa6af738e950282df7520fa8570045d04ed0d7546458b9f26bd8d",
            "3e52a651ba45b4df8c3bdf3d43dc98662917ca7745cace426ba33f47cbdd4be3"),
    "speed-skating": ("1450b315bcf4604fa8d011db9de6539aa2fd5b8f768d16206b43a5a96abff61f",
                      "7b2bf4367efe0c97c9df07823fa6c44c43c191e2833b26793938141ec071779e"),
    "tdf": ("1450b315bcf4604fa8d011db9de6539aa2fd5b8f768d16206b43a5a96abff61f",
            "8a2174b6c4ec0885c5126c07b8d40124b7f815b800495a9583919797ebbf2835"),
    "gdi": ("22b1f8dba4a54d7c310d380a254d98db2c6797e7e9e9c73a38951435df62a989",
            "94ace419d23c2eda21c4282ed17b1cbc1cb68d50c5cd16e5170a3957f325f302"),
}


def test_run_pipeline_presets_are_pinned():
    profiles = _preset_profiles()
    digests = {}
    for name, config in PRESETS.items():
        elections, manifest = run_pipeline(profiles, config, seed=3)
        rows = [(e.candidates, e.vote_array.tolist(), e.multiplicities, sorted(e.meta.items()))
                for e in elections]
        digests[name] = (
            hashlib.sha256(repr(rows).encode()).hexdigest(),
            hashlib.sha256(json.dumps(manifest, sort_keys=True).encode()).hexdigest(),
        )
    assert digests == _PRESET_SHA256


@st.composite
def _elections(draw):
    m = draw(st.integers(1, 6))
    names = st.text("abcdefghij", min_size=1, max_size=4)
    candidates = draw(st.lists(names, min_size=m, max_size=m, unique=True))
    votes = draw(st.lists(st.permutations(range(m)), min_size=1, max_size=12))
    mults = draw(st.lists(st.integers(1, 5), min_size=len(votes), max_size=len(votes)))
    return Election(candidates=candidates, votes=votes, multiplicities=mults)


@settings(max_examples=100, deadline=None)
@given(_elections())
def test_serialize_load_round_trip_property(election):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "e.soc")
        serialize_election(election, path)
        again = load_election(path)
        names = parse_preflib(path).names
    # ids are 1..m by index; the candidates themselves survive as names
    assert again.candidates == tuple(range(1, election.m + 1))
    assert names == {k + 1: c for k, c in enumerate(election.candidates)}
    assert again.vote_counter() == election.vote_counter()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([STRICT_FILE, PARTIAL_FILE]).map(str.encode).flatmap(mutated))
def test_parse_preflib_rejects_mutations_with_value_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "e.soi")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            profile = parse_preflib(path)
        except ValueError:
            return
    assert isinstance(profile, PartialProfile)
