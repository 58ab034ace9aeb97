"""PrefLib-style profiles and the pipeline that turns them into elections.

The on-disk format is the classic PrefLib layout: a candidate count, one
``id, name`` line per candidate, a ``voters, sum_of_counts, distinct``
line, then one ``count, ranking`` line per distinct ballot.  A ranking is
comma-separated candidate ids, best first; ids in braces form one tie
group, and partial ballots just stop early.  Text right before a ``{`` is
an item of its own, so ``1{2}`` reads as 1 then the group {2}.  One
parser reads every ballot line, for strict and partial files alike: a
plain line of integers is split once, any other goes through the braces.
Incomplete profiles pass through coverage pruning, random tie-breaking,
and statistical vote completion before they become strict-complete
elections.
"""

from __future__ import annotations

import itertools
import os
import random
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import Election, _in_file, _integers, borda_scores, restrict_to_candidates
from .cultures import derive_seed

# extensions of the PrefLib files the command line reads
PREFLIB_SUFFIXES = (".soc", ".soi", ".toc")

# A partial vote is a sequence of tie groups; each group is a tuple of
# candidate ids ranked together, groups ordered best to worst.
TieGroup = tuple[int, ...]
PartialVote = tuple[TieGroup, ...]


@dataclass(frozen=True)
class PartialProfile:
    """Possibly-incomplete, possibly-tied ballots over integer candidate ids."""

    candidates: tuple[int, ...]
    votes: tuple[PartialVote, ...]
    multiplicities: tuple[int, ...]
    names: Mapping[int, str]
    source: str = ""

    def __post_init__(self) -> None:
        cands = _integers(self.candidates, "candidate ids")
        object.__setattr__(self, "candidates", cands)
        object.__setattr__(
            self,
            "votes",
            tuple(tuple(tuple(g) for g in v) for v in self.votes),
        )
        object.__setattr__(self, "multiplicities", _integers(self.multiplicities, "multiplicities"))
        if len(set(cands)) != len(cands) or not cands:
            raise ValueError("candidate ids must be distinct and nonempty")
        if len(self.votes) != len(self.multiplicities):
            raise ValueError("multiplicities must run parallel to votes")
        known = set(cands)
        for v in self.votes:
            seen: set[int] = set()
            for group in v:
                if not group:
                    raise ValueError("empty tie group")
                for c in group:
                    if c not in known:
                        raise ValueError(f"vote names unknown candidate {c}")
                    if c in seen:
                        raise ValueError(f"candidate {c} repeated within a vote")
                    seen.add(c)
        for k in self.multiplicities:
            if k < 1:
                raise ValueError("multiplicities must be positive")

    @property
    def m(self) -> int:
        return len(self.candidates)

    @property
    def n(self) -> int:
        return sum(self.multiplicities)


def _number(text: str, lineno: int, what: str) -> int:
    """``int(text)``, which strips surrounding whitespace itself; a fault
    names the line and shows ``text`` as it was given."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"line {lineno}: bad {what} {text!r}") from None


def _parse_vote_line(line: str, lineno: int) -> tuple[int, list[int], PartialVote | None]:
    """The one ballot-line parser: a line's count, its candidate ids in
    order, and its tie groups if one of them joins two ids, else None.  A
    plain line of integers is split once; any other line, and any fault,
    goes through the brace grammar."""
    head, sep, rest = line.partition(",")
    try:
        count, ranking = int(head), [*map(int, rest.split(","))]
    except ValueError:
        count = 0
    if count > 0:
        return count, ranking, None
    if not sep:
        raise ValueError(f"line {lineno}: expected 'count, ranking'")
    count = _number(head, lineno, "count")
    if count < 1:
        raise ValueError(f"line {lineno}: count must be positive")

    def ids(text: str) -> list[int]:
        if "}" in text:
            raise ValueError(f"line {lineno}: unbalanced braces")
        tokens = map(str.strip, text.split(","))
        return [_number(tok, lineno, "candidate id") for tok in tokens if tok]

    # text before the first "{", then per "{": its group up to "}" and the
    # text after that; so "1{2}" reads as 1 then {2}, like "{1,2}3"
    first, *opened = rest.split("{")
    groups = [(c,) for c in ids(first)]
    for k, part in enumerate(opened):
        inside, closed, after = part.partition("}")
        if not closed:
            fault = "nested" if k + 1 < len(opened) else "unbalanced"
            raise ValueError(f"line {lineno}: {fault} braces")
        group = tuple(ids(inside))
        if not group:
            raise ValueError(f"line {lineno}: empty tie group")
        groups.append(group)
        groups += [(c,) for c in ids(after)]
    if not groups:
        raise ValueError(f"line {lineno}: empty ranking")
    ties = tuple(groups) if any(len(g) > 1 for g in groups) else None
    return count, [c for g in groups for c in g], ties


def _read(
    path: str | os.PathLike[str],
) -> tuple[list[int], dict[int, str], list[tuple[int, list[int], PartialVote | None]], list[int]]:
    """The candidate ids, their names, the ballots and their counts of a
    PrefLib-style file.  A ballot is what ``_parse_vote_line``, the one
    parser of ballot lines, returns: its count, ranking and tie groups.
    Checks the header, every ballot line, and then the header's totals, in
    that order; every fault names the file."""
    with _in_file(path), open(path, "r", encoding="utf-8") as fh:
        rows = [(i, ln) for i, ln in enumerate(map(str.strip, fh), 1) if ln and ln[0] != "#"]
        if not rows:
            raise ValueError("empty file")
        it = iter(rows)

        def next_row(what: str) -> tuple[int, str]:
            try:
                return next(it)
            except StopIteration:
                raise ValueError(f"truncated file, expected {what}") from None

        lineno, first = next_row("candidate count")
        m = _number(first, lineno, "candidate count")
        if m < 1:
            raise ValueError(f"line {lineno}: candidate count must be positive")

        ids: list[int] = []
        names: dict[int, str] = {}
        for _ in range(m):
            lineno, ln = next_row("candidate line")
            head, sep, name = ln.partition(",")
            if not sep:
                raise ValueError(f"line {lineno}: expected 'id, name'")
            cid = _number(head, lineno, "candidate id")
            if cid in names:
                raise ValueError(f"line {lineno}: duplicate candidate id {cid}")
            ids.append(cid)
            names[cid] = name.strip()

        lineno, counts_line = next_row("counts line")
        parts = [p.strip() for p in counts_line.split(",")]
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'voters, sum, distinct'")
        try:
            n_voters, sum_counts, distinct = (int(p) for p in parts)
        except ValueError:
            raise ValueError(f"line {lineno}: bad counts line {counts_line!r}") from None

        ballots = [_parse_vote_line(ln, lineno) for lineno, ln in it]
        mults = [count for count, _, _ in ballots]
        if len(ballots) != distinct:
            raise ValueError(f"header promises {distinct} distinct ballots, found {len(ballots)}")
        if sum(mults) != sum_counts:
            raise ValueError(f"ballot counts sum to {sum(mults)}, header says {sum_counts}")
        if n_voters != sum_counts:
            raise ValueError(f"voter count {n_voters} != sum of counts {sum_counts}")
        return ids, names, ballots, mults


def parse_preflib(path: str | os.PathLike[str]) -> PartialProfile:
    """Parse a PrefLib-style file (strict, tied, or partial ballots)."""
    ids, names, ballots, mults = _read(path)
    with _in_file(path):
        return PartialProfile(
            candidates=tuple(ids),
            votes=tuple(ties or tuple(zip(ranking)) for _, ranking, ties in ballots),
            multiplicities=tuple(mults),
            names=names,
            source=str(path),
        )


def serialize_election(
    election: Election,
    path: str | os.PathLike[str],
    comments: Sequence[str] = (),
) -> None:
    """Write a strict-complete election; candidate ids are 1..m by index.
    Distinct votes go by falling count, equal counts in ascending order.
    Each comment is one ``# `` line, or one per line of it where a CR, LF
    or CRLF breaks it, so that the readers skip all of it.  A candidate
    name holding a CR or LF is refused before the file is opened: the
    readers would split its line."""
    for cand in map(str, election.candidates):
        if "\r" in cand or "\n" in cand:
            raise ValueError(f"candidate name {cand!r} holds a line break")
    # the counter lists the votes in ascending order, and the sort is stable
    ordered = sorted(election.vote_counter().items(), key=lambda kv: -kv[1])
    labels = [str(c + 1) for c in range(election.m)]
    lines = [f"# {part}\n" for c in comments for part in re.split(r"\r\n?|\n", c)]
    lines.append(f"{election.m}\n")
    lines += [f"{label}, {cand}\n" for label, cand in zip(labels, election.candidates)]
    lines.append(f"{election.n}, {election.n}, {len(ordered)}\n")
    lines += [f"{count}, {','.join(map(labels.__getitem__, vote))}\n" for vote, count in ordered]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))


def load_election(path: str | os.PathLike[str]) -> Election:
    """Parse a strict-complete file straight into an Election.

    Ballot lines go through ``_parse_vote_line``, the one parser that
    ``parse_preflib`` uses too; a ballot is tied when that parser returns
    its tie groups, not None.  Faults are reported in the order of
    ``parse_preflib``: the header, each ballot line, the header's totals,
    then the first vote that names an unknown candidate or repeats one;
    only then the first odd ballot, one with a tie or one that stops
    short.  A file without odd ballots goes through ``Election``'s one
    array check, and ``PartialProfile``'s walk runs only when there are odd
    ballots or when that check fails.
    """
    ids, _, ballots, mults = _read(path)
    rankings = [ranking for _, ranking, _ in ballots]
    # a vote longer than m repeats an id, which the walk below names
    odd = [ties for _, ranking, ties in ballots if ties is not None or len(ranking) != len(ids)]
    with _in_file(path):
        if not odd:
            try:
                return Election(ids, _index_rows(ids, rankings), mults, {"source": str(path)})
            except (KeyError, ValueError) as err:
                fault = err  # an unknown or repeated id, or a file of no votes
        # one singleton group per id: the walk names an unknown or repeated
        # id, and a vote that passes it is strict and complete if not odd
        PartialProfile(ids, [[(c,) for c in ranking] for ranking in rankings], mults, {})
        if odd:
            what = "ties not allowed" if odd[0] is not None else "incomplete vote"
            fault = ValueError(f"{what} in a strict election")
        raise fault


def _index_rows(ids: Sequence[int], rankings: Iterable[Sequence[int]]) -> np.ndarray:
    """Complete rankings of the candidate ``ids`` as rows of their indices."""
    index_of = {cid: k for k, cid in enumerate(ids)}.__getitem__
    flat = np.fromiter(map(index_of, itertools.chain.from_iterable(rankings)), np.int64)
    return flat.reshape(-1, len(ids))


# ---------------------------------------------------------------------------
# pipeline stages


def prune_to_coverage(
    profile: PartialProfile, threshold: float = 0.70
) -> tuple[PartialProfile, dict[str, int]]:
    """Drop candidates and votes until both cover enough of the profile.

    A candidate must appear in at least ``threshold`` of the votes; a vote
    must rank at least ``threshold`` of the candidates.  The worst
    offender goes first, by the key (coverage, side, index): candidates
    before votes on equal coverage, then the lowest index.  Coverage is
    recomputed after every removal.  Returns the pruned profile plus
    removal counts.
    """
    if not 0 < threshold <= 1:
        raise ValueError("threshold must lie in (0, 1]")
    cands = list(profile.candidates)
    ballots = list(zip(profile.votes, profile.multiplicities))
    stats = {"removed_candidates": 0, "removed_votes": 0}
    while cands and ballots:
        n = sum(k for _, k in ballots)
        cover = dict.fromkeys(cands, 0)
        for vote, k in ballots:
            for c in itertools.chain(*vote):
                cover[c] += k
        cov, side, idx = min(
            [(cover[c] / n, 0, i) for i, c in enumerate(cands)]
            + [(sum(map(len, v)) / len(cands), 1, i) for i, (v, _) in enumerate(ballots)]
        )
        if cov >= threshold:
            break
        if side:
            stats["removed_votes"] += ballots.pop(idx)[1]
            continue
        gone = cands.pop(idx)
        stats["removed_candidates"] += 1
        kept = []
        for vote, k in ballots:
            groups = (tuple(c for c in group if c != gone) for group in vote)
            vote = tuple(g for g in groups if g)
            if vote:
                kept.append((vote, k))
            else:
                stats["removed_votes"] += k
        ballots = kept

    if not cands or not ballots:
        raise ValueError("pruning removed the entire profile")
    pruned = PartialProfile(
        candidates=tuple(cands),
        votes=tuple(v for v, _ in ballots),
        multiplicities=tuple(k for _, k in ballots),
        names=dict(profile.names),
        source=profile.source,
    )
    return pruned, stats


def complete_votes(profile: PartialProfile, seed: int) -> Election:
    """Turn a partial profile into a strict-complete election.

    Ties are broken uniformly at random first.  Then every short ballot
    grows one rank at a time: if some original ballot agrees with it on
    all ranked candidates and ranks at least one more, the next candidate
    is drawn from those originals' continuations (uniformly per voter);
    otherwise the next candidate is uniform over the unranked ones.  Each
    voter behind a multiplicity completes independently.
    """
    rng = random.Random(seed)
    m = profile.m

    voters: list[list[int]] = []
    for vote, count in zip(profile.votes, profile.multiplicities):
        for _ in range(count):
            flat: list[int] = []
            for group in vote:
                members = list(group)
                if len(members) > 1:
                    rng.shuffle(members)
                flat.extend(members)
            voters.append(flat)

    # continuations[prefix] lists, over original (tie-broken) ballots with
    # that prefix and at least one more rank, their next candidate
    continuations: dict[tuple[int, ...], list[int]] = {}
    for flat in voters:
        for t in range(len(flat)):
            continuations.setdefault(tuple(flat[:t]), []).append(flat[t])

    all_ids = list(profile.candidates)
    votes = []
    for flat in voters:
        v = list(flat)
        while len(v) < m:
            pool = continuations.get(tuple(v))
            if pool:
                v.append(rng.choice(pool))
            else:
                missing = sorted(set(all_ids) - set(v))
                v.append(missing[rng.randrange(len(missing))])
        votes.append(v)

    return Election(
        candidates=profile.candidates,
        votes=_index_rows(all_ids, votes),
        meta={"source": profile.source, "completion_seed": seed},
    )


def select_top_k(election: Election, k: int) -> Election:
    """Restrict to the k candidates with the highest Borda scores, ties
    broken toward the earlier candidate."""
    if not 1 <= k <= election.m:
        raise ValueError(f"k must lie in 1..{election.m}")
    scores = borda_scores(election)
    order = sorted(
        range(election.m),
        key=lambda idx: (-scores[election.candidates[idx]], idx),
    )
    keep = {election.candidates[idx] for idx in order[:k]}
    return restrict_to_candidates(election, keep)


def sample_dataset(
    elections: Sequence[Election],
    samples: int,
    votes_per_sample: int,
    seed: int,
) -> list[Election]:
    """Resampled mini-elections: pick a source election uniformly, then
    draw votes from it uniformly with replacement."""
    if not elections:
        raise ValueError("need at least one source election")
    if samples < 1 or votes_per_sample < 1:
        raise ValueError("samples and votes_per_sample must be positive")
    rng = random.Random(seed)
    out = []
    for _ in range(samples):
        src_idx = rng.randrange(len(elections))
        src = elections[src_idx]
        # voter k casts the row whose running multiplicity first passes k
        ends = np.cumsum(np.array(src.multiplicities, dtype=object))
        draws = itertools.starmap(rng.randrange, itertools.repeat((src.n,), votes_per_sample))
        voters = np.fromiter(draws, object, votes_per_sample)
        out.append(
            Election(
                candidates=src.candidates,
                votes=src.vote_array[np.searchsorted(ends, voters, side="right")],
                meta={"source_index": src_idx, "source": src.meta.get("source", "")},
            )
        )
    return out


# ---------------------------------------------------------------------------
# preset pipeline


# The paper's fixed protocol: a profile needs at least MIN_CANDIDATES
# candidates, is cut to its Borda top TOP_K, and the dataset is resampled
# into SAMPLES_PER_DATASET elections of VOTES_PER_SAMPLE votes.
MIN_CANDIDATES = 10
TOP_K = 10
SAMPLES_PER_DATASET = 15
VOTES_PER_SAMPLE = 100


@dataclass(frozen=True)
class PipelineConfig:
    """The settings in which dataset families differ."""

    prune: bool = False
    max_candidates: int | None = None
    min_voters: int | None = None


PRESETS: dict[str, PipelineConfig] = {
    "default": PipelineConfig(),
    "irish": PipelineConfig(),
    "glasgow": PipelineConfig(),
    "aspen": PipelineConfig(),
    "ers": PipelineConfig(min_voters=500),
    "figure-skating": PipelineConfig(min_voters=9),
    "speed-skating": PipelineConfig(prune=True, min_voters=80),
    "tdf": PipelineConfig(prune=True, min_voters=20, max_candidates=75),
    "gdi": PipelineConfig(prune=True),
    "tshirt": PipelineConfig(),
    "sushi": PipelineConfig(),
    "cities": PipelineConfig(),
}


def run_pipeline(
    profiles: Sequence[PartialProfile],
    config: PipelineConfig,
    seed: int,
) -> tuple[list[Election], dict]:
    """Prune, filter, complete, cut to the Borda top-k, filter by voters,
    then resample.  Returns the sampled elections and a provenance record."""
    records = []
    intermediates: list[Election] = []
    for idx, profile in enumerate(profiles):
        record: dict[str, object] = {"source": profile.source or f"profile-{idx}"}
        records.append(record)
        if config.prune:
            profile, stats = prune_to_coverage(profile)
            record.update(stats)
        if profile.m < MIN_CANDIDATES:
            record["dropped"] = f"fewer than {MIN_CANDIDATES} candidates"
        elif config.max_candidates is not None and profile.m > config.max_candidates:
            record["dropped"] = f"more than {config.max_candidates} candidates"
        else:
            election = complete_votes(profile, derive_seed(seed, 1, idx))
            election = select_top_k(election, TOP_K)
            if config.min_voters is not None and election.n < config.min_voters:
                record["dropped"] = f"fewer than {config.min_voters} voters"
            else:
                record.update(kept=True, m=election.m, n=election.n)
                intermediates.append(election)
    if not intermediates:
        raise ValueError("no profile survived the pipeline filters")
    sampled = sample_dataset(
        intermediates, SAMPLES_PER_DATASET, VOTES_PER_SAMPLE, derive_seed(seed, 2, 0)
    )
    manifest = {
        "seed": seed,
        "profiles": records,
        "samples": [
            {"source_index": e.meta["source_index"], "source": e.meta["source"]}
            for e in sampled
        ],
    }
    return sampled, manifest
