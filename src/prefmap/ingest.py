"""PrefLib-style profiles and the pipeline that turns them into elections.

The on-disk format is the classic PrefLib layout: a candidate count, one
``id, name`` line per candidate, a ``voters, sum_of_counts, distinct``
line, then one ``count, ranking`` line per distinct ballot.  A ranking is
comma-separated candidate ids, best first; ids in braces form one tie
group, and partial ballots just stop early.  Text right before a ``{`` is
an item of its own, so ``1{2}`` reads as 1 then the group {2}.
Incomplete profiles pass through coverage pruning, random tie-breaking,
and statistical vote completion before they become strict-complete
elections.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

import numpy as np

from .core import Election, _integers, borda_scores, restrict_to_candidates
from .cultures import derive_seed

# extensions of the PrefLib files the command line reads
PREFLIB_SUFFIXES = (".soc", ".soi", ".toc")

# A partial vote is a sequence of tie groups; each group is a tuple of
# candidate ids ranked together, groups ordered best to worst.
TieGroup = tuple[int, ...]
PartialVote = tuple[TieGroup, ...]
Ballot = TypeVar("Ballot")


@dataclass(frozen=True)
class PartialProfile:
    """Possibly-incomplete, possibly-tied ballots over integer candidate ids."""

    candidates: tuple[int, ...]
    votes: tuple[PartialVote, ...]
    multiplicities: tuple[int, ...]
    names: Mapping[int, str]
    source: str = ""

    def __post_init__(self) -> None:
        cands = tuple(int(c) for c in self.candidates)
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


def _parse_vote_line(line: str, lineno: int) -> tuple[int, PartialVote]:
    head, sep, rest = line.partition(",")
    if not sep:
        raise ValueError(f"line {lineno}: expected 'count, ranking'")
    try:
        count = int(head.strip())
    except ValueError:
        raise ValueError(f"line {lineno}: bad count {head!r}") from None
    if count < 1:
        raise ValueError(f"line {lineno}: count must be positive")

    def ids(text: str) -> list[int]:
        if "}" in text:
            raise ValueError(f"line {lineno}: unbalanced braces")
        return [int(tok) for tok in map(str.strip, text.split(",")) if tok]

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
    return count, tuple(groups)


def _read(
    path: str | os.PathLike[str], parse_line: Callable[[str, int], tuple[int, Ballot]]
) -> tuple[list[int], dict[int, str], list[Ballot], list[int]]:
    """The candidate ids, their names, the ballots and their counts of a
    PrefLib-style file.  Checks the header, every ballot line through
    ``parse_line`` (which returns the count and the ballot of a line), and
    then the header's totals, in that order."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [(i, ln) for i, ln in enumerate(map(str.strip, fh), 1) if ln and ln[0] != "#"]
    if not rows:
        raise ValueError(f"{path}: empty file")
    it = iter(rows)

    def next_row(what: str) -> tuple[int, str]:
        try:
            return next(it)
        except StopIteration:
            raise ValueError(f"{path}: truncated file, expected {what}") from None

    lineno, first = next_row("candidate count")
    try:
        m = int(first)
    except ValueError:
        raise ValueError(f"{path} line {lineno}: bad candidate count {first!r}") from None
    if m < 1:
        raise ValueError(f"{path} line {lineno}: candidate count must be positive")

    ids: list[int] = []
    names: dict[int, str] = {}
    for _ in range(m):
        lineno, ln = next_row("candidate line")
        head, sep, name = ln.partition(",")
        if not sep:
            raise ValueError(f"{path} line {lineno}: expected 'id, name'")
        try:
            cid = int(head.strip())
        except ValueError:
            raise ValueError(f"{path} line {lineno}: bad candidate id {head!r}") from None
        if cid in names:
            raise ValueError(f"{path} line {lineno}: duplicate candidate id {cid}")
        ids.append(cid)
        names[cid] = name.strip()

    lineno, counts_line = next_row("counts line")
    parts = [p.strip() for p in counts_line.split(",")]
    if len(parts) != 3:
        raise ValueError(f"{path} line {lineno}: expected 'voters, sum, distinct'")
    try:
        n_voters, sum_counts, distinct = (int(p) for p in parts)
    except ValueError:
        raise ValueError(f"{path} line {lineno}: bad counts line {counts_line!r}") from None

    ballots: list[Ballot] = []
    mults: list[int] = []
    for lineno, ln in it:
        try:
            count, ballot = parse_line(ln, lineno)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        ballots.append(ballot)
        mults.append(count)

    if len(ballots) != distinct:
        raise ValueError(
            f"{path}: header promises {distinct} distinct ballots, found {len(ballots)}"
        )
    if sum(mults) != sum_counts:
        raise ValueError(
            f"{path}: ballot counts sum to {sum(mults)}, header says {sum_counts}"
        )
    if n_voters != sum_counts:
        raise ValueError(
            f"{path}: voter count {n_voters} != sum of counts {sum_counts}"
        )
    return ids, names, ballots, mults


def parse_preflib(path: str | os.PathLike[str]) -> PartialProfile:
    """Parse a PrefLib-style file (strict, tied, or partial ballots)."""
    ids, names, votes, mults = _read(path, _parse_vote_line)
    try:
        return PartialProfile(
            candidates=tuple(ids),
            votes=tuple(votes),
            multiplicities=tuple(mults),
            names=names,
            source=str(path),
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def serialize_election(
    election: Election,
    path: str | os.PathLike[str],
    comments: Sequence[str] = (),
) -> None:
    """Write a strict-complete election; candidate ids are 1..m by index.
    Distinct votes go by falling count, equal counts in ascending order."""
    # the counter lists the votes in ascending order, and the sort is stable
    ordered = sorted(election.vote_counter().items(), key=lambda kv: -kv[1])
    labels = [str(c + 1) for c in range(election.m)]
    lines = [f"# {c}\n" for c in comments]
    lines.append(f"{election.m}\n")
    lines += [f"{label}, {cand}\n" for label, cand in zip(labels, election.candidates)]
    lines.append(f"{election.n}, {election.n}, {len(ordered)}\n")
    lines += [f"{count}, {','.join(map(labels.__getitem__, vote))}\n" for vote, count in ordered]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))


def _strict_line(line: str, lineno: int) -> tuple[int, tuple[list[int], bool]]:
    """One ballot line of a strict file: its count, its candidate ids in
    order and whether a tie group joined two of them.  A plain line of
    integers is split once; any other line, and any fault, goes through
    ``_parse_vote_line``, so the grammar and the messages are the same."""
    head, _, rest = line.partition(",")
    try:
        count, ranking = int(head), [*map(int, rest.split(","))]
    except ValueError:
        count = 0
    if count > 0:
        return count, (ranking, False)
    count, groups = _parse_vote_line(line, lineno)
    return count, ([c for g in groups for c in g], any(len(g) > 1 for g in groups))


def load_election(path: str | os.PathLike[str]) -> Election:
    """Parse a strict-complete file straight into an Election.

    Faults are reported in the order of ``parse_preflib``: the header,
    each ballot line, the header's totals, then the first vote that names
    an unknown candidate or repeats one; only then the first vote with a
    tie or one that stops short.  Only when ``Election``'s array check
    fails does ``PartialProfile``'s walk name an unknown or repeated id.
    """
    ids, _, ballots, mults = _read(path, _strict_line)
    rankings = [ranking for ranking, _ in ballots]
    try:
        # votes of m ids each go through the election's one array check
        if any(len(ranking) != len(ids) for ranking in rankings):
            raise ValueError("vote of another length")
        election = Election(ids, _index_rows(ids, rankings), mults, {"source": str(path)})
        odd = [b for b in ballots if b[1]]
    except (KeyError, ValueError):
        # one singleton group per id; a vote that passes is strict and
        # complete once it has m ids
        try:
            PartialProfile(ids, [[(c,) for c in ranking] for ranking in rankings], mults, {})
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        odd = [b for b in ballots if b[1] or len(b[0]) != len(ids)]
        if not odd:
            raise
    for _, tied in odd:
        fault = "ties not allowed" if tied else "incomplete vote"
        raise ValueError(f"{path}: {fault} in a strict election")
    return election


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


@dataclass(frozen=True)
class PipelineConfig:
    """Settings for one dataset family."""

    prune: bool = False
    coverage_threshold: float = 0.70
    min_candidates: int = 10
    max_candidates: int | None = None
    top_k: int = 10
    min_voters: int | None = None
    samples_per_dataset: int = 15
    votes_per_sample: int = 100

    def __post_init__(self) -> None:
        if not 0 < self.coverage_threshold <= 1:
            raise ValueError("coverage threshold must lie in (0, 1]")
        if self.top_k < 1 or self.min_candidates < self.top_k:
            raise ValueError("need min_candidates >= top_k >= 1")


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
            profile, stats = prune_to_coverage(profile, config.coverage_threshold)
            record.update(stats)
        if profile.m < config.min_candidates:
            record["dropped"] = f"fewer than {config.min_candidates} candidates"
        elif config.max_candidates is not None and profile.m > config.max_candidates:
            record["dropped"] = f"more than {config.max_candidates} candidates"
        else:
            election = complete_votes(profile, derive_seed(seed, 1, idx))
            election = select_top_k(election, config.top_k)
            if config.min_voters is not None and election.n < config.min_voters:
                record["dropped"] = f"fewer than {config.min_voters} voters"
            else:
                record.update(kept=True, m=election.m, n=election.n)
                intermediates.append(election)
    if not intermediates:
        raise ValueError("no profile survived the pipeline filters")
    sampled = sample_dataset(
        intermediates,
        config.samples_per_dataset,
        config.votes_per_sample,
        derive_seed(seed, 2, 0),
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
