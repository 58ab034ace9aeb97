"""PrefLib-style profiles and the pipeline that turns them into elections.

The on-disk format is the classic PrefLib layout: a candidate count, one
``id, name`` line per candidate, a ``voters, sum_of_counts, distinct``
line, then one ``count, ranking`` line per distinct ballot.  Tie groups
appear in braces, partial ballots just stop early.  Incomplete profiles
pass through coverage pruning, random tie-breaking, and statistical vote
completion before they become strict-complete elections.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from .core import Election, borda_scores, restrict_to_candidates
from .cultures import derive_seed

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
        cands = tuple(int(c) for c in self.candidates)
        object.__setattr__(self, "candidates", cands)
        object.__setattr__(
            self,
            "votes",
            tuple(tuple(tuple(g) for g in v) for v in self.votes),
        )
        object.__setattr__(self, "multiplicities", tuple(self.multiplicities))
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
    groups: list[TieGroup] = []
    token = ""
    in_braces = False
    group_buf: list[int] = []

    def flush_single() -> None:
        tok = token.strip()
        if tok:
            groups.append((int(tok),))

    for ch in rest:
        if ch == "{":
            if in_braces:
                raise ValueError(f"line {lineno}: nested braces")
            in_braces = True
            group_buf = []
        elif ch == "}":
            if not in_braces:
                raise ValueError(f"line {lineno}: unbalanced braces")
            if token.strip():
                group_buf.append(int(token.strip()))
            token = ""
            in_braces = False
            if not group_buf:
                raise ValueError(f"line {lineno}: empty tie group")
            groups.append(tuple(group_buf))
        elif ch == ",":
            if in_braces:
                if token.strip():
                    group_buf.append(int(token.strip()))
                token = ""
            else:
                flush_single()
                token = ""
        else:
            token = token + ch
    if in_braces:
        raise ValueError(f"line {lineno}: unbalanced braces")
    flush_single()
    if not groups:
        raise ValueError(f"line {lineno}: empty ranking")
    return count, tuple(groups)


def parse_preflib(path: str | os.PathLike[str]) -> PartialProfile:
    """Parse a PrefLib-style file (strict, tied, or partial ballots)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    rows = [
        (idx + 1, ln.strip())
        for idx, ln in enumerate(lines)
        if ln.strip() and not ln.strip().startswith("#")
    ]
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

    votes: list[PartialVote] = []
    mults: list[int] = []
    for lineno, ln in it:
        try:
            count, vote = _parse_vote_line(ln, lineno)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        votes.append(vote)
        mults.append(count)

    if len(votes) != distinct:
        raise ValueError(
            f"{path}: header promises {distinct} distinct ballots, found {len(votes)}"
        )
    if sum(mults) != sum_counts:
        raise ValueError(
            f"{path}: ballot counts sum to {sum(mults)}, header says {sum_counts}"
        )
    if n_voters != sum_counts:
        raise ValueError(
            f"{path}: voter count {n_voters} != sum of counts {sum_counts}"
        )
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
    """Write a strict-complete election; candidate ids are 1..m by index."""
    counter = election.vote_counter()
    ordered = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
    with open(path, "w", encoding="utf-8") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        fh.write(f"{election.m}\n")
        for idx, cand in enumerate(election.candidates):
            fh.write(f"{idx + 1}, {cand}\n")
        fh.write(f"{election.n}, {election.n}, {len(ordered)}\n")
        for vote, count in ordered:
            fh.write(f"{count}, {','.join(str(c + 1) for c in vote)}\n")


def load_election(path: str | os.PathLike[str]) -> Election:
    """Parse a strict-complete file straight into an Election."""
    profile = parse_preflib(path)
    index_of = {cid: k for k, cid in enumerate(profile.candidates)}
    votes = []
    for vote in profile.votes:
        if any(len(g) != 1 for g in vote):
            raise ValueError(f"{path}: ties not allowed in a strict election")
        flat = tuple(index_of[g[0]] for g in vote)
        if len(flat) != profile.m:
            raise ValueError(f"{path}: incomplete vote in a strict election")
        votes.append(flat)
    return Election(
        candidates=profile.candidates,
        votes=tuple(votes),
        multiplicities=profile.multiplicities,
        meta={"source": str(path)},
    )


# ---------------------------------------------------------------------------
# pipeline stages


def prune_to_coverage(
    profile: PartialProfile, threshold: float = 0.70
) -> tuple[PartialProfile, dict[str, int]]:
    """Drop candidates and votes until both cover enough of the profile.

    A candidate must appear in at least ``threshold`` of the votes; a vote
    must rank at least ``threshold`` of the candidates.  The worst
    offender goes first (candidates before votes on equal badness, lowest
    index first) and coverage is recomputed after every removal.  Returns
    the pruned profile plus removal counts.
    """
    if not 0 < threshold <= 1:
        raise ValueError("threshold must lie in (0, 1]")
    cands = list(profile.candidates)
    votes = [list(v) for v in profile.votes]
    mults = list(profile.multiplicities)
    removed_candidates = 0
    removed_votes = 0

    while cands and votes:
        m = len(cands)
        n = sum(mults)
        cand_cov = {c: 0 for c in cands}
        vote_len = []
        for vote, k in zip(votes, mults):
            ranked = sum(len(g) for g in vote)
            vote_len.append(ranked)
            for group in vote:
                for c in group:
                    cand_cov[c] += k

        worst_cand = None
        worst_cand_cov = 1.0
        for idx, c in enumerate(cands):
            cov = cand_cov[c] / n
            if cov < threshold and cov < worst_cand_cov:
                worst_cand_cov = cov
                worst_cand = idx
        worst_vote = None
        worst_vote_cov = 1.0
        for idx, ranked in enumerate(vote_len):
            cov = ranked / m
            if cov < threshold and cov < worst_vote_cov:
                worst_vote_cov = cov
                worst_vote = idx

        if worst_cand is None and worst_vote is None:
            break
        # candidate wins ties on equal badness
        if worst_cand is not None and (
            worst_vote is None or worst_cand_cov <= worst_vote_cov
        ):
            gone = cands.pop(worst_cand)
            removed_candidates += 1
            new_votes = []
            new_mults = []
            for vote, k in zip(votes, mults):
                stripped = tuple(
                    tuple(c for c in group if c != gone) for group in vote
                )
                stripped = tuple(g for g in stripped if g)
                if stripped:
                    new_votes.append(list(stripped))
                    new_mults.append(k)
                else:
                    removed_votes += k
            votes = new_votes
            mults = new_mults
        else:
            del votes[worst_vote]
            removed_votes += mults[worst_vote]
            del mults[worst_vote]

    if not cands or not votes:
        raise ValueError("pruning removed the entire profile")
    pruned = PartialProfile(
        candidates=tuple(cands),
        votes=tuple(tuple(tuple(g) for g in v) for v in votes),
        multiplicities=tuple(mults),
        names=dict(profile.names),
        source=profile.source,
    )
    stats = {
        "removed_candidates": removed_candidates,
        "removed_votes": removed_votes,
    }
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
    index_of = {cid: k for k, cid in enumerate(profile.candidates)}

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
        votes.append(tuple(index_of[c] for c in v))

    return Election(
        candidates=profile.candidates,
        votes=tuple(votes),
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
        expanded = src.voter_votes()
        votes = tuple(
            expanded[rng.randrange(len(expanded))] for _ in range(votes_per_sample)
        )
        out.append(
            Election(
                candidates=src.candidates,
                votes=votes,
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
        if config.prune:
            profile, stats = prune_to_coverage(profile, config.coverage_threshold)
            record.update(stats)
        if profile.m < config.min_candidates:
            record["dropped"] = f"fewer than {config.min_candidates} candidates"
            records.append(record)
            continue
        if config.max_candidates is not None and profile.m > config.max_candidates:
            record["dropped"] = f"more than {config.max_candidates} candidates"
            records.append(record)
            continue
        election = complete_votes(profile, derive_seed(seed, 1, idx))
        election = select_top_k(election, config.top_k)
        if config.min_voters is not None and election.n < config.min_voters:
            record["dropped"] = f"fewer than {config.min_voters} voters"
            records.append(record)
            continue
        record["kept"] = True
        record["m"] = election.m
        record["n"] = election.n
        records.append(record)
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
