from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from prefmap.core import Election


@pytest.fixture
def worked_example() -> Election:
    """Six voters over candidates a, b, c: three report a>b>c, one b>a>c,
    two c>a>b."""
    return Election(
        candidates=("a", "b", "c"),
        votes=((0, 1, 2), (0, 1, 2), (0, 1, 2), (1, 0, 2), (2, 0, 1), (2, 0, 1)),
    )


def make_random_election(seed: int, m: int, n: int) -> Election:
    rng = random.Random(seed)
    votes = []
    for _ in range(n):
        v = list(range(m))
        rng.shuffle(v)
        votes.append(tuple(v))
    return Election(candidates=tuple(range(m)), votes=tuple(votes))


def weighted_permutations(weight, max_m: int = 6, max_size: int = 5):
    """Strategy: (weight, permutation) pairs over one m in 1..max_m."""
    return st.integers(1, max_m).flatmap(
        lambda m: st.lists(
            st.tuples(weight, st.permutations(range(m))), min_size=1, max_size=max_size
        )
    )


def stacked(parts):
    """sum(w * P) over the weighted permutation matrices P."""
    m = len(parts[0][1])
    rows = [[0] * m for _ in range(m)]
    for w, perm in parts:
        for i, c in enumerate(perm):
            rows[i][c] += w
    return rows


# Bytes that make or break the tokens of the text formats, plus 0xff,
# which is never valid UTF-8.
_NOISE = st.sampled_from([bytes([b]) for b in b"0123456789,{}/-+#.e \n\t\xff"])


def _apply_edits(data: bytes, edits) -> bytes:
    for op, where, noise in edits:
        at = where % (len(data) + 1)
        if op == "insert":
            data = data[:at] + noise + data[at:]
        elif op == "replace":
            data = data[:at] + noise + data[at + 1 :]
        else:
            data = data[:at] + data[at + 1 :]
    return data


def mutated(data: bytes):
    """Strategy: ``data`` after one to four single-byte edits."""
    edit = st.tuples(
        st.sampled_from(["insert", "replace", "delete"]), st.integers(0, 2**16), _NOISE
    )
    return st.lists(edit, min_size=1, max_size=4).map(lambda edits: _apply_edits(data, edits))
